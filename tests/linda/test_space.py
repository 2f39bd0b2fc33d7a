"""Unit tests for the kernel-free tuple-space engine."""

import pytest

from repro.linda.space import ANY, TupleSpace, match


# ---------------------------------------------------------------- match
def test_match_arity():
    assert not match((1,), (1, 2))
    assert match((), ())


def test_match_values_types_wildcards():
    assert match((1, "a"), (1, "a"))
    assert not match((1, "a"), (1, "b"))
    assert match((int, str), (5, "x"))
    assert not match((int, str), ("x", 5))
    assert match((ANY, ANY), (object(), 3.14))
    assert match(("job", int, ANY), ("job", 7, b"blob"))


def test_match_bool_vs_int():
    # bool is a subclass of int: type-pattern int matches True
    assert match((int,), (True,))
    # but a VALUE pattern 1 matches True only by equality (it does)
    assert match((1,), (True,))


# ----------------------------------------------------------- tuple flow
def test_try_match_take_removes_oldest():
    s = TupleSpace()
    s.out(("t", 1))
    s.out(("t", 2))
    assert s.match_or_park(("t", ANY), take=True, token="w") == ("t", 1)
    assert s.match_or_park(("t", ANY), take=True, token="w") == ("t", 2)
    assert s.waiters == []
    # no match left: the query parks instead
    assert s.match_or_park(("t", ANY), take=True, token="w") is None
    assert [w.token for w in s.waiters] == ["w"]


def test_try_match_read_keeps_tuple():
    s = TupleSpace()
    s.out(("t", 1))
    assert s.match_or_park(("t", ANY), take=False, token="r") == ("t", 1)
    assert len(s) == 1
    assert s.waiters == []


def test_out_wakes_single_taker_oldest_first():
    s = TupleSpace()
    s.match_or_park(("t", ANY), take=True, token="first")
    s.match_or_park(("t", ANY), take=True, token="second")
    w2 = s.waiters[1]
    satisfied = s.out(("t", 9))
    assert [(w.token, t) for w, t in satisfied] == [("first", ("t", 9))]
    assert w2 in s.waiters  # still blocked
    assert len(s) == 0  # consumed by the taker


def test_out_wakes_readers_before_the_taker_and_keeps_order():
    s = TupleSpace()
    s.match_or_park(("t", ANY), take=False, token="r1")
    s.match_or_park(("t", ANY), take=True, token="t1")
    s.match_or_park(("t", ANY), take=False, token="r2")
    satisfied = s.out(("t", 1))
    tokens = [w.token for w, _ in satisfied]
    # readers senior to the taker see it; the taker consumes it; the
    # junior reader does not see this tuple
    assert tokens == ["r1", "t1"]
    assert [w.token for w in s.waiters] == ["r2"]
    assert len(s) == 0


def test_out_with_only_readers_keeps_the_tuple():
    s = TupleSpace()
    s.match_or_park((ANY,), take=False, token="r")
    satisfied = s.out((5,))
    assert [w.token for w, _ in satisfied] == ["r"]
    assert len(s) == 1  # read, not consumed


def test_unmatched_out_just_stores():
    s = TupleSpace()
    s.match_or_park(("x",), take=True, token="w")
    assert s.out(("y",)) == []
    assert len(s) == 1
    assert len(s.waiters) == 1
