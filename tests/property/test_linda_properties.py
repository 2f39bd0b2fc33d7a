"""Property tests for the tuple-space engine and cross-kernel
equivalence of the mini-Linda adapters."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.linda import ANY, make_linda
from repro.linda.space import TupleSpace, match

tuples = st.tuples(
    st.sampled_from(["a", "b", "c"]),
    st.integers(min_value=0, max_value=3),
)


@given(st.lists(st.tuples(st.sampled_from(["out", "take", "read"]), tuples),
                max_size=30))
@settings(max_examples=200, deadline=None)
def test_space_conserves_tuples(script):
    """Model-level conservation: tuples present = outs - takes, where
    a take either matches at once or parks and consumes a later out;
    reads never change the census; a query parks only when nothing
    present matches it."""
    s = TupleSpace()
    outs = 0
    takes = 0
    for op, tup in script:
        if op == "out":
            outs += 1
            takes += sum(w.take for w, _ in s.out(tup))
        else:
            before = len(s)
            parked = len(s.waiters)
            got = s.match_or_park(tup, take=(op == "take"), token=op)
            if got is None:
                assert len(s) == before
                assert len(s.waiters) == parked + 1
            else:
                assert match(tup, got)
                takes += op == "take"
                assert len(s) == before - (op == "take")
    assert len(s) == outs - takes


@given(st.lists(tuples, min_size=1, max_size=8), st.integers(0, 7))
@settings(max_examples=100, deadline=None)
def test_waiters_never_coexist_with_matches(script, wait_idx):
    """After any out sequence, a blocked taker for a pattern that now
    matches something is impossible: out() must have released it."""
    s = TupleSpace()
    pattern = (ANY, script[wait_idx % len(script)][1])
    released = []
    s.match_or_park(pattern, take=True, token="w")
    w = s.waiters[0]
    for tup in script:
        for waiter, served in s.out(tup):
            released.append((waiter.token, served))
    if released:
        assert released[0][0] == "w"
        assert match(pattern, released[0][1])
        assert w not in s.waiters
    else:
        # nothing matched; the waiter must still be parked and no
        # stored tuple may match its pattern
        assert w in s.waiters
        assert s.match_or_park(pattern, take=False, token="r") is None


@pytest.mark.parametrize("seed", [0, 1])
def test_adapters_agree_on_final_results(seed):
    """The same seeded Linda script yields the same multiset of results
    on all three kernels (timing differs wildly; outcomes must not)."""
    import random

    def run(kind):
        rng = random.Random(seed)
        system = make_linda(kind)
        results = []

        def producer(c):
            for i in range(6):
                yield from c.out(("item", rng.randint(0, 2), i))
            yield from c.close()

        def consumer(c, tag):
            for _ in range(3):
                tup = yield from c.take(("item", ANY, ANY))
                results.append(tup)
            yield from c.close()

        system.spawn(producer(system.client("p")))
        system.spawn(consumer(system.client("c1"), 1))
        system.spawn(consumer(system.client("c2"), 2))
        system.run_until_quiet(max_ms=1e6)
        assert system.all_finished
        return sorted(results, key=str)

    base = run("soda")
    assert run("chrysalis") == base
    assert run("charlotte") == base
