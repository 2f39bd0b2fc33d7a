"""Unit tests for the LYNX type system."""

import pytest

from repro.core.exceptions import TypeClash
from repro.core.links import EndRef, LinkEnd
from repro.core.types import (
    ArrayType,
    BOOL,
    BYTES,
    INT,
    LINK,
    Operation,
    REAL,
    RecordType,
    STR,
    check_args,
)


def test_scalar_checks_accept_correct_values():
    INT.check(42)
    INT.check(-(2**63))
    REAL.check(3.14)
    BOOL.check(True)
    STR.check("hi")
    BYTES.check(b"raw")
    BYTES.check(bytearray(b"raw"))
    LINK.check(LinkEnd(EndRef(1, 0)))


@pytest.mark.parametrize(
    "typ,bad",
    [
        (INT, 3.14),
        (INT, True),  # bool is not INT
        (INT, 2**63),  # out of range
        (REAL, 7),
        (BOOL, 1),
        (STR, b"bytes"),
        (BYTES, "str"),
        (LINK, 42),
    ],
)
def test_scalar_checks_reject_wrong_values(typ, bad):
    with pytest.raises(TypeClash):
        typ.check(bad)


def test_array_type_checks_elements():
    t = ArrayType(INT)
    t.check([1, 2, 3])
    t.check(())
    with pytest.raises(TypeClash):
        t.check([1, "x"])
    with pytest.raises(TypeClash):
        t.check(5)


def test_record_type_checks_fields():
    t = RecordType("point", [("x", INT), ("y", INT)])
    t.check({"x": 1, "y": 2})
    with pytest.raises(TypeClash):
        t.check({"x": 1})  # missing field
    with pytest.raises(TypeClash):
        t.check({"x": 1, "y": 2, "z": 3})  # extra field
    with pytest.raises(TypeClash):
        t.check({"x": 1, "y": "two"})


def test_structural_equality_and_hash():
    a = RecordType("p", [("x", INT)])
    b = RecordType("p", [("x", INT)])
    c = RecordType("p", [("x", REAL)])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert ArrayType(INT) == ArrayType(INT)
    assert ArrayType(INT) != ArrayType(STR)


def test_contains_link_propagates():
    assert LINK.contains_link()
    assert not INT.contains_link()
    assert ArrayType(LINK).contains_link()
    assert not ArrayType(INT).contains_link()
    assert RecordType("r", [("a", INT), ("l", LINK)]).contains_link()
    assert not RecordType("r", [("a", INT)]).contains_link()


def test_check_args_arity():
    with pytest.raises(TypeClash):
        check_args((INT, STR), (1,))
    check_args((INT, STR), (1, "a"))


def test_operation_signature_and_hash_stability():
    op1 = Operation("get", (STR,), (BYTES, INT))
    op2 = Operation("get", (STR,), (BYTES, INT))
    assert op1.signature == "get(s)->(y,i)"
    assert op1.sighash == op2.sighash
    assert op1 == op2


def test_operation_hash_distinguishes_signatures():
    base = Operation("get", (STR,), (BYTES,))
    assert base.sighash != Operation("put", (STR,), (BYTES,)).sighash
    assert base.sighash != Operation("get", (INT,), (BYTES,)).sighash
    assert base.sighash != Operation("get", (STR,), (STR,)).sighash


def test_operation_check_request_and_reply():
    op = Operation("sum", (INT, INT), (INT,))
    op.check_request((1, 2))
    op.check_reply((3,))
    with pytest.raises(TypeClash):
        op.check_request((1, "x"))
    with pytest.raises(TypeClash):
        op.check_reply((1, 2))


def test_an_end_ref_is_not_an_array():
    """`EndRef` is a tuple by representation only.  Programs hold
    `LinkEnd`s, but ``link.end_ref`` is reachable: it must not pass for
    an array of two INTs."""
    with pytest.raises(TypeClash, match="expected array, got EndRef"):
        ArrayType(INT).check(EndRef(3, 0))
    with pytest.raises(TypeClash):
        Operation("sum", (ArrayType(INT),)).check_request((EndRef(3, 0),))
    ArrayType(INT).check((3, 0))  # the plain pair still is one


# ----------------------------------------------------------------------
# an `Operation` is a value: its screening hash (paper lesson 2) is
# derived once and cannot go stale
# ----------------------------------------------------------------------
def test_structurally_identical_operations_are_one_value():
    op1 = Operation("get", (STR, ArrayType(INT)), (BYTES,))
    op2 = Operation("get", [STR, ArrayType(INT)], [BYTES])
    assert op1 is not op2
    assert op1 == op2
    assert hash(op1) == hash(op2)
    assert {op1: "served"}[op2] == "served"
    assert op1 != Operation("get", (STR, ArrayType(STR)), (BYTES,))
    assert op1 != "get(s,a[i])->(y)"


def test_the_sighash_on_the_wire_has_not_moved():
    """Literals taken from the parent commit: this is the value in
    every request and reply header, which no byte count sees."""
    from repro.workloads.rpc import PING

    assert PING.signature == "ping(y)->(y)"
    assert PING.sighash == 0x535EA6C12413A852
    nested = Operation(
        "get", (STR, ArrayType(INT)),
        (RecordType("r", (("a", INT), ("l", LINK))),),
    )
    assert nested.signature == "get(s,a[i])->(Rr(a:i,l:L))"
    assert nested.sighash == 13709795906076811513


def test_the_signature_is_built_once():
    described = []

    class Counted(type(INT)):
        def describe(self):
            described.append(self)
            return super().describe()

    a, b = Counted(), Counted()
    op = Operation("count", (a,), (b,))
    for _ in range(3):
        assert op.sighash == Operation("count", (INT,), (INT,)).sighash
        assert op.signature == "count(i)->(i)"
        assert op == op and hash(op) == hash(op.signature)
    assert described == [a, b]


@pytest.mark.parametrize(
    "attr", ("name", "request", "reply", "signature", "sighash", "extra")
)
def test_an_operation_cannot_be_assigned_to(attr):
    """``op.request = ...`` after first use would leave the header
    hash describing a signature the codec no longer uses."""
    op = Operation("get", (STR,), (BYTES,))
    before = (op.name, op.request, op.reply, op.signature, op.sighash)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(op, attr, ())
    assert (op.name, op.request, op.reply, op.signature, op.sighash) == before
