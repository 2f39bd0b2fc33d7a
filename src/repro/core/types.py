"""The LYNX operation type system.

LYNX is strongly typed: a remote operation has a name and typed request
and reply parameter lists, and the run-time packages "perform type
checking" on every message (§3.3).  We implement a small structural
type system sufficient for the paper's workloads:

* scalars: ``INT`` (64-bit signed), ``REAL`` (double), ``BOOL``,
  ``STR`` (utf-8), ``BYTES``;
* ``LINK`` — a link end; including one in a message *moves* it (§2.1);
* ``ArrayType(elem)`` — variable-length homogeneous sequence;
* ``RecordType(name, fields)`` — named product type.

`Operation` bundles a name with request/reply signatures and provides a
stable 64-bit signature hash; the hash travels in message headers so a
receiver can confirm "operation names and types" (§3.3) without
trusting the sender.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Sequence, Tuple

from repro.core.exceptions import TypeClash
from repro.core.links import EndRef


class LynxType:
    """Base class for LYNX types.  Instances are immutable and hashable;
    equality is structural."""

    #: single-character tag used in signature strings and wire encoding
    tag: str = "?"

    def describe(self) -> str:
        """Canonical signature substring for this type."""
        return self.tag

    def check(self, value: Any, path: str = "value") -> None:
        """Raise `TypeClash` unless ``value`` inhabits this type."""
        raise NotImplementedError

    def contains_link(self) -> bool:
        """Whether values of this type can carry link ends (drives the
        enclosure scan in the codec)."""
        return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LynxType) and self.describe() == other.describe()

    def __hash__(self) -> int:
        return hash(self.describe())

    def __repr__(self) -> str:
        return f"<LynxType {self.describe()}>"


class _IntType(LynxType):
    tag = "i"

    def check(self, value: Any, path: str = "value") -> None:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeClash(f"{path}: expected INT, got {type(value).__name__}")
        if not (-(2**63) <= value < 2**63):
            raise TypeClash(f"{path}: INT out of 64-bit range")


class _RealType(LynxType):
    tag = "r"

    def check(self, value: Any, path: str = "value") -> None:
        if not isinstance(value, float):
            raise TypeClash(f"{path}: expected REAL, got {type(value).__name__}")


class _BoolType(LynxType):
    tag = "b"

    def check(self, value: Any, path: str = "value") -> None:
        if not isinstance(value, bool):
            raise TypeClash(f"{path}: expected BOOL, got {type(value).__name__}")


class _StrType(LynxType):
    tag = "s"

    def check(self, value: Any, path: str = "value") -> None:
        if not isinstance(value, str):
            raise TypeClash(f"{path}: expected STR, got {type(value).__name__}")


class _BytesType(LynxType):
    tag = "y"

    def check(self, value: Any, path: str = "value") -> None:
        if not isinstance(value, (bytes, bytearray)):
            raise TypeClash(f"{path}: expected BYTES, got {type(value).__name__}")


class _LinkType(LynxType):
    tag = "L"

    def check(self, value: Any, path: str = "value") -> None:
        # LinkEnd handles are runtime objects; avoid a circular import by
        # duck-typing on the attribute the codec uses.
        if not hasattr(value, "end_ref"):
            raise TypeClash(f"{path}: expected LINK, got {type(value).__name__}")

    def contains_link(self) -> bool:
        return True


class ArrayType(LynxType):
    """Variable-length array of a fixed element type."""

    def __init__(self, elem: LynxType) -> None:
        self.elem = elem
        self.tag = "a"

    def describe(self) -> str:
        return f"a[{self.elem.describe()}]"

    def check(self, value: Any, path: str = "value") -> None:
        # an `EndRef` is a tuple by representation only: an identity,
        # never an array of two INTs
        if not isinstance(value, (list, tuple)) or isinstance(value, EndRef):
            raise TypeClash(f"{path}: expected array, got {type(value).__name__}")
        for i, v in enumerate(value):
            self.elem.check(v, f"{path}[{i}]")

    def contains_link(self) -> bool:
        return self.elem.contains_link()


class RecordType(LynxType):
    """Named record with ordered, typed fields.  Values are dicts."""

    def __init__(self, name: str, fields: Sequence[Tuple[str, LynxType]]) -> None:
        self.name = name
        self.fields = tuple(fields)
        self.tag = "R"

    def describe(self) -> str:
        inner = ",".join(f"{n}:{t.describe()}" for n, t in self.fields)
        return f"R{self.name}({inner})"

    def check(self, value: Any, path: str = "value") -> None:
        if not isinstance(value, dict):
            raise TypeClash(f"{path}: expected record, got {type(value).__name__}")
        expected = {n for n, _ in self.fields}
        got = set(value.keys())
        if expected != got:
            raise TypeClash(
                f"{path}: record fields {sorted(got)} != expected {sorted(expected)}"
            )
        for n, t in self.fields:
            t.check(value[n], f"{path}.{n}")

    def contains_link(self) -> bool:
        return any(t.contains_link() for _, t in self.fields)


#: singleton scalar types
INT = _IntType()
REAL = _RealType()
BOOL = _BoolType()
STR = _StrType()
BYTES = _BytesType()
LINK = _LinkType()


def check_args(
    types: Sequence[LynxType], values: Sequence[Any], what: str = "args"
) -> None:
    """Check an argument tuple against a signature."""
    if len(types) != len(values):
        raise TypeClash(
            f"{what}: arity mismatch, expected {len(types)} got {len(values)}"
        )
    for i, (t, v) in enumerate(zip(types, values)):
        t.check(v, f"{what}[{i}]")


class Operation:
    """A typed remote operation: name + request/reply signatures.

    The same `Operation` object (or a structurally identical one) must
    be used by requester and server; the 64-bit `sighash` travels in
    every request and reply header so mismatches surface as `TypeClash`
    rather than garbage decode.

    An `Operation` is a value: ``signature`` (the canonical string,
    e.g. ``get(s)->(y,i)``) and ``sighash`` (a stable 64-bit hash of
    it) are computed at construction, and assigning to any attribute
    afterwards raises `AttributeError` — the header hash cannot come
    to describe a signature the codec no longer uses.  So are the span
    names every RPC of it records (``connect_span``, ``serve_span``):
    a trace row then shares one string instead of keeping its own.
    """

    def __init__(
        self,
        name: str,
        request: Sequence[LynxType] = (),
        reply: Sequence[LynxType] = (),
    ) -> None:
        request = tuple(request)
        reply = tuple(reply)
        req = ",".join(t.describe() for t in request)
        rep = ",".join(t.describe() for t in reply)
        signature = f"{name}({req})->({rep})"
        data = signature.encode()
        sighash = (zlib.crc32(data) << 32) | zlib.crc32(data[::-1])
        # derived here, once, and stored past `__setattr__`, which keeps
        # them describing the signature the codec uses
        self.__dict__.update(
            name=name, request=request, reply=reply,
            signature=signature, sighash=sighash,
            connect_span=f"connect:{name}", serve_span=f"serve:{name}",
        )

    def __setattr__(self, attr: str, value: Any) -> None:
        raise AttributeError(
            f"Operation is immutable: cannot assign to {attr!r} (the "
            "sighash in every message header is computed once)"
        )

    def check_request(self, args: Sequence[Any]) -> None:
        check_args(self.request, args, f"{self.name}.request")

    def check_reply(self, results: Sequence[Any]) -> None:
        check_args(self.reply, results, f"{self.name}.reply")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Operation) and self.signature == other.signature

    def __hash__(self) -> int:
        return hash(self.signature)

    def __repr__(self) -> str:
        return f"<Operation {self.signature}>"
