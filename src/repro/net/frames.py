"""Length-prefixed wire frames carrying `WireMessage` bytes.

The simulated kernels hand `WireMessage` objects around by reference;
the real transport has to put every field on an actual wire.  A frame
is the full message — kind, sequence numbers, operation name,
signature hash, payload, enclosure refs and their kernel metadata,
the error code, the send timestamp and the piggybacked causal
`SpanContext` — in a fixed big-endian layout, so a message decoded on
the far side is *content-identical* to the one that was sent (the
round-trip property `tests/net/test_frames.py` pins for every field).

Framing on a stream is a 4-byte big-endian length prefix followed by
the frame body (`pack_frame` to write; `FrameReader` to de-frame
whatever a read produced — the node server's path; `read_frame` to
await exactly one frame — the depth-1 load client and `query_stats`);
the body itself starts with a one-byte version so the format can
evolve.  The in-process ``real-asyncio`` backend
(`repro.net.ideal_framed`) uses only `encode_frame` / `decode_frame`:
bodies, no stream.

Both directions work from a precompiled layout — a handful of
multi-field `struct.Struct`s around the four variable-length fields —
because a remote operation's cost on this path is fixed per-message
work, not bytes (docs/PERFORMANCE.md §2.4).  Every check a body gets
is made in one place, `walk_frame`, which answers any input with the
message's fields or a `FrameError`, nothing else; `decode_frame` builds
its `WireMessage` from them.  The node's path never builds one: it
walks each request (`NodeServer` maps `FrameError` to "drop the
connection") and answers with `reply_body`, the reply `encode_frame`
would give, spliced from the request's own bytes.  The bytes are
pinned by golden bodies in `tests/net/test_frames.py`; a change to
them is a `FRAME_VERSION` bump.
"""

from __future__ import annotations

import json
import struct
from itertools import starmap
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.links import EndRef
from repro.core.wire import ExceptionCode, MsgKind, SpanContext, WireMessage

if TYPE_CHECKING:  # pragma: no cover
    import asyncio

#: bump when the body layout changes; a mismatch raises `FrameError`
FRAME_VERSION = 1

#: the stream framing: 4-byte big-endian body length
LENGTH_PREFIX = struct.Struct(">I")

#: frames above this are a protocol violation, not a big message —
#: refuse before allocating (16 MiB)
MAX_FRAME_BYTES = 16 * 1024 * 1024

# A body is four precompiled fixed-layout runs around its four
# variable-length fields (opname, payload, enclosure refs, metadata):
_HEAD = struct.Struct(">BBqqQH")  # version, kind, seq, reply_to, sighash,
                                  # opname length
_U32 = struct.Struct(">I")        # payload length; metadata length
_ENCS = struct.Struct(">IH")      # enc_total, enclosure count
_ENC = struct.Struct(">qB")       # one enclosure: link, side
_TAIL = struct.Struct(">Bd")      # error, sent_at (exact float round-trip)
_SPAN = struct.Struct(">BQQQB")   # flags, trace_id, span_id, parent_id, pad
# `walk_frame` advances by one of these per field: as plain globals,
# because nine `.size` attribute loads are a tenth of a 2 us decode
_HEAD_SIZE, _U32_SIZE, _ENCS_SIZE = _HEAD.size, _U32.size, _ENCS.size
_ENC_SIZE, _TAIL_SIZE, _SPAN_SIZE = _ENC.size, _TAIL.size, _SPAN.size

_KINDS: Tuple[MsgKind, ...] = tuple(MsgKind)
_KIND_CODE = {kind: i for i, kind in enumerate(_KINDS)}
_ERRORS: Tuple[Optional[ExceptionCode], ...] = (None, *ExceptionCode)
_ERROR_CODE = {err: i for i, err in enumerate(_ERRORS)}

#: what a message that moves no link carries as enclosure metadata —
#: matched and emitted as a constant, not through a JSON round trip
_NO_META = b"[]"
#: the span run of a message outside any trace: the flags byte alone
_NO_SPAN = b"\x00"
#: a reply's head up to the opname length, which it copies from the
#: request, and its run between the payload and the span: no
#: enclosures, no metadata, no error, ``sent_at`` 0.0
_REPLY_HEAD = struct.Struct(_HEAD.format[:-1])
_REPLY_HEAD_SIZE, _REPLY = _REPLY_HEAD.size, _KIND_CODE[MsgKind.REPLY]
_REPLY_TAIL = b"".join((_ENCS.pack(0, 0), _U32.pack(len(_NO_META)), _NO_META,
                        _TAIL.pack(_ERROR_CODE[None], 0.0)))

_SPAN_PRESENT = 0x01
_SPAN_HAS_PARENT = 0x02
_SPAN_SAMPLED = 0x04
_U64 = 0xFFFFFFFFFFFFFFFF


class FrameError(ValueError):
    """A frame that cannot be encoded or decoded faithfully."""


def encode_frame(msg: WireMessage) -> bytes:
    """Serialise one `WireMessage` into a frame body (no length prefix)."""
    opname = msg.opname.encode("utf-8")
    if len(opname) > 0xFFFF:
        raise FrameError(f"opname too long for the wire: {len(opname)} bytes")
    payload = bytes(msg.payload)
    meta = _NO_META
    if msg.enclosure_meta:
        # kernel-defined dicts; JSON with sorted keys keeps the byte
        # stream deterministic for identical content
        meta = json.dumps(msg.enclosure_meta, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
    return b"".join((
        _HEAD.pack(FRAME_VERSION, _KIND_CODE[msg.kind], msg.seq,
                   msg.reply_to, msg.sighash, len(opname)),
        opname,
        _U32.pack(len(payload)),
        payload,
        _ENCS.pack(msg.enc_total, len(msg.enclosures)),
        *starmap(_ENC.pack, msg.enclosures),
        _U32.pack(len(meta)),
        meta,
        _TAIL.pack(_ERROR_CODE[msg.error], msg.sent_at),
        _span_run(msg.span),
    ))


def _span_run(span: Optional[SpanContext]) -> bytes:
    """The last run of a body: the span flags byte, and the span's ids
    when it has one."""
    return _NO_SPAN if span is None else _SPAN.pack(
        _SPAN_PRESENT
        | _SPAN_HAS_PARENT * (span.parent_id is not None)
        | _SPAN_SAMPLED * bool(span.sampled),
        span.trace_id & _U64, span.span_id & _U64,
        (span.parent_id or 0) & _U64, 0)


def walk_frame(body: bytes) -> Tuple[tuple, int]:
    """Check a frame body field by field: return the 12 fields of the
    `WireMessage` it carries, in declaration order, and the offset at
    which its payload ends — or raise `FrameError`.  Every check a body
    gets is made here, once: `decode_frame` and the node's replies
    (`reply_body`) both read through it."""
    try:
        version, kind, seq, reply_to, sighash, n = _HEAD.unpack_from(body, 0)
    except struct.error as exc:
        raise FrameError(f"truncated frame head: {exc}") from None
    if version != FRAME_VERSION:
        raise FrameError(f"frame version {version} != {FRAME_VERSION}")
    try:
        # a length that overruns the body leaves `off` past its end, and
        # the next `unpack_from` refuses that
        off = _HEAD_SIZE + n
        opname = body[_HEAD_SIZE:off].decode("utf-8")
        (n,) = _U32.unpack_from(body, off)
        off += _U32_SIZE + n
        payload, end = body[off - n:off], off
        enc_total, n_enc = _ENCS.unpack_from(body, off)
        off += _ENCS_SIZE
        enclosures: List[EndRef] = []
        for _ in range(n_enc):
            enclosures.append(EndRef(*_ENC.unpack_from(body, off)))
            off += _ENC_SIZE
        (n,) = _U32.unpack_from(body, off)
        off += _U32_SIZE + n
        meta = body[off - n:off]
        enclosure_meta = [] if meta == _NO_META \
            else json.loads(meta.decode("utf-8"))
        if not isinstance(enclosure_meta, list):
            raise FrameError("enclosure metadata is not a list")
        error, sent_at = _TAIL.unpack_from(body, off)
        off += _TAIL_SIZE
        span: Optional[SpanContext] = None
        if body[off] & _SPAN_PRESENT:
            flags, trace_id, span_id, parent_id, _pad = \
                _SPAN.unpack_from(body, off)
            off += _SPAN_SIZE
            span = SpanContext(
                trace_id, span_id,
                parent_id if flags & _SPAN_HAS_PARENT else None,
                bool(flags & _SPAN_SAMPLED))
        else:
            off += len(_NO_SPAN)
        fields = (_KINDS[kind], seq, reply_to, opname, sighash, payload,
                  enclosures, enclosure_meta, enc_total, _ERRORS[error],
                  sent_at, span)
    except (struct.error, IndexError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        raise FrameError(f"malformed frame: {exc}") from None
    if off != len(body):
        raise FrameError(
            f"frame carries {len(body) - off} trailing byte(s)"
        )
    return fields, end


def decode_frame(body: bytes) -> WireMessage:
    """Rebuild the `WireMessage` a frame body carries."""
    return WireMessage(*walk_frame(body)[0])


def reply_body(body: bytes, fields: tuple, end: int, seq: int) -> bytes:
    """The body of the REPLY, numbered ``seq``, that echoes the request
    `walk_frame` read from ``body`` as ``(fields, end)``: byte for byte
    what `encode_frame` gives for ``WireMessage(REPLY, seq, <its seq>,
    <its opname>, <its sighash>, <its payload>, sent_at=0.0, span=<its
    span>)``.  The request's opname and payload runs are copied as they
    are, length fields included: a checked body's UTF-8 re-encodes to
    the same bytes."""
    return b"".join((
        _REPLY_HEAD.pack(FRAME_VERSION, _REPLY, seq, fields[1], fields[4]),
        body[_REPLY_HEAD_SIZE:end], _REPLY_TAIL, _span_run(fields[11]),
    ))


def pack_frame(body: bytes) -> bytes:
    """Prefix a frame body with its 4-byte length for a stream."""
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"frame too large: {len(body)} bytes")
    return LENGTH_PREFIX.pack(len(body)) + body


async def read_frame(reader: "asyncio.StreamReader") -> bytes:
    """Read one frame body from an asyncio stream.  A length prefix
    above `MAX_FRAME_BYTES` raises `FrameError` before any of the body
    is read or allocated; a stream that ends early raises
    `asyncio.IncompleteReadError`, as ``readexactly`` does."""
    (n,) = LENGTH_PREFIX.unpack(await reader.readexactly(LENGTH_PREFIX.size))
    if n > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {n} exceeds the cap")
    return await reader.readexactly(n)


class FrameReader:
    """Incremental de-framer for chunks of a byte stream.

    Feed it whatever a socket produced; it yields complete frame
    bodies in order, enforcing the same cap as `read_frame`.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> List[bytes]:
        buf = self._buf
        buf += data
        out: List[bytes] = []
        unpack, head = LENGTH_PREFIX.unpack_from, LENGTH_PREFIX.size
        off, size = 0, len(buf)
        # scan with an offset and copy each body once, through a view;
        # the consumed bytes are cut off once per feed, not per frame
        with memoryview(buf) as view:
            while size - off >= head:
                (n,) = unpack(buf, off)
                if n > MAX_FRAME_BYTES:
                    raise FrameError(f"frame length {n} exceeds the cap")
                end = off + head + n
                if end > size:
                    break
                out.append(bytes(view[end - n:end]))
                off = end
        del buf[:off]
        return out

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)
