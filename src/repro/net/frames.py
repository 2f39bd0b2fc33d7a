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
the frame body (`pack_frame` to write; `read_frame` to read from an
asyncio stream, `FrameReader` to de-frame fed chunks); the body itself
starts with a one-byte version so the format can evolve.  The
in-process ``real-asyncio`` backend (`repro.net.ideal_framed`) uses
only `encode_frame` / `decode_frame`: bodies, no stream.
"""

from __future__ import annotations

import json
import struct
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.links import EndRef
from repro.core.wire import ExceptionCode, MsgKind, WireMessage
from repro.obs.causal import SpanContext

if TYPE_CHECKING:  # pragma: no cover
    import asyncio

#: bump when the body layout changes; a mismatch raises `FrameError`
FRAME_VERSION = 1

#: the stream framing: 4-byte big-endian body length
LENGTH_PREFIX = struct.Struct(">I")

#: frames above this are a protocol violation, not a big message —
#: refuse before allocating (16 MiB)
MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEAD = struct.Struct(">BBqqQ")          # version, kind, seq, reply_to, sighash
_F64 = struct.Struct(">d")               # sent_at (exact float round-trip)
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_ENC = struct.Struct(">qB")              # enclosure: link, side
_SPAN = struct.Struct(">QQQB")           # trace_id, span_id, parent_id, flags

_KINDS: Tuple[MsgKind, ...] = tuple(MsgKind)
_KIND_CODE = {kind: i for i, kind in enumerate(_KINDS)}
_ERRORS: Tuple[ExceptionCode, ...] = tuple(ExceptionCode)
_ERROR_CODE = {err: i + 1 for i, err in enumerate(_ERRORS)}  # 0 = no error

_SPAN_PRESENT = 0x01
_SPAN_HAS_PARENT = 0x02
_SPAN_SAMPLED = 0x04


class FrameError(ValueError):
    """A frame that cannot be encoded or decoded faithfully."""


def encode_frame(msg: WireMessage) -> bytes:
    """Serialise one `WireMessage` into a frame body (no length prefix)."""
    parts: List[bytes] = [
        _HEAD.pack(FRAME_VERSION, _KIND_CODE[msg.kind], msg.seq,
                   msg.reply_to, msg.sighash)
    ]
    opname = msg.opname.encode("utf-8")
    if len(opname) > 0xFFFF:
        raise FrameError(f"opname too long for the wire: {len(opname)} bytes")
    parts.append(_U16.pack(len(opname)))
    parts.append(opname)
    payload = bytes(msg.payload)
    parts.append(_U32.pack(len(payload)))
    parts.append(payload)
    parts.append(_U32.pack(msg.enc_total))
    parts.append(_U16.pack(len(msg.enclosures)))
    for ref in msg.enclosures:
        parts.append(_ENC.pack(ref.link, ref.side))
    # enclosure metadata is kernel-defined dicts; JSON with sorted keys
    # keeps the byte stream deterministic for identical content
    meta = json.dumps(msg.enclosure_meta, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    parts.append(_U32.pack(len(meta)))
    parts.append(meta)
    parts.append(bytes([_ERROR_CODE.get(msg.error, 0)]))
    parts.append(_F64.pack(msg.sent_at))
    span = msg.span
    if span is None:
        parts.append(b"\x00")
    else:
        flags = _SPAN_PRESENT
        if span.parent_id is not None:
            flags |= _SPAN_HAS_PARENT
        if span.sampled:
            flags |= _SPAN_SAMPLED
        parts.append(bytes([flags]))
        parts.append(_SPAN.pack(span.trace_id & 0xFFFFFFFFFFFFFFFF,
                                span.span_id & 0xFFFFFFFFFFFFFFFF,
                                (span.parent_id or 0) & 0xFFFFFFFFFFFFFFFF,
                                0))
    return b"".join(parts)


def decode_frame(body: bytes) -> WireMessage:
    """Rebuild the `WireMessage` a frame body carries."""
    try:
        version, kind_code, seq, reply_to, sighash = _HEAD.unpack_from(body, 0)
    except struct.error as exc:
        raise FrameError(f"truncated frame head: {exc}") from None
    if version != FRAME_VERSION:
        raise FrameError(f"frame version {version} != {FRAME_VERSION}")
    try:
        off = _HEAD.size
        (n,) = _U16.unpack_from(body, off)
        off += _U16.size
        opname = body[off:off + n].decode("utf-8")
        off += n
        (n,) = _U32.unpack_from(body, off)
        off += _U32.size
        payload = body[off:off + n]
        if len(payload) != n:
            raise FrameError("truncated payload")
        off += n
        (enc_total,) = _U32.unpack_from(body, off)
        off += _U32.size
        (n_enc,) = _U16.unpack_from(body, off)
        off += _U16.size
        enclosures: List[EndRef] = []
        for _ in range(n_enc):
            link, side = _ENC.unpack_from(body, off)
            off += _ENC.size
            enclosures.append(EndRef(link, side))
        (n,) = _U32.unpack_from(body, off)
        off += _U32.size
        enclosure_meta = json.loads(body[off:off + n].decode("utf-8"))
        off += n
        err_code = body[off]
        off += 1
        (sent_at,) = _F64.unpack_from(body, off)
        off += _F64.size
        flags = body[off]
        off += 1
        span: Optional[SpanContext] = None
        if flags & _SPAN_PRESENT:
            trace_id, span_id, parent_id, _pad = _SPAN.unpack_from(body, off)
            off += _SPAN.size
            span = SpanContext(
                trace_id=trace_id,
                span_id=span_id,
                parent_id=parent_id if flags & _SPAN_HAS_PARENT else None,
                sampled=bool(flags & _SPAN_SAMPLED),
            )
    except (struct.error, IndexError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        raise FrameError(f"malformed frame: {exc}") from None
    if off != len(body):
        raise FrameError(
            f"frame carries {len(body) - off} trailing byte(s)"
        )
    return WireMessage(
        kind=_KINDS[kind_code],
        seq=seq,
        reply_to=reply_to,
        opname=opname,
        sighash=sighash,
        payload=payload,
        enclosures=enclosures,
        enclosure_meta=enclosure_meta,
        enc_total=enc_total,
        error=_ERRORS[err_code - 1] if err_code else None,
        sent_at=sent_at,
        span=span,
    )


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
        self._buf.extend(data)
        out: List[bytes] = []
        while True:
            if len(self._buf) < LENGTH_PREFIX.size:
                return out
            (n,) = LENGTH_PREFIX.unpack_from(self._buf, 0)
            if n > MAX_FRAME_BYTES:
                raise FrameError(f"frame length {n} exceeds the cap")
            end = LENGTH_PREFIX.size + n
            if len(self._buf) < end:
                return out
            out.append(bytes(self._buf[LENGTH_PREFIX.size:end]))
            del self._buf[:end]

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)
