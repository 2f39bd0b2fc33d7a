"""The frame codec round-trips every `WireMessage` field faithfully.

The simulated kernels pass messages by reference, so nothing ever
tested that a message *survives serialisation*.  The real transport
does nothing else — these tests pin the round-trip property field by
field, plus the failure modes (`FrameError`) a real wire can produce.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.links import EndRef
from repro.core.wire import ExceptionCode, MsgKind, WireMessage
from repro.net.frames import (
    FRAME_VERSION,
    LENGTH_PREFIX,
    MAX_FRAME_BYTES,
    FrameError,
    FrameReader,
    decode_frame,
    encode_frame,
    pack_frame,
    reply_body,
    walk_frame,
)
from repro.obs.causal import SpanContext


def _rt(msg):
    return decode_frame(encode_frame(msg))


def test_minimal_message_roundtrips():
    msg = WireMessage(kind=MsgKind.REQUEST)
    assert _rt(msg) == msg


def test_full_message_roundtrips_every_field():
    msg = WireMessage(
        kind=MsgKind.REQUEST,
        seq=12345,
        reply_to=-7,
        opname="transfer_funds",
        sighash=(1 << 63) + 99,  # unsigned 64-bit: must not overflow
        payload=b"\x00\xffbinary\x01",
        enclosures=[EndRef(3, 0), EndRef(41, 1)],
        enclosure_meta=[{}, {}],
        enc_total=2,
        error=ExceptionCode.REQUEST_ABORTED,
        sent_at=1234.5625,  # exact in binary64
        span=SpanContext(trace_id=2**64 - 1, span_id=17, parent_id=9,
                         sampled=True),
    )
    assert _rt(msg) == msg


@pytest.mark.parametrize("kind", list(MsgKind))
def test_every_kind_roundtrips(kind):
    assert _rt(WireMessage(kind=kind)).kind is kind


@pytest.mark.parametrize("error", [None] + list(ExceptionCode))
def test_every_error_code_roundtrips(error):
    assert _rt(WireMessage(kind=MsgKind.EXCEPTION, error=error)).error is error


@pytest.mark.parametrize("span", [
    None,
    SpanContext(trace_id=1, span_id=2),
    SpanContext(trace_id=1, span_id=2, parent_id=0),  # 0 is a real parent
    SpanContext(trace_id=1, span_id=2, parent_id=3, sampled=False),
])
def test_span_flag_combinations_roundtrip(span):
    assert _rt(WireMessage(kind=MsgKind.REPLY, span=span)).span == span


def test_unicode_opname_roundtrips():
    msg = WireMessage(kind=MsgKind.REQUEST, opname="réponse_λ")
    assert _rt(msg).opname == "réponse_λ"


def test_overlong_opname_refused():
    msg = WireMessage(kind=MsgKind.REQUEST, opname="x" * 70000)
    with pytest.raises(FrameError, match="opname too long"):
        encode_frame(msg)


def test_wrong_version_refused():
    body = bytearray(encode_frame(WireMessage(kind=MsgKind.REQUEST)))
    body[0] = FRAME_VERSION + 1
    with pytest.raises(FrameError, match="version"):
        decode_frame(bytes(body))


def test_truncated_body_refused():
    body = encode_frame(WireMessage(kind=MsgKind.REQUEST, payload=b"abc"))
    with pytest.raises(FrameError):
        decode_frame(body[:-2])
    with pytest.raises(FrameError, match="head"):
        decode_frame(body[:3])


def test_trailing_bytes_refused():
    body = encode_frame(WireMessage(kind=MsgKind.REQUEST))
    with pytest.raises(FrameError, match="trailing"):
        decode_frame(body + b"\x00")


def _with_byte(body, at, value):
    return body[:at] + bytes([value]) + body[at + 1:]


def test_unknown_kind_and_error_bytes_refused():
    body = encode_frame(WireMessage(kind=MsgKind.REQUEST))
    with pytest.raises(FrameError):
        decode_frame(_with_byte(body, 1, len(MsgKind)))
    error_at = len(body) - 10  # error, then 8 of sent_at, then span flags
    assert decode_frame(_with_byte(body, error_at, len(ExceptionCode))).error
    with pytest.raises(FrameError):
        decode_frame(_with_byte(body, error_at, len(ExceptionCode) + 1))


@pytest.mark.parametrize("meta", [b"7 ", b"{}", b'""'])
def test_enclosure_meta_that_is_not_a_list_refused(meta):
    body = encode_frame(WireMessage(kind=MsgKind.REQUEST))
    assert body.count(b"[]") == 1
    with pytest.raises(FrameError, match="not a list"):
        decode_frame(body.replace(b"[]", meta))


def test_pack_frame_refuses_oversize():
    with pytest.raises(FrameError, match="too large"):
        pack_frame(b"x" * (MAX_FRAME_BYTES + 1))


def test_reader_reassembles_byte_by_byte():
    bodies = [
        encode_frame(WireMessage(kind=MsgKind.REQUEST, seq=i,
                                 payload=bytes([i]) * i))
        for i in range(1, 5)
    ]
    stream = b"".join(pack_frame(b) for b in bodies)
    reader = FrameReader()
    out = []
    for i in range(len(stream)):
        out.extend(reader.feed(stream[i:i + 1]))
    assert out == bodies
    assert reader.pending_bytes == 0


def test_reader_yields_multiple_frames_from_one_feed():
    bodies = [encode_frame(WireMessage(kind=MsgKind.ACK, seq=i))
              for i in range(3)]
    reader = FrameReader()
    assert reader.feed(b"".join(pack_frame(b) for b in bodies)) == bodies


def test_reader_refuses_absurd_length_prefix():
    reader = FrameReader()
    with pytest.raises(FrameError, match="exceeds the cap"):
        reader.feed(LENGTH_PREFIX.pack(MAX_FRAME_BYTES + 1))


# -- the wire format itself --------------------------------------------
_PING = WireMessage(kind=MsgKind.REQUEST, seq=1, opname="ping", sighash=100,
                    payload=b"x" * 32, sent_at=0.0)
_PING_REPLY = WireMessage(kind=MsgKind.REPLY, seq=1, reply_to=1,
                          opname="ping", sighash=100, payload=b"x" * 32,
                          sent_at=0.0)
_EVERYTHING = WireMessage(
    kind=MsgKind.EXCEPTION, seq=12345, reply_to=-7, opname="réponse_λ",
    sighash=(1 << 63) + 99, payload=b"\x00\xffbinary\x01",
    enclosures=[EndRef(3, 0), EndRef(41, 1)],
    enclosure_meta=[{"owner": "n1", "hint": 7}, {}], enc_total=2,
    error=ExceptionCode.REQUEST_ABORTED, sent_at=1234.5625,
    span=SpanContext(trace_id=2**64 - 1, span_id=17, parent_id=0,
                     sampled=False),
)

#: frame bodies as PR 16's `encode_frame` (FRAME_VERSION 1) produced
#: them.  A byte that moves here changes what a node of another commit
#: reads: bump `FRAME_VERSION` and regenerate, never just edit.
GOLDEN_BODIES = [
    (WireMessage(kind=MsgKind.REQUEST),
     "0100000000000000000000000000000000000000000000000000000000000000"
     "000000000000000000025b5d00000000000000000000"),
    # perf/netgen.py's 32-byte ping: these 90 bytes + the 4-byte prefix
    # are the benchmark's net.frames.bytes_per_msg = 94
    (_PING,
     "0100000000000000000100000000000000000000000000000064000470696e67"
     "0000002078787878787878787878787878787878787878787878787878787878"
     "78787878000000000000000000025b5d00000000000000000000"),
    # the node's reply to that ping (its first reply: seq 1), as
    # `NodeServer` built it before it answered from the request's bytes
    (_PING_REPLY,
     "0101000000000000000100000000000000010000000000000064000470696e67"
     "0000002078787878787878787878787878787878787878787878787878787878"
     "78787878000000000000000000025b5d00000000000000000000"),
    (_EVERYTHING,
     "01020000000000003039fffffffffffffff98000000000000063000b72c3a970"
     "6f6e73655fcebb0000000900ff62696e61727901000000020002000000000000"
     "0003000000000000000029010000001c5b7b2268696e74223a372c226f776e65"
     "72223a226e31227d2c7b7d5d0340934a400000000003ffffffffffffffff0000"
     "000000000011000000000000000000"),
]


@pytest.mark.parametrize("msg, golden", GOLDEN_BODIES,
                         ids=["minimal", "ping", "ping-reply", "everything"])
def test_golden_bodies_are_byte_equal(msg, golden):
    assert FRAME_VERSION == 1
    assert encode_frame(msg).hex() == golden
    assert decode_frame(bytes.fromhex(golden)) == msg


def test_walk_frame_reads_the_fields_and_where_the_payload_ends():
    body = encode_frame(_EVERYTHING)
    fields, end = walk_frame(body)
    assert WireMessage(*fields) == _EVERYTHING
    assert body[end - len(_EVERYTHING.payload):end] == _EVERYTHING.payload


def test_the_reply_to_the_ping_is_the_golden_body():
    """`reply_body` builds the node's reply from the request's bytes:
    the golden ping-reply body, not a re-encoding."""
    body = encode_frame(_PING)
    msg, golden = GOLDEN_BODIES[2]
    assert msg is _PING_REPLY
    assert reply_body(body, *walk_frame(body), 1).hex() == golden


_u64 = st.integers(min_value=0, max_value=2**64 - 1)
_i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_json_scalars = st.one_of(st.none(), st.booleans(), _i64, st.text(max_size=8))
_messages = st.builds(
    WireMessage,
    kind=st.sampled_from(MsgKind),
    seq=_i64,
    reply_to=_i64,
    opname=st.text(max_size=24),
    sighash=_u64,
    payload=st.binary(max_size=64),
    enclosures=st.lists(st.builds(EndRef, _i64, st.integers(0, 1)),
                        max_size=3),
    enclosure_meta=st.lists(
        st.dictionaries(st.text(max_size=8), _json_scalars, max_size=3),
        max_size=3),
    enc_total=st.integers(min_value=0, max_value=2**32 - 1),
    error=st.sampled_from([None] + list(ExceptionCode)),
    sent_at=st.floats(allow_nan=False),
    span=st.one_of(st.none(), st.builds(
        SpanContext, trace_id=_u64, span_id=_u64,
        parent_id=st.one_of(st.none(), _u64), sampled=st.booleans())),
)


@settings(max_examples=300, deadline=None)
@given(_messages)
def test_any_message_roundtrips(msg):
    assert _rt(msg) == msg


@settings(max_examples=500, deadline=None)
@given(msg=_messages, at=st.integers(min_value=0),
       value=st.integers(0, 255), truncate=st.booleans())
@example(msg=_PING, at=1, value=len(MsgKind), truncate=False)
@example(msg=_EVERYTHING, at=1, value=255, truncate=False)
def test_a_damaged_body_is_a_message_or_a_frame_error(
        msg, at, value, truncate):
    """One mutated byte, or truncation at any byte, of any valid body:
    `decode_frame` answers with a well-formed message or `FrameError`
    — no other exception reaches the connection loop."""
    body = encode_frame(msg)
    at %= len(body)
    damaged = body[:at] if truncate else _with_byte(body, at, value)
    try:
        out = decode_frame(damaged)
    except FrameError:
        return
    assert type(out) is WireMessage and type(out.enclosure_meta) is list
