"""Unit tests for the wire-message layer."""

import pytest

from repro.core.exceptions import LynxError
from repro.core.links import EndRef
from repro.core.runtime import WIRE_ERRORS
from repro.core.wire import (
    ENCLOSURE_REF_BYTES,
    HEADER_BYTES,
    ExceptionCode,
    MsgKind,
    WireMessage,
)


def test_wire_size_accounts_header_name_payload_enclosures():
    msg = WireMessage(
        kind=MsgKind.REQUEST,
        seq=1,
        opname="lookup",
        payload=b"x" * 100,
        enclosures=[EndRef(1, 0), EndRef(2, 1)],
    )
    assert msg.wire_size == HEADER_BYTES + 6 + 100 + 2 * ENCLOSURE_REF_BYTES


def test_empty_message_has_header_only():
    msg = WireMessage(kind=MsgKind.ALLOW)
    assert msg.wire_size == HEADER_BYTES


def test_clone_for_resend_is_deep_enough():
    msg = WireMessage(
        kind=MsgKind.REQUEST,
        seq=3,
        opname="op",
        payload=b"data",
        enclosures=[EndRef(5, 0)],
        enclosure_meta=[{"obj": 9}],
        enc_total=1,
        error=ExceptionCode.TYPE_CLASH,
        sent_at=1.5,
    )
    clone = msg.clone_for_resend()
    assert clone is not msg
    assert clone.kind is msg.kind
    assert clone.seq == msg.seq
    assert clone.payload == msg.payload
    assert clone.enclosures == msg.enclosures
    assert clone.enclosures is not msg.enclosures
    assert clone.enclosure_meta == msg.enclosure_meta
    assert clone.enclosure_meta is not msg.enclosure_meta
    clone.enclosures.append(EndRef(6, 0))
    assert len(msg.enclosures) == 1


def test_kind_vocabulary_matches_the_paper():
    """§3.2.1/§3.2.2's message vocabulary, nothing more."""
    assert {k.value for k in MsgKind} == {
        "request", "reply", "exception",
        "retry", "forbid", "allow",       # §3.2.1
        "goahead", "enc",                  # §3.2.2
        "ack",                             # the rejected design (E7)
    }


def test_every_exception_code_names_the_error_it_raises():
    """`WIRE_ERRORS` is what an EXCEPTION message means to the thread
    whose connect it answers: a code without a row would be a KeyError
    in the dispatcher, not a LYNX exception in that thread."""
    assert set(WIRE_ERRORS) == set(ExceptionCode)
    for error, text in WIRE_ERRORS.values():
        assert issubclass(error, LynxError) and text
