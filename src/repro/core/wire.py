"""Wire messages: what one LYNX run-time package says to another.

A `WireMessage` is the runtime-to-runtime unit.  Its `kind` vocabulary
is exactly the message vocabulary the paper develops:

* ``REQUEST`` / ``REPLY`` — the two messages of a simple remote
  operation (§3.2.1: "For the vast majority of remote operations, only
  two Charlotte messages are required").
* ``EXCEPTION`` — a reply-path error (type clash, aborted request),
  carried instead of a REPLY.
* ``RETRY`` / ``FORBID`` / ``ALLOW`` — the Charlotte unwanted-message
  machinery (§3.2.1).  Retry is "a negative acknowledgment ...
  equivalent to forbid followed by allow".
* ``GOAHEAD`` / ``ENC`` — the Charlotte multi-enclosure protocol
  (§3.2.2, figure 2): extra enclosures travel in otherwise-empty ENC
  packets, after a GOAHEAD for requests.
* ``ACK`` — the final top-level reply acknowledgment the paper chose
  *not* to implement because it "would increase message traffic by
  50 %"; we implement it behind a flag to reproduce that number (E7).

Only the Charlotte runtime ever puts RETRY/FORBID/ALLOW/GOAHEAD/ENC on
the wire; that asymmetry *is* the paper's complexity finding, so it is
deliberate that these kinds exist here but are unused by two of the
three runtimes.

Wire size: kernels charge the network for `wire_size` bytes — a fixed
header, the payload, and 4 bytes per carried enclosure reference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

from repro.core.links import EndRef

#: bytes of fixed header on every wire message (kind, seq, reply_to,
#: sighash, lengths) — mirrors the "self-descriptive information
#: included in messages under Charlotte ... a minimum of about 48 bits"
#: plus framing (§4.2.1).
HEADER_BYTES = 24
#: bytes to name one enclosed link end on the wire
ENCLOSURE_REF_BYTES = 4


class MsgKind(enum.Enum):
    REQUEST = "request"
    REPLY = "reply"
    EXCEPTION = "exception"
    RETRY = "retry"
    FORBID = "forbid"
    ALLOW = "allow"
    GOAHEAD = "goahead"
    ENC = "enc"
    ACK = "ack"


class ExceptionCode(enum.Enum):
    TYPE_CLASH = "type-clash"
    NO_SUCH_OPERATION = "no-such-operation"
    REQUEST_ABORTED = "request-aborted"
    LINK_DESTROYED = "link-destroyed"


class SpanContext(NamedTuple):
    """The causal identity piggybacked on wire messages: the
    `WireMessage.span` field, and the span run `repro.net.frames`
    encodes.  Minted and read by `repro.obs.causal`, which re-exports
    it; defined here so the wire needs nothing of the tracer.  A tuple:
    one rides on every `WireMessage` when tracing is on, and it hashes
    and compares as ``(trace_id, span_id, parent_id, sampled)``.

    ``sampled`` is the head-based sampling decision, made once at
    `SpanTracker.new_trace` and inherited by every child, so a trace
    is recorded complete or not at all (`repro.obs.sampling`)."""

    trace_id: int
    span_id: int
    parent_id: Optional[int] = None
    sampled: bool = True


@dataclass(slots=True)
class WireMessage:
    """One runtime-level message.  Slotted: tens of thousands are built
    per benchmark run, and the per-instance ``__dict__`` showed up in
    the dispatch profile (docs/PERFORMANCE.md).

    ``enclosures`` lists the link ends moved by this message, in the
    order they appear in the payload.  For transports that cannot carry
    them all at once (Charlotte: at most one per kernel message) the
    runtime splits them into ENC packets; ``enc_total`` on the first
    packet announces how many to expect.
    """

    kind: MsgKind
    seq: int = 0
    reply_to: int = 0
    opname: str = ""
    sighash: int = 0
    payload: bytes = b""
    enclosures: List[EndRef] = field(default_factory=list)
    #: per-enclosure transport metadata (filled by the sending runtime's
    #: ``rt_export_end``; opaque to everything but the adopting runtime)
    enclosure_meta: List[dict] = field(default_factory=list)
    #: total enclosures of the logical message (first packet announces)
    enc_total: int = 0
    error: Optional[ExceptionCode] = None
    #: simulated send timestamp, for latency accounting
    sent_at: float = 0.0
    #: causal root context of the RPC this message belongs to (the
    #: piggyback that lets kernels and the peer runtime open child
    #: spans of the same trace; see repro.obs.causal)
    span: Optional[SpanContext] = None

    @property
    def wire_size(self) -> int:
        return (
            HEADER_BYTES
            + len(self.opname)
            + len(self.payload)
            + ENCLOSURE_REF_BYTES * len(self.enclosures)
        )

    def clone_for_resend(self) -> "WireMessage":
        return WireMessage(
            kind=self.kind,
            seq=self.seq,
            reply_to=self.reply_to,
            opname=self.opname,
            sighash=self.sighash,
            payload=self.payload,
            enclosures=list(self.enclosures),
            enclosure_meta=list(self.enclosure_meta),
            enc_total=self.enc_total,
            error=self.error,
            sent_at=self.sent_at,
            span=self.span,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        encs = ",".join(str(e) for e in self.enclosures)
        return (
            f"<Wire {self.kind.value} seq={self.seq} op={self.opname!r} "
            f"{len(self.payload)}B enc=[{encs}]>"
        )
