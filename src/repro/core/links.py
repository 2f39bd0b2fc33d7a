"""Link ends: identities, user handles and per-end runtime state.

Terminology (paper §2):

* A **link** is a duplex virtual circuit with exactly two ends.
* Each **end** is owned by at most one process at a time; ends *move*
  between processes when enclosed in messages.
* Each end has a **request queue** (opened/closed under explicit
  process control) and a **reply queue** (open whenever a request has
  been sent and a reply is expected).

Three layers represent an end:

`EndRef`
    the global, immutable identity ``(link id, side)`` — what travels
    in messages and indexes kernels' tables;
`LinkEnd`
    the *user handle* a LYNX program holds; it is invalidated when the
    end moves away (using it then raises `LinkMoved`);
`EndState`
    the owning runtime's bookkeeping: queue state, outstanding
    connects, owed replies, stop-and-wait counters.  This is the state
    the paper says "can be implemented by lists of blocked coroutines
    in the run-time package" (§2.1).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any, Deque, Dict, Iterator, NamedTuple, Optional, Set, Tuple,
    TYPE_CHECKING,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.threads import LynxThread
    from repro.core.wire import SpanContext, WireMessage


class EndRef(NamedTuple):
    """Global identity of one end of one link.  A tuple: it keys
    ``runtime.ends``, the registry and every kernel table, so it hashes
    and compares in C, as ``(link, side)``."""

    link: int
    side: int  # 0 or 1

    @property
    def peer(self) -> "EndRef":
        return EndRef(self.link, 1 - self.side)

    def __str__(self) -> str:
        return f"L{self.link}{'ab'[self.side]}"


class EndLifecycle(enum.Enum):
    OWNED = "owned"
    #: enclosed in an outbound message whose receipt is not yet known
    IN_TRANSIT = "in-transit"
    #: moved to another process; handle permanently invalid here
    MOVED = "moved"
    DESTROYED = "destroyed"


class LinkEnd:
    """User-visible handle to a link end.

    Programs receive these from ``ctx.new_link()``, from initial links,
    or inside unmarshalled messages; they pass them back into
    ``ctx.connect`` / ``ctx.reply`` argument tuples (moving them) and to
    queue-control operations.
    """

    __slots__ = ("end_ref", "_runtime_name")

    def __init__(self, end_ref: EndRef, runtime_name: str = "?") -> None:
        self.end_ref = end_ref
        self._runtime_name = runtime_name

    def __repr__(self) -> str:
        return f"<LinkEnd {self.end_ref} of {self._runtime_name}>"


@dataclass(slots=True)
class ConnectWaiter:
    """A coroutine blocked in ``connect``, awaiting a reply."""

    thread: "LynxThread"
    seq: int
    op: Any  # Operation
    #: set when the client aborts the thread while it waits; servers on
    #: capable kernels then feel RequestAborted on reply
    aborted: bool = False
    #: simulated time the request was sent, for RPC latency metrics
    sent_at: float = 0.0
    #: causal root context of this RPC (None when tracing is off)
    span: Optional["SpanContext"] = None
    #: simulated time the root span opened (connect entry, before
    #: marshalling — earlier than ``sent_at``)
    span_t0: float = 0.0
    #: the REQUEST this waiter sent (always set by ``connect``), kept
    #: for retransmission under a `repro.core.recovery.RecoveryPolicy`
    request: Optional["WireMessage"] = None
    #: retransmissions performed so far under the recovery policy
    retries: int = 0
    #: the rest of this connect's `RecoveryPolicy.waits` schedule
    #: (None while no policy applies); running dry is exhaustion
    waits: Optional[Iterator[float]] = None
    #: the pending recovery timer (a `repro.core.recovery.TimerHandle`),
    #: cancelled whenever the connect ends
    recovery_timer: Optional[Any] = None


#: seqs a `SeqWindow` keeps: the span of recent seqs whose copies are
#: answered from it.  A copy left of the window is dropped without a
#: reply, and the requester's bounded retry surfaces
#: `RecoveryExhausted` — exactly-once-or-error is preserved either way
REPLY_CACHE_LIMIT = 512


class SeqWindow(dict):
    """The one duplicate-suppression table: seq -> the reply to replay
    for a copy of it (None while no reply is kept).  A contiguous
    sender evicts key ``seq - REPLY_CACHE_LIMIT`` per `add`; one that
    skips or reorders seqs is swept back to its newest
    `REPLY_CACHE_LIMIT` once it holds twice that.  ``floor``, the
    highest seq ever evicted, never goes down: a seq at or below it is
    left of the window, seen but unanswerable."""

    __slots__ = ("floor",)  # read on every request: a slot, not a dict

    def __init__(self) -> None:
        self.floor = float("-inf")

    def seen(self, seq: int) -> bool:
        return seq in self or seq <= self.floor

    def add(self, seq: int, reply: Any = None) -> None:
        self[seq] = reply
        old = seq - REPLY_CACHE_LIMIT
        if old > self.floor and old in self:
            del self[old]
            self.floor = old
        elif len(self) > 2 * REPLY_CACHE_LIMIT:
            for old in sorted(self)[:-REPLY_CACHE_LIMIT]:
                del self[old]
            self.floor = max(self.floor, old)


@dataclass(slots=True)
class EndState:
    """Everything the owning runtime tracks for one owned end."""

    ref: EndRef
    lifecycle: EndLifecycle = EndLifecycle.OWNED
    queue_open: bool = False
    #: FIFO of coroutines awaiting replies on this end (reply queue is
    #: open iff this is non-empty)
    connect_waiters: Deque[ConnectWaiter] = field(default_factory=deque)
    #: replies delivered by the transport, not yet matched
    incoming_replies: Deque["WireMessage"] = field(default_factory=deque)
    #: request seqs received and not yet replied to (blocks moving, §2.1)
    owed_replies: Set[int] = field(default_factory=set)
    #: threads blocked in stop-and-wait on their sent message (repliers)
    send_waiters: Dict[int, "LynxThread"] = field(default_factory=dict)
    #: sent messages whose receipt is not yet known, by our seq
    #: (any one blocks moving, §2.1)
    outgoing: Dict[int, "WireMessage"] = field(default_factory=dict)
    #: outgoing per-end message sequence counter
    next_seq: int = 1
    #: why the link died, for exception messages
    destroy_reason: str = ""
    #: by seq of each traced request we owe a reply to: its causal
    #: context (lets the reply leg rejoin the request's trace) and the
    #: simulated time it was delivered to a server thread (where the
    #: ``app`` serve span starts)
    request_spans: Dict[int, Tuple["SpanContext", float]] = field(
        default_factory=dict
    )
    #: duplicate suppression, kept while a copy can arrive (a fault
    #: plane or a recovery policy is installed): request seqs this end
    #: has admitted, each with the reply a copy replays (same seq —
    #: receipt then resumes the still-blocked replier) ...
    served: SeqWindow = field(default_factory=SeqWindow)
    #: ... and reply_to seqs whose reply this end already consumed
    #: (a copy is dropped, counted ``recovery.duplicates_dropped``)
    consumed: SeqWindow = field(default_factory=SeqWindow)

    def alloc_seq(self) -> int:
        s = self.next_seq
        self.next_seq += 1
        return s

    @property
    def reply_queue_open(self) -> bool:
        return bool(self.connect_waiters)

    @property
    def movable(self) -> bool:
        """Paper §2.1: not movable with unreceived sent messages or owed
        replies."""
        return (
            self.lifecycle is EndLifecycle.OWNED
            and not self.outgoing
            and not self.owed_replies
        )

    def find_waiter(self, seq: int) -> Optional[ConnectWaiter]:
        for w in self.connect_waiters:
            if w.seq == seq:
                return w
        return None
