"""The LYNX run-time package for Charlotte (paper §3.2).

This is — deliberately — the most complicated of the three runtime
packages, because the paper's central finding is that Charlotte's
high-level primitives forced exactly this complexity:

* **Activity management**: the kernel allows one outstanding send and
  one outstanding receive per link end, so logical messages queue in
  the runtime and a per-end pump feeds them to the kernel one at a
  time.

* **Screening / unwanted messages (§3.2.1)**: the kernel's Receive
  cannot distinguish requests from replies on the same link, so a
  process waiting only for a reply may receive a request it cannot
  serve.  Unwanted requests are bounced with ``retry`` (no negative
  side state; the resent message is delayed by the kernel because no
  Receive is posted) or ``forbid``/``allow`` (when we must keep a
  Receive posted for an expected reply, a bare retry would bounce
  forever).

* **Multi-enclosure messages (§3.2.2, figure 2)**: the kernel carries
  at most one enclosure per message, so the runtime splits logical
  messages into a first packet plus ``enc`` packets, with a
  ``goahead`` handshake for requests so the sender knows the request
  is wanted before committing the remaining enclosures.

* **Semantic deviations**: receipt is approximated by kernel
  send-completion, so (a) an aborted request whose receiver crashes
  loses its enclosures (§3.2.2 a–d, asserted by the conformance
  suite), and (b) a server never feels `RequestAborted` on a
  no-longer-wanted reply — unless the optional reply-acknowledgment
  ablation (``reply_acks=True``; +50 % traffic, §3.3/E7) is enabled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Generator, List, Optional

from repro.charlotte.kernel import (
    CallStatus,
    Completion,
    CompletionKind,
    Direction,
    KernelPort,
)
from repro.core.exceptions import ProtocolViolation
from repro.core.links import EndLifecycle, EndRef, EndState
from repro.core.runtime import LynxRuntimeBase
from repro.core.wire import ExceptionCode, MsgKind, WireMessage
from repro.sim.futures import FutureState


@dataclass
class _OutTransfer:
    """One logical message being sent as one or more kernel packets."""

    logical: WireMessage
    packets: List[WireMessage]
    needs_goahead: bool
    awaiting_goahead: bool = False

    @property
    def done(self) -> bool:
        return not self.packets and not self.awaiting_goahead


@dataclass
class _PartialIn:
    """A multi-packet logical message being reassembled (fig. 2)."""

    first: WireMessage
    expected: int
    enclosures: List[EndRef] = field(default_factory=list)
    metas: List[dict] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        # ``enclosures`` already includes the first packet's enclosure
        return len(self.enclosures) >= self.expected


@dataclass
class _CharEnd:
    """Charlotte-specific per-end state, parallel to `EndState`."""

    ref: EndRef
    recv_posted: bool = False
    kernel_send_busy: bool = False
    outq: Deque[_OutTransfer] = field(default_factory=deque)
    current: Optional[_OutTransfer] = None
    #: peer sent us FORBID: our requests are stashed until ALLOW
    forbidden: bool = False
    forbid_blocked: Deque[WireMessage] = field(default_factory=deque)
    #: we sent FORBID and owe an ALLOW (§3.2.1)
    forbid_sent: bool = False
    partial_in: Dict[int, _PartialIn] = field(default_factory=dict)
    #: wanted, kernel-received requests staged for consumption
    held: Deque[WireMessage] = field(default_factory=deque)
    #: logical sends remembered for bounce handling, by seq
    sent_log: Dict[int, WireMessage] = field(default_factory=dict)


class _CharEnds(dict):
    """`_CharEnd`s by ref, each made the first time its end is looked
    up: ``cends[ref]`` never misses, ``cends.get(ref)`` never makes one."""

    def __missing__(self, ref: EndRef) -> _CharEnd:
        ce = self[ref] = _CharEnd(ref)
        return ce


class CharlotteRuntime(LynxRuntimeBase):
    def __init__(self, handle, cluster) -> None:
        super().__init__(handle, cluster)
        self.kport: KernelPort = cluster.kernel.register_process(
            self.name, handle.node
        )
        self.cends = _CharEnds()
        #: E7 ablation: top-level acknowledgments for replies
        self.reply_acks: bool = cluster.reply_acks
        #: A1 ablation: bounce every unwanted request with RETRY, even
        #: when a Receive must stay posted — §3.2.1 explains why this
        #: invites "an arbitrary number of retransmissions"
        self.no_forbid: bool = cluster.no_forbid
        #: outstanding kernel Wait (kept across internal wakeups so a
        #: single completion is never lost)
        self._kwait = None

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def _control(self, es: EndState, kind: MsgKind, reply_to: int,
                 enclosures: Optional[List[EndRef]] = None,
                 metas: Optional[List[dict]] = None,
                 error: Optional[ExceptionCode] = None,
                 span=None) -> WireMessage:
        return WireMessage(
            kind=kind,
            seq=es.alloc_seq(),
            reply_to=reply_to,
            enclosures=list(enclosures or []),
            enclosure_meta=list(metas or [{}] * len(enclosures or [])),
            enc_total=len(enclosures or []),
            error=error,
            sent_at=self.engine.now,
            span=span,
        )

    def _packetise(self, logical: WireMessage) -> _OutTransfer:
        """Split a logical message into kernel packets: at most one
        enclosure each (§3.2.2)."""
        first = logical.clone_for_resend()
        first.enclosures = logical.enclosures[:1]
        first.enclosure_meta = logical.enclosure_meta[:1]
        first.enc_total = len(logical.enclosures)
        packets = [first]
        for i, enc in enumerate(logical.enclosures[1:], start=1):
            meta = (
                logical.enclosure_meta[i]
                if i < len(logical.enclosure_meta)
                else {}
            )
            packets.append(
                WireMessage(
                    kind=MsgKind.ENC,
                    seq=logical.seq,
                    enclosures=[enc],
                    enclosure_meta=[meta],
                    enc_total=len(logical.enclosures),
                    sent_at=self.engine.now,
                    span=logical.span,
                )
            )
        needs_goahead = (
            logical.kind is MsgKind.REQUEST and len(logical.enclosures) >= 2
        )
        return _OutTransfer(logical, packets, needs_goahead)

    def _enqueue(self, es: EndState, logical: WireMessage, control: bool = False):
        ce = self.cends[es.ref]
        tr = self._packetise(logical)
        if control:
            ce.outq.appendleft(tr)
        else:
            ce.outq.append(tr)
        if logical.kind in (MsgKind.REQUEST, MsgKind.REPLY, MsgKind.EXCEPTION):
            ce.sent_log[logical.seq] = logical
        return tr

    # ------------------------------------------------------------------
    # the send pump: one kernel send outstanding per end
    # ------------------------------------------------------------------
    def _pump(self, es: EndState) -> Generator:
        ce = self.cends[es.ref]
        while not ce.kernel_send_busy:
            if ce.current is None or ce.current.done:
                ce.current = None
                # skip requests while forbidden ("still free to send
                # replies", §3.2.1)
                picked = None
                for tr in list(ce.outq):
                    if ce.forbidden and tr.logical.kind is MsgKind.REQUEST:
                        continue
                    picked = tr
                    break
                if picked is None:
                    return
                ce.outq.remove(picked)
                ce.current = picked
            tr = ce.current
            if tr.awaiting_goahead or not tr.packets:
                return
            pkt = tr.packets[0]
            enclosure = pkt.enclosures[0] if pkt.enclosures else None
            status = yield self.kport.send(es.ref, pkt, enclosure)
            if status is CallStatus.SUCCESS:
                ce.kernel_send_busy = True
                self.cluster.trace_msg(self.name, "packet", es.ref, pkt)
                return
            if status is CallStatus.DESTROYED:
                ce.current = None
                self.notify_destroyed(es.ref, "link destroyed at send")
                return
            raise ProtocolViolation(
                f"unexpected Send status {status} on {es.ref}"
            )

    def _on_send_done(self, es: EndState) -> Generator:
        ce = self.cends[es.ref]
        ce.kernel_send_busy = False
        tr = ce.current
        if tr is not None and tr.packets:
            pkt = tr.packets.pop(0)
            if tr.needs_goahead and pkt.kind is not MsgKind.ENC:
                # first packet of a multi-enclosure request: hold the
                # enc packets until the GOAHEAD arrives (fig. 2)
                tr.awaiting_goahead = True
            if not tr.packets and not tr.awaiting_goahead:
                ce.current = None
                yield from self._on_transfer_sent(es, tr)
        yield from self._pump(es)
        yield from self.rt_sync_interest(es)

    def _on_transfer_sent(self, es: EndState, tr: _OutTransfer) -> Generator:
        """All packets of a logical message completed at the kernel:
        Charlotte's best approximation of "received" (§3.2 — the root
        of the unwanted-message problem)."""
        logical = tr.logical
        kind = logical.kind
        if kind is MsgKind.REQUEST:
            self.notify_receipt(es.ref, logical.seq)
        elif kind is MsgKind.REPLY:
            if not self.reply_acks:
                self.notify_receipt(es.ref, logical.seq)
            # with reply_acks on, receipt is signalled by the ACK
        elif kind is MsgKind.EXCEPTION:
            self.notify_receipt(es.ref, logical.seq)
        # control messages need no bookkeeping
        return
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # transport hooks
    # ------------------------------------------------------------------
    def rt_new_link(self):
        status, ref_a, ref_b = yield self.kport.make_link()
        if status is not CallStatus.SUCCESS:  # pragma: no cover
            raise ProtocolViolation(f"MakeLink failed: {status}")
        return ref_a, ref_b

    def rt_send_request(self, es: EndState, msg: WireMessage):
        self._enqueue(es, msg)
        yield from self._pump(es)

    def rt_send_reply(self, es: EndState, msg: WireMessage):
        self._enqueue(es, msg)
        yield from self._pump(es)

    def rt_sync_interest(self, es: EndState):
        ce = self.cends[es.ref]
        if es.lifecycle is not EndLifecycle.OWNED:
            return
        want = (
            es.queue_open
            or es.reply_queue_open
            or ce.forbidden
            or bool(ce.partial_in)
            or (ce.current is not None and ce.current.awaiting_goahead)
        )
        if want and not ce.recv_posted:
            status = yield self.kport.receive(es.ref)
            if status is CallStatus.SUCCESS:
                ce.recv_posted = True
            elif status is CallStatus.BUSY:
                ce.recv_posted = True  # resync after confusion
            elif status is CallStatus.DESTROYED:
                self.notify_destroyed(es.ref, "link destroyed")
                return
        elif not want and ce.recv_posted:
            status = yield self.kport.cancel(es.ref, Direction.RECEIVE)
            if status is CallStatus.SUCCESS:
                ce.recv_posted = False
            # TOO_LATE: "If B has requested an operation in the
            # meantime, the Cancel will fail" — the message will arrive
            # and take the unwanted path (§3.2.1)
        # "sends an allow message as soon as it is either willing to
        # receive requests ... or has no Receive outstanding" (§3.2.1)
        if ce.forbid_sent and (es.queue_open or not ce.recv_posted):
            ce.forbid_sent = False
            self._enqueue(es, self._control(es, MsgKind.ALLOW, 0), control=True)
            self.metrics.count("charlotte.allow_sent")
            yield from self._pump(es)

    def rt_block_wait(self):
        # wait for a kernel completion OR an internal wakeup (a timer
        # resumed a coroutine, a hook ran).  The kernel Wait persists
        # across internal wakeups.
        if self._kwait is None:
            self._kwait = self.kport.wait()
        elif self._kwait.state is not FutureState.PENDING:
            desc, self._kwait = self._kwait.value, None
            yield from self._handle_completion(desc)
            return
        idx, value = yield self._kwait, self.wakeup_future()
        if idx == 0:
            self._kwait = None
            yield from self._handle_completion(value)

    def rt_request_available(self, es: EndState) -> bool:
        ce = self.cends.get(es.ref)
        return bool(ce and ce.held)

    def rt_take_request(self, es: EndState):
        ce = self.cends[es.ref]
        if not ce.held:
            return None
        return ce.held.popleft()
        yield  # pragma: no cover

    def rt_destroy(self, es: EndState, reason: str):
        yield self.kport.destroy(es.ref)
        self.cends.pop(es.ref, None)

    def rt_abort_connect(self, es: EndState, waiter):
        ce = self.cends[es.ref]
        # still queued and unsent?
        for tr in list(ce.outq):
            if tr.logical.seq == waiter.seq:
                ce.outq.remove(tr)
                ce.sent_log.pop(waiter.seq, None)
                return True
        # stashed by a forbid (bounced: provably unreceived)?
        for m in list(ce.forbid_blocked):
            if m.seq == waiter.seq:
                ce.forbid_blocked.remove(m)
                ce.sent_log.pop(waiter.seq, None)
                return True
        # currently at the kernel: Cancel races the match (§3.2.1)
        if (
            ce.current is not None
            and ce.current.logical.seq == waiter.seq
            and ce.kernel_send_busy
        ):
            status = yield self.kport.cancel(es.ref, Direction.SEND)
            if status is CallStatus.SUCCESS:
                ce.kernel_send_busy = False
                ce.current = None
                ce.sent_log.pop(waiter.seq, None)
                self.metrics.count("charlotte.aborts_cancelled")
                yield from self._pump(es)
                return True
        # too late: kernel already matched it — the §3.2.2 limbo
        self.metrics.count("charlotte.aborts_too_late")
        return False

    # base hook override: forget bounce state when a reply lands
    def deliver_reply(self, ref: EndRef, msg: WireMessage) -> None:
        ce = self.cends.get(ref)
        if ce is not None:
            ce.sent_log.pop(msg.reply_to, None)
        super().deliver_reply(ref, msg)

    # ------------------------------------------------------------------
    # completion handling (the Wait loop)
    # ------------------------------------------------------------------
    def _handle_completion(self, desc: Completion) -> Generator:
        if desc.kind is CompletionKind.SEND_DONE:
            es = self.ends.get(desc.ref)
            if es is not None:
                yield from self._on_send_done(es)
        elif desc.kind is CompletionKind.RECV_DONE:
            yield from self._on_recv_done(desc.ref, desc.msg)
        elif desc.kind is CompletionKind.LINK_DESTROYED:
            self._drop_char_state(desc.ref)
            self.notify_destroyed(desc.ref, desc.reason, crash="died" in desc.reason)
        elif desc.kind in (CompletionKind.SEND_FAILED, CompletionKind.RECV_FAILED):
            if desc.status is CallStatus.MOVING:
                # kernel cancelled our Receive because the end moved
                ce = self.cends.get(desc.ref)
                if ce is not None:
                    ce.recv_posted = False
            else:
                if (
                    desc.kind is CompletionKind.SEND_FAILED
                    and desc.reason.startswith("unsent")
                ):
                    # the kernel never transferred our message: its
                    # enclosures (and those of anything still queued)
                    # are provably ours again
                    ce = self.cends.get(desc.ref)
                    if ce is not None:
                        if ce.current is not None:
                            self._restore_enclosures(ce.current.logical)
                        for tr in ce.outq:
                            self._restore_enclosures(tr.logical)
                self._drop_char_state(desc.ref)
                self.notify_destroyed(
                    desc.ref, desc.reason or "activity failed",
                    crash="died" in desc.reason,
                )

    def _drop_char_state(self, ref: EndRef) -> None:
        self.cends.pop(ref, None)

    def _on_recv_done(self, ref: EndRef, msg: WireMessage) -> Generator:
        es = self.ends.get(ref)
        ce = self.cends[ref]
        ce.recv_posted = False
        if es is None or es.lifecycle is not EndLifecycle.OWNED:
            self.metrics.count("charlotte.stray_recv")
            return
        kind = msg.kind
        if kind is MsgKind.REQUEST:
            yield from self._recv_request(es, ce, msg)
        elif kind in (MsgKind.REPLY, MsgKind.EXCEPTION):
            yield from self._recv_reply(es, ce, msg)
        elif kind is MsgKind.ENC:
            yield from self._recv_enc(es, ce, msg)
        elif kind is MsgKind.GOAHEAD:
            self._recv_goahead(ce, msg)
            yield from self._pump(es)
        elif kind is MsgKind.RETRY:
            yield from self._recv_bounce(es, ce, msg, is_retry=True)
        elif kind is MsgKind.FORBID:
            yield from self._recv_bounce(es, ce, msg, is_retry=False)
        elif kind is MsgKind.ALLOW:
            yield from self._recv_allow(es, ce)
        elif kind is MsgKind.ACK:
            self._recv_ack(es, msg)
        yield from self.rt_sync_interest(es)

    # -- inbound requests ---------------------------------------------------
    def _recv_request(self, es: EndState, ce: _CharEnd, msg: WireMessage):
        if not es.queue_open:
            yield from self._bounce_unwanted(es, ce, msg)
            return
        if msg.enc_total >= 2:
            # multi-enclosure request: acknowledge with GOAHEAD, then
            # collect the enc packets (fig. 2)
            ce.partial_in[msg.seq] = _PartialIn(
                msg,
                msg.enc_total,
                list(msg.enclosures),
                list(msg.enclosure_meta),
            )
            self._enqueue(
                es,
                self._control(es, MsgKind.GOAHEAD, msg.seq, span=msg.span),
                control=True,
            )
            self.metrics.count("charlotte.goahead_sent")
            yield from self._pump(es)
            return
        ce.held.append(msg)

    def _bounce_unwanted(self, es: EndState, ce: _CharEnd, msg: WireMessage):
        """§3.2.1: return an unwanted request to its sender."""
        self.metrics.count("runtime.unwanted")
        returned = list(msg.enclosures)
        metas = list(msg.enclosure_meta)
        if es.reply_queue_open and not self.no_forbid:
            # we must keep a Receive posted for the reply we expect, so
            # a plain retry would bounce forever: forbid instead
            ce.forbid_sent = True
            ctl = self._control(
                es, MsgKind.FORBID, msg.seq, returned, metas, span=msg.span
            )
            self.metrics.count("charlotte.forbid_sent")
        else:
            ctl = self._control(es, MsgKind.RETRY, msg.seq, returned, metas,
                                span=msg.span)
            self.metrics.count("charlotte.retry_sent")
        self._enqueue(es, ctl, control=True)
        yield from self._pump(es)

    # -- inbound replies ------------------------------------------------------
    def _recv_reply(self, es: EndState, ce: _CharEnd, msg: WireMessage):
        if msg.enc_total >= 2:
            ce.partial_in[msg.seq] = _PartialIn(
                msg,
                msg.enc_total,
                list(msg.enclosures),
                list(msg.enclosure_meta),
            )
            return
        yield from self._accept_reply(es, ce, msg)

    def _accept_reply(self, es: EndState, ce: _CharEnd, msg: WireMessage):
        if self.reply_acks and msg.kind is MsgKind.REPLY:
            err = (
                None
                if self.reply_wanted(es, msg.reply_to)
                else ExceptionCode.REQUEST_ABORTED
            )
            ack = self._control(es, MsgKind.ACK, msg.seq, error=err,
                                span=msg.span)
            self._enqueue(es, ack, control=True)
            self.metrics.count("charlotte.ack_sent")
            yield from self._pump(es)
        self.deliver_reply(es.ref, msg)

    def _recv_ack(self, es: EndState, msg: WireMessage) -> None:
        if msg.error is ExceptionCode.REQUEST_ABORTED:
            self.notify_reply_aborted(es.ref, msg.reply_to)
        else:
            self.notify_receipt(es.ref, msg.reply_to)

    # -- enc assembly ---------------------------------------------------------
    def _recv_enc(self, es: EndState, ce: _CharEnd, msg: WireMessage):
        part = ce.partial_in.get(msg.seq)
        if part is None:
            # enc for a request we bounced; return its enclosure too
            self.metrics.count("charlotte.stray_enc")
            ctl = self._control(
                es,
                MsgKind.RETRY,
                msg.seq,
                list(msg.enclosures),
                list(msg.enclosure_meta),
                span=msg.span,
            )
            self._enqueue(es, ctl, control=True)
            yield from self._pump(es)
            return
        part.enclosures.extend(msg.enclosures)
        part.metas.extend(msg.enclosure_meta)
        if not part.complete:
            return
        ce.partial_in.pop(msg.seq)
        full = part.first.clone_for_resend()
        full.enclosures = part.enclosures
        full.enclosure_meta = part.metas
        if full.kind is MsgKind.REQUEST:
            ce.held.append(full)
        else:
            yield from self._accept_reply(es, ce, full)

    # -- goahead / bounce / allow ----------------------------------------------
    def _recv_goahead(self, ce: _CharEnd, msg: WireMessage) -> None:
        tr = ce.current
        if (
            tr is not None
            and tr.awaiting_goahead
            and tr.logical.seq == msg.reply_to
        ):
            tr.awaiting_goahead = False

    def _recv_bounce(
        self, es: EndState, ce: _CharEnd, msg: WireMessage, is_retry: bool
    ):
        """Our request came back: retry (resend now; the kernel delays
        it) or forbid (stash until allow)."""
        bounced_seq = msg.reply_to
        logical = ce.sent_log.get(bounced_seq)
        self.metrics.count(
            "charlotte.retry_received" if is_retry else "charlotte.forbid_received"
        )
        if logical is None:
            return  # stale (e.g. the connect was since aborted)
        # if the transfer is mid-flight (multi-enc awaiting goahead),
        # drop it; its unsent enclosures never left
        if ce.current is not None and ce.current.logical.seq == bounced_seq:
            ce.current = None
        # the receipt bookkeeping may already have run (send-complete):
        # reverse it
        if bounced_seq not in es.outgoing:
            es.outgoing[bounced_seq] = logical
        # re-own every enclosure of the logical message (returned ones
        # came back in the bounce; unsent ones never left)
        for ref in logical.enclosures:
            existing = self.ends.get(ref)
            if existing is None:
                self.ends[ref] = self._new_end_state(ref)
                self.registry.record_bounced(ref, self.name)
            elif existing.lifecycle is EndLifecycle.IN_TRANSIT:
                existing.lifecycle = EndLifecycle.OWNED
                self.registry.record_bounced(ref, self.name)
        if is_retry:
            yield from self._resend(es, logical)
        else:
            ce.forbidden = True
            ce.forbid_blocked.append(logical)
        yield from self._pump(es)

    def _resend(self, es: EndState, logical: WireMessage):
        # re-stage enclosures and queue the message again; the waiter
        # (blocked coroutine) is still in place and the seq is reused,
        # so the eventual reply matches
        for ref in logical.enclosures:
            end = self.ends.get(ref)
            if end is not None and end.lifecycle is EndLifecycle.OWNED:
                end.lifecycle = EndLifecycle.IN_TRANSIT
                self.registry.record_in_transit(ref)
        self.metrics.count("charlotte.resends")
        self._enqueue(es, logical)
        yield from self._pump(es)

    def _recv_allow(self, es: EndState, ce: _CharEnd):
        self.metrics.count("charlotte.allow_received")
        ce.forbidden = False
        while ce.forbid_blocked:
            logical = ce.forbid_blocked.popleft()
            yield from self._resend(es, logical)
        # requests enqueued while we were forbidden were skipped by the
        # pump; release them too
        yield from self._pump(es)
