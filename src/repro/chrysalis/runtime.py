"""The LYNX run-time package for Chrysalis (paper §5.2).

"In the Butterfly implementation of LYNX, every process allocates a
single dual queue and event block through which to receive
notifications of messages sent and received.  A link is represented by
a memory object, mapped into the address spaces of the two connected
processes."

Message flow (one direction):

1. the sender *gathers* the message into the link object's buffer
   (a block copy through the switch), sets the FULL flag atomically,
   and enqueues a notice on the dual queue named for the far end —
   a **hint**;
2. the receiver, at a block point, dequeues the notice, checks that it
   owns the mentioned end *and* that the flag is really set ("If
   either check fails, the notice is discarded"), then scatters the
   buffer, clears the flag, and enqueues a CONSUMED notice back — which
   is what unblocks the sending coroutine (stop-and-wait, §2.1).

Because requests stay in the shared buffer until the receiving process
chooses to scatter them, there are **no unwanted messages** and no
retry/forbid/allow machinery; because the abort set lives in shared
memory, a server replying to an aborted request feels `RequestAborted`
with no extra acknowledgement traffic (§6 list items 2 and 4).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Generator, Optional

from repro.chrysalis.kernel import ChrysalisPort, DQ_BLOCKED
from repro.chrysalis.linkobject import (
    DESTROYED,
    FULL,
    LinkObject,
    Notice,
    NoticeCode,
)
from repro.core.exceptions import (
    LinkDestroyed,
    ProtocolViolation,
    RequestAborted,
)
from repro.core.links import EndLifecycle, EndRef, EndState
from repro.core.runtime import LynxRuntimeBase
from repro.core.wire import MsgKind, WireMessage
from repro.sim.futures import FutureState


@dataclass
class _ChrysEnd:
    ref: EndRef
    oid: int
    obj: LinkObject
    #: messages waiting for their buffer slot to free, per kind
    pending_out: Dict[str, Deque[WireMessage]] = field(
        default_factory=lambda: {"req": deque(), "rep": deque()}
    )


def _kind_of(msg: WireMessage) -> str:
    return "req" if msg.kind is MsgKind.REQUEST else "rep"


class _ChrysEnds(dict):
    """`_ChrysEnd`s by ref: ``cends[ref]`` of an end without a mapped
    link object is a protocol violation, ``cends.get(ref)`` a test."""

    def __missing__(self, ref: EndRef) -> _ChrysEnd:
        raise ProtocolViolation(f"no link object for {ref}")


class ChrysalisRuntime(LynxRuntimeBase):
    def __init__(self, handle, cluster) -> None:
        super().__init__(handle, cluster)
        self.port: ChrysalisPort = ChrysalisPort(cluster.kernel, self.name)
        self.cends = _ChrysEnds()
        self.my_queue: int = -1
        self.my_event: int = -1
        #: persistent parked event wait (survives internal wakeups)
        self._ewait = None
        #: enclosure objects mapped at scatter time, before the sender
        #: is told to unmap (§5.2's ordering; prevents a reclaim race
        #: when the far end has already unmapped)
        self._premapped: Dict[EndRef, tuple] = {}

    # ------------------------------------------------------------------
    def rt_startup(self):
        self.my_queue = yield self.port.make_queue()
        self.my_event = yield self.port.make_event()
        # the cluster may have preloaded initial links before our queue
        # existed; point their hints at us now
        for ce in self.cends.values():
            ce.obj.dq_names[ce.ref.side] = self.my_queue

    def preload_link_object(self, ref: EndRef, oid: int, obj: LinkObject) -> None:
        """Cluster-side installation of an initial link (the object is
        already mapped on our behalf)."""
        self.cends[ref] = _ChrysEnd(ref, oid, obj)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def rt_send_request(self, es: EndState, msg: WireMessage):
        yield from self._send(es, msg)

    def rt_send_reply(self, es: EndState, msg: WireMessage):
        yield from self._send(es, msg)

    def _send(self, es: EndState, msg: WireMessage):
        ce = self.cends[es.ref]
        kind = _kind_of(msg)
        if ce.obj.flags & DESTROYED:
            raise self.destroyed_error(ce.obj.destroy_reason)
        side = es.ref.side
        if ce.obj.flags & FULL[kind, side]:
            # the single buffer per direction is busy: park the message;
            # the CONSUMED notice will pump it (kernel-level flow
            # control, "no actual buffering of messages in transit")
            ce.pending_out[kind].append(msg)
            self.metrics.count("chrysalis.sends_parked")
            return
        yield from self._write_buffer(es, ce, msg, kind)

    def _write_buffer(self, es: EndState, ce: _ChrysEnd, msg: WireMessage,
                      kind: str):
        obj, side = ce.obj, es.ref.side
        if kind == "rep":
            aborted = obj.aborted[1 - side]
            if msg.reply_to in aborted:
                # shared memory tells us the requester gave up (§6):
                # the reply is never written
                yield self.port.atomic(lambda: aborted.discard(msg.reply_to))
                raise RequestAborted(
                    f"request {msg.reply_to} on {es.ref} was aborted"
                )
        if obj.flags & DESTROYED:
            raise self.destroyed_error(obj.destroy_reason)
        if msg.kind is MsgKind.EXCEPTION and msg.enclosures:
            # bounced enclosures we pre-mapped but never adopted go
            # back unowned: release our mapping
            for ref in msg.enclosures:
                pre = self._premapped.pop(ref, None)
                if pre is not None:
                    yield self.port.unmap_object(pre[0])
        # gather: block copy through the switch
        copy_t0, nbytes = self.engine.now, msg.wire_size
        yield self.port.copy(nbytes)
        copy_t1 = self.engine.now

        def write() -> None:
            obj.buffers[(kind, side)] = msg
            obj.set_full(kind, side)

        yield self.port.atomic(write)
        self.metrics.count(f"wire.messages.{msg.kind._value_}")
        self.metrics.count("wire.bytes", nbytes)
        # notify the far end through its dual-queue name — a hint that
        # may be stale after a move; flags are the ground truth (§5.2)
        target = obj.dq_names[1 - side]
        yield self.port.enqueue(
            target,
            Notice(ce.oid, es.ref.link,
                   NoticeCode.NEW_REQ if kind == "req" else NoticeCode.NEW_REP,
                   side, msg.seq),
        )
        if msg.span is not None:
            self.cluster.spans.emit(
                msg.span, "network", "switch-copy", self.name,
                copy_t0, copy_t1,
            )
            self.cluster.spans.emit(
                msg.span, "kernel", "flag-enqueue", self.name,
                copy_t1, self.engine.now,
            )

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def rt_request_available(self, es: EndState) -> bool:
        ce = self.cends.get(es.ref)
        if ce is None or ce.obj.flags & DESTROYED:
            return False
        return ce.obj.flags & FULL["req", 1 - es.ref.side] != 0

    def rt_take_request(self, es: EndState):
        ce = self.cends[es.ref]
        obj, nside = ce.obj, 1 - es.ref.side
        if not obj.flags & FULL["req", nside]:
            return None
        msg = obj.buffers[("req", nside)]
        # scatter: block copy out of the shared buffer
        copy_t0 = self.engine.now
        yield self.port.copy(msg.wire_size)
        copy_t1 = self.engine.now
        yield from self._premap_enclosures(msg)

        def clear() -> None:
            obj.buffers[("req", nside)] = None
            obj.clear_full("req", nside)

        yield self.port.atomic(clear)
        yield self.port.enqueue(
            obj.dq_names[nside],
            Notice(ce.oid, es.ref.link, NoticeCode.CONSUMED_REQ,
                   es.ref.side, msg.seq),
        )
        if msg.span is not None:
            self.cluster.spans.emit(
                msg.span, "network", "switch-copy", self.name,
                copy_t0, copy_t1,
            )
            self.cluster.spans.emit(
                msg.span, "kernel", "flag-dequeue", self.name,
                copy_t1, self.engine.now,
            )
        return msg

    def _premap_enclosures(self, msg: WireMessage):
        """Map moved-in link objects BEFORE the sender learns of the
        receipt (and unmaps its side): the refcount never transits
        zero during a move."""
        for ref, meta in zip(msg.enclosures, msg.enclosure_meta):
            if ref in self._premapped:
                continue
            oid = meta["obj"]
            mapped = yield self.port.map_object(oid)
            self._premapped[ref] = (oid, mapped)

    # ------------------------------------------------------------------
    # the block point: dequeue the process's own dual queue
    # ------------------------------------------------------------------
    def rt_block_wait(self):
        if self._ewait is None:
            item = yield self.port.dequeue(self.my_queue, self.my_event)
            if item is not DQ_BLOCKED:
                yield from self._on_notice(item)
                return
            self._ewait = self.port.event_wait(self.my_event)
        elif self._ewait.state is not FutureState.PENDING:
            notice, self._ewait = self._ewait.value, None
            yield from self._on_notice(notice)
            return
        idx, value = yield self._ewait, self.wakeup_future()
        if idx == 0:
            self._ewait = None
            yield from self._on_notice(value)

    def _on_notice(self, notice: Notice):
        """Validate-then-act: "Whenever a process dequeues a notice from
        its dual queue it checks to see that it owns the mentioned link
        end and that the appropriate flag is set ... If either check
        fails, the notice is discarded" (§5.2)."""
        if not isinstance(notice, Notice):  # pragma: no cover - defensive
            return
        code = notice.code
        if code is NoticeCode.NEW_REQ:
            my_ref = EndRef(notice.link, 1 - notice.side)
            es = self.ends.get(my_ref)
            ce = self.cends.get(my_ref)
            if (es is None or ce is None
                    or not ce.obj.flags & FULL["req", notice.side]):
                self.metrics.count("chrysalis.stale_notices")
            # a valid NEW_REQ is just a wakeup: the flag is the truth
            # and the request is taken lazily at consumption time
            return
        if code is NoticeCode.NEW_REP:
            yield from self._take_reply(notice)
            return
        if code is NoticeCode.CONSUMED_REQ:
            yield from self._on_consumed(notice, "req")
            return
        if code is NoticeCode.CONSUMED_REP:
            yield from self._on_consumed(notice, "rep")
            return
        if code is NoticeCode.DESTROYED:
            yield from self._on_destroyed_notice(notice)

    def _take_reply(self, notice: Notice):
        my_ref = EndRef(notice.link, 1 - notice.side)
        es = self.ends.get(my_ref)
        ce = self.cends.get(my_ref)
        if (es is None or ce is None
                or not ce.obj.flags & FULL["rep", notice.side]):
            self.metrics.count("chrysalis.stale_notices")
            return
        obj, nside = ce.obj, notice.side
        msg = obj.buffers[("rep", nside)]
        copy_t0 = self.engine.now
        yield self.port.copy(msg.wire_size)
        copy_t1 = self.engine.now
        yield from self._premap_enclosures(msg)

        def clear() -> None:
            obj.buffers[("rep", nside)] = None
            obj.clear_full("rep", nside)

        yield self.port.atomic(clear)
        yield self.port.enqueue(
            obj.dq_names[nside],
            Notice(ce.oid, my_ref.link, NoticeCode.CONSUMED_REP,
                   my_ref.side, msg.seq),
        )
        if msg.span is not None:
            self.cluster.spans.emit(
                msg.span, "network", "switch-copy", self.name,
                copy_t0, copy_t1,
            )
            self.cluster.spans.emit(
                msg.span, "kernel", "flag-dequeue", self.name,
                copy_t1, self.engine.now,
            )
        self.deliver_reply(my_ref, msg)

    def _on_consumed(self, notice: Notice, kind: str):
        my_ref = EndRef(notice.link, 1 - notice.side)
        es = self.ends.get(my_ref)
        ce = self.cends.get(my_ref)
        if es is None or ce is None:
            self.metrics.count("chrysalis.stale_notices")
            return
        msg = es.outgoing.get(notice.seq)
        if msg is not None:
            # moved ends are gone for good: unmap their objects
            for enc in msg.enclosures:
                ece = self.cends.pop(enc, None)
                if ece is not None:
                    yield self.port.unmap_object(ece.oid)
        self.notify_receipt(my_ref, notice.seq)
        # the buffer slot is free: pump a parked message
        if ce.pending_out[kind] and not ce.obj.flags & FULL[kind, my_ref.side]:
            nxt = ce.pending_out[kind].popleft()
            try:
                yield from self._write_buffer(es, ce, nxt, kind)
            except RequestAborted:
                self.notify_reply_aborted(my_ref, nxt.seq)
            except LinkDestroyed:
                self.notify_destroyed(my_ref, ce.obj.destroy_reason)

    def _on_destroyed_notice(self, notice: Notice):
        my_ref = EndRef(notice.link, 1 - notice.side)
        ce = self.cends.get(my_ref)
        if ce is None or not ce.obj.flags & DESTROYED:
            self.metrics.count("chrysalis.stale_notices")
            return
        # messages of ours still sitting unconsumed in the buffers were
        # never received; reclaim their enclosures before letting go
        es = self.ends.get(my_ref)
        if es is not None:
            side = my_ref.side
            for kind in ("req", "rep"):
                parked = ce.obj.buffers.get((kind, side))
                if parked is not None and ce.obj.flags & FULL[kind, side]:
                    self._restore_enclosures(parked)
                for queued in ce.pending_out[kind]:
                    self._restore_enclosures(queued)
        # "it confirms the notice by checking it against the appropriate
        # flag and then unmaps the link object" (§5.2)
        self.cends.pop(my_ref, None)
        yield self.port.unmap_object(ce.oid)
        reason = ce.obj.destroy_reason or "link destroyed"
        self.notify_destroyed(my_ref, reason, crash="crash" in reason)

    # ------------------------------------------------------------------
    # link lifecycle
    # ------------------------------------------------------------------
    def rt_new_link(self):
        link = self.registry.alloc_link(self.name, self.name)
        obj = LinkObject(link, self.my_queue, self.my_queue)
        oid = yield self.port.make_object(obj)
        yield self.port.map_object(oid)  # side 0
        yield self.port.map_object(oid)  # side 1
        ref_a, ref_b = EndRef(link, 0), EndRef(link, 1)
        self.cends[ref_a] = _ChrysEnd(ref_a, oid, obj)
        self.cends[ref_b] = _ChrysEnd(ref_b, oid, obj)
        return ref_a, ref_b

    def rt_destroy(self, es: EndState, reason: str):
        ce = self.cends.pop(es.ref, None)
        if ce is None:
            return
        obj = ce.obj
        if not obj.flags & DESTROYED:
            why = self.crash_tagged(reason)

            def mark() -> None:
                obj.set_destroyed(why)

            yield self.port.atomic(mark)
            yield self.port.enqueue(
                obj.dq_names[1 - es.ref.side],
                Notice(ce.oid, es.ref.link, NoticeCode.DESTROYED,
                       es.ref.side, 0),
            )
        yield self.port.unmap_object(ce.oid)
        yield self.port.mark_reclaimable(ce.oid)

    def rt_abort_connect(self, es: EndState, waiter):
        ce = self.cends[es.ref]
        obj, side = ce.obj, es.ref.side
        # not yet written?
        for m in list(ce.pending_out["req"]):
            if m.seq == waiter.seq:
                ce.pending_out["req"].remove(m)
                return True
        # written but not yet scattered by the far process: withdraw it
        cur = obj.buffers[("req", side)]
        if (
            cur is not None
            and cur.seq == waiter.seq
            and obj.flags & FULL["req", side]
        ):
            def clear() -> None:
                obj.buffers[("req", side)] = None
                obj.clear_full("req", side)

            yield self.port.atomic(clear)
            self.metrics.count("chrysalis.aborts_withdrawn")
            return True
        # already consumed: record the abort in shared memory so the
        # reply attempt feels RequestAborted (§6, item 4)
        yield self.port.atomic(lambda: obj.aborted[side].add(waiter.seq))
        self.metrics.count("chrysalis.aborts_flagged")
        return False

    # ------------------------------------------------------------------
    # moves
    # ------------------------------------------------------------------
    def rt_export_end(self, es: EndState) -> dict:
        return {"obj": self.cends[es.ref].oid}

    def rt_adopt_end(self, ref: EndRef, meta: dict):
        pre = self._premapped.pop(ref, None)
        if pre is not None:
            oid, obj = pre
        else:
            oid = meta["obj"]
            obj = yield self.port.map_object(oid)
        # update the dual-queue name (non-atomic wide write) BEFORE
        # inspecting the flags, so "changes are never overlooked" (§5.2)
        yield self.port.wide_write(
            lambda: obj.dq_names.__setitem__(ref.side, self.my_queue)
        )
        self.cends[ref] = _ChrysEnd(ref, oid, obj)
        nside = 1 - ref.side
        # "It ... then inspects the flags.  It enqueues notices on its
        # own dual queue for any of the flags that are set."
        if obj.flags & FULL["req", nside]:
            yield self.port.enqueue(
                self.my_queue,
                Notice(oid, ref.link, NoticeCode.NEW_REQ, nside, 0),
            )
        if obj.flags & FULL["rep", nside]:
            yield self.port.enqueue(
                self.my_queue,
                Notice(oid, ref.link, NoticeCode.NEW_REP, nside, 0),
            )
        if obj.flags & DESTROYED:
            yield self.port.enqueue(
                self.my_queue,
                Notice(oid, ref.link, NoticeCode.DESTROYED, nside, 0),
            )
