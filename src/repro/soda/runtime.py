"""The LYNX run-time package designed for SODA (paper §4.2).

"A link in SODA can be represented by a pair of unique names, one for
each end.  A process that owns an end of a link advertises the
associated name.  Every process knows the names of the link ends it
owns.  Every process keeps a hint as to the current location of the
far end of each of its links.  The hints can be wrong, but are
expected to work most of the time."

The machinery reproduced here, all from §4.2:

* **puts** carry LYNX requests and replies; the receiver's *accept* is
  the receipt, so screening is free: an unwanted request simply stays
  unaccepted inside the kernel — no retry/forbid/allow;
* **status signals** posted toward the far end detect destruction and
  crashes ("the purpose of the signal is to allow the aspiring
  receiver to tell if its link is destroyed or if its chosen sender
  dies");
* **moves** enclose end names in messages; the mover accepts any
  previously-posted request from the far end with zero-length buffers
  and "uses the out-of-band information to tell the other process
  where it moved its end";
* the **link cache**: a process remembers where ends it used to own
  went, "and keeps the names of those links advertised", so stale
  hints are repaired with one redirect;
* **discover** as the second line of repair, and the **freeze**
  absolute search (`repro.soda.freeze`) as the last resort;
* "A process that is unable to find the far end of a link must assume
  it has been destroyed."
"""

from __future__ import annotations

import enum
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Generator, List, Optional

from repro.core.exceptions import ProtocolViolation
from repro.core.links import EndLifecycle, EndRef, EndState
from repro.core.runtime import LynxRuntimeBase
from repro.core.wire import MsgKind, WireMessage
from repro.sim.engine import Event
from repro.soda.freeze import FreezeManager
from repro.soda.kernel import (
    AcceptStatus,
    Interrupt,
    InterruptKind,
    SodaPort,
)


@dataclass
class _SodaEnd:
    """SODA-specific per-end state."""

    ref: EndRef
    my_name: int
    far_name: int
    #: believed owner of the far end — "can be wrong" (§4.2)
    hint: str
    #: rid of our outstanding status signal, if any
    signal_rid: Optional[int] = None
    #: REQUEST interrupts (kind 'req') awaiting acceptance
    pending_reqs: Deque[Interrupt] = field(default_factory=deque)
    #: every unaccepted incoming rid on this end (signals and puts) —
    #: the set we must zero-accept when moving or destroying (§4.2)
    incoming_rids: Dict[int, Interrupt] = field(default_factory=dict)


@dataclass
class _Send:
    """An outstanding outgoing request of ours."""

    ref: EndRef
    msg: Optional[WireMessage]  # None for signals
    kind: str  # 'req' | 'rep' | 'sig'
    timer: Optional[Event] = None
    probes: int = 0


class SodaRuntime(LynxRuntimeBase):
    def __init__(self, handle, cluster) -> None:
        super().__init__(handle, cluster)
        self.port: SodaPort = cluster.kernel.register_process(
            self.name, handle.node
        )
        self.costs = cluster.costs
        self.sends: Dict[int, _Send] = {}
        self.sref: Dict[EndRef, _SodaEnd] = {}
        self.name_to_ref: Dict[int, EndRef] = {}
        #: moved-away ends: name -> new owner; names stay advertised
        #: until evicted ("keeps the names of those links advertised")
        self.cache: "OrderedDict[int, str]" = OrderedDict()
        self.cache_size: int = cluster.cache_size
        self._intr_q: Deque[Interrupt] = deque()
        #: rids whose hint-probe timer fired (probe to be started)
        self._repairs: Deque[int] = deque()
        #: (rid, discover result) pairs awaiting conclusion
        self._probe_results: Deque[tuple] = deque()
        self.freezer = FreezeManager(self)
        self.port.set_handler(self._on_interrupt)

    # ------------------------------------------------------------------
    # interrupt plumbing
    # ------------------------------------------------------------------
    def _on_interrupt(self, intr: Interrupt) -> None:
        """The single SODA software-interrupt handler (§4.1): record
        and wake; real work happens at block points."""
        self._intr_q.append(intr)
        self._wake()

    def rt_block_wait(self):
        if not self._intr_q and not self._repairs and not self._probe_results:
            yield self.wakeup_future()
        while self._intr_q:
            intr = self._intr_q.popleft()
            yield from self._handle_interrupt(intr)
        while self._repairs:
            self._start_probe(self._repairs.popleft())
        while self._probe_results:
            rid, found = self._probe_results.popleft()
            yield from self._conclude_probe(rid, found)

    def _handle_interrupt(self, intr: Interrupt) -> Generator:
        if intr.kind is InterruptKind.REQUEST:
            yield from self._on_request_interrupt(intr)
        elif intr.kind is InterruptKind.COMPLETION:
            yield from self._on_completion(intr)
        elif intr.kind is InterruptKind.CRASH:
            yield from self._on_crash_interrupt(intr)

    # ------------------------------------------------------------------
    # incoming requests
    # ------------------------------------------------------------------
    def _on_request_interrupt(self, intr: Interrupt) -> Generator:
        kind = intr.oob.get("kind")
        if kind == "freeze":
            yield from self.freezer.on_freeze_request(intr)
            return
        if kind == "unfreeze":
            yield from self.freezer.on_unfreeze_request(intr)
            return
        ref = self.name_to_ref.get(intr.name)
        if ref is None:
            # not ours any more: the cache answers with a redirect
            new_owner = self.cache.get(intr.name)
            if new_owner is not None:
                yield self.port.accept(
                    intr.rid, oob={"kind": "moved", "to": new_owner}
                )
                self.metrics.count("soda.redirects_served")
            else:
                # truly unknown; leave it pending (its sender's probes
                # will eventually repair or give up)
                self.metrics.count("soda.unknown_name_requests")
            return
        se = self.sref.get(ref)
        if se is None:  # mid-teardown
            self.metrics.count("soda.unknown_name_requests")
            return
        se.incoming_rids[intr.rid] = intr
        if kind == "req":
            se.pending_reqs.append(intr)
            # availability may unblock a wait_request at this block point
        elif kind == "rep":
            yield from self._accept_reply(se, intr)
        elif kind == "sig":
            # a status signal parks here until destroy/move (§4.2)
            self.metrics.count("soda.signals_received")

    def _accept_reply(self, se: _SodaEnd, intr: Interrupt) -> Generator:
        es = self.ends.get(se.ref)
        if not self.reply_wanted(es, intr.oob.get("reply_to", -1)):
            # zero-length accept; the OOB tells the replier the request
            # was aborted — no acknowledgment traffic needed (§6)
            se.incoming_rids.pop(intr.rid, None)
            yield self.port.accept(intr.rid, oob={"kind": "aborted"}, nrecv=0)
            self.metrics.count("soda.aborted_reply_refusals")
            return
        se.incoming_rids.pop(intr.rid, None)
        status, data = yield self.port.accept(
            intr.rid, oob={}, nrecv=intr.nsend
        )
        if status is AcceptStatus.OK and data is not None:
            self.deliver_reply(se.ref, data)

    # ------------------------------------------------------------------
    # completions and crashes for our own requests
    # ------------------------------------------------------------------
    def _on_completion(self, intr: Interrupt) -> Generator:
        if self.freezer.on_completion_maybe(intr):
            return
        snd = self.sends.pop(intr.rid, None)
        if snd is None:
            return
        if snd.timer is not None:
            snd.timer.cancel()
        oob_kind = intr.oob.get("kind")
        if oob_kind == "moved":
            # §4.2: "uses the out-of-band information to tell the other
            # process where it moved its end" — follow the redirect
            new_owner = intr.oob.get("to", snd.ref and "")
            se = self.sref.get(snd.ref)
            if se is not None:
                se.hint = new_owner
                self.metrics.count("soda.redirects_followed")
                yield from self._repost(se, snd)
            return
        if oob_kind == "destroyed":
            self._drop_signal(snd)
            # a zero-length 'destroyed' accept transferred nothing: any
            # enclosures in the refused message are still ours (§6
            # item 3 — acceptance IS receipt, and this wasn't one)
            if snd.msg is not None:
                self._restore_enclosures(snd.msg)
            self.notify_destroyed(snd.ref, "link destroyed by peer")
            return
        if oob_kind == "aborted":
            if snd.msg is not None:
                self.notify_reply_aborted(snd.ref, snd.msg.seq)
            return
        if snd.kind in ("req", "rep") and snd.msg is not None:
            # acceptance IS receipt under SODA; the completion's sender
            # field is the accepter — the moved ends' new owner
            for enc in snd.msg.enclosures:
                yield from self._after_enclosure_moved(enc, intr.frm)
            self.notify_receipt(snd.ref, snd.msg.seq)

    def _drop_signal(self, snd: _Send) -> None:
        se = self.sref.get(snd.ref)
        if se is not None and se.signal_rid is not None:
            se.signal_rid = None

    def _on_crash_interrupt(self, intr: Interrupt) -> Generator:
        """The hinted process died.  Maybe the link died with it; maybe
        our hint was just stale (the end moved before the death).  Try
        to find the end before declaring destruction (§4.2)."""
        if self.freezer.on_completion_maybe(intr):
            return
        snd = self.sends.pop(intr.rid, None)
        if snd is None:
            return
        if snd.timer is not None:
            snd.timer.cancel()
        self._drop_signal(snd)
        yield from self._find_or_destroy(snd)

    # ------------------------------------------------------------------
    # hint repair: probe timers, discover, freeze
    # ------------------------------------------------------------------
    def _arm_timer(self, rid: int, snd: _Send) -> None:
        # a repost keeps its probe count, so a repair that goes round in
        # a circle backs off as a confirmed hint does
        def fire() -> None:
            if rid in self.sends:
                self._repairs.append(rid)
                self._wake()

        snd.timer = self.engine.schedule(
            self.costs.hint_timeout_ms * (2 ** min(snd.probes, 6)), fire
        )

    def _start_probe(self, rid: int) -> None:
        """A request has been outstanding suspiciously long: check the
        hint with a discover, asynchronously (the dispatcher keeps
        running; the result is handled at a later block point)."""
        snd = self.sends.get(rid)
        if snd is None:
            return
        se = self.sref.get(snd.ref)
        if se is None:
            return
        snd.probes += 1
        self.metrics.count("soda.hint_probes")
        fut = self.port.discover(se.far_name)

        def on_result(f) -> None:
            self._probe_results.append((rid, f.value))
            self._wake()

        fut.add_done_callback(on_result)

    def _conclude_probe(self, rid: int, found: Optional[str]) -> Generator:
        """Act on a probe's discover result.  A healthy-but-closed
        receiver is normal — the probe just confirms the hint and backs
        off."""
        snd = self.sends.get(rid)
        if snd is None:
            return
        se = self.sref.get(snd.ref)
        if se is None:
            return
        if found == se.hint:
            # hint fine; the far end is just not accepting (closed
            # queue).  Back off exponentially.
            self._arm_timer(rid, snd)
            return
        if found is not None:
            se.hint = found
            self.metrics.count("soda.hints_repaired_by_discover")
            self.sends.pop(rid, None)
            yield self.port.withdraw(rid)
            yield from self._repost(se, snd)
            return
        if snd.probes < self.costs.discover_attempts:
            self._repairs.append(rid)
            return
        # last resort: the freeze search (§4.2), then give up
        self.sends.pop(rid, None)
        yield self.port.withdraw(rid)
        yield from self._find_or_destroy(snd)

    def _find_or_destroy(self, snd: _Send) -> Generator:
        se = self.sref.get(snd.ref)
        if se is None:
            return
        for _ in range(self.costs.discover_attempts):
            found = yield self.port.discover(se.far_name)
            if found is not None and found != self.name:
                se.hint = found
                self.metrics.count("soda.hints_repaired_by_discover")
                yield from self._repost(se, snd)
                return
        hint = yield from self.freezer.search(se.far_name)
        if hint is not None and hint != self.name:
            se.hint = hint
            self.metrics.count("soda.hints_repaired_by_freeze")
            yield from self._repost(se, snd)
            return
        # "A process that is unable to find the far end of a link must
        # assume it has been destroyed." (§4.2)  Unaccepted messages
        # were never received: their enclosures are still ours.
        self.metrics.count("soda.links_presumed_destroyed")
        if snd.msg is not None:
            self._restore_enclosures(snd.msg)
        yield from self._withdraw_sends_on(snd.ref, restore=True)
        self.notify_destroyed(snd.ref, "crash: far end unreachable", crash=True)

    def _withdraw_sends_on(self, ref: EndRef, restore: bool = False) -> Generator:
        """Withdraw every outstanding send of ours on ``ref``; with
        ``restore`` the enclosures of unaccepted (never received)
        messages come back to us."""
        for rid, snd in list(self.sends.items()):
            if snd.ref == ref:
                if snd.timer is not None:
                    snd.timer.cancel()
                self.sends.pop(rid, None)
                yield self.port.withdraw(rid)
                if restore and snd.msg is not None:
                    self._restore_enclosures(snd.msg)

    def _repost(self, se: _SodaEnd, snd: _Send) -> Generator:
        if snd.kind == "sig":
            se.signal_rid = None
            yield from self._post_signal(se)
            return
        assert snd.msg is not None
        rid = yield self.port.request(
            se.hint,
            se.far_name,
            {"kind": snd.kind, "seq": snd.msg.seq, "reply_to": snd.msg.reply_to},
            nsend=snd.msg.wire_size,
            data=snd.msg,
        )
        new = _Send(se.ref, snd.msg, snd.kind, probes=snd.probes)
        self.sends[rid] = new
        self._arm_timer(rid, new)
        self.metrics.count("soda.reposts")

    # ------------------------------------------------------------------
    # transport hooks
    # ------------------------------------------------------------------
    def rt_startup(self):
        yield from self.freezer.startup()

    def rt_new_link(self):
        link = self.registry.alloc_link(self.name, self.name)
        name_a = yield self.port.new_name()
        name_b = yield self.port.new_name()
        yield self.port.advertise(name_a)
        yield self.port.advertise(name_b)
        ref_a, ref_b = EndRef(link, 0), EndRef(link, 1)
        self.sref[ref_a] = _SodaEnd(ref_a, name_a, name_b, self.name)
        self.sref[ref_b] = _SodaEnd(ref_b, name_b, name_a, self.name)
        self.name_to_ref[name_a] = ref_a
        self.name_to_ref[name_b] = ref_b
        return ref_a, ref_b

    def preload_soda_end(self, ref: EndRef, my_name: int, far_name: int,
                         hint: str) -> None:
        """Cluster-side installation of an initial link end."""
        self.sref[ref] = _SodaEnd(ref, my_name, far_name, hint)
        self.name_to_ref[my_name] = ref
        self.cluster.kernel.advertise(self.name, my_name)

    def _se(self, ref: EndRef) -> _SodaEnd:
        se = self.sref.get(ref)
        if se is None:
            raise ProtocolViolation(f"{self.name} has no SODA state for {ref}")
        return se

    def rt_send_request(self, es: EndState, msg: WireMessage):
        yield from self._put(es, msg, "req")

    def rt_send_reply(self, es: EndState, msg: WireMessage):
        yield from self._put(es, msg, "rep")

    def _put(self, es: EndState, msg: WireMessage, kind: str):
        se = self._se(es.ref)
        rid = yield self.port.request(
            se.hint,
            se.far_name,
            {"kind": kind, "seq": msg.seq, "reply_to": msg.reply_to},
            nsend=msg.wire_size,
            data=msg,
        )
        snd = _Send(es.ref, msg, kind)
        self.sends[rid] = snd
        self._arm_timer(rid, snd)
        self.metrics.count(f"wire.messages.{msg.kind._value_}")

    def rt_sync_interest(self, es: EndState):
        """Post a status signal toward the far end whenever we are
        interested in receiving on this link (§4.2)."""
        se = self.sref.get(es.ref)
        if se is None or es.lifecycle is not EndLifecycle.OWNED:
            return
        want = es.queue_open or es.reply_queue_open
        if want and se.signal_rid is None:
            yield from self._post_signal(se)
        elif not want and se.signal_rid is not None:
            # interest ended: withdraw the signal so the link goes
            # genuinely dormant (the §4.2 case where a later move costs
            # a hint repair rather than a free move-time redirect)
            rid, se.signal_rid = se.signal_rid, None
            self.sends.pop(rid, None)
            yield self.port.withdraw(rid)

    def _post_signal(self, se: _SodaEnd):
        rid = yield self.port.request(
            se.hint, se.far_name, {"kind": "sig"}, nsend=0, nrecv=0
        )
        se.signal_rid = rid
        # no probe timer: a status signal is SUPPOSED to stay pending
        # until the far end dies (CRASH interrupt), destroys the link,
        # or moves its end (zero-accept with OOB) — §4.2
        self.sends[rid] = _Send(se.ref, None, "sig")
        self.metrics.count("soda.signals_posted")

    def rt_request_available(self, es: EndState) -> bool:
        se = self.sref.get(es.ref)
        return bool(se and se.pending_reqs)

    def rt_take_request(self, es: EndState):
        se = self._se(es.ref)
        while se.pending_reqs:
            intr = se.pending_reqs.popleft()
            se.incoming_rids.pop(intr.rid, None)
            status, data = yield self.port.accept(
                intr.rid, oob={}, nrecv=intr.nsend
            )
            if status is AcceptStatus.OK and data is not None:
                return data
            # withdrawn (aborted before receipt): try the next one
            self.metrics.count("soda.accepts_of_withdrawn")
        return None

    def rt_destroy(self, es: EndState, reason: str):
        se = self.sref.pop(es.ref, None)
        if se is None:
            return
        # §4.2: accept every previously-posted request from the far end
        # with zero-length buffers, mentioning the destruction
        why = self.crash_tagged(reason)
        for rid in list(se.incoming_rids):
            yield self.port.accept(
                rid, oob={"kind": "destroyed", "why": why}, nrecv=0
            )
        se.incoming_rids.clear()
        # withdraw our own outstanding traffic on this end
        yield from self._withdraw_sends_on(es.ref)
        yield self.port.unadvertise(se.my_name)
        self.name_to_ref.pop(se.my_name, None)

    def rt_abort_connect(self, es: EndState, waiter):
        for rid, snd in list(self.sends.items()):
            if (
                snd.ref == es.ref
                and snd.msg is not None
                and snd.msg.seq == waiter.seq
                and snd.kind == "req"
            ):
                ok = yield self.port.withdraw(rid)
                if ok:
                    if snd.timer is not None:
                        snd.timer.cancel()
                    self.sends.pop(rid, None)
                    self.metrics.count("soda.aborts_withdrawn")
                    return True
                return False
        # already accepted (received): the abort will surface when the
        # reply put arrives and we zero-accept it with OOB 'aborted'
        return False

    # ------------------------------------------------------------------
    # moves
    # ------------------------------------------------------------------
    def rt_export_end(self, es: EndState) -> dict:
        se = self._se(es.ref)
        return {
            "my_name": se.my_name,
            "far_name": se.far_name,
            "hint": se.hint,
        }

    def rt_adopt_end(self, ref: EndRef, meta: dict):
        se = _SodaEnd(ref, meta["my_name"], meta["far_name"], meta["hint"])
        self.sref[ref] = se
        self.name_to_ref[se.my_name] = ref
        yield self.port.advertise(se.my_name)

    def _after_enclosure_moved(self, enc: EndRef, new_owner: str) -> Generator:
        """Our message carrying ``enc`` was accepted: the end now lives
        with ``new_owner``.  §4.2: accept any previously-posted request
        from the far end, redirecting it; then cache the name (and keep
        it advertised) so stale hints repair cheaply."""
        se = self.sref.pop(enc, None)
        if se is None:
            return
        for rid in list(se.incoming_rids):
            yield self.port.accept(
                rid, oob={"kind": "moved", "to": new_owner}, nrecv=0
            )
            self.metrics.count("soda.move_redirect_accepts")
        se.incoming_rids.clear()
        # withdraw our own signal on the moved end
        if se.signal_rid is not None:
            snd = self.sends.pop(se.signal_rid, None)
            if snd is not None and snd.timer is not None:
                snd.timer.cancel()
            yield self.port.withdraw(se.signal_rid)
        self.name_to_ref.pop(se.my_name, None)
        self.cache[se.my_name] = new_owner
        self.cache.move_to_end(se.my_name)
        self.metrics.count("soda.cache_inserts")
        while len(self.cache) > self.cache_size:
            old_name, _ = self.cache.popitem(last=False)
            # forgetting: the name is unadvertised; later seekers must
            # fall back to discover (§4.2's "If A has forgotten")
            yield self.port.unadvertise(old_name)
            self.metrics.count("soda.cache_evictions")

