"""The kernel-independent half of the LYNX run-time package.

`LynxRuntimeBase` implements everything the *language definition*
determines — coroutine scheduling in mutual exclusion, block points,
request/reply queue semantics, fairness, type checking, gather/scatter,
move legality, the exception model — and leaves everything the *kernel*
determines to abstract transport hooks.  The three kernel runtime
packages subclass it:

====================  =============================================
`repro.charlotte.runtime.CharlotteRuntime`
                      kernel links + activities; carries the whole
                      §3.2.1/§3.2.2 unwanted-message and
                      multi-enclosure machinery
`repro.soda.runtime.SodaRuntime`
                      advertised names, put/accept, hints, caches,
                      discover, freeze (§4.2)
`repro.chrysalis.runtime.ChrysalisRuntime`
                      shared link objects, flags, dual-queue notices
                      (§5.2)
====================  =============================================

Execution model
---------------
One runtime == one simulated process == one `repro.sim.tasks.Task`
driving `main_generator`.  The dispatcher steps LYNX threads (user
generators yielding `repro.core.ops` objects) one at a time; when no
thread is runnable the process is at a *block point* and the dispatcher
calls the kernel-specific ``rt_block_wait``.

Message receipt discipline (important for fidelity): **requests are
taken from the transport lazily**, at block points, when an open queue
and a thread in ``wait_request`` exist — so unwanted messages stay *in
the kernel* under SODA (unaccepted puts) and *in the link object* under
Chrysalis (flags), exactly as the paper describes.  Only the Charlotte
kernel eagerly pushes messages at the runtime — which is precisely what
creates the retry/forbid/allow machinery in that runtime package.

How a message is handled
------------------------
A thread yields an op; `_run_thread` looks its class up in
`LynxRuntimeBase._OPS` — the whole language surface, one row per op.
``connect`` and ``reply`` gather (`_charge`, inside a ``marshal`` span),
then `_stage` the message — next seq on the end, its enclosed ends
IN_TRANSIT, recorded in ``outgoing`` — and hand it to `_transmit`, the
fault plane in front of ``rt_send_request`` / ``rt_send_reply``.  A
staged message leaves ``outgoing`` once, through `_retract_outgoing`
(or with its whole end, in `_mark_destroyed`):

* *receipt* (`notify_receipt`) — enclosures MOVED, replier resumed;
* *bounce* (`notify_bounce`) — enclosures OWNED again;
* *reply refused* (`notify_reply_aborted`, or ``rt_send_reply``
  raising) — the replier feels `RequestAborted`;
* *unwind* (`_unwind_connect`) — send failed, aborted, or exhausted;
* *gave up* (`_reply_recovery_fire`) — the reply's budget ran out.

At a block point `_deliver_pending` hands a reply (when `deliver_reply`
has queued one since its last scan) to `_consume_reply` and a request —
taken lazily, when a thread waits for one — to `_consume_request`; both
`_scatter` it (the charge inside an ``unmarshal`` span, then the lazy
unmarshal) and adopt its enclosures.  A refused request is answered by
`_auto_exception_reply`; `WIRE_ERRORS` is what that EXCEPTION raises in
the connecting thread.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Any, Dict, Generator, Iterator, List, Optional, Tuple

from repro.core import codec
from repro.core import ops as _ops
from repro.core.context import LynxContext
from repro.core.exceptions import (
    LinkDestroyed,
    LinkMoved,
    LynxError,
    MoveRestricted,
    ProtocolViolation,
    RecoveryExhausted,
    RemoteCrash,
    RequestAborted,
    ThreadAborted,
    TypeClash,
)
from repro.core.links import (
    ConnectWaiter,
    EndLifecycle,
    EndRef,
    EndState,
    LinkEnd,
)
from repro.core.ports import kernel_profile
from repro.core.program import Incoming
from repro.core.recovery import TimerWheel
from repro.core.threads import LynxThread, ThreadState
from repro.core.types import Operation
from repro.core.wire import ExceptionCode, MsgKind, WireMessage
from repro.sim.faults import CrashMode
from repro.sim.futures import Future
from repro.sim.tasks import Task, TaskKilled

#: retransmit period (ms) of a kernel-placement backend's silent loss
#: recovery: Charlotte's kernel, not a property of the network
KERNEL_RETRANSMIT_MS = 25.0

#: what the `ExceptionCode` of an EXCEPTION message raises in the thread
#: whose connect it answers: (class, text)
WIRE_ERRORS = {
    ExceptionCode.REQUEST_ABORTED: (RequestAborted, "request aborted"),
    ExceptionCode.LINK_DESTROYED: (
        LinkDestroyed, "link destroyed during operation"),
    ExceptionCode.NO_SUCH_OPERATION: (
        TypeClash, "server does not serve this operation"),
    ExceptionCode.TYPE_CLASH: (TypeClash, "request/reply signature mismatch"),
}


class LynxRuntimeBase:
    """Shared half of the LYNX run-time package; see module docstring."""

    def __init__(self, handle, cluster) -> None:
        self.handle = handle
        self.cluster = cluster
        self.engine = cluster.engine
        self.metrics = cluster.metrics
        self.registry = cluster.registry
        self.name: str = handle.name
        #: costs of the run-time package itself (`RuntimeCosts`), from
        #: the profile the cluster calibrated
        self.rc = cluster.costs.runtime

        #: coroutines born and not yet finished — a count, not a list:
        #: a server forks one per request and must not remember them
        self.live_threads = 0
        self.ready: deque[LynxThread] = deque()
        #: user threads run only while this is 0: SODA's freeze
        #: protocol (§4.2) raises it while the process is frozen —
        #: "ceases execution of everything but its own searches"
        self.frozen_count = 0
        self.ends: Dict[EndRef, EndState] = {}
        self.op_registry: Dict[str, Operation] = {}
        self.initial_links: List[LinkEnd] = []

        #: threads blocked in WaitRequest, FIFO, with their end filters
        self._wait_req: deque[Tuple[LynxThread, Optional[Tuple[EndRef, ...]]]] = (
            deque()
        )
        #: round-robin rotation of end refs for queue fairness (§2.1)
        self._rr: deque[EndRef] = deque()
        #: a reply was queued on some end since `_deliver_pending` last
        #: scanned them, so the next block point scans again
        self._replies_waiting = False
        #: None, or the pending future the dispatcher blocks on: only
        #: `_wake` settles it, and clears it as it does
        self._wakeup: Optional[Future] = None
        #: level-trigger latch: a wake that arrived while no wakeup
        #: future existed (e.g. during a charged kernel call) is
        #: remembered, not lost
        self._wake_signal = False
        #: what `wakeup_future` returns for a latched wake: one settled
        #: future, waited on again and again (a settled future keeps no
        #: listeners)
        self._woken = Future(self.engine, "wakeup-latched")
        self._woken.resolve(None)
        self.alive = True
        self.exited = False
        self._crash_mode: Optional[CrashMode] = None
        #: recovery timeouts batch same-deadline timers behind one
        #: engine event; see repro.core.recovery.TimerWheel
        self.timers = TimerWheel(self.engine)
        #: a copy of a message can arrive (a fault plane duplicates, a
        #: recovery policy retransmits): suppress it by sequence number.
        #: Both are installed before any process spawns: `install_faults`
        #: and `install_recovery` refuse after one (docs/FAULTS.md)
        self._suppress_copies = (
            cluster.faults is not None or cluster.recovery is not None
        )

    # ==================================================================
    # kernel-specific transport hooks (overridden by kernel runtimes);
    # all are generator functions unless noted
    # ==================================================================
    def rt_startup(self) -> Generator:
        """Per-process kernel setup (allocate queues, register names)."""
        return
        yield

    def rt_new_link(self) -> Generator:
        """Create a fresh link with both ends owned locally; returns
        (ref_a, ref_b)."""
        raise NotImplementedError

    def rt_send_request(self, es: EndState, msg: WireMessage) -> Generator:
        """Put a REQUEST on the wire (or queue it transport-side)."""
        raise NotImplementedError

    def rt_send_reply(self, es: EndState, msg: WireMessage) -> Generator:
        """Put a REPLY/EXCEPTION on the wire.  May raise
        `RequestAborted` if the transport can tell the requester no
        longer wants it (SODA/Chrysalis can; Charlotte cannot — §3.2)."""
        raise NotImplementedError

    def rt_sync_interest(self, es: EndState) -> Generator:
        """The set of messages we are willing to receive on ``es``
        changed (queue opened/closed, reply newly expected/satisfied).
        Charlotte posts/cancels kernel Receives here; SODA posts status
        signals; Chrysalis needs nothing."""
        return
        yield

    def rt_block_wait(self) -> Generator:
        """Block until at least one transport event has been applied
        (via the ``deliver_* / notify_*`` base hooks or internal
        state)."""
        raise NotImplementedError

    def rt_request_available(self, es: EndState) -> bool:
        """(plain) A request could be taken from the transport on this
        end right now."""
        raise NotImplementedError

    def rt_take_request(self, es: EndState) -> Generator:
        """Take one request from the transport (scatter/accept it);
        returns a WireMessage, or None if none was actually available."""
        raise NotImplementedError

    def rt_destroy(self, es: EndState, reason: str) -> Generator:
        """Destroy the link at the kernel level and notify the peer."""
        raise NotImplementedError

    def rt_abort_connect(self, es: EndState, waiter: ConnectWaiter) -> Generator:
        """Attempt to withdraw the outstanding request of ``waiter``.
        Returns True if it was withdrawn before receipt (enclosures are
        then restored by the base)."""
        raise NotImplementedError

    def rt_export_end(self, es: EndState) -> dict:
        """(plain) Transport metadata shipped with a moving end."""
        return {}

    def rt_adopt_end(self, ref: EndRef, meta: dict) -> Generator:
        """Adopt a moved-in end at the kernel level (map the memory
        object, advertise the name, ...)."""
        return
        yield

    # ==================================================================
    # base hooks called by kernel runtimes when transport events occur.
    # These are plain functions, safe to call from kernel callbacks at
    # any simulated instant; they only mutate state and wake the
    # dispatcher.
    # ==================================================================
    def deliver_reply(self, ref: EndRef, msg: WireMessage) -> None:
        """A REPLY or EXCEPTION message arrived for a connect of ours."""
        es = self.ends.get(ref)
        if es is None:
            self.metrics.count("runtime.stray_reply")
            return
        es.incoming_replies.append(msg)
        self._replies_waiting = True
        self._wake()

    def notify_receipt(self, ref: EndRef, seq: int) -> None:
        """A message we sent (request or reply) was received by the far
        process; finalises enclosure moves and unblocks stop-and-wait
        senders."""
        es = self.ends.get(ref)
        if es is None:
            return
        msg = self._retract_outgoing(es, seq)
        if msg is None:
            return
        self._finalise_enclosures(msg)
        waiter_thread = es.send_waiters.pop(seq, None)
        if waiter_thread is not None:
            self._resume(waiter_thread, None)
        self._wake()

    def notify_bounce(self, ref: EndRef, seq: int) -> None:
        """A message we sent was returned unreceived (Charlotte retry /
        forbid); enclosures come back to us.  The kernel runtime is
        responsible for any resend policy; the base only restores
        enclosure ownership if the message will NOT be resent (the
        Charlotte runtime resends, so it does not call this for retried
        requests — only for terminally bounced ones)."""
        es = self.ends.get(ref)
        if es is None:
            return
        msg = self._retract_outgoing(es, seq)
        if msg is None:
            return
        self._restore_enclosures(msg)
        self._wake()

    def notify_reply_aborted(self, ref: EndRef, seq: int) -> None:
        """The requester aborted; our REPLY was refused — the replying
        coroutine feels `RequestAborted` (§3.2)."""
        es = self.ends.get(ref)
        if es is None:
            return
        msg = self._retract_outgoing(es, seq)
        if msg is not None:
            self._restore_enclosures(msg)
        t = es.send_waiters.pop(seq, None)
        if t is not None:
            self._resume_error(t, RequestAborted(f"requester aborted on {ref}"))
        self.metrics.count("runtime.reply_aborted")
        self._wake()

    def notify_destroyed(self, ref: EndRef, reason: str, crash: bool = False) -> None:
        """The link was destroyed underneath us (peer destroyed it or
        its process died)."""
        es = self.ends.get(ref)
        if es is None or es.lifecycle is EndLifecycle.DESTROYED:
            return
        self._mark_destroyed(es, reason, crash)
        self._wake()

    # ==================================================================
    # process main loop
    # ==================================================================
    def main_generator(self) -> Generator:
        """The generator driven as this process's simulation Task."""
        try:
            yield from self.rt_startup()
            ctx = LynxContext(self)
            self._spawn_thread(self.handle.program.main(ctx), f"{self.name}.main")
            while self.alive:
                while self.ready and self.alive and not self.frozen_count:
                    t = self.ready.popleft()
                    if t.live:
                        yield from self._run_thread(t)
                if not self.alive or not self.live_threads:
                    break
                # a block point, entered only with live threads; none can
                # finish in here, since threads run only in `_run_thread`
                yield self.rc.dispatch_ms
                while self.alive:
                    if not self.frozen_count:
                        # (nothing to deliver without a reply or a waiter)
                        if self._replies_waiting or self._wait_req:
                            yield from self._deliver_pending()
                        if self.ready:
                            break
                    yield from self.rt_block_wait()
        except GeneratorExit:
            # the simulation ended with this process still suspended
            # (e.g. an undetected Chrysalis processor failure left it
            # blocked) and its generator is being freed, by reference
            # counting once its cluster is closed and dropped, or by GC;
            # no simulated clean-up can run then
            self.alive = False
            self.exited = True
            raise
        except TaskKilled as kill:
            # the kill stays in the frame of the task step that threw it
            # in; with its traceback it would hold this generator's frame,
            # and through it that step's, in a reference cycle (3.12+)
            kill.with_traceback(None)
            self.alive = False
            if self._crash_mode is CrashMode.PROCESSOR:
                # hard processor failure: nothing more runs here; the
                # *kernel* may or may not clean up (cluster decides)
                self.exited = True
                raise
            # TERMINATE / FAULT: orderly clean-up still runs (§5.2:
            # "even erroneous processes can clean up their links")
        finally:
            # ``exited`` first: a closed cluster's runtime is empty
            # (`ClusterBase.close`) by the time its generator is freed
            if not self.exited and self._crash_mode is not CrashMode.PROCESSOR:
                yield from self._cleanup()
                self.exited = True

    def _cleanup(self) -> Generator:
        """LYNX semantics: "the termination of a process must destroy
        all the links attached to that process" (§2.2)."""
        self.alive = False
        # an end that moves away meanwhile is MOVED, and skipped
        for es in list(self.ends.values()):
            if es.lifecycle is not EndLifecycle.OWNED:
                continue
            reason = f"process {self.name} terminated"
            self._mark_destroyed(es, reason, crash=self._crash_mode is not None)
            try:
                yield from self.rt_destroy(es, reason)
            except LynxError:
                self.metrics.count("runtime.cleanup_errors")
            self.registry.record_destroyed(es.ref.link, reason)
        # every link is gone: kernels that track per-process liveness
        # (crash interrupts, name tables) forget the process
        self.cluster.runtime_exited(self)

    # ------------------------------------------------------------------
    # thread machinery
    # ------------------------------------------------------------------
    def _spawn_thread(self, gen: Generator, name: str) -> LynxThread:
        t = LynxThread(gen, name)
        self.live_threads += 1
        self.ready.append(t)
        return t

    def _run_thread(self, t: LynxThread) -> Generator:
        """Step ``t`` until it blocks or finishes.  Mutual exclusion is
        by construction: nothing else runs while we are in here."""
        while t.state is ThreadState.READY and self.alive:
            try:
                if t.pending_error is not None:
                    err, t.pending_error = t.pending_error, None
                    t.pending_value = None
                    op = t.gen.throw(err)
                else:
                    val, t.pending_value = t.pending_value, None
                    op = t.gen.send(val)
            # each ``as err`` unbinds the error thrown in above when its
            # clause ends: left bound, it and its traceback would hold
            # this frame (and, from 3.12, the callers' frames up to the
            # cluster) in a reference cycle
            except StopIteration as err:  # noqa: F841
                t.state = ThreadState.DONE
            except ThreadAborted as err:  # noqa: F841
                t.state = ThreadState.DONE
                self.metrics.count("runtime.threads_aborted")
            except LynxError as err:  # noqa: F841
                # an unhandled LYNX exception terminates the coroutine
                t.state = ThreadState.FAILED
                self.metrics.count("runtime.threads_failed")
            else:
                handler = self._OPS.get(type(op))
                if handler is None:
                    t.pending_error = ProtocolViolation(f"unknown op {op!r}")
                    continue
                steps = handler(self, t, op)
                if steps is not None:
                    yield from steps
                continue
            # every ``except`` arm above is a finished thread — the only
            # place one finishes
            self.live_threads -= 1
            return

    # ------------------------------------------------------------------
    # op handlers: `_OPS` (below them) maps each `repro.core.ops` class
    # to its ``(self, t, op)`` handler, which `_run_thread` calls.  A
    # handler either leaves ``t`` READY with ``pending_value`` /
    # ``pending_error`` set (None, the slot's state when the handler is
    # entered, is the default result) or blocks it; one that charges
    # simulated time or makes a kernel downcall is a generator
    # function, the rest are plain.
    # ------------------------------------------------------------------

    # -- connect --------------------------------------------------------
    def _op_connect(self, t: LynxThread, op: _ops.ConnectOp) -> Generator:
        try:
            es = self._resolve_end(op.end)
            payload, encs = codec.request_payload(op.op, op.args)
            self._check_movable(encs, es)
        except LynxError as err:
            t.pending_error = err
            return
        # mint the causal root of this RPC; it rides on every message of
        # the conversation (see repro.obs.causal)
        root = self.cluster.spans.new_trace()
        root_t0 = self.engine.now
        yield self._charge(
            self.rc.gather_fixed_ms, payload, encs, "runtime.gathers")
        if root is not None:
            self.cluster.spans.emit(
                root, "runtime", "marshal", self.name, root_t0, self.engine.now
            )
        msg = self._stage(es, WireMessage(
            kind=MsgKind.REQUEST, opname=op.op.name, sighash=op.op.sighash,
            payload=payload, enclosures=encs, span=root,
        ))
        waiter = ConnectWaiter(
            t, msg.seq, op.op, sent_at=self.engine.now, span=root,
            span_t0=root_t0, request=msg,
        )
        es.connect_waiters.append(waiter)
        t.block(op.op.connect_span)
        self.metrics.count("runtime.connects")
        self.cluster.trace_msg(self.name, "send", es.ref, msg, op.op.name)
        try:
            yield from self._transmit_request(es, msg)
            yield from self.rt_sync_interest(es)
        except LynxError as err:
            self._unwind_connect(es, waiter)
            self._resume_error(t, err)
        else:
            self._arm_recovery(es, waiter)

    def _unwind_connect(self, es: EndState, waiter: ConnectWaiter) -> None:
        """End a connect from our side (send failed, aborted and
        withdrawn, recovery exhausted): if its request is still
        outgoing, its enclosures come back to us."""
        if waiter in es.connect_waiters:
            es.connect_waiters.remove(waiter)
        msg = self._retract_outgoing(es, waiter.seq)
        if msg is not None:
            self._restore_enclosures(msg)
        self._finish_root_span(waiter)

    def _finish_root_span(self, waiter: ConnectWaiter) -> None:
        """Close the RPC's root span (at most once) — the trace covers
        connect entry to this instant, however the connect ended.
        Every connect-end path funnels through here, so it also
        disarms the waiter's recovery timer."""
        self._cancel_recovery(waiter)
        if waiter.span is not None:
            self.cluster.spans.emit_root(
                waiter.span, waiter.op.connect_span, self.name,
                waiter.span_t0, self.engine.now,
            )
            waiter.span = None

    # -- wait_request -----------------------------------------------------
    def _op_wait_request(self, t: LynxThread, op: _ops.WaitRequestOp) -> None:
        filt = None
        if op.ends is not None:
            filt = tuple(e.end_ref for e in op.ends)
        t.block("wait_request")
        self._wait_req.append((t, filt))

    # -- reply ------------------------------------------------------------
    def _op_reply(self, t: LynxThread, op: _ops.ReplyOp) -> Generator:
        inc: Incoming = op.incoming
        try:
            es = self._resolve_end(inc.end)
            if inc.seq not in es.owed_replies:
                raise ProtocolViolation(
                    f"no reply owed for seq {inc.seq} on {es.ref}"
                )
            payload, encs = codec.reply_payload(inc.op, op.results)
            self._check_movable(encs, es)
        except LynxError as err:
            t.pending_error = err
            return
        # emission order is load-bearing (span ids): app, charge, marshal
        root, serve_t0 = es.request_spans.pop(inc.seq, (None, 0.0))
        if root is not None:
            # the server's application time: request delivery -> reply
            self.cluster.spans.emit(
                root, "app", inc.op.serve_span, self.name,
                serve_t0, self.engine.now,
            )
        t0 = self.engine.now
        yield self._charge(
            self.rc.gather_fixed_ms, payload, encs, "runtime.gathers")
        if root is not None:
            self.cluster.spans.emit(
                root, "runtime", "marshal", self.name, t0, self.engine.now
            )
        msg = self._stage(es, WireMessage(
            kind=MsgKind.REPLY, reply_to=inc.seq, opname=inc.op.name,
            sighash=inc.op.sighash, payload=payload, enclosures=encs, span=root,
        ))
        es.owed_replies.discard(inc.seq)
        es.send_waiters[msg.seq] = t
        t.block("reply")
        self.metrics.count("runtime.replies")
        self.cluster.trace_msg(self.name, "send", es.ref, msg, inc.op.name)
        try:
            yield from self._transmit_reply(es, msg)
        except LynxError as err:
            es.send_waiters.pop(msg.seq, None)
            self._retract_outgoing(es, msg.seq)
            if isinstance(err, RequestAborted):
                # the requester withdrew: the reply's enclosures stay ours
                self._restore_enclosures(msg)
            self._resume_error(t, err)
        else:
            # a copy of the request replays this reply — unless the reply
            # moves link ends, which a replay would move twice
            if inc.seq in es.served and not msg.enclosures:
                es.served[inc.seq] = msg
            self._arm_reply_recovery(es, msg)

    # -- queue control ------------------------------------------------------
    def _op_set_queue(self, t: LynxThread, op) -> Generator:
        """`OpenOp` and `CloseOp`: the op's class is the wanted state."""
        try:
            es = self._resolve_end(op.end)
        except LynxError as err:
            t.pending_error = err
            return
        open_ = type(op) is _ops.OpenOp
        if es.queue_open != open_:
            es.queue_open = open_
            yield from self.rt_sync_interest(es)

    # -- link creation/destruction -------------------------------------------
    def _op_new_link(self, t: LynxThread, op: _ops.NewLinkOp) -> Generator:
        ref_a, ref_b = yield from self.rt_new_link()
        for ref in (ref_a, ref_b):
            self.ends[ref] = self._new_end_state(ref)
        t.pending_value = (
            LinkEnd(ref_a, self.name),
            LinkEnd(ref_b, self.name),
        )
        self.metrics.count("runtime.links_created")

    def _op_destroy(self, t: LynxThread, op: _ops.DestroyOp) -> Generator:
        try:
            es = self._resolve_end(op.end)
        except LynxError as err:
            t.pending_error = err
            return
        reason = f"destroyed by {self.name}"
        self._mark_destroyed(es, reason, crash=False)
        yield from self.rt_destroy(es, reason)
        self.registry.record_destroyed(es.ref.link, reason)

    # -- abort -----------------------------------------------------------------
    def _op_abort(self, t: LynxThread, op: _ops.AbortThreadOp) -> Generator:
        target = op.thread
        if target is t:
            t.pending_error = ProtocolViolation("a thread cannot abort itself")
            return
        if not target.live:
            return
        if target.state is ThreadState.BLOCKED:
            # find what it is blocked on
            if target.block_reason.startswith("connect"):
                es, waiter = self._find_connect_waiter(target)
                if waiter is not None:
                    waiter.aborted = True
                    self._cancel_recovery(waiter)
                    withdrawn = yield from self.rt_abort_connect(es, waiter)
                    if withdrawn:
                        self._unwind_connect(es, waiter)
                self.metrics.count("runtime.connect_aborts")
            elif target.block_reason == "wait_request":
                self._wait_req = deque(
                    (th, f) for th, f in self._wait_req if th is not target
                )
            self._resume_error(target, ThreadAborted("aborted by peer thread"))
        else:
            # runnable: deliver the abort before its next operation
            target.pending_error = ThreadAborted("aborted by peer thread")

    def _find_connect_waiter(
        self, t: LynxThread
    ) -> Tuple[Optional[EndState], Optional[ConnectWaiter]]:
        for es in self.ends.values():
            for w in es.connect_waiters:
                if w.thread is t:
                    return es, w
        return None, None

    # -- the ops that touch no link ---------------------------------------------
    def _op_fork(self, t: LynxThread, op: _ops.ForkOp) -> None:
        t.pending_value = self._spawn_thread(
            op.gen, op.name or f"{self.name}.fork"
        )

    def _op_register(self, t: LynxThread, op: _ops.RegisterOp) -> None:
        self.op_registry[op.operation.name] = op.operation

    def _op_delay(self, t: LynxThread, op: _ops.DelayOp) -> None:
        t.block("delay")
        self.engine.defer(op.ms, self._resume, t, None)

    def _op_compute(self, t: LynxThread, op: _ops.ComputeOp) -> Generator:
        yield op.ms

    def _op_now(self, t: LynxThread, op: _ops.NowOp) -> None:
        t.pending_value = self.engine.now

    def _op_self(self, t: LynxThread, op: _ops.SelfOp) -> None:
        t.pending_value = self.name

    #: the language surface (`repro.core.ops`), one row per op
    _OPS = {
        _ops.ConnectOp: _op_connect,
        _ops.WaitRequestOp: _op_wait_request,
        _ops.ReplyOp: _op_reply,
        _ops.OpenOp: _op_set_queue,
        _ops.CloseOp: _op_set_queue,
        _ops.NewLinkOp: _op_new_link,
        _ops.DestroyOp: _op_destroy,
        _ops.ForkOp: _op_fork,
        _ops.AbortThreadOp: _op_abort,
        _ops.RegisterOp: _op_register,
        _ops.DelayOp: _op_delay,
        _ops.ComputeOp: _op_compute,
        _ops.NowOp: _op_now,
        _ops.SelfOp: _op_self,
    }

    # ==================================================================
    # block points
    # ==================================================================
    def _deliver_pending(self) -> Generator:
        """Consume deliverable replies, then match available requests to
        waiting threads, fairly, until a pass delivers nothing.  A pass
        over the threads in ``wait_request`` takes them oldest first:
        each takes a request from its fair queue, or goes back to the
        end of the line — in place, so a pass that delivers nothing
        builds nothing.  A destroy while a request is taken may drop
        waiters (`_mark_destroyed`); the pass still takes at most one
        turn per thread that was waiting when it began."""
        progressed = True
        while progressed and self.alive:
            progressed = False
            # replies first: always wanted (§3.2.1)
            if self._replies_waiting:
                self._replies_waiting = False
                for es in list(self.ends.values()):
                    while es.incoming_replies:
                        msg = es.incoming_replies.popleft()
                        yield from self._consume_reply(es, msg)
                        progressed = True
            # requests: fair round-robin over open, available queues
            for _ in range(len(self._wait_req)):
                if not self._wait_req:
                    break
                t, filt = waiter = self._wait_req.popleft()
                if t.state is not ThreadState.BLOCKED:
                    continue
                es = self._pick_queue(filt)
                if es is not None:
                    msg = yield from self.rt_take_request(es)
                    if msg is not None and (
                        yield from self._consume_request(es, msg, t)
                    ):
                        progressed = True
                        continue
                self._wait_req.append(waiter)

    def _pick_queue(self, filt: Optional[Tuple[EndRef, ...]]) -> Optional[EndState]:
        """Fair choice among non-empty open queues: rotate a global
        round-robin so "no queue is ignored forever" (§2.1)."""
        ends = self.ends
        for ref in self._rr:
            if (
                ref in ends
                and (es := ends[ref]).queue_open
                and es.lifecycle is EndLifecycle.OWNED
                and (filt is None or ref in filt)
                and self.rt_request_available(es)
            ):
                # rotate: move chosen to the back of the global order
                self._rr.remove(ref)
                self._rr.append(ref)
                return es
        return None

    def _consume_reply(self, es: EndState, msg: WireMessage) -> Generator:
        waiter = es.find_waiter(msg.reply_to)
        if waiter is None:
            if es.consumed.seen(msg.reply_to):
                # a duplicated or replayed reply we already consumed:
                # sequence-number suppression, not a protocol error
                self.metrics.count("recovery.duplicates_dropped")
                self._emit_fault_span(msg, "runtime", "dup-reply-dropped")
                return
            self.metrics.count("runtime.unmatched_replies")
            return
        es.connect_waiters.remove(waiter)
        if self._suppress_copies:
            es.consumed.add(msg.reply_to)
        if waiter.aborted:
            # client already gave up; drop silently (Charlotte cannot
            # tell the server — §3.2; capable kernels told it earlier)
            self.metrics.count("runtime.replies_dropped_aborted")
            self._finish_root_span(waiter)
            return
        yield from self.rt_sync_interest(es)
        try:
            if msg.kind is MsgKind.EXCEPTION:
                # enclosures of the refused request come home with it
                yield from self._adopt_enclosures(msg)
                error, text = WIRE_ERRORS[msg.error]
                raise error(text)
            results = yield from self._scatter(waiter.span, waiter.op.reply, msg)
        except LynxError as err:
            self._finish_root_span(waiter)
            self._resume_error(waiter.thread, err)
            return
        yield from self._adopt_enclosures(msg)
        self.metrics.latency("rpc.roundtrip").record(self.engine.now - waiter.sent_at)
        self.cluster.trace_msg(self.name, "consume", es.ref, msg)
        self._finish_root_span(waiter)
        self._resume(waiter.thread, results)

    def _consume_request(
        self, es: EndState, msg: WireMessage, t: LynxThread
    ) -> Generator:
        if self._suppress_copies:
            # each request seq is admitted once per end.  A copy of one
            # we answered replays the kept reply; a copy of one still
            # being served, or whose reply is not kept, is dropped
            if es.served.seen(msg.seq):
                cached = es.served.get(msg.seq)
                if cached is not None:
                    self.metrics.count("recovery.replies_replayed")
                    self._emit_fault_span(msg, "runtime", "reply-replayed")
                    self._spawn_send(es, cached.clone_for_resend(),
                                     self._transmit_reply, 0.0)
                else:
                    self.metrics.count("recovery.duplicates_dropped")
                    self._emit_fault_span(
                        msg, "runtime", "dup-request-dropped")
                return False
            es.served.add(msg.seq)
        op = self.op_registry.get(msg.opname)
        try:
            if op is None or op.sighash != msg.sighash:
                raise TypeClash(msg.opname)
            args = yield from self._scatter(msg.span, op.request, msg)
        except LynxError:
            # refused, whatever the reason: the requester hears why
            code = (
                ExceptionCode.NO_SUCH_OPERATION
                if op is None
                else ExceptionCode.TYPE_CLASH
            )
            yield from self._auto_exception_reply(es, msg, code)
            self.metrics.count("runtime.type_clashes")
            return False
        yield from self._adopt_enclosures(msg)
        es.owed_replies.add(msg.seq)
        if msg.span is not None:
            # remember the request's trace, and when its server thread
            # got it, so the reply leg rejoins it with an ``app`` span
            es.request_spans[msg.seq] = (msg.span, self.engine.now)
        incoming = Incoming(LinkEnd(es.ref, self.name), op, args, msg.seq)
        self.metrics.count("runtime.requests_served")
        self.cluster.trace_msg(self.name, "consume", es.ref, msg, op.name)
        self._resume(t, incoming)
        return True

    def _scatter(self, span, types, msg: WireMessage) -> Generator:
        """Charge the scatter of ``msg`` and unmarshal it against
        ``types`` — lazily: enclosed ends get their local handles now
        (§2.1; kernel adoption is `_adopt_enclosures`), the body walk
        runs only when the receiving thread reads the values, so a
        corrupt body raises `ProtocolViolation` there, not here (the
        sighash already screened a signature mismatch at the header)."""
        t0 = self.engine.now
        yield self._charge(
            self.rc.scatter_fixed_ms, msg.payload, msg.enclosures,
            "runtime.scatters")
        if span is not None:
            self.cluster.spans.emit(
                span, "runtime", "unmarshal", self.name, t0, self.engine.now
            )
        return codec.lazy_unmarshal(
            types, msg.payload, msg.enclosures, self._local_end
        )

    def _local_end(self, ref: EndRef) -> LinkEnd:
        """codec link factory: an incoming `EndRef` as a local handle."""
        return LinkEnd(ref, self.name)

    def _auto_exception_reply(
        self, es: EndState, msg: WireMessage, code: ExceptionCode
    ) -> Generator:
        exc = self._stage(es, WireMessage(
            kind=MsgKind.EXCEPTION, reply_to=msg.seq, opname=msg.opname,
            error=code, span=msg.span,
        ))
        # the refused request's enclosures travel back as they came,
        # unadopted — never ours, so attached after staging, not staged
        exc.enclosures = list(msg.enclosures)
        exc.enclosure_meta = list(msg.enclosure_meta)
        exc.enc_total = len(msg.enclosures)
        try:
            yield from self._transmit_reply(es, exc)
        except LynxError:
            self._retract_outgoing(es, exc.seq)

    # ==================================================================
    # fault plane & loss recovery
    # (repro.sim.faults / repro.core.recovery; see docs/FAULTS.md)
    # ==================================================================
    def _transmit_request(self, es: EndState, msg: WireMessage) -> Generator:
        """``rt_send_request`` behind the network-fault plane."""
        return self._transmit(es, msg, self.rt_send_request)

    def _transmit_reply(self, es: EndState, msg: WireMessage) -> Generator:
        """``rt_send_reply`` behind the network-fault plane."""
        return self._transmit(es, msg, self.rt_send_reply)

    def _transmit(self, es: EndState, msg: WireMessage, send) -> Generator:
        """(plain, like the two above, so a send runs no frame of
        theirs) The generator that sends ``msg``: the kernel glue's own
        when no fault plane is installed, else `_judged_transmit`."""
        if self.cluster.faults is None:
            return send(es, msg)
        return self._judged_transmit(es, msg, send)

    def _judged_transmit(self, es: EndState, msg: WireMessage, send) -> Generator:
        """Consult the cluster's `FaultInjector` before handing ``msg``
        to the kernel glue.  A dropped message never reaches ``send`` at
        all, so no kernel bookkeeping leaks; what the drop *means*
        depends on this backend's ``recovery_placement`` capability
        (§2.2 vs §4.1)."""
        verdict = self._judge(es, msg)
        if verdict.drop:
            if self._recovery_placement == "kernel":
                # absolutes (Charlotte): the kernel hides the loss,
                # retransmitting unboundedly and invisibly (§2.2)
                self._spawn_kernel_retransmit(es, msg, send)
            else:
                # hints (SODA/Chrysalis/ideal): the message is gone;
                # the runtime's RecoveryPolicy must notice (§4.1)
                self.metrics.count("faults.messages_lost")
                self._emit_fault_span(msg, "network", "fault-drop")
            return
        if verdict.dup and self._recovery_placement == "runtime":
            # duplicate delivery: a second copy rides alongside; the
            # receiving runtime suppresses it by sequence number
            self._emit_fault_span(msg, "network", "fault-duplicate")
            self._spawn_send(es, msg.clone_for_resend(), send, 0.0)
        if verdict.delay_ms > 0.0:
            self._spawn_send(es, msg, send, verdict.delay_ms)
            return
        yield from send(es, msg)

    def _judge(self, es: EndState, msg: WireMessage):
        """The fault plane's verdict on one transmission of ``msg``."""
        return self.cluster.faults.judge(
            self.name, self.cluster.peer_name_of(es.ref), es.ref.link,
            msg.kind.value,
        )

    def _emit_fault_span(self, msg: WireMessage, layer: str, name: str) -> None:
        """Zero-duration marker span on the message's trace (no-op when
        the message carries no span context)."""
        if msg.span is not None:
            now = self.engine.now
            self.cluster.spans.emit(msg.span, layer, name, self.name, now, now)

    def _spawn_send(self, es: EndState, msg: WireMessage, send, delay_ms: float) -> None:
        """Deliver ``msg`` via ``send`` after ``delay_ms`` on a detached
        task (used for delayed, duplicated and replayed copies).  The
        copy is abandoned if the process died or the end stopped being
        OWNED in the meantime."""

        def driver() -> Generator:
            if delay_ms > 0.0:
                yield delay_ms
            if not self.alive or es.lifecycle is not EndLifecycle.OWNED:
                return
            try:
                yield from send(es, msg)
            except LynxError:
                # a deferred copy that can no longer be sent is just a
                # lost duplicate; the original path carries any error
                self.metrics.count("faults.deferred_send_failed")

        Task(self.engine, driver(), f"fault-send:{self.name}:{msg.seq}")

    def _spawn_kernel_retransmit(self, es: EndState, msg: WireMessage, send) -> None:
        """Kernel-placement loss recovery: a detached task re-judges the
        dropped message every `KERNEL_RETRANSMIT_MS` until a verdict
        lets it through, however long that takes.  Invisible to the
        runtime — the absolute the paper says a kernel cannot usefully
        promise (§2.2, §4.1)."""

        def driver() -> Generator:
            while True:
                yield KERNEL_RETRANSMIT_MS
                if not self.alive or es.lifecycle is not EndLifecycle.OWNED:
                    return
                if msg.seq not in es.outgoing:
                    # receipt/abort already concluded this exchange
                    return
                self.metrics.count("faults.kernel_retransmits")
                if self._judge(es, msg).drop:
                    continue
                self._emit_fault_span(msg, "kernel", "retransmit-delivered")
                try:
                    yield from send(es, msg.clone_for_resend())
                except LynxError:
                    self.metrics.count("faults.deferred_send_failed")
                return

        Task(self.engine, driver(), f"kernel-rexmit:{self.name}:{msg.seq}")

    @cached_property
    def _recovery_placement(self) -> str:
        """Where loss recovery lives for this backend, per its
        registered `KernelCapabilities` ("runtime" when the backend is
        not registered — the hint stance is the language's default)."""
        try:
            return kernel_profile(self.cluster.KIND).capabilities.recovery_placement
        except (KeyError, ValueError):
            return "runtime"

    @cached_property
    def _recovery_rng(self):
        """Jitter stream for the policy's retry waits — derived on first
        use, and drawn from only when a retry's wait is asked for, so
        fault-free runs draw nothing."""
        return self.cluster.rng.child(f"recovery/{self.name}")

    @cached_property
    def _policy(self):
        """The cluster's `RecoveryPolicy`, or None when no policy is
        installed or this backend places recovery in the kernel.  Read
        once: `ClusterBase.install_recovery` refuses after a spawn."""
        return (self.cluster.recovery
                if self._recovery_placement == "runtime" else None)

    def _arm_recovery(self, es: EndState, waiter: ConnectWaiter) -> None:
        """Start the connect's recovery timer, if a policy applies.
        Enclosure-bearing requests are never retried — a retransmitted
        copy would try to move its link ends twice — so those connects
        keep the paper's wait-forever semantics."""
        if self._policy is None or waiter.request.enclosures:
            return
        waiter.waits = self._policy.waits(self._recovery_rng)
        waiter.recovery_timer = self.timers.schedule(
            next(waiter.waits), self._recovery_fire, es, waiter
        )

    def _cancel_recovery(self, waiter: ConnectWaiter) -> None:
        if waiter.recovery_timer is not None:
            waiter.recovery_timer.cancel()
            waiter.recovery_timer = None

    def _recovery_fire(self, es: EndState, waiter: ConnectWaiter) -> None:
        """(plain engine callback) The recovery timer elapsed with no
        reply: retransmit with exponential backoff, or give up with
        `RecoveryExhausted` once the bounded budget is spent."""
        waiter.recovery_timer = None
        if (
            not self.alive
            or waiter.aborted
            or waiter not in es.connect_waiters
            or es.lifecycle is not EndLifecycle.OWNED
        ):
            return
        self.metrics.count("recovery.timeouts")
        self._emit_fault_span(
            waiter.request, "runtime", f"timeout-{waiter.retries + 1}"
        )
        if (wait := next(waiter.waits, None)) is None:
            self.metrics.count("recovery.exhausted")
            # black-box trigger (repro.obs.flight): the run is about to
            # surface RecoveryExhausted to the program
            self.cluster.trace.alarm(
                self.name, "recovery-exhausted",
                op=waiter.op.name, link=es.ref.link, retries=waiter.retries,
            )
            self._unwind_connect(es, waiter)
            self._resume_error(
                waiter.thread,
                RecoveryExhausted(
                    f"connect {waiter.op.name} on {es.ref}: no reply after "
                    f"{waiter.retries} retries "
                    f"(~{self._policy.budget_ms():.0f} ms budget)"
                ),
            )
            return
        waiter.retries += 1
        self.metrics.count("recovery.retries")
        clone = waiter.request.clone_for_resend()
        # re-staged even when receipt already retracted the original, so
        # movability stays honest
        es.outgoing[waiter.seq] = clone
        self._emit_fault_span(waiter.request, "runtime", f"retry-{waiter.retries}")
        # the retransmission passes through the fault plane again
        self._spawn_send(es, clone, self._transmit_request, 0.0)
        waiter.recovery_timer = self.timers.schedule(
            wait, self._recovery_fire, es, waiter
        )

    def _arm_reply_recovery(self, es: EndState, msg: WireMessage) -> None:
        """Stop-and-wait ARQ for the reply leg: a replier blocked on a
        reply whose receipt never comes would wedge the whole process
        (it could never return to ``wait_request``, so it could never
        replay for a duplicate either).  Under runtime-placement
        recovery the reply is retransmitted on the same bounded
        schedule as requests; when the budget is spent the replier is
        *released* — the client's own recovery governs from there, and
        the reply kept in ``served`` still answers any later duplicate."""
        if self.cluster.faults is None or self._policy is None or msg.enclosures:
            return
        waits = self._policy.waits(self._recovery_rng)
        self.timers.schedule(next(waits), self._reply_recovery_fire,
                             es, msg, enumerate(waits, 1))

    def _reply_recovery_fire(
        self, es: EndState, msg: WireMessage, waits: Iterator[Tuple[int, float]]
    ) -> None:
        """(plain engine callback) No receipt for our reply yet:
        retransmit, or release the blocked replier once the budget is
        spent.  ``waits`` numbers the schedule's remaining resends."""
        if (
            not self.alive
            or es.lifecycle is not EndLifecycle.OWNED
            or msg.seq not in es.outgoing
        ):
            return
        if (step := next(waits, None)) is None:
            self.metrics.count("recovery.reply_gave_up")
            self._emit_fault_span(msg, "runtime", "reply-gave-up")
            self._retract_outgoing(es, msg.seq)
            t = es.send_waiters.pop(msg.seq, None)
            if t is not None:
                self._resume(t, None)
            return
        attempt, wait = step
        self.metrics.count("recovery.reply_retries")
        self._emit_fault_span(msg, "runtime", f"reply-retry-{attempt}")
        self._spawn_send(es, msg.clone_for_resend(), self._transmit_reply, 0.0)
        self.timers.schedule(wait, self._reply_recovery_fire, es, msg, waits)

    # ==================================================================
    # enclosure (link-moving) machinery
    # ==================================================================
    def _check_movable(self, encs: List[EndRef], via: EndState) -> None:
        seen = set()
        for ref in encs:
            if ref in seen:
                raise MoveRestricted(f"{ref} enclosed twice in one message")
            seen.add(ref)
            if ref.link == via.ref.link:
                raise MoveRestricted(
                    f"cannot enclose {ref} in a message on its own link (§2.2)"
                )
            es = self.ends.get(ref)
            if es is None or es.lifecycle is EndLifecycle.MOVED:
                raise LinkMoved(f"{ref} is not owned by {self.name}")
            if es.lifecycle is EndLifecycle.DESTROYED:
                raise LinkDestroyed(f"{ref} is destroyed")
            if es.lifecycle is EndLifecycle.IN_TRANSIT:
                raise MoveRestricted(f"{ref} is already moving")
            if not es.movable:
                raise MoveRestricted(
                    f"{ref} has unreceived messages or owed replies (§2.1)"
                )
            if es.connect_waiters:
                raise MoveRestricted(
                    f"{ref} has outstanding connects awaiting replies"
                )

    def _stage(self, es: EndState, msg: WireMessage) -> WireMessage:
        """``msg`` becomes the next message sent on ``es`` — the one
        place a sent message's life begins: it takes the end's next
        seq, the ends of ours it encloses go IN_TRANSIT, and it is
        recorded ``outgoing`` — unreceived, so its end cannot move (the
        precondition of ``rt_send_request`` / ``rt_send_reply``) until
        `_retract_outgoing` ends that life — on receipt, bounce, a
        refused reply, unwind, reply give-up — or `_mark_destroyed`
        does."""
        msg.seq = es.alloc_seq()
        msg.sent_at = self.engine.now
        msg.enc_total = len(msg.enclosures)
        for ref in msg.enclosures:
            self.ends[ref].lifecycle = EndLifecycle.IN_TRANSIT
            self.registry.record_in_transit(ref)
        msg.enclosure_meta = [self.rt_export_end(self.ends[r]) for r in msg.enclosures]
        es.outgoing[msg.seq] = msg
        return msg

    def _restore_enclosures(self, msg: WireMessage) -> None:
        for ref in msg.enclosures:
            es = self.ends.get(ref)
            if es is not None and es.lifecycle is EndLifecycle.IN_TRANSIT:
                es.lifecycle = EndLifecycle.OWNED
                self.registry.record_bounced(ref, self.name)

    def _finalise_enclosures(self, msg: WireMessage) -> None:
        """Our message (with moved ends) was received: the ends are gone
        from this process for good."""
        for ref in msg.enclosures:
            es = self.ends.pop(ref, None)
            if es is not None:
                es.lifecycle = EndLifecycle.MOVED
                self._rr.remove(ref)

    def _adopt_enclosures(self, msg: WireMessage) -> Generator:
        metas = msg.enclosure_meta or [{}] * len(msg.enclosures)
        for ref, meta in zip(msg.enclosures, metas):
            if ref in self.ends:  # the end came home
                es = self.ends[ref]
                es.lifecycle = EndLifecycle.OWNED
            else:
                self.ends[ref] = self._new_end_state(ref)
                yield from self.rt_adopt_end(ref, meta)
            self.registry.record_adopted(ref, self.name)
            self.metrics.count("runtime.ends_adopted")

    # ==================================================================
    # shared plumbing
    # ==================================================================
    def _new_end_state(self, ref: EndRef) -> EndState:
        """A fresh state for an end that is not in ``ends``; ``_rr``
        holds exactly the refs of ``ends``, so ``ref`` joins it here."""
        self._rr.append(ref)
        return EndState(ref)

    def preload_end(self, ref: EndRef) -> EndState:
        """Cluster-side installation of an initial link end (before the
        process starts)."""
        es = self._new_end_state(ref)
        self.ends[ref] = es
        self.initial_links.append(LinkEnd(ref, self.name))
        return es

    def _resolve_end(self, end: LinkEnd) -> EndState:
        es = self.ends.get(end.end_ref)
        if es is None:
            raise LinkMoved(f"{end.end_ref} is not owned by {self.name}")
        if es.lifecycle is EndLifecycle.DESTROYED:
            raise self.destroyed_error(
                es.destroy_reason, f"{end.end_ref} destroyed"
            )
        if es.lifecycle is not EndLifecycle.OWNED:
            raise LinkMoved(f"{end.end_ref} has moved away")
        return es

    @staticmethod
    def destroyed_error(reason: str, fallback: str = "link destroyed") -> LynxError:
        """The exception a dead link raises: `RemoteCrash` when the
        destruction came from a crash, `LinkDestroyed` otherwise.  The
        decision keys on the ``"crash"`` tag in the reason string (see
        `crash_tagged`) so it survives the wire."""
        reason = reason or fallback
        return RemoteCrash(reason) if "crash" in reason else LinkDestroyed(reason)

    def crash_tagged(self, reason: str) -> str:
        """Tag ``reason`` so peers raise `RemoteCrash` when this
        process is dying from a crash rather than orderly code (kernels
        stamp their destroy notices with this)."""
        return ("crash: " if self._crash_mode is not None else "") + reason

    def reply_wanted(self, es: Optional[EndState], reply_to: int) -> bool:
        """Does a live connect waiter still want the reply to request
        ``reply_to``?  Kernels that can screen replies (SODA's
        zero-accepts, Charlotte's reply-ack ablation, ideal's direct
        delivery) ask this before accepting one."""
        if es is None:
            return False
        waiter = es.find_waiter(reply_to)
        return waiter is not None and not waiter.aborted

    def _retract_outgoing(self, es: EndState, seq: int) -> Optional[WireMessage]:
        """Un-stage a sent message: pop it from ``outgoing`` (receipt,
        bounce, abort and unwind paths all need exactly this)."""
        return es.outgoing.pop(seq, None)

    def _mark_destroyed(self, es: EndState, reason: str, crash: bool) -> None:
        """(every caller has checked ``es`` is not DESTROYED already)"""
        es.lifecycle = EndLifecycle.DESTROYED
        es.destroy_reason = ("crash: " if crash else "") + reason
        err_cls = RemoteCrash if crash else LinkDestroyed
        # a reply that already reached us satisfies its waiter even
        # though the link is now dead (the far end may legitimately
        # destroy the link the moment its reply leaves, §2.2)
        pending_replies = {m.reply_to for m in es.incoming_replies}
        # wake everything else blocked on this end with the exception
        for w in list(es.connect_waiters):
            if w.seq in pending_replies:
                continue
            es.connect_waiters.remove(w)
            self._finish_root_span(w)
            if not w.aborted:
                self._resume_error(w.thread, err_cls(es.destroy_reason))
        for seq, t in list(es.send_waiters.items()):
            es.send_waiters.pop(seq, None)
            self._resume_error(t, err_cls(es.destroy_reason))
        # wake wait_request threads whose filter can now never match
        still: deque = deque()
        for th, filt in self._wait_req:
            dead_filter = filt is not None and all(
                r not in self.ends
                or self.ends[r].lifecycle is EndLifecycle.DESTROYED
                for r in filt
            )
            if dead_filter:
                self._resume_error(th, err_cls(es.destroy_reason))
            else:
                still.append((th, filt))
        self._wait_req = still
        # enclosures of ours that were in transit on this link: their
        # fate is kernel-specific; kernels call registry.record_lost or
        # redeliver.  Here we only drop the outgoing staging.
        es.outgoing.clear()
        es.owed_replies.clear()
        es.request_spans.clear()
        es.served.clear()
        es.consumed.clear()

    def _resume(self, t: LynxThread, value: Any) -> None:
        if t.state is ThreadState.BLOCKED:
            t.resume(value)
            self.ready.append(t)
            self._wake()

    def _resume_error(self, t: LynxThread, err: BaseException) -> None:
        if t.state is ThreadState.BLOCKED:
            t.resume_error(err)
            self.ready.append(t)
            self._wake()

    def _wake(self) -> None:
        # ALWAYS latch: the pending wakeup future may have been
        # abandoned (the dispatcher moved on after a different event
        # and is currently inside a charged kernel call); resolving it
        # alone would lose the signal.  The latch costs at most one
        # spurious loop pass, which the block loops absorb.
        self._wake_signal = True
        fut = self._wakeup
        if fut is not None:
            self._wakeup = None
            fut.resolve(None)

    def wakeup_future(self) -> Future:
        """A future the dispatcher can block on that base hooks resolve
        when anything happens.  Level-triggered: a wake that arrived
        while nobody was listening resolves the next future
        immediately (the block loops re-check their conditions, so
        spurious wakeups are harmless)."""
        if self._wake_signal:
            self._wake_signal = False
            return self._woken
        if self._wakeup is None:
            self._wakeup = Future(self.engine, "wakeup")
        return self._wakeup

    def _charge(self, fixed_ms: float, payload: bytes, encs: List[EndRef],
                counter: str) -> float:
        """The gather or scatter of one message, as a delay to yield."""
        cost = (
            fixed_ms
            + self.rc.per_byte_ms * len(payload)
            + self.rc.per_enclosure_ms * len(encs)
        )
        self.metrics.count(counter)
        return cost
