"""A minimal loopback kernel for testing the runtime base in isolation.

`FakeCluster`/`FakeRuntime` implement the abstract transport hooks with
a direct in-memory message exchange (constant latency, no screening
complications, no failures except explicit destroy).  It exists so the
semantics encoded in `LynxRuntimeBase` — scheduling, queues, block
points, fairness, moves, aborts — are tested independently of the three
real kernel runtimes, and it documents the minimal contract a kernel
runtime must satisfy.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace
from typing import Dict, Optional

from repro.core.cluster import ClusterBase, ProcessHandle
from repro.core.costs import RuntimeCosts
from repro.core.links import EndRef, EndState
from repro.core.runtime import LynxRuntimeBase
from repro.core.wire import MsgKind, WireMessage
from repro.sim.faults import CrashMode

#: one-way message latency of the fake transport, ms
FAKE_LATENCY = 1.0

ZERO_COSTS = RuntimeCosts(
    gather_fixed_ms=0.0,
    scatter_fixed_ms=0.0,
    per_byte_ms=0.0,
    dispatch_ms=0.0,
    per_enclosure_ms=0.0,
)


class FakeRuntime(LynxRuntimeBase):
    def __init__(self, handle, cluster) -> None:
        super().__init__(handle, cluster)
        #: transport-side request staging, per local end
        self.inbox: Dict[EndRef, deque] = {}

    # -- helpers ---------------------------------------------------------
    def _peer_runtime(self, ref: EndRef) -> Optional["FakeRuntime"]:
        return self.cluster.end_owner.get(ref.peer)

    def _inbox(self, ref: EndRef) -> deque:
        return self.inbox.setdefault(ref, deque())

    # -- hook implementations ---------------------------------------------
    def rt_new_link(self):
        link = self.registry.alloc_link(self.name, self.name)
        ref_a, ref_b = EndRef(link, 0), EndRef(link, 1)
        self.cluster.end_owner[ref_a] = self
        self.cluster.end_owner[ref_b] = self
        return ref_a, ref_b
        yield  # pragma: no cover

    def rt_send_request(self, es: EndState, msg: WireMessage):
        self.cluster.metrics.count("fake.requests_sent")
        target_ref = es.ref.peer

        def arrive():
            target = self.cluster.end_owner.get(target_ref)
            if target is None or not target.alive:
                self.notify_destroyed(es.ref, "peer gone", crash=True)
                return
            target._inbox(target_ref).append(msg)
            target._wake()

        self.engine.schedule(FAKE_LATENCY, arrive)
        return
        yield  # pragma: no cover

    def rt_send_reply(self, es: EndState, msg: WireMessage):
        self.cluster.metrics.count("fake.replies_sent")
        target_ref = es.ref.peer

        def arrive():
            target = self.cluster.end_owner.get(target_ref)
            if target is None or not target.alive:
                self.notify_reply_aborted(es.ref, msg.seq)
                return
            tes = target.ends.get(target_ref)
            waiter = tes.find_waiter(msg.reply_to) if tes is not None else None
            if msg.kind in (MsgKind.REPLY, MsgKind.EXCEPTION) and (
                waiter is None or waiter.aborted
            ):
                # the fake transport CAN tell the requester gave up —
                # like SODA/Chrysalis, unlike Charlotte
                self.notify_reply_aborted(es.ref, msg.seq)
                return
            target.deliver_reply(target_ref, msg)
            self.notify_receipt(es.ref, msg.seq)

        self.engine.schedule(FAKE_LATENCY, arrive)
        return
        yield  # pragma: no cover

    def rt_block_wait(self):
        yield self.wakeup_future()

    def rt_request_available(self, es: EndState) -> bool:
        return bool(self.inbox.get(es.ref))

    def rt_take_request(self, es: EndState):
        box = self.inbox.get(es.ref)
        if not box:
            return None
        msg = box.popleft()
        sender = self.cluster.end_owner.get(es.ref.peer)
        if sender is not None:
            sender.notify_receipt(es.ref.peer, msg.seq)
        return msg
        yield  # pragma: no cover

    def rt_destroy(self, es: EndState, reason: str):
        ref = es.ref
        self.cluster.end_owner.pop(ref, None)

        def tell_peer():
            peer = self.cluster.end_owner.get(ref.peer)
            if peer is not None:
                peer.notify_destroyed(ref.peer, reason)

        self.engine.schedule(FAKE_LATENCY, tell_peer)
        return
        yield  # pragma: no cover

    def rt_abort_connect(self, es: EndState, waiter):
        # withdrawn iff the message is still sitting in the peer's
        # transport inbox (not yet received)
        target = self._peer_runtime(es.ref)
        if target is not None:
            box = target.inbox.get(es.ref.peer)
            if box:
                for m in list(box):
                    if m.seq == waiter.seq:
                        box.remove(m)
                        return True
        return False
        yield  # pragma: no cover

    def rt_adopt_end(self, ref: EndRef, meta: dict):
        self.cluster.end_owner[ref] = self
        return
        yield  # pragma: no cover


class FakeCluster(ClusterBase):
    KIND = "fake"
    RUNTIME = FakeRuntime

    def _setup_hardware(self) -> None:
        #: the one profile field the shared runtime reads
        self.costs = SimpleNamespace(runtime=ZERO_COSTS)
        #: global end -> owning runtime routing table (the fake kernel's
        #: omniscient name service)
        self.end_owner: Dict[EndRef, FakeRuntime] = {}

    def create_link(self, a: ProcessHandle, b: ProcessHandle) -> None:
        link = self.registry.alloc_link(a.name, b.name)
        ref_a, ref_b = EndRef(link, 0), EndRef(link, 1)
        a.runtime.preload_end(ref_a)
        b.runtime.preload_end(ref_b)
        self.end_owner[ref_a] = a.runtime
        self.end_owner[ref_b] = b.runtime

    def on_crash(self, handle: ProcessHandle, mode: CrashMode) -> None:
        if mode is CrashMode.PROCESSOR:
            # the fake kernel detects node death and destroys links
            rt = handle.runtime
            for ref in list(rt.ends.keys()):
                self.end_owner.pop(ref, None)
                peer = self.end_owner.get(ref.peer)
                if peer is not None:
                    peer.notify_destroyed(
                        ref.peer, f"{handle.name} node crashed", crash=True
                    )
