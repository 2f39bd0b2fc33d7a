"""The Charlotte/Crystal cluster: kernel + token ring + LYNX runtimes."""

from __future__ import annotations

from repro.charlotte.kernel import CharlotteKernel
from repro.charlotte.runtime import CharlotteRuntime
from repro.core.cluster import ClusterBase, ProcessHandle
from repro.core.links import EndRef
from repro.sim.faults import CrashMode
from repro.sim.network import TokenRing


class CharlotteCluster(ClusterBase):
    """Crystal: 20 VAX nodes on a 10 Mbit/s token ring (§3.1).

    Extra options
    -------------
    reply_acks : bool
        Enable the hypothetical top-level reply acknowledgments the
        paper rejected for their 50 % message-traffic cost (E7).
    no_forbid : bool
        A1 ablation: disable the forbid/allow mechanism, bouncing every
        unwanted request with a bare retry — §3.2.1 explains this risks
        "an arbitrary number of retransmissions" whenever the bouncer
        must keep a Receive posted.
    """

    KIND = "charlotte"
    NODES = 20
    RUNTIME = CharlotteRuntime

    def __init__(self, reply_acks: bool = False, no_forbid: bool = False,
                 **cluster_kw) -> None:
        self.reply_acks = reply_acks
        self.no_forbid = no_forbid
        super().__init__(**cluster_kw)

    def _setup_hardware(self) -> None:
        costs = self.costs = self.costmodel.charlotte
        self.ring = TokenRing(
            self.engine,
            metrics=self.metrics,
            rng=self.rng.child("ring"),
            rate_mbit=costs.ring_rate_mbit,
            access_delay_ms=costs.ring_access_ms,
            stations=self.NODES,
        )
        self.kernel = CharlotteKernel(
            self.engine, self.metrics, costs, self.ring, self.registry,
            spans=self.spans,
        )

    def runtime_exited(self, runtime) -> None:
        self.kernel.process_died(runtime.name)

    def create_link(self, a: ProcessHandle, b: ProcessHandle) -> None:
        link = self.registry.alloc_link(a.name, b.name)
        ref_a, ref_b = EndRef(link, 0), EndRef(link, 1)
        from repro.charlotte.kernel import _KEnd, _KLink  # internal wiring

        self.kernel.links[link] = _KLink(
            link,
            [
                _KEnd(ref_a, a.name, a.node),
                _KEnd(ref_b, b.name, b.node),
            ],
        )
        a.runtime.preload_end(ref_a)
        b.runtime.preload_end(ref_b)

    def on_crash(self, handle: ProcessHandle, mode: CrashMode) -> None:
        # Charlotte's kernel survives its processes and detects death in
        # every mode, destroying the dead process's links (§3.1).  For
        # TERMINATE/FAULT the runtime's own clean-up may race this; both
        # paths are idempotent.
        # Ends the dead process held at kernel level but whose runtime
        # never adopted them are the §3.2.2 lost enclosures.
        rt = handle.runtime
        for klink in list(self.kernel.links.values()):
            if klink.destroyed:
                continue
            for kend in klink.ends:
                if kend.owner == handle.name and kend.ref not in rt.ends:
                    self.registry.record_lost(kend.ref)
        self.kernel.process_died(handle.name)
