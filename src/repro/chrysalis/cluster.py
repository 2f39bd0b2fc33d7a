"""The Butterfly/Chrysalis cluster: one shared-memory box."""

from __future__ import annotations

from repro.chrysalis.kernel import ChrysalisKernel
from repro.chrysalis.linkobject import LinkObject
from repro.chrysalis.runtime import ChrysalisRuntime
from repro.core.cluster import ClusterBase, ProcessHandle
from repro.core.links import EndRef
from repro.sim.faults import CrashMode
from repro.sim.network import SharedMemoryInterconnect


class ChrysalisCluster(ClusterBase):
    """A BBN Butterfly: 68000 processors around a switch (§5.1).

    The §5.3 "30 to 40%" tuned profile (the E5 ablation) is
    ``costmodel=CostModel(chrysalis=ChrysalisCosts().tuned())``.
    """

    KIND = "chrysalis"
    NODES = 128
    RUNTIME = ChrysalisRuntime

    def _setup_hardware(self) -> None:
        costs = self.costs = self.costmodel.chrysalis
        self.switch = SharedMemoryInterconnect(
            self.engine,
            metrics=self.metrics,
            rng=self.rng.child("switch"),
            per_byte_us=costs.switch_per_byte_us,
            hop_us=costs.switch_hop_us,
        )
        self.kernel = ChrysalisKernel(
            self.engine, self.metrics, costs, self.switch
        )

    def create_link(self, a: ProcessHandle, b: ProcessHandle) -> None:
        link = self.registry.alloc_link(a.name, b.name)
        ref_a, ref_b = EndRef(link, 0), EndRef(link, 1)
        # queues do not exist until rt_startup; a placeholder name is
        # patched there (initial links predate the processes, as when a
        # parent creates them on the children's behalf)
        obj = LinkObject(link, -1, -1)
        oid = self.kernel.make_object(obj)
        self.kernel.map_object(oid)
        self.kernel.map_object(oid)
        a.runtime.preload_end(ref_a)
        a.runtime.preload_link_object(ref_a, oid, obj)
        b.runtime.preload_end(ref_b)
        b.runtime.preload_link_object(ref_b, oid, obj)

    def on_crash(self, handle: ProcessHandle, mode: CrashMode) -> None:
        # TERMINATE/FAULT: the runtime's own clean-up runs ("Chrysalis
        # allows a process to catch exceptional conditions that might
        # cause premature termination ... so even erroneous processes
        # can clean up their links", §5.2).
        # PROCESSOR: "Processor failures are currently not detected."
        # — nothing happens; peers hang.  Deliberate.
        pass
