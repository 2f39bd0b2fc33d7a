"""The SODA cluster: kernel processors on a CSMA bus."""

from __future__ import annotations

from repro.core.cluster import ClusterBase, ProcessHandle
from repro.core.links import EndRef
from repro.sim.faults import CrashMode
from repro.sim.network import CSMABus
from repro.soda.kernel import SodaKernel
from repro.soda.runtime import SodaRuntime


class SodaCluster(ClusterBase):
    """A SODA network (§4.1): many two-processor nodes on a 1 Mbit/s
    CSMA bus.

    Extra options
    -------------
    broadcast_loss : float
        Probability an unreliable-broadcast (discover) frame misses a
        given receiver — the E9 sweep parameter.  The paper: "without
        reasonable assumptions about the reliability of SODA
        broadcasts, it is impossible to predict the success rate of
        the heuristics."
    cache_size : int
        Entries in each process's moved-link cache (§4.2).

    §4.2.1's outstanding-request limit (the E10 sweep) is a calibrated
    constant, `SodaCosts.pair_request_limit`, set through ``costmodel=``.
    """

    KIND = "soda"
    NODES = 64
    RUNTIME = SodaRuntime

    def __init__(self, broadcast_loss: float = 0.0, cache_size: int = 64,
                 **cluster_kw) -> None:
        self.broadcast_loss = broadcast_loss
        self.cache_size = cache_size
        super().__init__(**cluster_kw)

    def _setup_hardware(self) -> None:
        costs = self.costs = self.costmodel.soda
        self.bus = CSMABus(
            self.engine,
            metrics=self.metrics,
            rng=self.rng.child("bus"),
            rate_mbit=costs.bus_rate_mbit,
            base_access_ms=costs.bus_access_ms,
            max_backoff_ms=costs.bus_backoff_ms,
            broadcast_loss=self.broadcast_loss,
        )
        self.kernel = SodaKernel(
            self.engine, self.metrics, costs, self.bus, self.registry,
            spans=self.spans,
        )

    def runtime_exited(self, runtime) -> None:
        self.kernel.process_died(runtime.name)

    def create_link(self, a: ProcessHandle, b: ProcessHandle) -> None:
        link = self.registry.alloc_link(a.name, b.name)
        ref_a, ref_b = EndRef(link, 0), EndRef(link, 1)
        name_a = self.kernel.new_name()
        name_b = self.kernel.new_name()
        a.runtime.preload_end(ref_a)
        a.runtime.preload_soda_end(ref_a, name_a, name_b, b.name)
        b.runtime.preload_end(ref_b)
        b.runtime.preload_soda_end(ref_b, name_b, name_a, a.name)

    def on_crash(self, handle: ProcessHandle, mode: CrashMode) -> None:
        # the kernel processor outlives its client processor and
        # notifies requesters of the death (§4.1) in every crash mode
        if mode is CrashMode.PROCESSOR:
            self.kernel.process_died(handle.name)
        # TERMINATE/FAULT: the runtime clean-up destroys links itself
        # and then reports the death through `runtime_exited`
