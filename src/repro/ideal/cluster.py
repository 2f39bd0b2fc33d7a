"""The ideal cluster: one shared in-memory kernel, no interconnect."""

from __future__ import annotations

from repro.core.cluster import ClusterBase, ProcessHandle
from repro.core.links import EndRef
from repro.ideal.kernel import IdealKernel
from repro.ideal.runtime import IdealRuntime
from repro.sim.faults import CrashMode


class IdealCluster(ClusterBase):
    """A cluster whose kernel is a dictionary.

    The entire transport is `IdealKernel`'s route and mailbox tables;
    there is no network model, so the only delivery cost is the token
    `IdealCosts.delivery_ms` charged by the runtime.  Everything else —
    spawn, links, crash injection, metrics, tracing — is the shared
    `ClusterBase` machinery, which is the point: the backend exercises
    the port, not a private protocol.
    """

    KIND = "ideal"
    RUNTIME = IdealRuntime
    #: the kernel class `_setup_hardware` builds
    KERNEL = IdealKernel

    def _setup_hardware(self) -> None:
        self.costs = self.costmodel.ideal
        self.kernel = self.KERNEL(self.registry, self.metrics)

    def create_link(self, a: ProcessHandle, b: ProcessHandle) -> None:
        link = self.registry.alloc_link(a.name, b.name)
        ref_a, ref_b = EndRef(link, 0), EndRef(link, 1)
        a.runtime.preload_end(ref_a)
        b.runtime.preload_end(ref_b)
        self.kernel.route[ref_a] = a.runtime
        self.kernel.route[ref_b] = b.runtime

    def on_crash(self, handle: ProcessHandle, mode: CrashMode) -> None:
        # a processor failure runs no process-side cleanup; the kernel
        # (which survives) unwinds the dead process's links itself
        if mode is CrashMode.PROCESSOR:
            self.kernel.process_crashed(
                handle.runtime, f"crash: processor of {handle.name} failed"
            )
