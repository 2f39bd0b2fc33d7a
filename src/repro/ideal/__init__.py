"""The ``ideal`` reference backend: a zero-protocol-overhead in-memory
kernel written only against the published kernel/runtime port
(`repro.core.ports.KernelRuntimePort`).

It exists for two reasons:

* to prove the port contract is *sufficient* — a fourth backend passes
  the full LYNX conformance suite without touching core, CLI, bench or
  test code (they all iterate the registry);
* to serve as the lower-bound baseline in the latency benches (E1,
  E13): "simple primitives are best", taken to the limit — no wire, no
  flow control, no naming, just mailboxes and direct upcalls.

It is deliberately not a model of any 1986 system, so it is excluded
from the paper-shaped tables (``paper=False`` in its profile).

Failure semantics (docs/FAULTS.md): like the real minimal kernels it
declares ``recovery_placement="runtime"`` — under an installed
`FaultPlan` a dropped message is lost and the `RecoveryPolicy` owns
recovery.  This keeps the backend honest as a lower bound: its speed
comes from zero protocol overhead, not from a free reliability
absolute the others must pay for.
"""
