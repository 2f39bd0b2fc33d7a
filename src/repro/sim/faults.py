"""Deterministic fault injection: process crashes and a degraded network.

The paper's semantic findings all involve failures:

* Charlotte: process termination destroys all the process's links, and
  peers must see send/receive failures (§2.2); a crash *during* the
  multi-packet enclosure protocol loses enclosed links (§3.2.2 a–d).
* SODA: "If a process dies before accepting a request, the requester
  feels an interrupt that informs it of the crash" (§4.1); node crashes
  strain ``discover`` (§4.2).
* Chrysalis: clean termination destroys links even for erroneous
  processes (the runtime catches faults), but "processor failures are
  currently not detected" (§5.2) — a hard kill leaves peers hanging.

A crash is part of the workload: whoever runs it schedules
``cluster.crash_process(name, mode)`` on the engine, with a `CrashMode`.

A `FaultPlan` degrades the *network* between processes: message drop,
duplication, extra delay (reordering), and timed partition windows.
Together they let the simulator pose the question the paper's three
lessons turn on — what happens to the language's remote-operation
semantics when the transport misbehaves?  The plan is a frozen value:
every builder returns a new plan, so one plan can be installed into
any number of clusters.

Everything is seeded through `repro.sim.rng.SimRandom`, so a fault
schedule replays exactly from ``(seed, plan)``.  Draws come from per
``(link, kind)`` child streams, so adding traffic on one link does not
perturb the verdicts seen on another.

The injection point is deliberately the *runtime* message layer
(`repro.core.runtime.LynxRuntimeBase` consults the cluster's installed
`FaultInjector` around its ``rt_send_request`` / ``rt_send_reply``
downcalls — see docs/FAULTS.md): a dropped message is simply never
handed to the kernel glue, so no kernel bookkeeping leaks.  Kernel
*internal* protocol frames (Charlotte retry/forbid/allow, SODA
discover, Chrysalis notices) and link destruction notices stay
reliable — the fault plane models lossy data transport, not a
corrupted control plane.

What a verdict *means* depends on where the backend places recovery
(`KernelCapabilities.recovery_placement`):

``"runtime"`` (SODA, Chrysalis, ideal — hints)
    a dropped message is lost; the runtime's `RecoveryPolicy`
    (timeouts, bounded retry) is responsible for masking or surfacing
    the loss.
``"kernel"`` (Charlotte — absolutes)
    the kernel hides the loss: it silently retransmits every
    `repro.core.runtime.KERNEL_RETRANSMIT_MS` until a verdict lets the
    message through, however long that takes.  Nothing is ever
    surfaced to the runtime — which is exactly the absolute the paper
    says a kernel cannot usefully promise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from repro.sim.engine import Engine
from repro.sim.metrics import MetricSet
from repro.sim.rng import SimRandom


class CrashMode(enum.Enum):
    #: orderly termination: runtime clean-up runs (finally blocks)
    TERMINATE = "terminate"
    #: software fault inside the process: runtime fault handlers run
    #: (Chrysalis can still clean up; models "even erroneous processes
    #: can clean up their links", §5.2)
    FAULT = "fault"
    #: hard processor failure: nothing runs; peers are only informed if
    #: the kernel itself detects node death (Charlotte/SODA yes,
    #: Chrysalis no)
    PROCESSOR = "processor"


@dataclass(frozen=True)
class FaultSpec:
    """Stochastic fault rates (all default to "healthy")."""

    #: probability a message is silently lost
    drop: float = 0.0
    #: probability a message is delivered twice
    dup: float = 0.0
    #: maximum extra delivery delay in ms, drawn uniformly from
    #: ``[0, delay_ms]`` — enough to reorder back-to-back messages
    delay_ms: float = 0.0

    @property
    def healthy(self) -> bool:
        return self.drop <= 0.0 and self.dup <= 0.0 and self.delay_ms <= 0.0


@dataclass(frozen=True)
class PartitionWindow:
    """The network between two process groups is severed on
    ``[t0, t1)``; ``a``/``b`` of ``None`` mean "every process"."""

    t0: float
    t1: float
    a: Optional[FrozenSet[str]] = None
    b: Optional[FrozenSet[str]] = None

    def severs(self, src: str, dst: Optional[str], now: float) -> bool:
        # a ``dst`` of None (no far process) is in neither group
        return self.t0 <= now < self.t1 and (
            self.a is None or self.b is None
            or (src in self.a and dst in self.b)
            or (src in self.b and dst in self.a)
        )


@dataclass
class Verdict:
    """What the fault plane decided for one message."""

    drop: bool = False
    dup: bool = False
    delay_ms: float = 0.0


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, seed-replayable fault schedule.  A value: each
    builder returns a new plan and leaves its receiver as it was::

        plan = (FaultPlan()
                .drop(0.05)
                .partition(200.0, 900.0,
                           a=("client",), b=("server",)))
    """

    #: the rates every link's verdicts are drawn from
    spec: FaultSpec = FaultSpec()
    partitions: Tuple[PartitionWindow, ...] = ()

    # fluent builders ---------------------------------------------------
    def drop(self, p: float) -> "FaultPlan":
        return replace(self, spec=replace(self.spec, drop=p))

    def duplicate(self, p: float) -> "FaultPlan":
        return replace(self, spec=replace(self.spec, dup=p))

    def delay(self, ms: float) -> "FaultPlan":
        return replace(self, spec=replace(self.spec, delay_ms=ms))

    def partition(
        self,
        t0: float,
        t1: float,
        a: Optional[Tuple[str, ...]] = None,
        b: Optional[Tuple[str, ...]] = None,
    ) -> "FaultPlan":
        window = PartitionWindow(
            t0, t1,
            None if a is None else frozenset(a),
            None if b is None else frozenset(b),
        )
        return replace(self, partitions=self.partitions + (window,))


class FaultInjector:
    """A `FaultPlan` bound to one cluster's engine, rng and metrics.

    ``judge`` is consulted by the runtime once per runtime-level
    message transmission and returns a `Verdict`.  Counters land under
    ``faults.*``; partition windows are announced on the trace log
    (and counted) when they open and when they heal, so a sequence
    chart shows when the network went and came back.  An opening is
    a flight-recorder trigger (`TraceLog.alarm`, repro.obs.flight):
    the black box snapshots the healthy lead-up as the window opens.
    """

    def __init__(
        self,
        engine: Engine,
        plan: FaultPlan,
        rng: SimRandom,
        metrics: MetricSet,
        trace,
    ) -> None:
        self.engine = engine
        self.plan = plan
        self.rng = rng
        self.metrics = metrics
        self.trace = trace
        self._streams: Dict[Tuple[int, str], SimRandom] = {}
        for i, win in enumerate(plan.partitions):
            engine.schedule_at(
                max(win.t0, engine.now), self._announce, trace.alarm,
                "faults.partitions_entered", "partition-entered", i, win,
            )
            engine.schedule_at(
                max(win.t1, engine.now), self._announce, trace.emit,
                "faults.partitions_healed", "partition-healed", i, win,
            )

    def _announce(
        self, say: Callable[..., None], counter: str, event: str, idx: int,
        win: PartitionWindow,
    ) -> None:
        self.metrics.count(counter)
        say("faults", event, window=idx, t0=win.t0, t1=win.t1)

    def _stream(self, link: int, kind: str) -> SimRandom:
        key = (link, kind)
        s = self._streams.get(key)
        if s is None:
            s = self._streams[key] = self.rng.child(f"L{link}/{kind}")
        return s

    def partitioned(self, src: str, dst: Optional[str]) -> bool:
        if dst == src:
            # a process always reaches itself: same-process links never
            # cross the network, so no partition can sever them
            return False
        now = self.engine.now
        return any(w.severs(src, dst, now) for w in self.plan.partitions)

    def judge(
        self, src: str, dst: Optional[str], link: int, kind: str
    ) -> Verdict:
        """Decide the fate of one message from ``src`` to ``dst`` on
        ``link`` (``kind`` is the wire kind, e.g. ``"request"``)."""
        if self.partitioned(src, dst):
            self.metrics.count("faults.partition_dropped")
            return Verdict(drop=True)
        spec = self.plan.spec
        if spec.healthy:
            return Verdict()
        stream = self._stream(link, kind)
        if stream.bernoulli(spec.drop):
            self.metrics.count("faults.dropped")
            return Verdict(drop=True)
        v = Verdict()
        if stream.bernoulli(spec.dup):
            self.metrics.count("faults.duplicated")
            v.dup = True
        if spec.delay_ms > 0.0:
            v.delay_ms = stream.uniform(0.0, spec.delay_ms)
            if v.delay_ms > 0.0:
                self.metrics.count("faults.delayed")
        return v
