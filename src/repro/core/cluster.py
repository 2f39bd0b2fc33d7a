"""Clusters: a kernel, its hardware, and the processes running on it.

A `ClusterBase` subclass exists per kernel family
(`repro.charlotte.cluster.CharlotteCluster`, etc.).  It owns the
simulation engine, the interconnect model, the metrics, the logical
link registry, and the process table, and it provides the experiment
surface the tests and benches drive:

* ``spawn(program)`` — create a process running a `Proc`;
* ``create_link(p, q)`` — hand two processes the ends of a fresh link
  (the role the paper's "long-lived system servers" play for
  processes "designed in isolation");
* ``run`` / ``run_until_quiet`` — advance simulated time;
* ``crash_process`` — failure injection (see `repro.sim.faults`);
* ``close``, or ``with make_cluster(...) as cluster:`` — let a cluster
  that is done running go by reference counting.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.costs import CostModel
from repro.core.program import Proc
from repro.core.recovery import RecoveryPolicy
from repro.core.registry import LinkRegistry
from repro.core.wire import ENCLOSURE_REF_BYTES, HEADER_BYTES
from repro.obs.causal import SpanTracker
from repro.obs.flight import FlightRecorder
from repro.obs.sampling import TraceSampler
from repro.obs.timeseries import TimeSeries
from repro.sim.backends import make_engine
from repro.sim.faults import CrashMode, FaultInjector, FaultPlan
from repro.sim.futures import FutureState
from repro.sim.metrics import MetricSet
from repro.sim.rng import SimRandom
from repro.sim.tasks import Task, TaskKilled
from repro.sim.trace import TraceEvent, TraceLog


class ProcessHandle:
    """A spawned process: program + runtime + driving task."""

    def __init__(self, name: str, program: Proc, node: int) -> None:
        self.name = name
        self.program = program
        self.node = node
        self.runtime = None  # set by the cluster
        self.task: Optional[Task] = None

    @property
    def finished(self) -> bool:
        return self.task is not None and self.task.finished

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "running"
        return f"<Process {self.name} node={self.node} {state}>"


def _msg_event(
    time: float,
    actor: str,
    event: str,
    link: int,
    op: Optional[str],
    kind: str,
    seq: int,
    nbytes: int,
    peer: Optional[str],
) -> TraceEvent:
    """The record of one `ClusterBase.trace_msg` row: ``op`` and
    ``peer`` appear only when known."""
    detail = {"link": link, "op": op, "kind": kind, "seq": seq,
              "bytes": nbytes, "peer": peer}
    if op is None:
        del detail["op"]
    if peer is None:
        del detail["peer"]
    return TraceEvent(time, actor, event, detail)


class ClusterBase:
    """Common machinery for the three kernel clusters."""

    KIND = "abstract"
    #: processors in the simulated machine; `spawn` places processes on
    #: them round-robin
    NODES = 16
    #: this kernel family's LYNX runtime, a `LynxRuntimeBase` subclass
    #: that `spawn` instantiates per process as ``RUNTIME(handle, self)``
    RUNTIME: type

    def __init__(
        self,
        seed: int = 0,
        costmodel: Optional[CostModel] = None,
        sim_backend: str = "global",
        shards: int = 1,
    ) -> None:
        self.seed = seed
        #: which `repro.sim.backends` engine executes this cluster.
        #: Cluster workloads never tag shards, so on the sharded
        #: backends they run in exact global order (the oracle path)
        #: and stay bit-identical to the global engine.
        self.sim_backend = sim_backend
        self.engine = make_engine(sim_backend, shards=shards)
        self.metrics = MetricSet()
        self.registry = LinkRegistry()
        self.trace = TraceLog(self.engine)
        #: causal-span minting authority, shared by runtimes and kernels
        #: (created before `_setup_hardware` so kernels can take it)
        self.spans = SpanTracker(self.trace, metrics=self.metrics)
        self.rng = SimRandom(seed, f"cluster/{self.KIND}")
        #: the calibrated profiles; `_setup_hardware` picks this
        #: cluster's own as ``costs``
        self.costmodel = costmodel if costmodel is not None else CostModel()
        self.processes: Dict[str, ProcessHandle] = {}
        #: network-fault plane (`repro.sim.faults`); None = the network
        #: is perfectly reliable, and every pre-existing code path is
        #: bit-identical to a cluster without this attribute
        self.faults: Optional[FaultInjector] = None
        #: runtime-side recovery policy (`repro.core.recovery`); None =
        #: connects wait forever, as the paper's runtimes did
        self.recovery: Optional[RecoveryPolicy] = None
        #: windowed metric series (`repro.obs.timeseries`); None until
        #: `install_timeseries`
        self.timeseries: Optional[TimeSeries] = None
        self._auto_name = 0
        self._next_node = 0
        self._setup_hardware()

    # ------------------------------------------------------------------
    # kernel-specific hooks
    # ------------------------------------------------------------------
    def _setup_hardware(self) -> None:
        """Instantiate the interconnect and kernel objects, and name
        this cluster's calibrated profile (``costmodel.<KIND>``) as
        ``costs``: the one every kernel and runtime of it reads."""
        raise NotImplementedError

    def create_link(self, a: ProcessHandle, b: ProcessHandle) -> None:
        """Give ``a`` and ``b`` each one end of a fresh link, visible to
        their programs as ``ctx.initial_links``.  Must be called before
        ``run`` starts the processes."""
        raise NotImplementedError

    def on_crash(self, handle: ProcessHandle, mode: CrashMode) -> None:
        """Kernel-side consequences of a process/node death."""

    def runtime_exited(self, runtime) -> None:
        """A runtime finished its orderly shutdown: its clean-up
        destroyed every link it held.  Clusters whose kernels track
        per-process liveness deregister the process here."""

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------
    def spawn(
        self,
        program: Proc,
        name: Optional[str] = None,
        node: Optional[int] = None,
    ) -> ProcessHandle:
        if name is None:
            self._auto_name += 1
            name = f"p{self._auto_name}"
        if name in self.processes:
            raise ValueError(f"duplicate process name {name!r}")
        if node is None:
            node = self._next_node % self.NODES
            self._next_node += 1
        handle = ProcessHandle(name, program, node)
        handle.runtime = self.RUNTIME(handle, self)
        handle.task = Task(
            self.engine, handle.runtime.main_generator(), f"proc:{name}"
        )
        self.processes[name] = handle
        return handle

    def trace_msg(self, actor: str, event: str, ref, msg, op=None) -> None:
        """Record a message event for sequence charts: a row of values
        taken now, so a later move of either end cannot change it
        (`_msg_event` builds the record when the log is read).  The peer
        lookup goes through the registry — observability only; no
        protocol decision ever depends on it."""
        span = msg.span
        if span is not None and not span.sampled:
            return  # head-based sampling: the whole trace is dropped
        # ``kind._value_``: the attribute Enum's ``value`` property
        # reads, and the size is `WireMessage.wire_size`, each without
        # the property's frame; the peer is
        # `LinkRegistry.owner_of(ref.peer)`, without building the peer ref
        self.trace.defer(
            _msg_event, actor, event, ref.link, op, msg.kind._value_,
            msg.seq,
            HEADER_BYTES + len(msg.opname) + len(msg.payload)
            + ENCLOSURE_REF_BYTES * len(msg.enclosures),
            self.registry.links[ref.link].ends[1 - ref.side].owner,
        )

    def install_faults(self, plan: FaultPlan) -> FaultInjector:
        """Bind a network-fault schedule to this cluster (see
        `repro.sim.faults`).  Verdicts draw from the cluster rng's
        ``faults`` child stream, so the schedule replays exactly from
        the cluster seed and does not perturb other consumers.  Refused
        once a process has spawned: each runtime reads the fault stance
        at spawn."""
        self._before_any_spawn("install_faults")
        self.faults = FaultInjector(
            self.engine, plan, self.rng.child("faults"), self.metrics,
            trace=self.trace,
        )
        return self.faults

    def install_recovery(self, policy: RecoveryPolicy) -> RecoveryPolicy:
        """Install the runtime-side timeout/retry policy (see
        `repro.core.recovery`).  Applies to backends whose
        capabilities place recovery in the runtime; kernel-placement
        backends (Charlotte) ignore it by design.  Refused once a
        process has spawned: each runtime reads the policy once."""
        self._before_any_spawn("install_recovery")
        self.recovery = policy
        return policy

    def _before_any_spawn(self, method: str) -> None:
        """A runtime reads the cluster's fault stance once, at spawn, so
        a plan or policy installed after one would half apply."""
        if self.processes:
            raise RuntimeError(f"{method} after a spawn: install the fault "
                               "plan and the recovery policy before any "
                               "process spawns (docs/FAULTS.md)")

    def install_trace_sampling(self, rate: float) -> TraceSampler:
        """Head-based deterministic trace sampling (`repro.obs.sampling`):
        keep roughly ``rate`` of traces, decided per trace id from the
        cluster seed, inherited by every child span.  1.0 restores the
        trace-everything default; 0.0 drops every span (the obs-off mode
        of the E15 overhead bench)."""
        sampler = TraceSampler(rate, seed=self.seed)
        self.spans.sampler = sampler
        return sampler

    def install_flight_recorder(self, out_dir) -> FlightRecorder:
        """Install a `repro.obs.flight.FlightRecorder` black box on this
        cluster's trace log: on recovery exhaustion, partition entry or
        a crash it dumps the log's last events as bounded JSONL under
        ``out_dir``, with the recorder's default ``capacity`` and
        ``max_dumps``.  The recorder is ``self.trace.flight``."""
        return FlightRecorder(
            self.trace, out_dir, metrics=self.metrics, engine=self.engine,
            kind=self.KIND, seed=self.seed,
        )

    def install_timeseries(self, window_ms: float = 100.0) -> TimeSeries:
        """Bucket every counter increment and latency sample into
        ``window_ms`` windows of simulated time (`repro.obs.timeseries`,
        which keeps its default ``retain`` windows) — the data behind
        ``python -m repro top``."""
        self.timeseries = TimeSeries(self.engine, window_ms)
        self.metrics.bind_timeseries(self.timeseries)
        return self.timeseries

    def peer_name_of(self, ref) -> Optional[str]:
        """The process currently owning the far end of ``ref`` — the
        registry's view, used by the fault plane to apply partition
        windows (observability-grade: no protocol decision depends on
        it)."""
        return self.registry.owner_of(ref.peer)

    def crash_process(
        self, name: str, mode: CrashMode = CrashMode.TERMINATE
    ) -> None:
        """Kill a process.  TERMINATE/FAULT let the runtime clean up;
        PROCESSOR is a hard node failure (see `repro.sim.faults`)."""
        handle = self.processes[name]
        if handle.finished:
            return
        handle.runtime._crash_mode = mode
        self.on_crash(handle, mode)
        handle.task.kill(f"{mode.value} crash of {name}")
        self.metrics.count(f"cluster.crashes.{mode.value}")
        # black-box trigger (repro.obs.flight): record the death itself
        self.trace.alarm(name, "crash", mode=mode.value, node=handle.node)

    def close(self) -> None:
        """Let a finished cluster go by reference counting.

        Each runtime is the hub of the cluster's reference cycles: it
        points at the cluster, its handle, its kernel port and its own
        helpers, and each of those points back (the handle's task, a
        kernel's routes and handlers, a suspended thread's context).
        ``close`` empties every runtime, so no path leads back through
        one, and a task still blocked stops waiting, so it and the
        futures it waited on no longer hold each other.  Everything else
        stays: the engine, the trace, the metrics, the installed planes,
        and each handle with its task, so ``all_finished`` and ``check``
        still answer.  No simulated code runs; a generator still
        suspended runs only its ``GeneratorExit`` branch when it is
        freed.  An installed flight recorder is let go: it and the trace
        log point at each other, and the caller that installed it keeps
        it if it wants its dumps.  A second call does nothing; a closed
        cluster cannot run again.  Events still pending hold what they
        reference until the engine goes."""
        for handle in self.processes.values():
            vars(handle.runtime).clear()
            handle.task._waiting_on = None
        self.trace.flight = None

    def __enter__(self) -> "ClusterBase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None):
        return self.engine.run(until=until, max_events=max_events)

    def run_until_quiet(self, max_ms: float = 1e7, max_events: int = 5_000_000):
        """Run until the event heap empties (global quiescence) or a
        budget is exhausted.  Returns the simulated end time."""
        self.engine.run(until=max_ms, max_events=max_events)
        return self.engine.now

    @property
    def all_finished(self) -> bool:
        return all(p.finished for p in self.processes.values())

    def unfinished(self):
        return [p.name for p in self.processes.values() if not p.finished]

    def check(self) -> None:
        """Raise if any process died of a *programming* error (not a
        simulated crash) or registry invariants broke.  Tests call this
        at the end of every scenario."""
        for p in self.processes.values():
            if p.finished and p.task.done.state is FutureState.FAILED:
                err = p.task.done.error
                if not isinstance(err, TaskKilled):
                    raise AssertionError(
                        f"process {p.name} failed unexpectedly: {err!r}"
                    ) from err
        problems = self.registry.check_invariants()
        if problems:
            raise AssertionError(f"registry invariants violated: {problems}")
