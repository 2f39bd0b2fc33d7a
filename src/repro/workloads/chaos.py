"""The fault-recovery workload behind E14 (§2.2, §4.1, §5.2).

A paced client issues typed ``chaos`` operations against a *primary*
server while a seeded `repro.sim.faults.FaultPlan` degrades the
network; a *backup* server stands by on a second link.  The client's
failover rule is the paper's "hints" stance made concrete: when a
connect raises `RecoveryExhausted` — which only runtime-placement
backends can do — it re-issues the operation on the backup link and
stays there (sticky failover).

That asymmetry is the whole experiment.  A kernel-placement backend
(Charlotte's absolutes) never surfaces loss, so its client has no
signal to act on: a connect issued into a partition simply blocks
until the window heals, goodput craters and tail latency stretches to
the partition length.  A runtime-placement backend (SODA, Chrysalis,
ideal) bounds the damage at the `RecoveryPolicy` budget and reroutes.
`repro.obs.bench` (E14) machine-checks the resulting strict goodput
ordering; ``python -m repro chaos`` prints it interactively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.api import (
    BYTES,
    Operation,
    Proc,
    RecoveryExhausted,
    RecoveryPolicy,
    make_cluster,
)
from repro.core.exceptions import LynxError
from repro.sim.faults import FaultPlan
from repro.sim.metrics import ordered_mean
from repro.sim.trace import TraceLog

CHAOS = Operation("chaos", (BYTES,), (BYTES,))


def chaos_policy() -> RecoveryPolicy:
    """The recovery knobs every E14 run uses: ~175 ms worst-case budget
    (25 + 50 + 100), far below the partition windows in
    `partitioned_plan`, so failover decisions land *inside* the
    outage.  The 25 ms initial timeout sits above every backend's
    fault-free round trip (SODA's is the slowest at ~20 ms), so a
    healthy network never triggers a spurious retry."""
    return RecoveryPolicy(
        timeout_ms=25.0, max_retries=2, jitter_frac=0.1
    )


def partitioned_plan(quick: bool = False) -> FaultPlan:
    """The E14 fault schedule: one partition window severing the
    client from the *primary* server only (the backup stays
    reachable).  The window deliberately outlasts the paced schedule's
    nominal end, so a backend that can only wait pays for the whole
    outage."""
    if quick:
        return FaultPlan().partition(100.0, 520.0, a=("client",), b=("primary",))
    return FaultPlan().partition(200.0, 1300.0, a=("client",), b=("primary",))


def lossy_plan(drop: float = 0.2, dup: float = 0.1) -> FaultPlan:
    """Random per-message loss/duplication on every link — the
    per-backend recovery smoke (tests/core/test_recovery.py) and the
    property suite use this shape."""
    return FaultPlan().drop(drop).duplicate(dup)


class ChaosServer(Proc):
    """Serves ``chaos`` operations until its link dies."""

    def __init__(self, reply_bytes: int = 32) -> None:
        self.reply_bytes = reply_bytes
        self.served = 0

    def main(self, ctx):
        (end,) = ctx.initial_links
        yield from ctx.register(CHAOS)
        yield from ctx.open(end)
        body = b"r" * self.reply_bytes
        while True:
            try:
                # explicit end filter: link destruction then wakes the
                # wait with LinkDestroyed, ending the serve loop
                inc = yield from ctx.wait_request((end,))
                yield from ctx.reply(inc, (body,))
            except LynxError:
                # link destroyed (or the reply became unwanted): done
                return
            self.served += 1


class ChaosClient(Proc):
    """Issues ``count`` paced operations with sticky failover.

    Operation ``i`` targets simulated time ``start + i * pace_ms``; a
    stalled predecessor pushes later issues back, which is exactly how
    a blocked absolute-delivery connect shows up in goodput.  On
    `RecoveryExhausted` the client flips to the other link and
    re-issues the same operation there.
    """

    def __init__(
        self, count: int, request_bytes: int = 32, pace_ms: float = 40.0
    ) -> None:
        self.count = count
        self.request_bytes = request_bytes
        self.pace_ms = pace_ms
        self.rtts: List[float] = []
        self.completed = 0
        self.failed = 0
        self.failed_over = 0
        self.elapsed_ms = 0.0

    def main(self, ctx):
        ends = list(ctx.initial_links)  # [primary, backup]
        current = 0
        body = b"q" * self.request_bytes
        start = yield from ctx.now()
        for i in range(self.count):
            target = start + i * self.pace_ms
            now = yield from ctx.now()
            if target > now:
                yield from ctx.delay(target - now)
            t0 = yield from ctx.now()
            done = False
            for _attempt in range(len(ends)):
                try:
                    yield from ctx.connect(ends[current], CHAOS, (body,))
                except RecoveryExhausted:
                    # the hint did its job: record the failover in the
                    # recovery namespace, then take the other link
                    ctx.metrics.count("recovery.failovers")
                    current = (current + 1) % len(ends)
                    self.failed_over += 1
                except LynxError:
                    break
                else:
                    done = True
                    break
            t1 = yield from ctx.now()
            if done:
                self.completed += 1
                self.rtts.append(t1 - t0)
            else:
                self.failed += 1
        end_t = yield from ctx.now()
        self.elapsed_ms = end_t - start
        for e in ends:
            try:
                yield from ctx.destroy(e)
            except LynxError:
                pass


@dataclass
class ChaosResult:
    """One chaos run's client-observed outcome plus fault/recovery
    counters (``faults.*`` / ``recovery.*`` namespaces)."""

    kind: str
    count: int
    completed: int
    failed: int
    failed_over: int
    rtts: List[float]
    elapsed_ms: float
    counters: Dict[str, float] = field(default_factory=dict)
    #: the cluster's TraceLog — carries the causal spans
    trace: Optional[TraceLog] = None

    @property
    def goodput_per_s(self) -> float:
        """Completed operations per *client-observed* second (the
        engine's end time includes cancelled-timer tombstones, so the
        client measures its own elapsed window)."""
        if self.elapsed_ms <= 0.0:
            return 0.0
        return self.completed / (self.elapsed_ms / 1000.0)

    @property
    def max_rtt_ms(self) -> float:
        return max(self.rtts) if self.rtts else 0.0

    @property
    def p99_ms(self) -> float:
        if not self.rtts:
            return 0.0
        xs = sorted(self.rtts)
        idx = min(len(xs) - 1, int(round(0.99 * (len(xs) - 1))))
        return xs[idx]

    @property
    def mean_ms(self) -> float:
        return ordered_mean(self.rtts, empty=0.0)


def run_chaos_workload(
    kind: str,
    count: int = 30,
    payload_bytes: int = 32,
    seed: int = 0,
    plan: Optional[FaultPlan] = None,
    policy: Optional[RecoveryPolicy] = None,
    pace_ms: float = 40.0,
    instrument=None,
    **cluster_kw,
) -> ChaosResult:
    """Run the chaos workload on one backend.

    ``plan``/``policy`` must be installed before any process runs, so
    this helper does it between ``make_cluster`` and ``spawn``.  With
    both ``None`` the run is fault-free (the control row of E14).
    ``instrument``, when given, is called with the cluster after the
    fault plane is installed and before any process spawns — the hook
    ``repro flight --demo`` and ``repro top`` use to attach a flight
    recorder or a windowed time-series.
    """
    with make_cluster(kind, seed=seed, **cluster_kw) as cluster:
        if plan is not None:
            cluster.install_faults(plan)
        if policy is not None:
            cluster.install_recovery(policy)
        if instrument is not None:
            instrument(cluster)
        client = ChaosClient(count, payload_bytes, pace_ms)
        primary = ChaosServer(payload_bytes)
        backup = ChaosServer(payload_bytes)
        c = cluster.spawn(client, "client")
        p = cluster.spawn(primary, "primary")
        b = cluster.spawn(backup, "backup")
        cluster.create_link(c, p)
        cluster.create_link(c, b)
        cluster.run_until_quiet(max_ms=1e7)
        if not cluster.all_finished:
            raise RuntimeError(
                f"chaos workload hung on {kind}: {cluster.unfinished()}"
            )
        cluster.check()
        counters = {}
        counters.update(cluster.metrics.counters("faults."))
        counters.update(cluster.metrics.counters("recovery."))
        return ChaosResult(
            kind=kind,
            count=count,
            completed=client.completed,
            failed=client.failed,
            failed_over=client.failed_over,
            rtts=client.rtts,
            elapsed_ms=client.elapsed_ms,
            counters=counters,
            trace=cluster.trace,
        )
