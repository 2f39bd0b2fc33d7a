"""A host-cost guard that reads no clock.

How many Python-visible calls one null RPC costs, per kernel, counted
by ``cProfile``: profile ``run_rpc_workload(kind, 0, count=200)`` after
a 20-op warm-up (imports, lazily built tables), sum the call count of
every profiled code object (``Profile.getstats()``) and divide by 200.
``pstats.Stats.total_calls`` is not that sum: it keys a function by
``(file, line, name)``, so generated ``__init__``s (every dataclass's
is ``<string>`` at one line) collide and all but one drop out.  The
count repeats exactly on one interpreter, so unlike a wall clock it can
be held in tier-1, on every interpreter of the CI matrix.

The ceilings are about 1.09 x what the tree measures on CPython 3.11.7
(750 / 818 / 787 / 466 calls per null RPC, 2,390 / 3,199 / 2,774 /
1,516 per migration hop; 3.10.13 reads the same, 3.12.1 and 3.13.0
about 4 calls per RPC and 14 per hop fewer).  The history below was
read through ``pstats`` and misses the colliding ``__init__``s: 728 /
798 / 770 / 453 since a delay is the task's own timer — no future per
charge or bounded kernel call — and the kernels' per-end lookups, flag
reads and freeze test are plain reads; 829 / 856 / 882 / 493 before,
once a wait put its listener on the future itself and the block point
ran in the dispatcher's own frame; 957 / 961 / 1,007 / 553 before that,
958 / 968 / 1,008 / 554 once a trace record became a row built on read,
989 / 1,003 / 1,044 / 577 before that, and 1,135 / 1,080 / 1,148 / 641
before the block point stopped building a future per two-way wait.
A change that lowers a count lowers its ceiling; none raises one.  The
guard exists because this cost is paid a convenience property at a time: no
single ``is_settled()`` or per-wait closure shows in a benchmark run,
and a hundred of them are a third of `rpc_null`'s ``cpu_us_per_op``
(docs/PERFORMANCE.md §2.6–§2.8).

The move path has its own ceiling, per hop of
``run_migration_churn(kind, members=4, hops=20)`` (setup included,
after a 4-hop warm-up): a saving on the null RPC that taxes enclosures,
Charlotte's three-party agreement, SODA's hints or Chrysalis' notices
fails here, not only in the ``link_move`` benchmark.

Memory has one too: the bytes ``tracemalloc`` still counts once a
finished ``run_rpc_workload(kind, 0, count=200)`` has been collected,
per null RPC — almost all of it the trace log the result keeps.  Like
the calls it repeats to the byte on one interpreter (2,728 / 3,256 /
3,112 / 2,000 on 3.11.7 since the span names of an RPC are built once
per `Operation` and per message kind; 2,974 / 3,378 / 3,233 / 2,121
before, and 6,567 / 7,630 / 7,485 / 4,926 when every record was a built
`TraceEvent`; 3.10.13 keeps at most 1 % more, 3.12.1 and 3.13.0 about
1 % less), and a record that keeps more than its values fails here, not
only in `peak_rss_mb`.

That guard cannot see a kernel's tables: the result keeps the trace
log but not the cluster, so every table the run grew is freed before
the count.  SODA's kernel kept every request it had ever carried, and
the guard read the same bytes before and after that table learned to
forget.  So the same count is taken again with every cluster alive, as
`perf/passes.py` keeps them to the end of a pass, for `rpc_null`,
`link_move` and `chaos_lossy`, differenced between a 300-op and a
100-op run so the per-cluster constant cancels.  SODA read 5,313 /
19,926 / 7,136 B per op while its request table kept history, and
3,293 / 11,626 / 4,811 since it keeps only requests in flight and the
link registry keeps no transition log (docs/PERFORMANCE.md §2.12).

And garbage per op: the objects ``gc.collect()`` finds unreachable
after a run made with the collector disabled — with every cluster the
run built still alive — differenced between a 100-op and a 300-op run
so the per-cluster constant cancels.  The benchmark's timed regions run
with the collector off, so each such object stays resident to the end
of the pass: memory stranded per op goes straight into `peak_rss_mb`
(docs/PERFORMANCE.md §2.11).  A lossy chaos run was 0 / 22.0 / 26.0 /
27.0 objects per op while every `TimerWheel` bucket kept its engine
event and its handles in cycles, and is 0 on all four kernels since;
`rpc_null` and `link_move` measure 0 on all four kernels, on 3.10.13
through 3.13.0 (Charlotte's `link_move` read 40 per hop while its move
lock retry was a self-deferring closure; `repro.charlotte.moves._attempt`
leaves none).

Last, the cluster as a whole.  A workload entry point closes its
cluster before it returns (`ClusterBase.close`), so dropping the result
must free everything by reference counting: the trace log and the
engine the result kept, and every other cluster object with them.  A
finished cluster used to be one reference cycle through each runtime
(and through Charlotte's move coordinator and its kernel), which only
the collector could free: dropping a 600-op result freed 0 B, and the
collector then found 7.3k–14.9k objects per conversation
(docs/PERFORMANCE.md §2.13).  Since the benchmark's passes run with the
collector off, each LYNX pass held all four kernels' conversations.
"""

import cProfile
import gc
import tempfile
import tracemalloc
import weakref
from dataclasses import dataclass

import pytest

from repro.core.cluster import ClusterBase
from repro.experiments import experiment
from repro.workloads import adversarial, chaos, migration, rpc, skew
from repro.workloads.raw import raw_rpc
from repro.workloads.chaos import (
    chaos_policy,
    lossy_plan,
    partitioned_plan,
    run_chaos_workload,
)
from repro.workloads.migration import run_migration_churn
from repro.workloads.rpc import run_rpc_workload

OPS = 200
HOPS = 20

#: calls per null RPC: only ever lowered
CALL_CEILINGS = {
    "charlotte": 815,
    "soda": 895,
    "chrysalis": 865,
    "ideal": 510,
}

#: calls per migration hop (measured 2,390 / 3,199 / 2,774 / 1,516;
#: through ``pstats`` 2,319 / 3,119 / 2,712 / 1,473, 2,629 / 3,322 /
#: 3,109 / 1,593 before, 3,006 / 3,745 / 3,551 / 1,780 before that):
#: only ever lowered
HOP_CALL_CEILINGS = {
    "charlotte": 2600,
    "soda": 3495,
    "chrysalis": 3040,
    "ideal": 1650,
}

#: bytes kept per null RPC (measured 2,728 / 3,256 / 3,112 / 2,000):
#: only ever lowered
KEPT_BYTES_CEILINGS = {
    "charlotte": 3055,
    "soda": 3645,
    "chrysalis": 3485,
    "ideal": 2240,
}


def _calls(run):
    """``run()``'s result and the Python calls it made."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = run()
    finally:
        profile.disable()
    return result, sum(entry.callcount for entry in profile.getstats())


@dataclass
class _First:
    x: int = 0


@dataclass
class _Second:
    x: int = 0


def test_the_probe_counts_every_generated_init():
    """Both generated ``__init__``s are ``<string>`` code at one line:
    a count keyed by ``(file, line, name)`` keeps only one of them."""
    def build():
        for _ in range(10):
            _First()
            _Second()

    _, calls = _calls(build)
    _, baseline = _calls(lambda: None)
    assert calls - baseline == 20


@pytest.mark.parametrize("kind", sorted(CALL_CEILINGS))
def test_calls_per_null_rpc_stay_under_the_ceiling(kind):
    run_rpc_workload(kind, 0, count=20)
    result, calls = _calls(lambda: run_rpc_workload(kind, 0, count=OPS))
    assert len(result.rtts) == OPS
    calls_per_op = calls / OPS
    assert calls_per_op <= CALL_CEILINGS[kind], (
        f"{kind}: {calls_per_op:.0f} Python calls per null RPC "
        f"(ceiling {CALL_CEILINGS[kind]})"
    )


@pytest.mark.parametrize("kind", sorted(HOP_CALL_CEILINGS))
def test_calls_per_migration_hop_stay_under_the_ceiling(kind):
    run_migration_churn(kind, members=4, hops=4)
    digest, calls = _calls(
        lambda: run_migration_churn(kind, members=4, hops=HOPS)
    )
    assert digest["finished"] and digest["rpcs_served"] == HOPS
    calls_per_hop = calls / HOPS
    assert calls_per_hop <= HOP_CALL_CEILINGS[kind], (
        f"{kind}: {calls_per_hop:.0f} Python calls per migration hop "
        f"(ceiling {HOP_CALL_CEILINGS[kind]})"
    )


@pytest.mark.parametrize("kind", sorted(KEPT_BYTES_CEILINGS))
def test_bytes_kept_per_null_rpc_stay_under_the_ceiling(kind):
    run_rpc_workload(kind, 0, count=20)
    gc.collect()
    tracemalloc.start()
    try:
        result = run_rpc_workload(kind, 0, count=OPS)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(result.rtts) == OPS
    kept_per_op = kept / OPS
    assert kept_per_op <= KEPT_BYTES_CEILINGS[kind], (
        f"{kind}: {kept_per_op:.0f} bytes kept per null RPC "
        f"(ceiling {KEPT_BYTES_CEILINGS[kind]})"
    )


#: cyclic garbage per op (objects), keyed by workload: only ever lowered
GARBAGE_CEILINGS = {
    "rpc_null": {"charlotte": 0, "soda": 0, "chrysalis": 0, "ideal": 0},
    "link_move": {"charlotte": 0, "soda": 0, "chrysalis": 0, "ideal": 0},
    "chaos_lossy": {"charlotte": 0.5, "soda": 0.5, "chrysalis": 0.5,
                    "ideal": 0.5},
}

GARBAGE_RUNS = {
    "rpc_null": lambda kind, n: run_rpc_workload(kind, 0, count=n),
    "link_move": lambda kind, n: run_migration_churn(kind, members=4, hops=n),
    "chaos_lossy": lambda kind, n: run_chaos_workload(
        kind, count=n, plan=lossy_plan(0.1, 0.05), policy=chaos_policy(),
        pace_ms=0.0,
    ),
}


def _keeping(make_cluster, clusters):
    """``make_cluster`` that also keeps every cluster it builds alive."""
    def make(*args, **kwargs):
        cluster = make_cluster(*args, **kwargs)
        clusters.append(cluster)
        return cluster
    return make


def _keep_every_cluster(monkeypatch):
    """The list every workload's clusters now go into, kept alive."""
    clusters = []
    for module in (rpc, migration, chaos):
        monkeypatch.setattr(module, "make_cluster",
                            _keeping(module.make_cluster, clusters))
    return clusters


@pytest.mark.parametrize("kind", sorted(CALL_CEILINGS))
@pytest.mark.parametrize("workload", sorted(GARBAGE_CEILINGS))
def test_cyclic_garbage_per_op_stays_under_the_ceiling(
    workload, kind, monkeypatch
):
    """Catches a `TimerWheel` whose spent buckets keep their engine
    event or their handles: the parent's wheel reads 22.0 / 26.0 / 27.0
    chaos objects per op on SODA / Chrysalis / ideal, dropping only the
    ``bucket.event = bucket.handles = None`` of `_fire` 13.5–15.8, only
    that of `_Bucket.release` 9.2–13.0.  The other legs catch a
    listener closure that names itself (`Task` waiting through a nested
    ``def listener(fut)`` that sets ``listener.done``: 48–92 objects
    per null RPC, 144–344 per hop) — the pattern of Charlotte's move
    agreement while its lock retry was a nested ``attempt`` that
    deferred itself: 40 objects per hop, where the deferred function
    `repro.charlotte.moves._attempt` leaves none."""
    clusters = _keep_every_cluster(monkeypatch)
    run = GARBAGE_RUNS[workload]

    def garbage(count):
        clusters.clear()
        gc.collect()
        gc.disable()
        try:
            run(kind, count)
            return gc.collect()
        finally:
            gc.enable()

    run(kind, 20)
    per_op = (garbage(300) - garbage(100)) / 200
    assert per_op <= GARBAGE_CEILINGS[workload][kind], (
        f"{workload} on {kind}: {per_op:.2f} cyclic objects per op "
        f"(ceiling {GARBAGE_CEILINGS[workload][kind]})"
    )


#: bytes kept per op with every cluster alive, keyed by workload
#: (measured 2,765 / 3,295 / 3,151 / 2,041, 8,345 / 11,627 / 9,525 /
#: 6,106 and 2,810 / 4,808 / 3,517 / 2,438, runtimes kept): only ever
#: lowered
ALIVE_BYTES_CEILINGS = {
    "rpc_null": {"charlotte": 3090, "soda": 3685, "chrysalis": 3525,
                 "ideal": 2285},
    "link_move": {"charlotte": 9340, "soda": 13020, "chrysalis": 10665,
                  "ideal": 6835},
    "chaos_lossy": {"charlotte": 3150, "soda": 5385, "chrysalis": 3940,
                    "ideal": 2730},
}


@pytest.mark.parametrize("kind", sorted(CALL_CEILINGS))
@pytest.mark.parametrize("workload", sorted(ALIVE_BYTES_CEILINGS))
def test_bytes_kept_per_op_with_the_clusters_alive(
    workload, kind, monkeypatch
):
    """Catches a kernel table that keeps what has finished: SODA's
    request table read 5,313 / 19,926 / 7,136 B per op here while it
    kept every request, where the collected-cluster guard above read
    the same bytes with and without it; the link registry's transition
    log added about 520 B per hop on every kernel.  `ClusterBase.close`
    is made a no-op here, so the kept clusters keep their runtimes and
    a runtime table that grows per op shows too."""
    clusters = _keep_every_cluster(monkeypatch)
    monkeypatch.setattr(ClusterBase, "close", lambda self: None)
    run = GARBAGE_RUNS[workload]

    def kept(count):
        clusters.clear()
        gc.collect()
        tracemalloc.start()
        try:
            run(kind, count)
            gc.collect()
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    run(kind, 20)
    per_op = (kept(300) - kept(100)) / 200
    assert per_op <= ALIVE_BYTES_CEILINGS[workload][kind], (
        f"{workload} on {kind}: {per_op:.0f} bytes kept per op with the "
        f"clusters alive (ceiling {ALIVE_BYTES_CEILINGS[workload][kind]})"
    )


#: where each workload's result keeps its cluster's trace log
TRACE_OF = {
    "rpc_null": lambda result: result.trace,
    "link_move": lambda result: result["trace"],
    "chaos_lossy": lambda result: result.trace,
}


@pytest.mark.parametrize("kind", sorted(CALL_CEILINGS))
@pytest.mark.parametrize("workload", sorted(TRACE_OF))
def test_a_finished_run_frees_its_cluster_by_reference_counting(
    workload, kind
):
    """Catches a cycle left in a closed cluster: with the collector off,
    dropping the result must free the trace log and the engine it
    kept, and the collector must then find nothing at all.  The parent
    of `ClusterBase.close` kept both alive on every kernel, and a cycle
    between Charlotte's kernel and its move coordinator kept them alive
    there even once the runtimes were cut.  A thread that ended on an
    error it was thrown left the error, its traceback and the runtime's
    frame in a cycle (from CPython 3.12 the callers' frames too, up to
    the one holding the cluster)."""
    run, trace_of = GARBAGE_RUNS[workload], TRACE_OF[workload]

    def leftover(count):
        gc.collect()
        gc.disable()
        try:
            trace = trace_of(run(kind, count))
            kept = weakref.ref(trace), weakref.ref(trace.engine)
            del trace
            assert [ref() for ref in kept] == [None, None], (
                f"{workload} on {kind}: the trace log / engine outlive "
                f"the result"
            )
            return gc.collect()
        finally:
            gc.enable()

    run(kind, 20)
    assert (leftover(100), leftover(300)) == (0, 0), (
        f"{workload} on {kind}: the collector finds what a closed cluster "
        f"left"
    )


def _flight_recorded_chaos() -> None:
    """`flight --demo`'s run: a partitioned chaos run on SODA with a
    flight recorder installed, which dumps on partition entry."""
    with tempfile.TemporaryDirectory() as out:
        run_chaos_workload(
            "soda", count=12, seed=0, plan=partitioned_plan(quick=True),
            policy=chaos_policy(),
            instrument=lambda cluster: cluster.install_flight_recorder(out),
        )


#: entry points that build a cluster and return only values, each
#: with a small size: a `repro bench` sweep runs all of them, and
#: `flight --demo` the recorded chaos run
THROWAWAY_RUNS = {
    "flight_recorded_chaos": _flight_recorded_chaos,
    "dormant_migration": lambda: migration.run_dormant_migration("soda"),
    "reverse_scenario": lambda: adversarial.run_reverse_scenario("charlotte"),
    "open_close_scenario": lambda: adversarial.run_open_close_scenario(
        "charlotte"),
    "skewed_load": lambda: skew.run_skewed_load("chrysalis"),
    "raw_rpc": lambda: [raw_rpc(kind) for kind in ("charlotte", "soda",
                                                   "chrysalis")],
    **{
        exp_id: lambda exp_id=exp_id: experiment(exp_id).measure(0, True)
        for exp_id in ("E3", "E7", "A3", "E8", "A2", "E15", "E10")
    },
}


@pytest.mark.parametrize("name", sorted(THROWAWAY_RUNS))
def test_a_throwaway_cluster_leaves_nothing_for_the_collector(name):
    """Every other entry point that builds its own cluster closes it
    too, whatever state its run ended in: processes crashed (A3),
    blocked for good or stopped at a time budget (E10).  The parent
    left 38–4,228 objects per entry point for the collector.  A flight
    recorder and its trace log point at each other, so a recorded run
    left 250 until `ClusterBase.close` let the recorder go."""
    run = THROWAWAY_RUNS[name]
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()
