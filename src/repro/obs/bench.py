"""The unified benchmark runner behind ``python -m repro bench``.

Re-runs the headline workloads — E1 (Charlotte latency plus the
``ideal`` zero-protocol lower bound), E4 (the SODA crossover sweep),
E5 (Chrysalis latency + tuning), E13 (causal critical-path layer
attribution, repro.obs.causal), E14 (goodput and tail latency under a
seeded network partition, repro.workloads.chaos), E15 (the telemetry
plane's contracts: deterministic head sampling, streaming-histogram
accuracy and merge fidelity), E16 (the engine-scaling experiment:
100k+ simulated clients on every `repro.sim.backends` engine, the
cross-backend determinism digests machine-checked) and E17 (the
real-transport backend: real node processes over OS sockets,
exactly-once and failover machine-checked, beside the simulator's
shape) — and writes one machine-readable ``BENCH_*.json`` so the
trajectory of the repository is tracked across PRs.  The
authoritative assertion-carrying harness remains
``pytest benchmarks/ --benchmark-only``; this runner trades
its tables for a stable schema::

    {"schema": "repro.bench", "schema_version": 8,
     "seed": 0, "git_rev": "<rev|unknown>",
     "timestamp": "<UTC ISO-8601>", "quick": false,
     "benches": {bench_id: {metric: value}}}

Every value in ``benches`` is **exact**: a simulated quantity, a count
fixed by the workload, or a machine-checked contract flag — two runs
of one commit with one seed write identical ``benches``, which is what
lets ``bench --compare`` (`repro.obs.compare`) gate on equality.  Host
time is not measured here; it belongs to the repo benchmark
(``perf/``, BENCHMARK.json), which repeats every wall number in fresh
pinned processes and reports its spread.

E13 and E14 iterate the kernel registry (`repro.core.ports`), and
E16 iterates the sim-backend registry (`repro.sim.backends`), so a
newly registered backend shows up in the document without edits
here.  ``schema_version`` history: 3 = the ``ideal`` backend joined
every per-kernel metric family; 4 = the E14 fault-recovery bench
joined ``benches``; 5 = the E15 observability bench joined
``benches`` and latency percentiles became streaming-histogram
derived (`repro.obs.hist`); 6 = the E16 sharded-engine scaling bench
joined ``benches``; 7 = the E17 real-transport bench joined
``benches`` and the ``real-asyncio`` backend joined the per-kernel
metric families (E17's keys are ``None`` on hosts that cannot run
node processes, so the document schema never varies); 8 = every
wall-clock metric left the document (the S1 bench whole, E15's and
E16's events/sec and overhead ratios, E17's measured RTTs,
throughput and retry counts) and E1/E4/E5/E13/E14 run at one size.

``--quick`` sizes only the benches in `QUICK_SIZED` (the E16 and E17
populations); every other bench runs at its one size either way.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
# the export is stamped with real UTC time (metadata, not a
# simulation input), hence the allow:
from datetime import datetime, timezone  # repro: allow[DET001]
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.obs.jsonl import json_safe

BENCH_SCHEMA_VERSION = 8
DEFAULT_BENCH_FILENAME = "BENCH_PR16.json"

E4_SWEEP = (0, 256, 512, 1024, 1536, 2048, 3072, 4096)


def bench_e1(seed: int = 0) -> Dict[str, float]:
    """E1 — §3.3 Charlotte latencies, LYNX vs raw kernel calls, with
    the ``ideal`` backend's zero-protocol-overhead RPC as the floor
    every real kernel is measured against."""
    from repro.workloads.rpc import raw_charlotte_rpc, run_rpc_workload

    count = 5
    raw0 = raw_charlotte_rpc(0, count=count, seed=seed)
    raw1000 = raw_charlotte_rpc(1000, count=count, seed=seed)
    lynx0 = run_rpc_workload("charlotte", 0, count=count, seed=seed)
    lynx1000 = run_rpc_workload("charlotte", 1000, count=count, seed=seed)
    ideal0 = run_rpc_workload("ideal", 0, count=count, seed=seed)
    ideal1000 = run_rpc_workload("ideal", 1000, count=count, seed=seed)
    return {
        "raw_rpc0_ms": raw0.mean_ms,
        "raw_rpc1000_ms": raw1000.mean_ms,
        "lynx_rpc0_ms": lynx0.mean_ms,
        "lynx_rpc1000_ms": lynx1000.mean_ms,
        "lynx_rpc0_wire_msgs": lynx0.messages,
        "lynx_rpc0_wire_bytes": lynx0.wire_bytes,
        "ideal_rpc0_ms": ideal0.mean_ms,
        "ideal_rpc1000_ms": ideal1000.mean_ms,
    }


def bench_e4(seed: int = 0) -> Dict[str, float]:
    """E4 — §4.3 fn.2: the Charlotte/SODA payload sweep and crossover."""
    from repro.workloads.rpc import run_rpc_workload

    count = 3
    out: Dict[str, float] = {}
    crossover = None
    prev_winner = None
    for nbytes in E4_SWEEP:
        c = run_rpc_workload("charlotte", nbytes, count=count, seed=seed)
        s = run_rpc_workload("soda", nbytes, count=count, seed=seed)
        out[f"charlotte_rpc{nbytes}_ms"] = c.mean_ms
        out[f"soda_rpc{nbytes}_ms"] = s.mean_ms
        winner = "soda" if s.mean_ms < c.mean_ms else "charlotte"
        if prev_winner == "soda" and winner == "charlotte":
            crossover = nbytes
        prev_winner = winner
    out["small_msg_speedup"] = out["charlotte_rpc0_ms"] / out["soda_rpc0_ms"]
    out["crossover_bytes"] = crossover  # None when the sweep never flips
    return out


def bench_e5(seed: int = 0) -> Dict[str, float]:
    """E5 — §5.3 Chrysalis latencies, the tuned profile, and the
    order-of-magnitude Charlotte ratio."""
    from repro.workloads.rpc import run_rpc_workload

    count = 5
    c0 = run_rpc_workload("chrysalis", 0, count=count, seed=seed).mean_ms
    c1000 = run_rpc_workload("chrysalis", 1000, count=count, seed=seed).mean_ms
    t0 = run_rpc_workload("chrysalis", 0, count=count, seed=seed,
                          tuned=True).mean_ms
    t1000 = run_rpc_workload("chrysalis", 1000, count=count, seed=seed,
                             tuned=True).mean_ms
    char0 = run_rpc_workload("charlotte", 0, count=count, seed=seed).mean_ms
    return {
        "lynx_rpc0_ms": c0,
        "lynx_rpc1000_ms": c1000,
        "tuned_rpc0_ms": t0,
        "tuned_rpc1000_ms": t1000,
        "tuned_improvement_rpc0": (c0 - t0) / c0,
        "charlotte_ratio_rpc0": char0 / c0,
    }


def bench_e13(seed: int = 0) -> Dict[str, float]:
    """E13 — causal critical-path layer attribution (figure 2, §6):
    where does one round trip of the 0-byte RPC spend its time on each
    kernel?  Reports per-layer critical-path milliseconds per RPC and
    the runtime/kernel shares of the round trip.

    The paper's claim machine-checked here: Charlotte's high-level
    primitives force the most work into the *runtime* layer — its
    runtime milliseconds strictly exceed SODA's and Chrysalis's.
    (Shares run the other way: Chrysalis is so fast that its small
    runtime cost dominates its tiny total.)  The registry-driven loop
    includes the ``ideal`` backend, whose total is the attribution
    floor: everything above it is protocol, not semantics.
    """
    from repro.core.api import registered_kernels
    from repro.obs.causal import CausalGraph
    from repro.workloads.rpc import run_rpc_workload

    count = 5
    out: Dict[str, float] = {}
    for kind in registered_kernels():
        r = run_rpc_workload(kind, 0, count=count, seed=seed)
        graph = CausalGraph.from_trace(r.trace)
        tids = graph.traces()[1:]  # drop the workload's warm-up trip
        layers = graph.by_layer(tids)
        total = graph.total_ms(tids)
        n = max(len(tids), 1)
        for layer in ("runtime", "kernel", "network", "app"):
            out[f"{kind}_{layer}_ms"] = layers.get(layer, 0.0) / n
        out[f"{kind}_total_ms"] = total / n
        out[f"{kind}_runtime_share"] = (
            layers.get("runtime", 0.0) / total if total else 0.0
        )
        out[f"{kind}_kernel_share"] = (
            layers.get("kernel", 0.0) / total if total else 0.0
        )
    return out


def bench_e14(seed: int = 0) -> Dict[str, float]:
    """E14 — goodput and tail latency under a seeded network partition
    (repro.workloads.chaos; §2.2 vs §4.1).

    Every registered backend runs the same paced failover workload
    twice — fault-free, then under the identical seeded
    `partitioned_plan` — and reports goodput, retention
    (faulted/clean), completion, failover and retry counts, and tail
    latency.  Simulated quantities, so the whole family is
    deterministic for a seed.

    The paper's claim machine-checked here: a backend whose recovery
    lives in the *runtime* (hints — the `RecoveryPolicy` surfaces
    `RecoveryExhausted` and the client fails over) rides out the
    partition with strictly higher goodput than one whose kernel hides
    the loss by retransmitting invisibly (absolutes — the client has
    no signal, so it blocks for the whole outage and its tail latency
    stretches to the window length).
    """
    from repro.core.api import kernel_profile, registered_kernels
    from repro.workloads.chaos import (
        chaos_policy,
        partitioned_plan,
        run_chaos_workload,
    )

    count = 30
    out: Dict[str, float] = {}
    placements: Dict[str, Tuple[str, float]] = {}
    for kind in registered_kernels():
        clean = run_chaos_workload(kind, count=count, seed=seed)
        faulted = run_chaos_workload(
            kind, count=count, seed=seed,
            plan=partitioned_plan(), policy=chaos_policy(),
        )
        out[f"{kind}_clean_goodput_per_s"] = clean.goodput_per_s
        out[f"{kind}_faulted_goodput_per_s"] = faulted.goodput_per_s
        out[f"{kind}_goodput_retention"] = (
            faulted.goodput_per_s / clean.goodput_per_s
            if clean.goodput_per_s else 0.0
        )
        out[f"{kind}_completed"] = float(faulted.completed)
        out[f"{kind}_failed_over"] = float(faulted.failed_over)
        out[f"{kind}_max_rtt_ms"] = faulted.max_rtt_ms
        out[f"{kind}_p99_rtt_ms"] = faulted.p99_ms
        out[f"{kind}_retries"] = faulted.counters.get("recovery.retries", 0.0)
        out[f"{kind}_kernel_retransmits"] = faulted.counters.get(
            "faults.kernel_retransmits", 0.0
        )
        placement = kernel_profile(kind).capabilities.recovery_placement
        placements[kind] = (placement, faulted.goodput_per_s)
    absolutes = {k: g for k, (p, g) in placements.items() if p == "kernel"}
    hints = {k: g for k, (p, g) in placements.items() if p == "runtime"}
    for ak, ag in absolutes.items():
        for hk, hg in hints.items():
            if hg <= ag:
                raise AssertionError(
                    f"E14: expected {hk} (runtime recovery) to out-goodput "
                    f"{ak} (kernel recovery) under partition; "
                    f"got {hg:.2f} <= {ag:.2f} ops/s"
                )
    return out


def bench_e15(seed: int = 0) -> Dict[str, float]:
    """E15 — the telemetry plane's own contracts.

    Before cross-kernel comparisons mean anything at scale, the
    observation machinery must be shown not to distort what it
    observes (Argyroulis, PAPERS.md).  Three checks, all
    machine-enforced and all deterministic for a seed:

    * **Sampling determinism**: the same echo-RPC conversation runs
      twice on the ``ideal`` backend under head-based 1/16 trace
      sampling; both runs must keep and drop exactly the same number
      of spans, and ``sampled_trace_frac`` reports the kept share.
    * **Histogram accuracy**: 100k seeded lognormal-ish samples into a
      `StreamingHistogram`; p50/p90/p99/p99.9 must each land within
      1% of the exact sorted-sample percentile while occupying
      O(buckets) ≪ O(samples) memory.
    * **Merge fidelity**: the same samples striped across 8 shard
      histograms and merged must reproduce the single-stream
      percentiles bit-for-bit — the property that makes per-shard
      telemetry aggregation exact.

    What tracing *costs* in host time is the repo benchmark's
    ``obs.sampled_overhead_frac`` / ``obs.full_overhead_frac`` rows
    (perf/README.md), measured there with repeats and a spread.
    """
    import math

    from repro.core.api import BYTES, Operation, Proc, make_cluster
    from repro.obs.hist import StreamingHistogram
    from repro.sim.rng import SimRandom

    rounds = 2400
    ECHO = Operation("echo", (BYTES,), (BYTES,))

    class Server(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.register(ECHO)
            yield from ctx.open(end)
            for _ in range(rounds):
                inc = yield from ctx.wait_request()
                yield from ctx.reply(inc, (inc.args[0],))

    class Client(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            for _ in range(rounds):
                yield from ctx.connect(end, ECHO, (b"x" * 64,))

    def sampled_run() -> Tuple[float, float]:
        cluster = make_cluster("ideal", seed=seed)
        cluster.install_trace_sampling(1.0 / 16.0)
        s = cluster.spawn(Server(), "server")
        c = cluster.spawn(Client(), "client")
        cluster.create_link(s, c)
        cluster.run_until_quiet(max_ms=1e9)
        if not cluster.all_finished:
            raise RuntimeError("E15 rpc conversation hung")
        return (cluster.metrics.get("obs.spans_sampled"),
                cluster.metrics.get("obs.spans_dropped"))

    out: Dict[str, float] = {}
    kept, dropped = sampled_run()
    if sampled_run() != (kept, dropped):
        raise AssertionError(
            f"E15: head-based sampling must be deterministic per seed; "
            f"a repeat disagreed with {(kept, dropped)}"
        )
    out["sampled_trace_frac"] = (
        kept / (kept + dropped) if (kept + dropped) else 0.0
    )

    # -- histogram accuracy + merge fidelity (deterministic) -----------
    n_samples = 100_000
    rng = SimRandom(seed, "bench/e15-hist")
    samples = [math.exp(rng.uniform(0.0, 8.0)) for _ in range(n_samples)]
    single = StreamingHistogram()
    shards = [StreamingHistogram() for _ in range(8)]
    for i, v in enumerate(samples):
        single.record(v)
        shards[i % 8].record(v)
    merged = shards[0]
    for sh in shards[1:]:
        merged.merge(sh)

    exact = sorted(samples)

    def exact_pct(p: float) -> float:
        rank = (p / 100.0) * (len(exact) - 1)
        lo, hi = int(math.floor(rank)), int(math.ceil(rank))
        if lo == hi:
            return exact[lo]
        frac = rank - lo
        return exact[lo] * (1 - frac) + exact[hi] * frac

    max_err = 0.0
    for p in (50.0, 90.0, 99.0, 99.9):
        truth = exact_pct(p)
        err = abs(single.percentile(p) - truth) / truth
        if err > max_err:
            max_err = err
    if not max_err <= 0.01:
        raise AssertionError(
            f"E15: histogram percentile error {max_err * 100:.3f}% exceeds "
            f"the 1% construction bound at {n_samples} samples"
        )
    for p in (1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0):
        if merged.percentile(p) != single.percentile(p):
            raise AssertionError(
                f"E15: merged shards disagree with single-stream at "
                f"p{p}: {merged.percentile(p)!r} != {single.percentile(p)!r}"
            )
    if not single.bucket_count * 100 <= n_samples:
        raise AssertionError(
            f"E15: {single.bucket_count} buckets for {n_samples} samples — "
            f"memory is not O(buckets)"
        )
    out["hist_samples"] = float(n_samples)
    out["hist_buckets"] = float(single.bucket_count)
    out["hist_max_err_frac"] = max_err
    out["hist_merge_bitexact"] = 1.0
    return out


def bench_e16(seed: int = 0, quick: bool = False) -> Dict[str, float]:
    """E16 — engine determinism at scale: the `repro.workloads.scale`
    population (100k clients in full mode, 4k under ``quick``) runs on
    every backend registered in `repro.sim.backends` at 1 and 8 shards.

    Machine-checked on every run — a mismatch raises, so a baseline
    violating the determinism contract cannot be written:

    * **Cross-backend**: at each shard count every backend's
      `ScaleResult` digest — a SHA-256 over every per-shard metric
      snapshot — and event count must be bit-identical.
    * **Repeat stability**: re-running ``sharded-parallel`` at 8
      shards must reproduce its own digest exactly.

    ``scale_events_total`` and the rtt quantiles are simulated, hence
    deterministic for a seed.  How *fast* each backend drains the
    population is the repo benchmark's ``sim.backends.*`` rows
    (``shard_ratio`` is the honest sharding number; perf/README.md).
    """
    from repro.sim.backends import registered_sim_backends
    from repro.workloads.scale import run_scale

    clients = 4_000 if quick else 100_000
    requests = 2 if quick else 4
    out: Dict[str, float] = {"scale_clients": float(clients)}
    for shards in (1, 8):
        runs = {
            backend: run_scale(backend, shards, clients=clients,
                               requests=requests, seed=seed)
            for backend in registered_sim_backends()
        }
        digests = {b: r.digest for b, r in runs.items()}
        events = {b: r.events for b, r in runs.items()}
        if len(set(digests.values())) != 1 or len(set(events.values())) != 1:
            raise AssertionError(
                f"E16: same-seed runs diverged across backends at "
                f"shards={shards}: digests={digests} events={events}"
            )
        out[f"scale_digest_match_s{shards}"] = 1.0

    ref = runs["sharded-parallel"]  # the 8-shard run
    again = run_scale("sharded-parallel", 8, clients=clients,
                      requests=requests, seed=seed)
    if again.digest != ref.digest or again.events != ref.events:
        raise AssertionError(
            f"E16: sharded-parallel at 8 shards is not repeat-stable "
            f"for seed {seed}: {ref.digest} != {again.digest}"
        )
    out["scale_repeat_stable_s8"] = 1.0

    out["scale_events_total"] = float(ref.events)
    rtt = ref.metrics.latency("scale.rtt")
    out["scale_rtt_mean_ms"] = rtt.mean
    out["scale_rtt_p99_ms"] = rtt.percentile(99)
    return out


def bench_e17(seed: int = 0, quick: bool = False) -> Dict[str, float]:
    """E17 — real transport, held to the simulator's contracts.

    Two halves, one document:

    * **Simulated**: the RPC workload on the registered ``real-asyncio``
      backend (the ideal kernel with every message encoded to the node
      processes' frame and decoded again before delivery).
      Machine-checked: its simulated RTT is *bit-identical* to the
      ``ideal`` backend's — the bytes changed, the semantics did not.
    * **Real**: `repro.net.supervisor` spawns real node processes
      (``python -m repro net serve`` over UDS), and the
      `repro.net.load` generator drives concurrent client coroutines
      with wall-clock `RecoveryPolicy` timeout/retry/failover.  The
      primary server's ``--drop-first`` deterministically withholds its
      first few replies, forcing the retry path; then the primary is
      hard-killed and a second load wave must detect the crash
      (refused connections) and fail over to the backup.

    Machine-checked on every run (an `AssertionError` makes
    ``bench --quick --only E17`` exit non-zero):

    * **exactly-once-or-exhausted**: ``completed + exhausted ==
      issued`` in both waves, with zero exhausted here (a live backup
      always exists); at least one client retry and one server-side
      ``duplicates`` hit must show the forced retransmissions were
      absorbed by the dedup cache, and ``executed_unique`` must equal
      the wave's completed count — no request ran twice on a server;
    * **crash-driven failover**: no wave-A client may fail over (the
      primary is alive throughout) and every wave-B client must record
      exactly one failover;
    * **report contract**: with the transport available, every
      ``net_*`` metric must be present (non-None);
    * **scale** (full mode): at least 1000 concurrent client
      coroutines.

    On hosts that forbid sockets or subprocesses, ``net_available`` is
    0.0 and every other key stays ``None`` — same document schema.
    Every ``net_meas_*`` value is a count the checks above fix exactly
    (how many retries a host's scheduling provokes is not one, so it
    is asserted ``>= 1`` and not reported); real-socket RTT and
    throughput are the repo benchmark's ``net.load.*`` rows
    (perf/README.md).  The ``net_sim_*`` half is deterministic for a
    seed.
    """
    from repro.core.recovery import RecoveryPolicy
    from repro.net import TransportUnavailable
    from repro.net.load import query_stats, run_load
    from repro.net.supervisor import NodeSupervisor
    from repro.workloads.rpc import run_rpc_workload

    out: Dict[str, Optional[float]] = {
        "net_available": 0.0,
        "net_sim_rtt_ms": None,
        "net_sim_ideal_rtt_ms": None,
        "net_sim_wire_msgs": None,
        "net_meas_clients": None,
        "net_meas_servers": None,
        "net_meas_ops": None,
        "net_meas_completed": None,
        "net_meas_exhausted": None,
        "net_meas_failovers": None,
        "net_exactly_once": None,
    }
    clients = 24 if quick else 1000
    requests = 2 if quick else 3
    drop_first = 4 if quick else 8
    policy = RecoveryPolicy(
        timeout_ms=250.0 if quick else 1000.0, max_retries=3,
        backoff_factor=2.0, jitter_frac=0.0,
    )

    # -- simulated half -------------------------------------------------
    sim = run_rpc_workload("real-asyncio", 0, count=5, seed=seed)
    ideal = run_rpc_workload("ideal", 0, count=5, seed=seed)
    if sim.rtts != ideal.rtts:
        raise AssertionError(
            f"E17: the real-asyncio backend's simulated shape must be "
            f"bit-identical to ideal's (same kernel, framed messages); "
            f"got {sim.rtts} != {ideal.rtts}"
        )

    # -- real half ------------------------------------------------------
    try:
        with NodeSupervisor() as sup:
            primary = sup.spawn("primary", drop_first=drop_first)
            backup = sup.spawn("backup")
            endpoints = [primary.endpoint, backup.endpoint]

            wave_a = run_load(endpoints, clients=clients,
                              requests=requests, policy=policy)
            stats = query_stats(primary.endpoint)
            sup.crash("primary")
            wave_b = run_load(endpoints, clients=clients, requests=1,
                              policy=policy)
            stats_b = query_stats(backup.endpoint)
    except (TransportUnavailable, OSError):
        return out

    checks = []
    if not (wave_a.exactly_once and wave_b.exactly_once):
        checks.append("completed + exhausted != issued")
    if wave_a.exhausted or wave_b.exhausted:
        checks.append(
            f"exhausted with a live backup present "
            f"({wave_a.exhausted}+{wave_b.exhausted})"
        )
    if wave_a.retries < 1 or stats["duplicates"] < 1:
        checks.append(
            f"drop-first must force retries ({wave_a.retries}) absorbed "
            f"as duplicates ({stats['duplicates']})"
        )
    if stats["executed_unique"] != wave_a.completed:
        checks.append(
            f"a request ran other-than-once on the primary: "
            f"{stats['executed_unique']} executed != "
            f"{wave_a.completed} completed"
        )
    if wave_a.failovers:
        checks.append(
            f"{wave_a.failovers} wave-A clients failed over off a live "
            f"primary"
        )
    if wave_b.failovers != wave_b.clients:
        checks.append(
            f"every wave-B client must fail over off the crashed "
            f"primary exactly once ({wave_b.failovers} != "
            f"{wave_b.clients})"
        )
    if stats_b["executed_unique"] != wave_b.completed:
        checks.append(
            f"a request ran other-than-once on the backup: "
            f"{stats_b['executed_unique']} executed != "
            f"{wave_b.completed} completed"
        )
    if not quick and clients < 1000:
        checks.append(f"full mode must sustain >=1000 clients ({clients})")
    if checks:
        raise AssertionError(
            "E17 exactly-once/failover contract broke: " + "; ".join(checks)
        )

    out["net_available"] = 1.0
    out["net_sim_rtt_ms"] = sim.mean_ms
    out["net_sim_ideal_rtt_ms"] = ideal.mean_ms
    out["net_sim_wire_msgs"] = sim.messages
    out["net_meas_clients"] = float(clients)
    out["net_meas_servers"] = 2.0
    out["net_meas_ops"] = float(wave_a.issued + wave_b.issued)
    out["net_meas_completed"] = float(wave_a.completed + wave_b.completed)
    out["net_meas_exhausted"] = float(wave_a.exhausted + wave_b.exhausted)
    out["net_meas_failovers"] = float(wave_a.failovers + wave_b.failovers)
    out["net_exactly_once"] = 1.0
    # the report contract: available means *fully* reported
    missing = [k for k, v in out.items() if v is None]
    if missing:
        raise AssertionError(f"E17 report contract broke: missing={missing}")
    return out


_BENCHES: Dict[str, Callable[..., Dict[str, float]]] = {
    "E1": bench_e1,
    "E4": bench_e4,
    "E5": bench_e5,
    "E13": bench_e13,
    "E14": bench_e14,
    "E15": bench_e15,
    "E16": bench_e16,
    "E17": bench_e17,
}

BENCH_IDS: Tuple[str, ...] = tuple(_BENCHES)

#: the benches ``quick`` sizes (their populations); every other bench
#: runs at one size.  `repro.obs.compare` skips exactly these when two
#: documents' ``quick`` flags differ.
QUICK_SIZED = frozenset({"E16", "E17"})


def run_benches(
    bench_ids: Optional[Iterable[str]] = None,
    seed: int = 0,
    quick: bool = False,
) -> Dict[str, Dict[str, float]]:
    """Run the selected benches (all of them by default) and return
    ``{bench_id: {metric: value}}``."""
    ids = list(bench_ids) if bench_ids else list(BENCH_IDS)
    results = {}
    for bid in ids:
        key = bid.upper()
        if key not in _BENCHES:
            raise ValueError(
                f"unknown bench {bid!r}; expected one of {BENCH_IDS}"
            )
        kwargs = {"quick": quick} if key in QUICK_SIZED else {}
        results[key] = _BENCHES[key](seed=seed, **kwargs)
    return results


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        rev = out.stdout.strip()
        return rev if out.returncode == 0 and rev else "unknown"
    except OSError:  # no git binary
        return "unknown"


def repo_root() -> str:
    """The repository root (nearest ancestor of this file holding a
    pyproject.toml), falling back to the current directory when the
    package is installed outside its checkout."""
    path = os.path.dirname(os.path.abspath(__file__))
    while True:
        if os.path.exists(os.path.join(path, "pyproject.toml")):
            return path
        parent = os.path.dirname(path)
        if parent == path:
            return os.getcwd()
        path = parent


def write_bench_json(
    results: Dict[str, Dict[str, float]],
    path: Optional[str] = None,
    seed: int = 0,
    quick: bool = False,
) -> Tuple[Dict[str, object], str]:
    """Wrap ``results`` in the versioned envelope and write it (default:
    `DEFAULT_BENCH_FILENAME` at the repo root; ``"-"`` writes to stdout).
    Returns (document, path)."""
    if path is None:
        path = os.path.join(repo_root(), DEFAULT_BENCH_FILENAME)
    doc = {
        "schema": "repro.bench",
        "schema_version": BENCH_SCHEMA_VERSION,
        "seed": seed,
        "git_rev": _git_rev(),
        # repro: allow[DET001] — export metadata, not simulation input
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "quick": quick,
        "benches": json_safe(results),
    }
    if path == "-":
        json.dump(doc, sys.stdout, indent=2, sort_keys=True, allow_nan=False)
        sys.stdout.write("\n")
        return doc, path
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return doc, path
