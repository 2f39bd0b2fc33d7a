"""The experiments this repository added to the paper's: where one
round trip spends its time (E13), recovery placement under a partition
(E14, §2.2 vs §4.1), and the machine-checked contracts of the
telemetry plane (E15), the event engines (E16) and the real transport
(E17).  E13, E14 and E16 iterate their registries (`repro.core.ports`,
`repro.sim.backends`), so a newly registered backend shows up in the
document without edits here."""

from __future__ import annotations

import math

from repro.analysis.report import Table
from repro.core.api import (
    BYTES,
    KERNEL_KINDS,
    Operation,
    Proc,
    kernel_profile,
    make_cluster,
    registered_kernels,
)
from repro.core.recovery import RecoveryPolicy
from repro.experiments import Experiment, metric_table, register_experiment
from repro.net import TransportUnavailable
from repro.net.load import query_stats, run_load
from repro.net.supervisor import NodeSupervisor
from repro.obs.causal import CausalGraph
from repro.obs.hist import StreamingHistogram
from repro.sim.backends import registered_sim_backends
from repro.sim.rng import SimRandom
from repro.workloads.chaos import (
    chaos_policy,
    partitioned_plan,
    run_chaos_workload,
)
from repro.workloads.rpc import run_rpc_workload
from repro.workloads.scale import run_scale


# ----------------------------------------------------------------------
# E13 — causal critical-path layer attribution (figure 2, §6): where
# does one round trip of the 0-byte RPC spend its time on each kernel?
# Per-layer critical-path milliseconds per RPC and the runtime/kernel
# shares of the round trip.
#
# The paper's claim: Charlotte's high-level primitives force the most
# work into the *runtime* layer — its runtime milliseconds strictly
# exceed SODA's and Chrysalis's.  (Shares run the other way: Chrysalis
# is so fast that its small runtime cost dominates its tiny total.)
# The ``ideal`` backend's total is the attribution floor: everything
# above it is protocol, not semantics.
# ----------------------------------------------------------------------
_E13_LAYERS = ("runtime", "kernel", "network", "app")


def _e13_measure(seed, quick):
    out = {}
    for kind in registered_kernels():
        r = run_rpc_workload(kind, 0, count=5, seed=seed)
        graph = CausalGraph.from_trace(r.trace)
        tids = graph.traces()[1:]  # drop the workload's warm-up trip
        layers = graph.by_layer(tids)
        total = graph.total_ms(tids)
        n = max(len(tids), 1)
        for layer in _E13_LAYERS:
            out[f"{kind}_{layer}_ms"] = layers.get(layer, 0.0) / n
        out[f"{kind}_total_ms"] = total / n
        out[f"{kind}_runtime_share"] = (
            layers.get("runtime", 0.0) / total if total else 0.0
        )
        out[f"{kind}_kernel_share"] = (
            layers.get("kernel", 0.0) / total if total else 0.0
        )
    return out


def _e13_claims(m):
    assert m["charlotte_runtime_ms"] > m["soda_runtime_ms"]
    assert m["charlotte_runtime_ms"] > m["chrysalis_runtime_ms"]
    # the ideal backend is the lower bound on every real kernel
    for kind in KERNEL_KINDS:
        assert m["ideal_total_ms"] < m[f"{kind}_total_ms"], kind


def _e13_table(m):
    t = Table(
        "E13: critical-path ms per 0-byte RPC, by layer",
        ["kernel", *(f"{layer} ms" for layer in _E13_LAYERS), "total ms",
         "runtime share", "kernel share"],
    )
    for kind in registered_kernels():
        t.add(kind, *(m[f"{kind}_{layer}_ms"] for layer in _E13_LAYERS),
              m[f"{kind}_total_ms"], m[f"{kind}_runtime_share"],
              m[f"{kind}_kernel_share"])
    return t


register_experiment(Experiment(
    id="E13", table_name="e13_critical_path", paper_section="figure 2, §6",
    measure=_e13_measure, claims=_e13_claims, table=_e13_table,
))


# ----------------------------------------------------------------------
# E14 — goodput and tail latency under a seeded network partition
# (`repro.workloads.chaos`; §2.2 vs §4.1, §5.2)
#
# Every registered backend runs the same paced failover workload twice
# — fault-free, then under the identical seeded `partitioned_plan`
# severing the client from the primary server.  The paper's "hints can
# be better than absolutes" lesson, restated for failure handling:
#
#   - Charlotte-style *absolutes* put recovery in the kernel.  Loss is
#     invisible to the runtime, so the client has no signal to act on; a
#     connect issued into the partition blocks until the window heals,
#     goodput craters and the max round trip stretches toward the
#     outage length.
#   - SODA/Chrysalis-style *hints* put recovery in the runtime.  The
#     `RecoveryPolicy` bounds the damage at its retry budget, surfaces
#     `RecoveryExhausted`, and the client fails over to the backup link.
# ----------------------------------------------------------------------
E14_COUNT = 30


def chaos_metrics(kinds, count, seed, plan):
    """Each kernel of ``kinds`` runs the paced failover workload
    fault-free, then under ``plan`` with `chaos_policy`: E14's values,
    and `repro chaos`'s, keyed ``<kind>_<metric>``."""
    out = {}
    for kind in kinds:
        clean = run_chaos_workload(kind, count=count, seed=seed)
        faulted = run_chaos_workload(
            kind, count=count, seed=seed, plan=plan, policy=chaos_policy(),
        )
        out.update({
            f"{kind}_clean_goodput_per_s": clean.goodput_per_s,
            f"{kind}_faulted_goodput_per_s": faulted.goodput_per_s,
            f"{kind}_goodput_retention": (
                faulted.goodput_per_s / clean.goodput_per_s
                if clean.goodput_per_s else 0.0
            ),
            f"{kind}_completed": float(faulted.completed),
            f"{kind}_failed": float(faulted.failed),
            f"{kind}_failed_over": float(faulted.failed_over),
            f"{kind}_max_rtt_ms": faulted.max_rtt_ms,
            f"{kind}_p99_rtt_ms": faulted.p99_ms,
            f"{kind}_retries": faulted.counters.get("recovery.retries", 0.0),
            f"{kind}_exhausted": faulted.counters.get(
                "recovery.exhausted", 0.0),
            f"{kind}_kernel_retransmits": faulted.counters.get(
                "faults.kernel_retransmits", 0.0),
        })
    return out


def chaos_table(title, kinds, m):
    """The nine-column clean-vs-faulted table of `chaos_metrics`."""
    t = Table(title, ["kernel", "recovery", "clean op/s", "faulted op/s",
                      "retention", "max rtt ms", "failovers", "retries",
                      "kernel rexmit"])
    for kind in kinds:
        t.add(kind, _recovery_placement(kind), *(m[f"{kind}_{key}"] for key in (
            "clean_goodput_per_s", "faulted_goodput_per_s",
            "goodput_retention", "max_rtt_ms", "failed_over", "retries",
            "kernel_retransmits")))
    return t


def _e14_measure(seed, quick):
    return chaos_metrics(registered_kernels(), E14_COUNT, seed,
                         partitioned_plan())


def _recovery_placement(kind):
    return kernel_profile(kind).capabilities.recovery_placement


def _e14_claims(m):
    kinds = registered_kernels()
    absolutes = [k for k in kinds if _recovery_placement(k) == "kernel"]
    hints = [k for k in kinds if _recovery_placement(k) == "runtime"]
    assert absolutes and hints
    budget = chaos_policy().budget_ms()
    for kind in kinds:
        # every backend eventually completes every operation: absolutes
        # by waiting out the partition, hints by failing over
        assert m[f"{kind}_completed"] == E14_COUNT, kind
        assert m[f"{kind}_failed"] == 0, kind
    for kind in hints:
        # hints: bounded damage — the client learned of the loss inside
        # the retry budget and rerouted; the worst round trip is the
        # budget plus one clean round trip, nowhere near the outage
        assert m[f"{kind}_failed_over"] >= 1, kind
        assert m[f"{kind}_exhausted"] >= 1, kind
        assert m[f"{kind}_max_rtt_ms"] < 2.0 * budget, kind
        for akind in absolutes:
            assert (m[f"{kind}_faulted_goodput_per_s"]
                    > m[f"{akind}_faulted_goodput_per_s"]), (kind, akind)
            assert m[f"{kind}_max_rtt_ms"] < m[f"{akind}_max_rtt_ms"], (
                kind, akind)
    for kind in absolutes:
        # absolutes: no runtime-visible signal, so no failover — and the
        # blocked connect's round trip stretches past the retry budget
        # toward the partition window
        assert m[f"{kind}_failed_over"] == 0, kind
        assert m[f"{kind}_kernel_retransmits"] > 0, kind
        assert m[f"{kind}_max_rtt_ms"] > 4.0 * budget, kind
        assert (m[f"{kind}_faulted_goodput_per_s"]
                < m[f"{kind}_clean_goodput_per_s"]), kind


def _e14_table(m):
    return chaos_table(
        f"E14: goodput under a client<->primary partition "
        f"({E14_COUNT} paced ops)", registered_kernels(), m)


register_experiment(Experiment(
    id="E14", table_name="e14_fault_recovery", paper_section="§2.2 vs §4.1",
    measure=_e14_measure, claims=_e14_claims, table=_e14_table,
))


# ----------------------------------------------------------------------
# E15 — the telemetry plane's own contracts
#
# Before cross-kernel comparisons mean anything at scale, the
# observation machinery must be shown not to distort what it observes
# (Argyroulis, PAPERS.md).  Three checks, all deterministic for a seed:
#
# * **Sampling determinism**: the same echo-RPC conversation runs twice
#   on the ``ideal`` backend under head-based 1/16 trace sampling; both
#   runs must keep and drop exactly the same number of spans, and
#   ``sampled_trace_frac`` reports the kept share.
# * **Histogram accuracy**: 100k seeded lognormal-ish samples into a
#   `StreamingHistogram`; p50/p90/p99/p99.9 must each land within 1% of
#   the exact sorted-sample percentile while occupying O(buckets) ≪
#   O(samples) memory.
# * **Merge fidelity**: the same samples striped across 8 shard
#   histograms and merged must reproduce the single-stream percentiles
#   bit-for-bit — the property that makes per-shard telemetry
#   aggregation exact.
#
# What tracing *costs* in host time is the repo benchmark's
# ``obs.sampled_overhead_frac`` / ``obs.full_overhead_frac`` rows
# (perf/README.md), measured there with repeats and a spread.
# ----------------------------------------------------------------------
E15_ROUNDS = 2400
ECHO = Operation("echo", (BYTES,), (BYTES,))


class _EchoServer(Proc):
    def main(self, ctx):
        (end,) = ctx.initial_links
        yield from ctx.register(ECHO)
        yield from ctx.open(end)
        for _ in range(E15_ROUNDS):
            inc = yield from ctx.wait_request()
            yield from ctx.reply(inc, (inc.args[0],))


class _EchoClient(Proc):
    def main(self, ctx):
        (end,) = ctx.initial_links
        for _ in range(E15_ROUNDS):
            yield from ctx.connect(end, ECHO, (b"x" * 64,))


def _sampled_spans(seed):
    """(kept, dropped) span counts of one sampled conversation."""
    with make_cluster("ideal", seed=seed) as cluster:
        cluster.install_trace_sampling(1.0 / 16.0)
        s = cluster.spawn(_EchoServer(), "server")
        c = cluster.spawn(_EchoClient(), "client")
        cluster.create_link(s, c)
        cluster.run_until_quiet(max_ms=1e9)
        if not cluster.all_finished:
            raise RuntimeError("E15 rpc conversation hung")
        return (cluster.metrics.get("obs.spans_sampled"),
                cluster.metrics.get("obs.spans_dropped"))


def _e15_measure(seed, quick):
    out = {}
    kept, dropped = _sampled_spans(seed)
    out["sampling_repeat_stable"] = float(
        _sampled_spans(seed) == (kept, dropped))
    out["sampled_trace_frac"] = (
        kept / (kept + dropped) if (kept + dropped) else 0.0
    )

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

    def exact_pct(p):
        rank = (p / 100.0) * (len(exact) - 1)
        lo, hi = int(math.floor(rank)), int(math.ceil(rank))
        # at an exact rank (lo == hi) frac is 0 and this is exact[lo]
        frac = rank - lo
        return exact[lo] * (1 - frac) + exact[hi] * frac

    max_err = 0.0
    for p in (50.0, 90.0, 99.0, 99.9):
        truth = exact_pct(p)
        err = abs(single.percentile(p) - truth) / truth
        if err > max_err:
            max_err = err
    out["hist_samples"] = float(n_samples)
    out["hist_buckets"] = float(single.bucket_count)
    out["hist_max_err_frac"] = max_err
    out["hist_merge_bitexact"] = float(all(
        merged.percentile(p) == single.percentile(p)
        for p in (1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0)
    ))
    return out


def _e15_claims(m):
    # head-based sampling is deterministic per seed, and 1/16 keeps a
    # non-trivial fraction
    assert m["sampling_repeat_stable"] == 1.0
    assert 0.0 < m["sampled_trace_frac"] < 0.5
    # the 1% construction bound of the log-bucketed histogram
    assert m["hist_max_err_frac"] <= 0.01
    assert m["hist_merge_bitexact"] == 1.0
    # O(buckets) << O(samples)
    assert m["hist_buckets"] * 100 <= m["hist_samples"]


register_experiment(Experiment(
    id="E15", table_name="e15_obs_overhead",
    paper_section="§5.2 (telemetry contracts)",
    measure=_e15_measure, claims=_e15_claims,
    table=lambda m: metric_table(
        "E15: trace sampling and histogram fidelity", m),
))


# ----------------------------------------------------------------------
# E16 — engine determinism at scale: the `repro.workloads.scale`
# population (100k clients in full mode, 4k under ``quick``) runs on
# every backend registered in `repro.sim.backends` at 1 and 8 shards.
#
# * **Cross-backend**: at each shard count every backend's `ScaleResult`
#   digest — a SHA-256 over every per-shard metric snapshot — and event
#   count must be bit-identical.
# * **Repeat stability**: re-running ``sharded-parallel`` at 8 shards
#   must reproduce its own digest exactly.
#
# ``scale_events_total`` and the rtt quantiles are simulated, hence
# deterministic for a seed.  How *fast* each backend drains the
# population is the repo benchmark's ``sim.backends.*`` rows
# (``shard_ratio`` is the honest sharding number; perf/README.md).
# ----------------------------------------------------------------------
def _e16_measure(seed, quick):
    clients = 4_000 if quick else 100_000
    requests = 2 if quick else 4
    out = {"scale_clients": float(clients)}
    for shards in (1, 8):
        runs = {
            backend: run_scale(backend, shards, clients=clients,
                               requests=requests, seed=seed)
            for backend in registered_sim_backends()
        }
        out[f"scale_digest_match_s{shards}"] = float(
            len({(r.digest, r.events) for r in runs.values()}) == 1)

    ref = runs["sharded-parallel"]  # the 8-shard run
    again = run_scale("sharded-parallel", 8, clients=clients,
                      requests=requests, seed=seed)
    out["scale_repeat_stable_s8"] = float(
        (again.digest, again.events) == (ref.digest, ref.events))
    out["scale_events_total"] = float(ref.events)
    rtt = ref.metrics.latency("scale.rtt")
    out["scale_rtt_mean_ms"] = rtt.mean
    out["scale_rtt_p99_ms"] = rtt.percentile(99)
    return out


def _e16_claims(m):
    assert m["scale_digest_match_s1"] == 1.0
    assert m["scale_digest_match_s8"] == 1.0
    assert m["scale_repeat_stable_s8"] == 1.0
    assert m["scale_events_total"] > 0
    assert m["scale_rtt_p99_ms"] >= m["scale_rtt_mean_ms"] > 0.0


register_experiment(Experiment(
    id="E16", table_name="e16_scale",
    paper_section="engine determinism (docs/PORTS.md)",
    measure=_e16_measure, claims=_e16_claims,
    table=lambda m: metric_table(
        f"E16: cross-backend determinism, {m['scale_clients']:.0f} clients",
        m),
    quick_sized=True,
))


# ----------------------------------------------------------------------
# E17 — real transport, held to the simulator's contracts
#
# Two halves, one block:
#
# * **Simulated**: the RPC workload on the registered ``real-asyncio``
#   backend (the ideal kernel with every message encoded to the node
#   processes' frame and decoded again before delivery); its simulated
#   RTTs must be *bit-identical* to the ``ideal`` backend's — the bytes
#   changed, the semantics did not.
# * **Real**: `repro.net.supervisor` spawns real node processes
#   (``python -m repro.net`` over UDS), and the `repro.net.load`
#   generator drives concurrent client coroutines with wall-clock
#   `RecoveryPolicy` timeout/retry/failover.  The primary server's
#   ``--drop-first`` deterministically withholds its first few replies,
#   forcing the retry path; then the primary is hard-killed and a second
#   load wave must detect the crash (refused connections) and fail over
#   to the backup.
#
# How many retries a host's scheduling provokes is not exact, so the
# checks that need such counts run inside the measurement and raise
# there; every reported ``net_meas_*`` value is a count those checks fix
# exactly, and the claims below are what the reported values alone must
# show.  On hosts that forbid sockets or subprocesses ``net_available``
# is 0.0 and every other key stays ``None`` — same document schema.
# Real-socket RTT and throughput are the repo benchmark's ``net.load.*``
# rows (perf/README.md).
# ----------------------------------------------------------------------
E17_QUICK_CLIENTS = 24


#: what a host that cannot run node processes reports as ``None``
_E17_TRANSPORT_KEYS = (
    "net_sim_rtt_ms", "net_sim_ideal_rtt_ms", "net_sim_wire_msgs",
    "net_meas_clients", "net_meas_servers", "net_meas_ops",
    "net_meas_completed", "net_meas_exhausted", "net_meas_failovers",
    "net_exactly_once",
)


def _e17_measure(seed, quick):
    clients = E17_QUICK_CLIENTS if quick else 1000
    requests = 2 if quick else 3
    drop_first = 4 if quick else 8
    policy = RecoveryPolicy(
        timeout_ms=250.0 if quick else 1000.0, max_retries=3,
        backoff_factor=2.0, jitter_frac=0.0,
    )

    sim = run_rpc_workload("real-asyncio", 0, count=5, seed=seed)
    ideal = run_rpc_workload("ideal", 0, count=5, seed=seed)
    assert sim.rtts == ideal.rtts, (
        f"the real-asyncio backend's simulated shape must be bit-identical "
        f"to ideal's (same kernel, framed messages); got {sim.rtts} != "
        f"{ideal.rtts}"
    )

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
        return {"net_available": 0.0, **dict.fromkeys(_E17_TRANSPORT_KEYS)}

    checks = []
    if wave_a.retries < 1 or stats["duplicates"] < 1:
        checks.append(
            f"drop-first must force retries ({wave_a.retries}) absorbed "
            f"as duplicates ({stats['duplicates']})"
        )
    for node, wave, executed in (("primary", wave_a, stats),
                                 ("backup", wave_b, stats_b)):
        if not wave.exactly_once:
            checks.append(f"completed + exhausted != issued on the {node}")
        # every request ran once, and no retry was refused as left of
        # its client's dedup window
        if (executed["executed_unique"], executed["expired"]) != \
                (wave.completed, 0):
            checks.append(
                f"a request ran other-than-once on the {node}: "
                f"{executed['executed_unique']} executed != "
                f"{wave.completed} completed, {executed['expired']} "
                f"retries refused as expired"
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
    if checks:
        raise AssertionError(
            "E17 exactly-once/failover contract broke: " + "; ".join(checks)
        )

    return {
        "net_available": 1.0,
        "net_sim_rtt_ms": sim.mean_ms,
        "net_sim_ideal_rtt_ms": ideal.mean_ms,
        "net_sim_wire_msgs": sim.messages,
        "net_meas_clients": float(clients),
        "net_meas_servers": 2.0,
        "net_meas_ops": float(wave_a.issued + wave_b.issued),
        "net_meas_completed": float(wave_a.completed + wave_b.completed),
        "net_meas_exhausted": float(wave_a.exhausted + wave_b.exhausted),
        "net_meas_failovers": float(wave_a.failovers + wave_b.failovers),
        "net_exactly_once": 1.0,
    }


def _e17_claims(m):
    if m["net_available"] != 1.0:
        # a host without sockets reports the transport skipped, whole
        assert all(v is None for k, v in m.items() if k != "net_available")
        return
    # the report contract: available means *fully* reported
    assert all(m[key] is not None for key in _E17_TRANSPORT_KEYS)
    assert m["net_exactly_once"] == 1.0
    assert m["net_sim_rtt_ms"] == m["net_sim_ideal_rtt_ms"]
    # exactly-once-or-exhausted, and nothing exhausts with a live backup
    assert m["net_meas_completed"] == m["net_meas_ops"] > 0
    assert m["net_meas_exhausted"] == 0
    # one crash-driven failover per client, none off the live primary
    assert m["net_meas_failovers"] == m["net_meas_clients"]
    # scale: a full-size run sustains >= 1000 concurrent client coroutines
    assert (m["net_meas_clients"] >= 1000
            or m["net_meas_clients"] == E17_QUICK_CLIENTS)


register_experiment(Experiment(
    id="E17", table_name="e17_real_transport",
    paper_section="exactly-once on real sockets (docs/PORTS.md)",
    measure=_e17_measure, claims=_e17_claims,
    table=lambda m: metric_table(
        "E17: real transport under the simulator's contracts", m),
    quick_sized=True,
))
