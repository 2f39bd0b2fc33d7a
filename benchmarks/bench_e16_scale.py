"""E16 — sharded-engine scaling toward the million-client north star.

The ROADMAP's scale goal is bounded by the event engine, not the
kernels.  This harness drives the same machine check the
`python -m repro bench` E16 entry gates on —
`repro.obs.bench.bench_e16` — and renders its contracts as a table:

  - **throughput**: the 100k-client scale workload on every backend
    in `repro.sim.backends` (``global``, ``sharded-serial``,
    ``sharded-parallel``), events/sec by shard count.  Informational:
    the engines share one heap representation, so the parallel /
    global ratio at 8 shards reads window topology (~1.3x in-process).
  - **determinism**: same seed => same digest — ``global`` vs both
    sharded backends at the same shard count, and the parallel
    backend against itself across repeats at 8 shards.  A digest
    mismatch raises inside `bench_e16` before any rate is reported.

The events/sec rates are machine-dependent (like S1); every
``scale_digest_*`` / ``scale_repeat_*`` flag and the rtt metrics are
deterministic for the seed.
"""

import pytest

from repro.analysis.report import Table
from repro.obs.bench import bench_e16

SEED = 0


@pytest.mark.benchmark(group="e16")
def test_e16_sharded_engine_scaling(benchmark, save_table):
    result = {}

    def run():
        # bench_e16 raises AssertionError itself when a digest diverges
        result.update(bench_e16(seed=SEED, quick=False))
        return result

    benchmark.pedantic(run, rounds=1, iterations=1)

    t = Table(
        f"E16: sharded engine scaling, "
        f"{result['scale_clients']:.0f} clients (seed {SEED})",
        ["backend", "shards", "events/s"],
    )
    t.add("global", 1, result["scale_global_s1_events_per_sec"])
    t.add("global", 8, result["scale_global_s8_events_per_sec"])
    t.add("sharded-serial", 1, result["scale_serial_s1_events_per_sec"])
    t.add("sharded-serial", 8, result["scale_serial_s8_events_per_sec"])
    for shards in (1, 2, 4, 8):
        t.add("sharded-parallel", shards,
              result[f"scale_parallel_s{shards}_events_per_sec"])
    save_table("e16_scale", t)

    # the gates bench_e16 enforces, restated for the bench log
    assert result["scale_digest_match_s1"] == 1.0
    assert result["scale_digest_match_s8"] == 1.0
    assert result["scale_repeat_stable_s8"] == 1.0
    assert result["scale_events_total"] > 0


@pytest.mark.benchmark(group="e16")
def test_e16_digests_are_seed_deterministic(benchmark):
    """The determinism half of E16 is a pure function of the seed —
    only the events/sec rates may differ between runs."""
    runs = []

    def run():
        runs.append(bench_e16(seed=SEED, quick=True))
        return runs

    benchmark.pedantic(run, rounds=1, iterations=1)
    runs.append(bench_e16(seed=SEED, quick=True))
    det_keys = ("scale_clients", "scale_events_total",
                "scale_digest_match_s1", "scale_digest_match_s8",
                "scale_repeat_stable_s8", "scale_rtt_mean_ms",
                "scale_rtt_p99_ms")
    first, second = runs
    assert {k: first[k] for k in det_keys} == {k: second[k] for k in det_keys}
