"""E16 — engine determinism at scale, toward the million-client north
star.

The ROADMAP's scale goal is bounded by the event engine, not the
kernels.  This harness drives the same machine check the
`python -m repro bench` E16 entry gates on —
`repro.obs.bench.bench_e16` — and renders its contract as a table:
the 100k-client scale workload on every backend in
`repro.sim.backends` (``global``, ``sharded-serial``,
``sharded-parallel``) at 1 and 8 shards; same seed => same digest
across backends at each shard count, and the parallel backend against
itself across repeats at 8 shards.  A digest mismatch raises inside
`bench_e16`.

Every metric is deterministic for the seed.  How fast each backend
drains the population is the repo benchmark's ``sim.backends.*`` rows
(perf/README.md).
"""

import pytest

from repro.analysis.report import Table
from repro.obs.bench import bench_e16

SEED = 0


@pytest.mark.benchmark(group="e16")
def test_e16_sharded_engine_determinism(benchmark, save_table):
    result = {}

    def run():
        # bench_e16 raises AssertionError itself when a digest diverges
        result.update(bench_e16(seed=SEED, quick=False))
        return result

    benchmark.pedantic(run, rounds=1, iterations=1)

    t = Table(
        f"E16: cross-backend determinism, "
        f"{result['scale_clients']:.0f} clients (seed {SEED})",
        ["metric", "value"],
    )
    for key in sorted(result):
        t.add(key, result[key])
    save_table("e16_scale", t)

    # the gates bench_e16 enforces, restated for the bench log
    assert result["scale_digest_match_s1"] == 1.0
    assert result["scale_digest_match_s8"] == 1.0
    assert result["scale_repeat_stable_s8"] == 1.0
    assert result["scale_events_total"] > 0


@pytest.mark.benchmark(group="e16")
def test_e16_is_seed_deterministic(benchmark):
    runs = []

    def run():
        runs.append(bench_e16(seed=SEED, quick=True))
        return runs

    benchmark.pedantic(run, rounds=1, iterations=1)
    assert bench_e16(seed=SEED, quick=True) == runs[0]
