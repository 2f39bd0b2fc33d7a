"""E15 — the telemetry plane observed from outside (§5.2; Argyroulis,
PAPERS.md).

Before the cross-kernel numbers in E1/E4/E5 can be trusted at scale,
the observation machinery must be shown not to distort what it
observes.  This harness drives the same machine check the
`python -m repro bench` E15 entry gates on —
`repro.obs.bench.bench_e15` — and renders its three contracts as a
table:

  - **sampling determinism**: the identical echo-RPC conversation
    twice under head-based 1/16 trace sampling; both runs keep and
    drop exactly the same spans.
  - **accuracy**: 100k seeded samples through the log-bucketed
    `StreamingHistogram`; p50..p99.9 within 1% of the exact sorted
    percentiles at O(buckets) memory.
  - **merge fidelity**: 8 shard histograms merged reproduce the
    single-stream percentiles bit-for-bit.

Every metric is deterministic for the seed.  What tracing costs in
host time is the repo benchmark's ``obs.sampled_overhead_frac`` /
``obs.full_overhead_frac`` rows (perf/README.md).
"""

import pytest

from repro.analysis.report import Table
from repro.obs.bench import bench_e15

SEED = 0


@pytest.mark.benchmark(group="e15")
def test_e15_telemetry_contracts(benchmark, save_table):
    result = {}

    def run():
        # bench_e15 raises AssertionError itself when a contract fails
        result.update(bench_e15(seed=SEED))
        return result

    benchmark.pedantic(run, rounds=1, iterations=1)

    t = Table(
        f"E15: trace sampling and histogram fidelity (seed {SEED})",
        ["metric", "value"],
    )
    for key in sorted(result):
        t.add(key, result[key])
    save_table("e15_obs_overhead", t)

    # the gates bench_e15 enforces, restated for the bench log
    assert result["hist_max_err_frac"] <= 0.01
    assert result["hist_merge_bitexact"] == 1.0
    # 1/16 head sampling kept a deterministic non-trivial fraction
    assert 0.0 < result["sampled_trace_frac"] < 0.5
    # O(buckets) << O(samples)
    assert result["hist_buckets"] * 100 <= result["hist_samples"]
    # a pure function of the seed
    assert bench_e15(seed=SEED) == result
