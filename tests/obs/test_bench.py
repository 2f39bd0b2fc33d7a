"""The unified benchmark runner: schema golden file and sanity of the
exported values (quick mode, so the whole module stays tier-1 cheap)."""

import json
import os

import pytest

from repro.core.ports import registered_kernels
from repro.obs.bench import (
    BENCH_IDS,
    BENCH_SCHEMA_VERSION,
    DEFAULT_BENCH_FILENAME,
    QUICK_SIZED,
    run_benches,
    write_bench_json,
)

ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
GOLDEN = os.path.join(os.path.dirname(__file__), "golden_bench_schema.json")


@pytest.fixture(scope="module")
def quick_results(quick_bench_run):
    with open(quick_bench_run[0]) as fh:
        return json.load(fh)["benches"]


def test_bench_ids():
    assert BENCH_IDS == ("E1", "E4", "E5", "E13", "E14", "E15", "E16",
                         "E17")


def test_document_schema_matches_golden_file(quick_results, tmp_path):
    """Golden-file guard: the BENCH_*.json key structure may only
    change together with this file (and a schema-version bump)."""
    doc, path = write_bench_json(
        quick_results, path=str(tmp_path / "BENCH_test.json"),
        seed=0, quick=True,
    )
    with open(path) as fh:
        loaded = json.load(fh)
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert sorted(loaded) == golden["top_level"]
    assert loaded["schema"] == golden["schema"]
    assert loaded["schema_version"] == golden["schema_version"] \
        == BENCH_SCHEMA_VERSION
    assert {k: sorted(v) for k, v in loaded["benches"].items()} \
        == golden["benches"]
    assert loaded == json.loads(json.dumps(doc))  # file == returned doc


def test_exported_values_are_json_numbers(quick_results):
    for bid, metrics in quick_results.items():
        for name, value in metrics.items():
            assert value is None or isinstance(value, (int, float)), \
                f"{bid}.{name} = {value!r}"


def test_quick_values_keep_the_paper_shape(quick_results):
    """The simulated quantities reproduce the paper's ordering claims
    (``quick`` sizes only the E16/E17 populations)."""
    e1, e4, e5, e13, e14, e15, e16, e17 = (
        quick_results[k]
        for k in ("E1", "E4", "E5", "E13", "E14", "E15", "E16", "E17")
    )
    assert e1["lynx_rpc0_ms"] > e1["raw_rpc0_ms"]          # §3.3 overhead
    assert e1["lynx_rpc1000_ms"] > e1["lynx_rpc0_ms"]
    assert e4["small_msg_speedup"] > 2.0                   # §4.3 "3x"
    assert e4["crossover_bytes"] == 1536                   # §4.3 fn.2
    assert 0.2 < e5["tuned_improvement_rpc0"] < 0.5        # §5.3 "30-40%"
    assert e5["charlotte_ratio_rpc0"] > 10.0               # order of magnitude
    # figure 2 / §6: Charlotte's high-level primitives cost the most
    # *runtime-layer* critical-path time per RPC, strictly
    assert e13["charlotte_runtime_ms"] > e13["soda_runtime_ms"]
    assert e13["charlotte_runtime_ms"] > e13["chrysalis_runtime_ms"]
    # the ideal backend is the lower bound on every real kernel — in
    # raw latency and in causal critical-path total alike
    assert e1["ideal_rpc0_ms"] < e1["raw_rpc0_ms"]
    assert e1["ideal_rpc1000_ms"] < e1["raw_rpc1000_ms"]
    for kind in ("charlotte", "soda", "chrysalis"):
        assert e13["ideal_total_ms"] < e13[f"{kind}_total_ms"]
    # E14 / §2.2 vs §4.1: every runtime-placement ("hints") backend
    # rides out the partition with strictly higher goodput than the
    # kernel-placement ("absolutes") one, whose tail latency stretches
    # to the partition window instead
    for kind in ("soda", "chrysalis", "ideal"):
        assert e14[f"{kind}_faulted_goodput_per_s"] \
            > e14["charlotte_faulted_goodput_per_s"]
        assert e14[f"{kind}_max_rtt_ms"] < e14["charlotte_max_rtt_ms"]
    assert e14["charlotte_failed_over"] == 0     # absolutes give no signal
    assert e14["charlotte_kernel_retransmits"] > 0
    for kind in registered_kernels():
        assert e14[f"{kind}_completed"] > 0
    # E15: the telemetry plane's own gates (machine-checked inside the
    # bench; re-assert the accuracy numbers here)
    assert e15["hist_max_err_frac"] <= 0.01
    assert e15["hist_merge_bitexact"] == 1.0
    assert 0.0 < e15["sampled_trace_frac"] < 0.5
    assert e15["hist_buckets"] * 100 <= e15["hist_samples"]
    # E16: sharded-engine determinism (digest equality is machine-checked
    # inside the bench — a divergence raises before values come back)
    assert e16["scale_digest_match_s1"] == 1.0
    assert e16["scale_digest_match_s8"] == 1.0
    assert e16["scale_repeat_stable_s8"] == 1.0
    assert e16["scale_events_total"] > 0
    assert e16["scale_rtt_p99_ms"] >= e16["scale_rtt_mean_ms"] > 0.0
    # E17: real transport (the hard gates — exactly-once, failover
    # accounting, the report contract — are machine-checked inside the
    # bench; re-assert the headline claims when the host allows it)
    if e17["net_available"] == 1.0:
        assert e17["net_exactly_once"] == 1.0
        assert e17["net_sim_rtt_ms"] == e17["net_sim_ideal_rtt_ms"]
        assert e17["net_meas_completed"] == e17["net_meas_ops"] > 0
        assert e17["net_meas_failovers"] == e17["net_meas_clients"]
    else:
        assert all(v is None for k, v in e17.items()
                   if k != "net_available")


def test_simulated_metrics_are_seed_deterministic():
    a = run_benches(bench_ids=["E1"], quick=True, seed=3)
    b = run_benches(bench_ids=["E1"], quick=True, seed=3)
    assert a == b


def test_quick_sizes_only_the_declared_benches(quick_results):
    """One declared fact per bench: outside `QUICK_SIZED` a quick run
    reproduces the committed full-mode baseline exactly — the CI
    ``perf`` gate, held in tier-1."""
    with open(os.path.join(ROOT, DEFAULT_BENCH_FILENAME)) as fh:
        baseline = json.load(fh)
    assert baseline["quick"] is False
    for bid in BENCH_IDS:
        if bid not in QUICK_SIZED:
            assert quick_results[bid] == baseline["benches"][bid], bid


def test_unknown_bench_id_rejected():
    with pytest.raises(ValueError):
        run_benches(bench_ids=["E99"], quick=True)


def test_subset_and_lowercase_ids():
    out = run_benches(bench_ids=["e5"], quick=True)
    assert list(out) == ["E5"]
