"""The unified benchmark runner: the envelope's golden file and the
exported values against the committed baseline (quick mode, so the
whole module stays tier-1 cheap).  What the values must *show* is each
experiment's ``claims``, which the runner applies before returning."""

import json
import os

import pytest

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
    """E1–E17 (the retired S1 has no number) and the ablations A1–A5,
    in the paper's order."""
    assert BENCH_IDS == tuple(
        [f"E{n}" for n in range(1, 18)] + [f"A{n}" for n in range(1, 6)])
    assert QUICK_SIZED == {"E16", "E17"}


def test_document_schema_matches_golden_file(quick_results, tmp_path):
    """Golden-file guard: the BENCH_*.json envelope may only change
    together with this file (and a schema-version bump).  Which metrics
    each bench carries is held against the committed baseline below."""
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
    assert loaded == json.loads(json.dumps(doc))  # file == returned doc


def test_exported_values_are_json_numbers(quick_results):
    for bid, metrics in quick_results.items():
        for name, value in metrics.items():
            assert value is None or isinstance(value, (int, float)), \
                f"{bid}.{name} = {value!r}"


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
    assert sorted(quick_results) == sorted(baseline["benches"])
    for bid in BENCH_IDS:
        if bid in QUICK_SIZED:  # other values, the same metrics
            assert sorted(quick_results[bid]) \
                == sorted(baseline["benches"][bid]), bid
        else:
            assert quick_results[bid] == baseline["benches"][bid], bid


def test_unknown_bench_id_rejected():
    with pytest.raises(ValueError):
        run_benches(bench_ids=["E99"], quick=True)


def test_subset_and_lowercase_ids():
    out = run_benches(bench_ids=["e5"], quick=True)
    assert list(out) == ["E5"]
