"""`repro.obs.compare` + ``bench --compare``: report schema against the
golden file, equality gating (any changed value exits 1; a key on one
side only never does), the quick/full skip, the committed trajectory,
and the CI perf-gate scenario — a deliberately slowed codec must fail
the compare exactly the way the ``perf`` job would fail the PR."""

import copy
import json
import os

import pytest

from repro.cli import main as cli_main
from repro.obs.bench import DEFAULT_BENCH_FILENAME, QUICK_SIZED
from repro.obs.compare import (
    COMPARE_SCHEMA,
    COMPARE_SCHEMA_VERSION,
    CompareError,
    compare_docs,
    compare_files,
    load_bench_doc,
    render_report,
)

ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
BASELINE = os.path.join(ROOT, DEFAULT_BENCH_FILENAME)
PR9 = os.path.join(ROOT, "BENCH_PR9.json")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden_compare_schema.json")

#: the benches that were already exact under the threshold runner
SIMULATED = ("E1", "E4", "E5", "E13", "E14")


def _baseline_doc():
    with open(BASELINE) as fh:
        return json.load(fh)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _statuses(report, bids=None):
    return {row["status"]
            for bid, rows in report["benches"].items()
            if bids is None or bid in bids
            for row in rows.values()}


# ----------------------------------------------------------------------
# report structure
# ----------------------------------------------------------------------
def test_self_compare_is_clean_and_matches_golden_schema():
    report = compare_files(BASELINE, BASELINE)
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert report["schema"] == COMPARE_SCHEMA == golden["schema"]
    assert report["schema_version"] == COMPARE_SCHEMA_VERSION \
        == golden["schema_version"]
    assert sorted(report) == golden["top_level"]
    assert sorted(report["old"]) == golden["meta_keys"]
    assert report["status"] == "equal" and report["changed"] == []
    assert report["status"] in golden["verdicts"]
    for rows in report["benches"].values():
        for row in rows.values():
            assert sorted(row) == golden["row_keys"]
            assert row["status"] in golden["statuses"]
    assert _statuses(report) == {"equal"}
    # the report must be JSON-serializable as-is (CI uploads it)
    json.dumps(report)


def test_load_rejects_non_bench_documents(tmp_path):
    bad = tmp_path / "x.json"
    bad.write_text('{"schema": "something-else"}')
    with pytest.raises(CompareError):
        load_bench_doc(str(bad))
    with pytest.raises(CompareError):
        load_bench_doc(str(tmp_path / "missing.json"))


# ----------------------------------------------------------------------
# gating
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bid, name, mutate", [
    # the paper's §4.3 headline, ungated "info" under the thresholds
    ("E4", "crossover_bytes", lambda v: 2048),
    # a zero baseline used to be uncomparable
    ("E14", "charlotte_failed_over", lambda v: 1),
    # a share: neither *_ms nor *_per_s, so never gated before
    ("E13", "charlotte_runtime_share", lambda v: v * 1.05),
    # far inside the old 10 % band
    ("E1", "lynx_rpc0_ms", lambda v: v * 1.001),
], ids=["E4.crossover_bytes", "E14.charlotte_failed_over",
        "E13.charlotte_runtime_share", "E1.lynx_rpc0_ms"])
def test_any_changed_value_exits_one(tmp_path, capsys, bid, name, mutate):
    new = _baseline_doc()
    new["benches"][bid][name] = mutate(new["benches"][bid][name])
    rc = cli_main(["bench", "--compare", BASELINE,
                   _write(tmp_path, "new.json", new), "--json", "-"])
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "changed"
    assert report["changed"] == [f"{bid}.{name}"]
    assert report["benches"][bid][name]["status"] == "changed"


def test_a_key_on_one_side_only_is_new_or_gone_and_never_fails():
    old = _baseline_doc()
    new = copy.deepcopy(old)
    new["benches"]["E1"]["fresh_metric"] = 1.0
    del new["benches"]["E5"]["lynx_rpc0_ms"]
    new["benches"]["E99"] = {"whole_new_bench": 2.0}
    report = compare_docs(old, new)
    assert report["status"] == "equal" and report["changed"] == []
    assert report["benches"]["E1"]["fresh_metric"]["status"] == "new"
    assert report["benches"]["E5"]["lynx_rpc0_ms"]["status"] == "gone"
    assert report["benches"]["E99"]["whole_new_bench"]["status"] == "new"


def test_mixed_quick_full_gates_only_iteration_invariant_metrics():
    """The iteration-invariant metrics are declared per bench: with
    the two documents' ``quick`` flags different, the benches in
    `QUICK_SIZED` are skipped whole and every other one still gates."""
    old = _baseline_doc()
    new = copy.deepcopy(old)
    new["quick"] = True  # as the CI perf job's quick run
    new["benches"]["E16"]["scale_clients"] = 4000.0
    new["benches"]["E17"]["net_meas_clients"] = 24.0
    report = compare_docs(old, new)
    assert report["status"] == "equal"
    assert _statuses(report, QUICK_SIZED) == {"skipped"}
    assert _statuses(report, SIMULATED + ("E15",)) == {"equal"}
    new["benches"]["E1"]["ideal_rpc0_ms"] *= 1.5
    assert compare_docs(old, new)["changed"] == ["E1.ideal_rpc0_ms"]
    # same size on both sides: the populations gate too
    new["quick"] = False
    assert set(compare_docs(old, new)["changed"]) == {
        "E1.ideal_rpc0_ms", "E16.scale_clients", "E17.net_meas_clients"}


def test_the_committed_trajectory_compares_clean():
    """BENCH_PR9.json was written by the threshold runner nine PRs ago
    and is never edited: every simulated value it holds is still
    bit-identical, what the exact-values runner retired is ``gone``,
    and what the experiment registry added since is ``new``."""
    report = compare_files(PR9, BASELINE)
    assert report["status"] == "equal"
    statuses = [row["status"] for bid in SIMULATED
                for row in report["benches"][bid].values()]
    assert statuses.count("equal") == 112
    # E14's per-kernel `failed` / `exhausted`, which its claims read
    assert statuses.count("new") == len(statuses) - 112 == 10
    assert _statuses(report) == {"equal", "gone", "new"}
    assert _statuses(report, ("S1",)) == {"gone"}


# ----------------------------------------------------------------------
# the CI perf gate, end to end through the CLI
# ----------------------------------------------------------------------
def test_ci_perf_gate_fails_a_deliberately_slowed_codec(tmp_path, capsys):
    """The scenario the ``perf`` job exists for: a change that slows
    the codec hot path moves the simulated latencies and the exact CI
    command exits 1."""
    old = _baseline_doc()
    slowed = copy.deepcopy(old)
    slowed["quick"] = True  # CI compares its quick run to the baseline
    for bid in ("E1", "E13"):
        for name in slowed["benches"][bid]:
            if name.endswith("_ms"):  # what a slower codec inflates
                slowed["benches"][bid][name] *= 1.25
    new_path = _write(tmp_path, "BENCH_ci_perf.json", slowed)
    report_path = str(tmp_path / "compare_report.json")
    rc = cli_main([
        "bench", "--compare", BASELINE, new_path,
        "--json", report_path,
    ])
    assert rc == 1
    out = capsys.readouterr().out
    assert "result: CHANGED" in out
    with open(report_path) as fh:
        report = json.load(fh)
    assert report["status"] == "changed"
    assert "E1.ideal_rpc0_ms" in report["changed"]


def test_cli_compare_ok_exits_zero_and_json_stdout(capsys):
    rc = cli_main(["bench", "--compare", BASELINE, BASELINE,
                   "--json", "-"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == COMPARE_SCHEMA
    assert report["status"] == "equal"


def test_cli_compare_bad_document_exits_two(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json", {"schema": "nope"})
    rc = cli_main(["bench", "--compare", BASELINE, bad])
    assert rc == 2
    assert "bench --compare" in capsys.readouterr().err


def test_render_report_tallies_and_gives_the_verdict():
    text = render_report(compare_files(PR9, BASELINE))
    assert "engine_events_per_sec" in text and "gone" in text
    assert "E1    lynx_rpc0_ms" not in text  # equal rows are only counted
    assert "result: EQUAL — 135 equal, 33 gone, 251 new" in text
