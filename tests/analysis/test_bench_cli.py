"""Tier-1 smoke of ``python -m repro bench --quick`` — keeps the
benchmark-export path from silently rotting (ISSUE 1 CI satellite)."""

import json
import os
import subprocess
import sys

from repro.cli import main
from repro.experiments import registered_experiments


def test_bench_quick_writes_valid_json(quick_bench_run):
    out, printed = quick_bench_run
    assert "benchmark export" in printed
    assert str(out) in printed
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.bench"
    assert doc["quick"] is True
    assert set(doc["benches"]) == set(registered_experiments())
    assert "seed" in doc and "git_rev" in doc and "timestamp" in doc


def test_two_quick_runs_of_one_commit_are_identical(quick_bench_run,
                                                    tmp_path, capsys):
    """Every exported value is exact, so a second run differs only in
    its timestamp and ``bench --compare`` finds every row equal."""
    first, _ = quick_bench_run
    second = tmp_path / "BENCH_again.json"
    assert main(["bench", "--quick", "--out", str(second)]) == 0
    docs = [json.loads(p.read_text()) for p in (first, second)]
    for doc in docs:
        del doc["timestamp"]
    assert docs[0] == docs[1]
    capsys.readouterr()
    assert main(["bench", "--compare", str(first), str(second),
                 "--json", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert {row["status"] for rows in report["benches"].values()
            for row in rows.values()} == {"equal"}


def test_bench_only_subset(tmp_path, capsys):
    out = tmp_path / "BENCH_sub.json"
    assert main(["bench", "--quick", "--only", "E4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert list(doc["benches"]) == ["E4"]
    assert doc["benches"]["E4"]["crossover_bytes"] == 1536


def test_bench_out_dash_writes_json_to_stdout(capsys):
    assert main(["bench", "--quick", "--only", "E5", "--out", "-"]) == 0
    printed = capsys.readouterr().out
    doc = json.loads(printed)  # stdout is exactly one JSON document
    assert list(doc["benches"]) == ["E5"]
    assert "benchmark export" not in printed  # no table mixed in


def test_bench_unknown_only_name_exits_nonzero(capsys):
    assert main(["bench", "--quick", "--only", "E99"]) == 2
    err = capsys.readouterr().err
    assert "E99" in err


def test_cli_import_does_not_load_the_bench_machinery():
    """Every ``python -m repro`` command imports `repro.cli` (a node
    process does not: it is ``python -m repro.net``,
    tests/analysis/test_import_closure.py); only ``bench`` (and
    ``sweep``) may pay for the runner, its compare and the experiment
    registry behind them."""
    code = ("import sys, repro.cli; "
            "print(sorted(m for m in sys.modules "
            "if m in ('repro.obs.bench', 'repro.obs.compare') "
            "or m.startswith('repro.experiments')))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
