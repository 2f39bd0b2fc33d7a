"""benchmarks/check_schema.py is the CI drift gate for the committed
artifacts no other tier-1 test holds; tier-1 runs it too so a drifted
baseline fails locally before it fails on the runner."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.obs.bench import DEFAULT_BENCH_FILENAME

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SCRIPT = os.path.join(ROOT, "benchmarks", "check_schema.py")


def _run(cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return subprocess.run(
        [sys.executable, SCRIPT], cwd=cwd, env=env,
        capture_output=True, text=True,
    )


def test_checked_in_artifacts_pass():
    proc = _run()
    assert proc.returncode == 0, proc.stderr
    assert "check_schema: ok" in proc.stdout


def _stripped_checkout(root, baseline_mutation=None):
    """The script, the bench golden and the (maybe mutated) current
    baseline under ``root``; returns the finished check_schema
    process."""
    (root / "benchmarks").mkdir(parents=True)
    shutil.copy(SCRIPT, root / "benchmarks" / "check_schema.py")
    with open(os.path.join(ROOT, DEFAULT_BENCH_FILENAME)) as fh:
        doc = json.load(fh)
    if baseline_mutation is not None:
        baseline_mutation(doc)
    (root / DEFAULT_BENCH_FILENAME).write_text(json.dumps(doc))
    (root / "tests" / "obs").mkdir(parents=True)
    shutil.copy(os.path.join(ROOT, "tests", "obs", "golden_bench_schema.json"),
                root / "tests" / "obs" / "golden_bench_schema.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "check_schema.py")],
        cwd=root, env=env, capture_output=True, text=True,
    )


@pytest.mark.parametrize("mutation, fragment", [
    (lambda d: d.__setitem__("schema_version", 1), "schema_version"),
    (lambda d: d.pop("git_rev"), "top-level keys"),
    (lambda d: d["benches"]["E1"].__setitem__("lynx_rpc0_ms", "57 ms"),
     "E1.lynx_rpc0_ms is str, not a JSON number"),
])
def test_drifted_baseline_fails(tmp_path, mutation, fragment):
    """A stale or hand-edited current baseline must be rejected.  (A
    metric added to or dropped from one bench block is not this
    script's business any more: tests/obs/test_bench.py holds every
    block's keys to what a run produces.)"""
    proc = _stripped_checkout(tmp_path, baseline_mutation=mutation)
    assert proc.returncode == 1
    assert fragment in proc.stderr


def test_older_documents_only_have_to_load(tmp_path):
    """History is not a fixture: a BENCH_*.json other than the current
    baseline may carry any keys of any schema version, but must still
    be a repro.bench document."""
    shutil.copy(os.path.join(ROOT, "BENCH_PR1.json"),
                tmp_path / "BENCH_PR1.json")
    (tmp_path / "BENCH_PR2.json").write_text('{"schema": "nope"}')
    proc = _stripped_checkout(tmp_path)
    assert proc.returncode == 1
    assert "BENCH_PR2.json is not a repro.bench document" in proc.stderr
    assert "BENCH_PR1.json" not in proc.stderr
