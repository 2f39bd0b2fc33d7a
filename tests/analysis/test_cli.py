"""Tests for the CLI (`python -m repro ...`)."""

import re

import pytest

from repro.analysis.complexity import area_sizes
from repro.cli import main
from repro.core.api import registered_kernels
from repro.core.cluster import ClusterBase


def test_rpc_command(capsys):
    assert main(["rpc", "--kernel", "chrysalis", "--count", "3"]) == 0
    out = capsys.readouterr().out
    assert "chrysalis" in out and "mean ms" in out


def test_migrate_command(capsys):
    assert main(["migrate", "--kernel", "chrysalis", "--hops", "3"]) == 0
    out = capsys.readouterr().out
    assert "repair_latency_ms" in out


@pytest.mark.parametrize("flag", [["--loss", "0.9"], ["--cache", "1"]])
@pytest.mark.parametrize("kind", [k for k in registered_kernels()
                                  if k != "soda"])
def test_migrate_rejects_a_knob_the_kernel_lacks(kind, flag, capsys):
    """`--loss` and `--cache` set SODA's cluster; on any other kernel
    the flag is refused by name instead of dropped."""
    assert main(["migrate", "--kernel", kind, "--hops", "3", *flag]) == 2
    captured = capsys.readouterr()
    assert flag[0] in captured.err and kind in captured.err
    assert captured.out == ""


def test_migrate_forwards_the_knobs_soda_has(capsys):
    """Unset, SODA's knobs keep its cluster defaults; set, they reach
    the cluster."""
    def table(*flags):
        assert main(["migrate", "--kernel", "soda", "--hops", "8",
                     *flags]) == 0
        return capsys.readouterr().out

    plain, uncached = table(), table("--cache", "0")
    assert table("--loss", "0.0", "--cache", "64") == plain
    assert uncached != plain  # no hint cache: the use must discover
    assert table("--loss", "0.9", "--cache", "0") != uncached


@pytest.mark.parametrize("argv", [["figure2"], ["linda"], ["compare"],
                                  ["trace", "--selftest"]])
def test_commands_the_examples_and_tests_own_are_gone(argv, capsys):
    """`examples/figure2.py`, `examples/linda_bag_of_tasks.py` and
    `examples/kernel_comparison.py` (run by tests/examples) and
    tests/obs/test_causal.py (every registered kernel) are their one
    home."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[-1] in capsys.readouterr().err


def test_sizes_command(capsys):
    assert main(["sizes"]) == 0
    out = capsys.readouterr().out
    assert "charlotte special cases" in out
    # ... and, under E2's table, the row of every budgeted area
    for area, (loc, branches) in area_sizes().items():
        assert re.search(rf"{re.escape(area)} +{loc} +{branches}\n", out), area


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_sweep_command(capsys):
    from repro.cli import main as _main

    assert _main(["sweep"]) == 0
    out = capsys.readouterr().out
    assert "charlotte" in out and "soda" in out


def test_trace_by_layer_default(capsys):
    assert main(["trace", "--kernel", "chrysalis", "--count", "2"]) == 0
    out = capsys.readouterr().out
    assert "critical-path latency by layer" in out
    assert "runtime" in out and "kernel" in out and "(total)" in out


def test_trace_critical_path_waterfall(capsys):
    assert main(["trace", "--kernel", "charlotte", "--count", "1",
                 "--critical-path"]) == 0
    out = capsys.readouterr().out
    assert "rpc:connect:ping" in out and "█" in out
    assert "critical path of trace" in out


def test_trace_chrome_export_and_jsonl_reload(tmp_path, capsys):
    import json

    chrome = tmp_path / "trace.json"
    assert main(["trace", "--kernel", "soda", "--count", "2",
                 "--chrome", str(chrome)]) == 0
    doc = json.loads(chrome.read_text())
    assert doc["traceEvents"]
    # offline: export a run to JSONL, reload it through --jsonl
    from repro.workloads.rpc import run_rpc_workload

    jsonl = tmp_path / "run.jsonl"
    r = run_rpc_workload("chrysalis", 0, count=2, seed=0)
    jsonl.write_text(r.trace.to_jsonl())
    capsys.readouterr()
    assert main(["trace", "--jsonl", str(jsonl), "--by-layer"]) == 0
    out = capsys.readouterr().out
    assert "critical-path latency by layer" in out


def test_flight_demo_writes_and_describes_dumps(tmp_path, capsys):
    out_dir = tmp_path / "flight"
    assert main(["flight", "--demo", "--out", str(out_dir),
                 "--kernel", "charlotte"]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert "partition-entered" in out
    assert "last" in out and "events" in out
    dumps = sorted(out_dir.glob("*.jsonl"))
    assert dumps


def test_flight_inspects_existing_dump(tmp_path, capsys):
    out_dir = tmp_path / "flight"
    assert main(["flight", "--demo", "--out", str(out_dir),
                 "--kernel", "charlotte"]) == 0
    capsys.readouterr()
    dump = sorted(out_dir.glob("*.jsonl"))[0]
    assert main(["flight", str(dump), "--tail", "5"]) == 0
    out = capsys.readouterr().out
    assert f"flight dump {dump.name}" in out
    assert "reason   partition-entered" in out


def test_flight_rejects_a_non_dump(tmp_path, capsys):
    bogus = tmp_path / "bogus.jsonl"
    bogus.write_text('{"schema": "other"}\n')
    assert main(["flight", str(bogus)]) == 2


def test_top_prints_windowed_table(capsys):
    assert main(["top", "--kernel", "soda", "--quick", "--count", "12"]) == 0
    out = capsys.readouterr().out
    assert "t0 ms" in out and "goodput/s" in out
    assert "fault drops" in out
    # the partition scenario must show at least one degraded window
    assert any(line.split() for line in out.splitlines())


@pytest.mark.parametrize("kind", registered_kernels())
def test_closing_the_instrumented_cluster_changes_no_output(
    kind, capsys, tmp_path, monkeypatch
):
    """`run_chaos_workload` closes its cluster before it returns, and
    `top`'s time series and `flight --demo`'s recorder outlive it: they
    print, and write, what they did while the cluster stayed open."""
    def outputs(tag):
        out = tmp_path / tag
        assert main(["top", "--kernel", kind, "--quick", "--count", "12"]) == 0
        assert main(["flight", "--demo", "--kernel", kind,
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out.replace(str(out), "OUT")
        return printed, sorted(p.read_bytes() for p in out.iterdir())

    closed = outputs("closed")
    monkeypatch.setattr(ClusterBase, "close", lambda self: None)
    assert outputs("open") == closed


def test_top_clean_scenario(capsys):
    assert main(["top", "--kernel", "ideal", "--scenario", "clean",
                 "--quick", "--count", "8"]) == 0
    out = capsys.readouterr().out
    assert "goodput/s" in out


def test_chaos_prints_the_recovery_table(capsys):
    assert main(["chaos", "--kernel", "ideal", "--quick", "--count", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3].split() == [
        "kernel", "recovery", "clean", "op/s", "faulted", "op/s",
        "retention", "max", "rtt", "ms", "failovers", "retries", "kernel",
        "rexmit"]
    assert lines[5].split()[:2] == ["ideal", "runtime"]


def test_top_scale_scenario(capsys):
    assert main(["top", "--scenario", "scale", "--shards", "2",
                 "--clients", "200"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3].split() == [
        "t0", "ms", "completed", "goodput/s", "mean", "rtt", "ms", "max",
        "rtt", "ms", "remote", "dropped", "retries", "moves"]
    assert "across 2 shard(s)" in lines[-1]
