"""Tests of the benchmark itself.

    python -m pytest perf -q

Not collected by tier-1 (``testpaths = ["tests"]``): they spawn real
processes and take about a minute.
"""

from __future__ import annotations

import asyncio
import copy
import fnmatch
import json
import os
import random
import subprocess
import sys
import time

import pytest

import run

run.bootstrap()

import compare  # noqa: E402  (needs nothing from src, kept with the rest)
import contract  # noqa: E402
import netgen  # noqa: E402
import passes  # noqa: E402
import spans  # noqa: E402
from stats import summarize  # noqa: E402

RUN = os.path.join(run.HERE, "run.py")


def node_processes() -> list:
    """Command lines of live ``repro net serve`` / echo processes that
    the benchmark started (named ``perf-*``)."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmd = fh.read().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if "perf-node" in cmd or "perf-load" in cmd or "--echo" in cmd:
            found.append(cmd)
    return found


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One smoke set and one smoke traced run, shared by the tests."""
    tmp = tmp_path_factory.mktemp("perf")
    out = {}
    for name, flags in (("set", []), ("traced", ["--trace"])):
        path = tmp / f"{name}.json"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, RUN, "--smoke", "--out", str(path)] + flags,
            capture_output=True, text=True, timeout=300)
        out[name + "_s"] = time.perf_counter() - t0
        assert proc.returncode == 0, proc.stderr
        out[name + "_stdout"] = proc.stdout
        out[name] = json.loads(path.read_text())
    return out


def test_smoke_set_is_quick_and_complete(smoke):
    assert smoke["set_s"] < 30.0
    names = [m["name"] for m in contract.end_to_end()]
    assert list(smoke["set"]["workloads"]) == contract.workloads()
    for w, row in smoke["set"]["workloads"].items():
        assert list(row["metrics"]) == names
        assert row["failed"] == 0 and row["attempted"] > 0
        for name in names:  # every metric is printed by name, with unit
            assert name in smoke["set_stdout"]


def test_emitted_names_equal_the_contract(smoke):
    """What `run.py` emits is exactly what BENCHMARK.json names: the
    bounded end-to-end metrics with ``--trace 0``, every per-layer
    metric with ``--trace 1`` — and no per-layer metric is dead."""
    doc = contract.load()
    bounded = [m["name"] for m in doc["end_to_end"]]
    assert bounded == ["setup_s", "ops_per_s", "cpu_us_per_op", "peak_rss_mb"]
    fake = {"skipped": None, "ops": 1, "segments": [[1, 1.0, 1.0, 1e-3]],
            "rss_mb": 1.0, "setup_s": 1.0, "setup_calib_s": 1e-3,
            "failed": 0, "attempted": 1,
            "sim_ms_per_op": 1.0, "wire_msgs_per_op": 1.0}
    assert list(run.end_to_end(fake)) == bounded + list(contract.EXACT)
    per_layer = [m["name"] for m in doc["per_layer"]]
    assert len(per_layer) == len(set(per_layer)) <= 128
    layers = smoke["traced"]["layers"]
    assert list(layers) == contract.workloads()
    for w, table in layers.items():
        assert list(table) == per_layer, w
    never = [n for n in per_layer if n != "failed_frac"
             and not any(table[n] for table in layers.values())]
    # zero on the smoke sizes by nature: nothing exhausts, fails over,
    # goes stale or retries in so few ops
    rare = {"core.recovery.exhausted_per_op", "core.recovery.failovers",
            "soda.discovers_per_op", "chrysalis.stale_notices_per_op",
            "net.load.retries", "net.server.duplicates"}
    assert set(never) <= rare


def test_times_are_calibrated_by_the_host_speed_around_each_segment():
    """A segment clocked while the calibration loop ran 2x slower than
    nominal counts half; the raw readings are kept beside the value."""
    nominal = passes.CALIB_NOMINAL_S
    one = {"skipped": None, "ops": 20, "rss_mb": 50.0, "failed": 0,
           "attempted": 20, "sim_ms_per_op": 1.5, "wire_msgs_per_op": 2.0,
           "setup_s": 0.6, "setup_calib_s": 2 * nominal,
           "segments": [[10, 1.0, 0.8, nominal], [10, 4.0, 3.0, 2 * nominal]]}
    got = run.end_to_end(one)
    assert got["ops_per_s"] == pytest.approx(20 / (1.0 + 2.0))
    assert got["cpu_us_per_op"] == pytest.approx((0.8 + 1.5) * 1e6 / 20)
    assert got["setup_s"] == pytest.approx(0.3)
    assert got["peak_rss_mb"] == 50.0 and got["failed_frac"] == 0.0
    raw = run.end_to_end(one, raw=True)
    assert raw["ops_per_s"] == pytest.approx(20 / 5.0)
    assert raw["setup_s"] == 0.6
    summary = run.summarize_run([one, one, one])
    assert summary["ops_per_s"]["median"] == pytest.approx(got["ops_per_s"])
    assert summary["ops_per_s"]["raw_median"] == pytest.approx(4.0)
    assert "raw_median" not in summary["peak_rss_mb"]
    skipped = {"skipped": "SpawnFailed: no sockets"}
    assert set(run.end_to_end(skipped).values()) == {None}


def test_benchmark_json_meets_the_written_limits():
    doc = contract.load()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["perf"] and doc["command"][-1] == "perf/run.py"
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert any(m["name"] == "setup_s" for m in doc["end_to_end"])
    # outside check_schema.py's baseline glob, and not a baseline
    assert not fnmatch.fnmatch("BENCHMARK.json", "BENCH_*.json")


def test_span_self_time_arithmetic():
    rec = spans.Recorder("p")
    with rec.span("pass"):
        with rec.span("a"):
            with rec.span("a1"):
                pass
        with rec.span("b") as b:
            pass
        rec.add("request", b["start"], b["end"], parent=b["id"], op="1")
    selfs = spans.self_times(rec.spans)
    by_id = {s["id"]: s for s in rec.spans}
    for sid, span in by_id.items():
        kids = [k for k in rec.spans
                if k["parent"] == sid and not k.get("sampled")]
        assert selfs[sid] + sum(map(spans.duration, kids)) == pytest.approx(
            spans.duration(span))
    assert all(s["pass"] == "p" for s in rec.spans)
    assert by_id[1]["parent"] == 0 and by_id[2]["parent"] == 1
    off = spans.Recorder("p", enabled=False)
    with off.span("pass") as nothing:
        assert nothing is None
    assert off.spans == []


def test_trace_files_account_for_the_pass(smoke):
    """One span file per workload; children plus the parent's self time
    equal the pass wall within 5 %."""
    for w in contract.workloads():
        recs = spans.load(os.path.join(run.OUT, f"trace-{w}.jsonl"))
        (whole,) = [s for s in recs if s["name"] == "pass"]
        kids = [s for s in recs if s["parent"] == whole["id"]]
        assert kids, w
        covered = sum(map(spans.duration, kids))
        selfs = spans.self_times(recs)
        assert covered + selfs[whole["id"]] == pytest.approx(
            spans.duration(whole), rel=0.05)
        assert min(selfs.values()) >= 0.0
    assert "bench.trace_overhead_frac" in smoke["traced_stdout"]


def test_window_generator_survives_32k_payloads():
    """Window 16 x 32 KiB replies outgrow the socket buffer while the
    server drains per frame: with reads and writes in one coroutine the
    prototype hung here."""
    from repro.net.load import query_stats
    from repro.net.supervisor import NodeSupervisor

    rng = random.Random(5)
    conns = [netgen.make_conn(100 + i, 48, 32 * 1024, rng) for i in range(2)]

    async def drive(endpoint):
        for conn in conns:
            await netgen.connect(conn, endpoint)
        try:
            await asyncio.wait_for(netgen.drain_window(conns, 16), 60.0)
        finally:
            netgen.close(conns)

    with NodeSupervisor() as sup:
        node = sup.spawn("perf-node")
        asyncio.run(drive(node.endpoint))
        stats = query_stats(node.endpoint)
    assert [c.received for c in conns] == [48, 48]
    assert all(c.failed == 0 for c in conns)
    assert stats["executed_unique"] == 96 and stats["duplicates"] == 0


def test_a_wrong_reply_is_counted_failed():
    rng = random.Random(1)
    conn = netgen.make_conn(100, 4, 32, rng)
    conn.payloads[2] = b"not what was sent"

    async def drive(endpoint):
        await netgen.connect(conn, endpoint)
        try:
            await netgen.drain_window([conn], 16)
        finally:
            netgen.close([conn])

    from repro.net.supervisor import NodeSupervisor

    with NodeSupervisor() as sup:
        asyncio.run(drive(sup.spawn("perf-node").endpoint))
    assert conn.received == 4 and conn.failed == 1


def test_corrupt_golden_names_workload_kernel_and_field(tmp_path, monkeypatch):
    golden = run.load_golden()
    exact = golden["seeds"]["0"]["rpc_null"]
    ok = {"skipped": None, "failed": 0, "attempted": 4, "exact": exact}
    run.check("rpc_null", 0, False, [ok, copy.deepcopy(ok)])
    bad = copy.deepcopy(golden)
    bad["seeds"]["0"]["rpc_null"]["soda"]["sim_ms_per_op"] += 1e-9
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(bad))
    monkeypatch.setattr(run, "GOLDEN", str(path))
    with pytest.raises(run.CheckFailed) as err:
        run.check("rpc_null", 0, False, [ok])
    for word in ("rpc_null", "soda", "sim_ms_per_op", "golden.json"):
        assert word in str(err.value)
    # an uncommitted seed is only held to round-to-round identity
    run.check("rpc_null", 10_000, False, [ok, copy.deepcopy(ok)])
    drift = copy.deepcopy(ok)
    drift["exact"]["ideal"]["events_per_op"] += 1
    with pytest.raises(run.CheckFailed, match="ideal events_per_op"):
        run.check("rpc_null", 10_000, False, [ok, drift])


def _result(**medians):
    def metric(name, values):
        return dict(summarize(values), unit="x")

    base = {"setup_s": [0.30, 0.31, 0.32], "ops_per_s": [100, 101, 102],
            "cpu_us_per_op": [10, 10.1, 10.2], "peak_rss_mb": [50, 50, 50],
            "sim_ms_per_op": [2.0] * 3, "wire_msgs_per_op": [None] * 3,
            "failed_frac": [0.0] * 3}
    base.update(medians)
    return {"workloads": {"w": {"metrics": {
        name: metric(name, values) for name, values in base.items()}}}}


def test_compare_verdicts():
    def verdicts(old, new, same_code=False):
        return {r["metric"]: r["verdict"]
                for r in compare.compare(old, new, same_code)}

    same = verdicts(_result(), _result())
    assert set(same.values()) == {"unchanged"}
    assert verdicts(_result(), _result(ops_per_s=[70, 71, 72]))[
        "ops_per_s"] == "regressed"
    assert verdicts(_result(), _result(ops_per_s=[130, 131, 132]))[
        "ops_per_s"] == "improved"
    # spread wider than the bound and overlapping runs: the host decides
    assert verdicts(_result(ops_per_s=[60, 100, 140]),
                    _result(ops_per_s=[50, 70, 120]))[
        "ops_per_s"] == "unresolved"
    assert verdicts(_result(), _result(sim_ms_per_op=[2.0000001] * 3))[
        "sim_ms_per_op"] == "regressed"
    # setup_s may move by 0.25 s even when that is more than 25 %
    assert verdicts(_result(), _result(setup_s=[0.5, 0.5, 0.5]))[
        "setup_s"] == "unchanged"
    agree = verdicts(_result(), _result(ops_per_s=[95, 96, 97]), True)
    assert set(agree.values()) == {"agree"}
    assert verdicts(_result(), _result(failed_frac=[0.1] * 3), True)[
        "failed_frac"] == "disagree"


def test_unknown_workload_and_bare_directory_fail(tmp_path):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "nope", "--seed", "1",
         "--seconds", "1", "--trace", "0"], capture_output=True, text=True)
    assert proc.returncode != 0 and "nope" in proc.stderr
    # a directory holding only BENCHMARK.json and perf/: nothing to measure
    bare = tmp_path / "bare"
    (bare / "perf").mkdir(parents=True)
    for name in os.listdir(run.HERE):
        src = os.path.join(run.HERE, name)
        if os.path.isfile(src):
            (bare / "perf" / name).write_bytes(open(src, "rb").read())
    (bare / "BENCHMARK.json").write_text(
        open(os.path.join(run.ROOT, "BENCHMARK.json")).read())
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "rpc_null", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""


def test_no_node_process_is_left_behind(smoke):
    assert node_processes() == []
