"""Unit tests for metrics."""

import math

import pytest

from repro.sim.metrics import LatencyRecorder, MetricSet, ordered_mean


def test_counter_accumulates():
    m = MetricSet()
    m.count("a.b")
    m.count("a.b", 2)
    m.count("a.c", 5)
    assert m.get("a.b") == 3
    assert m.total("a.") == 8
    assert m.get("missing") == 0


def test_counters_prefix_filter_sorted():
    m = MetricSet()
    m.count("z.1")
    m.count("a.2")
    m.count("a.1")
    assert list(m.counters("a.")) == ["a.1", "a.2"]


def test_latency_summary():
    rec = LatencyRecorder("t")
    for v in [1.0, 2.0, 3.0, 4.0]:
        rec.record(v)
    assert rec.mean == pytest.approx(2.5)
    assert rec.minimum == 1.0
    assert rec.maximum == 4.0
    # percentiles are histogram-backed: exact at the endpoints, within
    # the ~1% construction bound in between
    assert rec.percentile(50) == pytest.approx(2.5, rel=0.02)
    assert rec.percentile(0) == 1.0
    assert rec.percentile(100) == 4.0
    assert rec.count == 4


def test_latency_merge_matches_single_stream():
    xs = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    whole = LatencyRecorder("w")
    a, b = LatencyRecorder("a"), LatencyRecorder("b")
    for i, v in enumerate(xs):
        whole.record(v)
        (a if i % 2 == 0 else b).record(v)
    a.merge(b)
    assert a.count == whole.count
    assert a.mean == whole.mean
    assert a.minimum == whole.minimum
    assert a.maximum == whole.maximum
    for p in (0, 25, 50, 75, 99, 100):
        assert a.percentile(p) == whole.percentile(p)


def test_latency_empty_is_nan():
    rec = LatencyRecorder()
    assert math.isnan(rec.mean)
    assert math.isnan(rec.percentile(50))


def test_ordered_mean_is_the_same_on_every_interpreter():
    # builtin sum() is compensated from Python 3.12 on and reads 1.0
    # here; a bench document must not depend on which one wrote it
    tenths = [0.1] * 10
    assert ordered_mean(tenths) == 0.09999999999999999
    rec = LatencyRecorder()
    for v in tenths:
        rec.record(v)
    assert rec.mean == ordered_mean(tenths)
    assert math.isnan(ordered_mean([]))
    assert ordered_mean([], empty=0.0) == 0.0


def test_latency_single_sample():
    rec = LatencyRecorder()
    rec.record(7.0)
    assert rec.percentile(50) == 7.0


def test_metricset_latency_is_memoised():
    m = MetricSet()
    assert m.latency("x") is m.latency("x")
    m.latency("x").record(1.0)
    assert m.latency("x").count == 1


def test_snapshot_and_diff():
    m = MetricSet()
    m.count("a", 2)
    before = dict(m.snapshot())
    m.count("a", 3)
    m.count("b")
    assert before["counters"] == {"a": 2}
    assert m.snapshot()["counters"] == {"a": 5, "b": 1}


def test_snapshot_is_nested_and_matches_live_reads():
    m = MetricSet()
    m.count("kernel.calls.Send", 3)
    m.count("wire.bytes", 128)
    m.latency("rpc.roundtrip").record(2.0)
    m.latency("rpc.roundtrip").record(4.0)
    snap = m.snapshot()
    assert set(snap) == {"counters", "latencies"}
    assert snap["counters"] == {
        "kernel.calls.Send": m.get("kernel.calls.Send"),
        "wire.bytes": m.get("wire.bytes"),
    }
    lat = snap["latencies"]["rpc.roundtrip"]
    rec = m.latency("rpc.roundtrip")
    assert lat["mean"] == rec.mean
    assert lat["count"] == rec.count
    assert lat["p99"] == rec.percentile(99)
    # a snapshot is a copy: later counts do not leak into it
    m.count("kernel.calls.Send")
    assert snap["counters"]["kernel.calls.Send"] == 3
