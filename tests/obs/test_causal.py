"""Causal span tracing: span-tree structure on every registered kernel,
critical-path coverage, exporter validity, and consistency of the
attribution totals with the BENCH_PR1.json latency baseline."""

import json
import os

import pytest

from repro.core.api import kernel_profile, registered_kernels
from repro.obs.causal import (
    GAP_LAYER,
    LAYERS,
    CausalGraph,
    Span,
    SpanContext,
    SpanTracker,
    chrome_trace,
    chrome_trace_json,
    waterfall,
)
from repro.sim.engine import Engine
from repro.sim.trace import TraceLog
from repro.workloads.rpc import run_rpc_workload

KINDS = ("charlotte", "soda", "chrysalis")
ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
BASELINE = os.path.join(ROOT, "BENCH_PR7.json")


# ----------------------------------------------------------------------
# unit: the tracker and the graph on a hand-built trace
# ----------------------------------------------------------------------
def _hand_built_graph():
    eng = Engine()
    log = TraceLog(eng)
    spans = SpanTracker(log)
    root = spans.new_trace()
    spans.emit(root, "runtime", "marshal", "a", 0.0, 1.0)
    sid = spans.emit(root, "kernel", "transfer", "a", 1.0, 5.0)
    k = SpanContext(root.trace_id, sid, root.span_id)
    spans.emit(k, "network", "ring", "ring", 4.0, 5.0)
    spans.emit(root, "runtime", "unmarshal", "b", 5.0, 6.0)
    spans.emit_root(root, "connect:op", "a", 0.0, 8.0)
    return CausalGraph.from_trace(log)


def test_tracker_mints_distinct_ids():
    spans = SpanTracker(TraceLog(Engine()))
    a, b = spans.new_trace(), spans.new_trace()
    assert a.trace_id != b.trace_id
    assert a.span_id != b.span_id
    assert a.parent_id is None
    child = spans.child(a)
    assert child.trace_id == a.trace_id
    assert child.parent_id == a.span_id


def test_a_span_context_is_an_immutable_tuple_value():
    ctx = SpanContext(1, 2)
    assert (ctx.parent_id, ctx.sampled) == (None, True)
    assert ctx == SpanContext(trace_id=1, span_id=2, parent_id=None,
                              sampled=True)
    # the hash of the frozen dataclass it replaced
    assert hash(ctx) == hash((1, 2, None, True))
    assert repr(ctx) == ("SpanContext(trace_id=1, span_id=2, "
                         "parent_id=None, sampled=True)")
    with pytest.raises(AttributeError):
        ctx.sampled = False


def test_emit_mints_in_call_order_and_returns_the_id():
    log = TraceLog(Engine())
    spans = SpanTracker(log)
    root = spans.new_trace()
    sid = spans.emit(root, "kernel", "k", "a", 0.0, 1.0)
    first = SpanContext(root.trace_id, sid, root.span_id)
    second = spans.child(root)
    third = spans.emit(first, "network", "n", "ring", 0.5, 1.0)
    assert (root.span_id, sid, second.span_id, third) == (1, 2, 3, 4)
    assert [ev.span["id"] for ev in log.events] == [2, 4]
    assert log.events[1].span["parent"] == sid
    assert log.events[0].span == {
        "trace": 1, "id": 2, "parent": 1, "layer": "kernel", "name": "k",
        "host": "a", "t0": 0.0, "t1": 1.0,
    }


def test_an_unsampled_span_takes_its_id_but_leaves_no_record():
    log = TraceLog(Engine())
    spans = SpanTracker(log)
    dropped = SpanContext(9, 1, None, sampled=False)
    sid = spans.emit(dropped, "kernel", "k", "a", 0.0, 1.0)
    spans.emit_root(dropped, "connect:op", "a", 0.0, 2.0)
    assert sid == 1
    assert spans.new_trace().span_id == 2
    assert len(log.events) == 0


def test_span_records_share_one_read_only_empty_detail():
    log = TraceLog(Engine())
    spans = SpanTracker(log)
    root = spans.new_trace()
    spans.emit(root, "kernel", "k", "a", 0.0, 1.0)
    spans.emit_root(root, "connect:op", "a", 0.0, 2.0)
    a, b = log.events
    assert a.detail is b.detail
    assert a.detail == {} and a.to_record()["detail"] == {}
    with pytest.raises(TypeError):
        a.detail["k"] = 1


def test_a_span_row_builds_its_payload_on_each_read():
    """Catches: a payload dict made at record time and handed to every
    reader, so a reader that edits one would rewrite the log.  Only the
    read-only empty ``detail`` is shared."""
    log = TraceLog(Engine())
    spans = SpanTracker(log)
    root = spans.new_trace()
    spans.emit(root, "kernel", "k", "a", 0.0, 1.0)
    first = log.events[0]
    first.span["name"] = "edited"
    again = log.events[0]
    assert again.span["name"] == "k"
    assert again.detail is first.detail


def test_hand_built_tree_and_depths():
    g = _hand_built_graph()
    (tid,) = g.traces()
    assert g.is_tree(tid)
    assert not g.orphans(tid)
    root = g.root(tid)
    assert root.layer == "rpc" and root.duration == 8.0
    depths = {s.name: g.depth(s) for s in g.by_trace[tid]}
    assert depths == {"connect:op": 0, "marshal": 1, "transfer": 1,
                      "ring": 2, "unmarshal": 1}


def test_hand_built_critical_path_tiles_root():
    g = _hand_built_graph()
    (tid,) = g.traces()
    segs = g.critical_path(tid)
    assert segs[0].t0 == 0.0 and segs[-1].t1 == 8.0
    for a, b in zip(segs, segs[1:]):
        assert a.t1 == b.t0  # contiguous tiling, no gaps or overlaps
    # the nested network span wins over its kernel parent at [4, 5]
    at4 = next(s for s in segs if s.t0 <= 4.0 < s.t1)
    assert at4.layer == "network"
    # the uncovered tail [6, 8] is attributed to the runtime gap layer
    assert segs[-1].layer == GAP_LAYER and segs[-1].name == "dispatch"
    assert sum(s.duration for s in segs) == pytest.approx(8.0)
    assert g.by_layer([tid])[GAP_LAYER] >= 2.0


def test_orphans_and_non_trees_detected():
    g = CausalGraph([
        Span(1, 1, None, "rpc", "r", "a", 0.0, 1.0),
        Span(1, 9, 99, "kernel", "k", "a", 0.0, 0.5),  # parent unknown
    ])
    assert g.orphans(1) and not g.is_tree(1)
    assert not CausalGraph([]).is_tree(1)  # no root at all


# ----------------------------------------------------------------------
# integration: every RPC on every kernel yields a rooted, acyclic tree
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=registered_kernels())
def traced_run(request):
    r = run_rpc_workload(request.param, 64, count=3, seed=0)
    return request.param, r, CausalGraph.from_trace(r.trace)


def test_every_rpc_yields_a_rooted_acyclic_span_tree(traced_run):
    kind, r, graph = traced_run
    tids = graph.traces()
    assert len(tids) == 4  # 3 measured + 1 warm-up connect
    for tid in tids:
        assert graph.is_tree(tid), f"{kind}: trace {tid} not a tree"
        assert not graph.orphans(tid)
        root = graph.root(tid)
        assert root.layer == "rpc" and root.name == "connect:ping"
        for s in graph.by_trace[tid]:
            assert s.layer in LAYERS
            assert s.t1 >= s.t0


def test_all_layers_represented_and_coverage_exact(traced_run):
    """A paper kernel charges the network; the zero-cost ``ideal``
    (and its framed twin) may have no network span to show."""
    kind, r, graph = traced_run
    layers_seen = {s.layer for s in graph.spans}
    assert {"rpc", "runtime", "kernel"} <= layers_seen
    if kernel_profile(kind).paper:
        assert "network" in layers_seen
    for tid in graph.traces():
        root = graph.root(tid)
        covered = sum(s.duration for s in graph.critical_path(tid))
        assert covered == pytest.approx(root.duration, abs=1e-9)


def test_root_durations_match_measured_rtts(traced_run):
    """The root span *is* the measurement: its duration equals the
    client-observed round-trip time of the same (non-warm-up) RPC."""
    kind, r, graph = traced_run
    measured = [graph.root(tid).duration for tid in graph.traces()[1:]]
    assert measured == pytest.approx(r.rtts)


def test_spans_survive_jsonl_round_trip(traced_run):
    kind, r, graph = traced_run
    replayed = TraceLog.from_jsonl(r.trace.to_jsonl())
    g2 = CausalGraph.from_trace(replayed)
    assert g2.spans == graph.spans
    assert g2.by_layer() == graph.by_layer()


def test_migration_workload_spans_are_trees():
    from repro.workloads.migration import run_migration_churn

    d = run_migration_churn("soda", members=3, hops=4, seed=0,
                            linger_ms=500.0)
    assert d["finished"]
    graph = CausalGraph.from_trace(d["trace"])
    tids = graph.traces()
    assert len(tids) >= d["rpcs_served"] > 0
    for tid in tids:
        assert graph.is_tree(tid)
        assert not graph.orphans(tid)


def test_raw_kernel_workload_is_unspanned():
    """E1's raw-kernel baseline bypasses the runtime, so nothing mints
    a trace — the causal layer must not invent spans for it."""
    from repro.workloads.raw import raw_charlotte_rpc

    r = raw_charlotte_rpc(0, count=2, seed=0)
    assert CausalGraph.from_trace(r.trace).traces() == []


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def test_chrome_export_of_three_rpc_run_validates():
    r = run_rpc_workload("charlotte", 0, count=3, seed=0)
    graph = CausalGraph.from_trace(r.trace)
    doc = json.loads(chrome_trace_json(graph))  # strict JSON
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    assert len(xs) == len(graph.spans)
    assert {e["name"] for e in metas} == {"process_name", "thread_name"}
    assert {e["pid"] for e in xs} == set(graph.traces())
    for e in xs:
        assert e["dur"] >= 0 and e["ts"] >= 0  # microseconds
        assert e["cat"] in LAYERS
        assert set(e["args"]) == {"span_id", "parent_id", "layer", "host"}
    # µs conversion: the root X event is 1000x the root span's ms
    tid = graph.traces()[0]
    root = graph.root(tid)
    root_x = next(e for e in xs
                  if e["pid"] == tid and e["args"]["parent_id"] is None)
    assert root_x["dur"] == pytest.approx(root.duration * 1000.0)


def test_chrome_export_validates_on_every_kernel(traced_run):
    kind, r, graph = traced_run
    doc = json.loads(chrome_trace_json(graph))  # strict JSON
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(xs) == len(graph.spans), kind
    assert {e["pid"] for e in xs} == set(graph.traces())
    assert all(e["dur"] >= 0 and e["cat"] in LAYERS for e in xs)


def test_chrome_export_subset_of_traces():
    r = run_rpc_workload("chrysalis", 0, count=2, seed=0)
    graph = CausalGraph.from_trace(r.trace)
    last = graph.traces()[-1]
    doc = chrome_trace(graph, trace_ids=[last])
    assert {e["pid"] for e in doc["traceEvents"]} == {last}


def test_waterfall_renders_every_span():
    r = run_rpc_workload("soda", 0, count=1, seed=0)
    graph = CausalGraph.from_trace(r.trace)
    tid = graph.traces()[-1]
    text = waterfall(graph, tid)
    assert f"trace {tid}" in text.splitlines()[0]
    assert len(text.splitlines()) == 1 + len(graph.by_trace[tid])
    for layer in ("rpc:", "runtime:", "kernel:", "network:"):
        assert layer in text
    assert "█" in text
    assert waterfall(graph, 10**9).startswith("(trace")  # missing trace


def test_waterfall_renders_every_span_on_every_kernel(traced_run):
    kind, r, graph = traced_run
    for tid in graph.traces():
        lines = waterfall(graph, tid).splitlines()
        assert f"trace {tid}" in lines[0], kind
        assert len(lines) == 1 + len(graph.by_trace[tid])
        assert "rpc:" in lines[1] and "█" in lines[1]


# ----------------------------------------------------------------------
# consistency with the benchmark baseline (the 5 % acceptance bound)
# ----------------------------------------------------------------------
def _baseline():
    with open(BASELINE) as fh:
        return json.load(fh)["benches"]


def _per_rpc_total(kind, count):
    r = run_rpc_workload(kind, 0, count=count, seed=0)
    graph = CausalGraph.from_trace(r.trace)
    tids = graph.traces()[1:]  # drop the warm-up
    assert len(tids) == count
    return graph.total_ms(tids) / count


def test_attribution_total_matches_e1_charlotte_latency():
    base = _baseline()["E1"]["lynx_rpc0_ms"]
    assert _per_rpc_total("charlotte", 5) == pytest.approx(base, rel=0.05)


def test_attribution_total_matches_e4_soda_latency():
    base = _baseline()["E4"]["soda_rpc0_ms"]
    assert _per_rpc_total("soda", 3) == pytest.approx(base, rel=0.05)


def test_attribution_total_matches_e5_chrysalis_latency():
    base = _baseline()["E5"]["lynx_rpc0_ms"]
    assert _per_rpc_total("chrysalis", 5) == pytest.approx(base, rel=0.05)


def test_e13_charlotte_runtime_layer_cost_is_strictly_highest():
    """The PR's headline machine-checked claim (figure 2, §6): at full
    counts Charlotte's high-level primitives force strictly more
    runtime-layer critical-path milliseconds per RPC than SODA's or
    Chrysalis's low-level primitives do."""
    from repro.experiments import experiment

    e13 = experiment("E13").measure(0, False)
    assert e13["charlotte_runtime_ms"] > e13["soda_runtime_ms"]
    assert e13["charlotte_runtime_ms"] > e13["chrysalis_runtime_ms"]
    for kind in KINDS:
        parts = sum(e13[f"{kind}_{layer}_ms"]
                    for layer in ("runtime", "kernel", "network", "app"))
        assert parts == pytest.approx(e13[f"{kind}_total_ms"])
        assert 0.0 < e13[f"{kind}_runtime_share"] < 1.0
