"""JSONL trace export: round-trips and schema stability."""

import json

import pytest

from repro.core.api import BYTES, Operation, Proc, make_cluster
from repro.sim.engine import Engine
from repro.sim.trace import TRACE_SCHEMA_VERSION, TraceEvent, TraceLog

ECHO = Operation("echo", (BYTES,), (BYTES,))


class _Server(Proc):
    def main(self, ctx):
        (end,) = ctx.initial_links
        yield from ctx.register(ECHO)
        yield from ctx.open(end)
        inc = yield from ctx.wait_request()
        yield from ctx.reply(inc, (inc.args[0],))


class _Client(Proc):
    def main(self, ctx):
        (end,) = ctx.initial_links
        yield from ctx.connect(end, ECHO, (b"x",))


def _run_cluster(kind="charlotte", **kw):
    cluster = make_cluster(kind, **kw)
    s = cluster.spawn(_Server(), "server")
    c = cluster.spawn(_Client(), "client")
    cluster.create_link(s, c)
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished
    return cluster


def test_event_record_round_trip():
    eng = Engine()
    log = TraceLog(eng)
    log.emit("a", "send", link=1, kind="request", peer="b")
    rec = log.events[0].to_record()
    assert rec == {"t": 0.0, "actor": "a", "event": "send",
                   "detail": {"link": 1, "kind": "request", "peer": "b"}}
    assert TraceEvent.from_record(json.loads(log.events[0].to_json())) \
        == log.events[0]


def test_to_jsonl_header_carries_schema_version():
    eng = Engine()
    log = TraceLog(eng, capacity=77)
    log.emit("a", "e")
    lines = log.to_jsonl().splitlines()
    head = json.loads(lines[0])
    assert head["schema"] == "repro.trace"
    assert head["version"] == TRACE_SCHEMA_VERSION
    assert head["capacity"] == 77
    assert len(lines) == 2


def test_unknown_schema_version_rejected():
    """Only the current version loads: no v1 stream was ever archived,
    so a v1 header is as unknown as one from the future."""
    for version in (999, 1):
        bad = "\n".join([
            json.dumps({"schema": "repro.trace", "version": version}),
            json.dumps({"t": 1.5, "actor": "a", "event": "send",
                        "detail": {"link": 1}}),
        ])
        with pytest.raises(ValueError):
            TraceLog.from_jsonl(bad)


def test_version2_span_events_round_trip():
    """v2 round-trip: span payloads survive export + reload, and
    span-less events still serialise without a ``span`` key."""
    eng = Engine()
    log = TraceLog(eng)
    payload = {"trace": 1, "id": 2, "parent": None, "layer": "kernel",
               "name": "transfer", "host": "a", "t0": 0.0, "t1": 3.5}
    log.emit("a", "span", span=payload)
    log.emit("a", "send", link=1)
    rec = json.loads(log.events[0].to_json())
    assert rec["span"] == payload
    assert "span" not in json.loads(log.events[1].to_json())
    head = json.loads(log.to_jsonl().splitlines()[0])
    assert head["version"] == TRACE_SCHEMA_VERSION == 2
    replayed = TraceLog.from_jsonl(log.to_jsonl())
    assert replayed.events[0].span == payload
    assert replayed.events[1].span is None
    assert [e.to_record() for e in replayed.events] \
        == [e.to_record() for e in log.events]


def test_round_trip_renders_identical_sequence_chart():
    """The satellite-task guarantee: export + reload reproduces the
    same figure-2-style chart as the live log."""
    cluster = _run_cluster("charlotte")
    replayed = TraceLog.from_jsonl(cluster.trace.to_jsonl())
    for events in (None, {"packet"}, {"send"}):
        live = cluster.trace.sequence_chart(
            ["server", "client"], events=events, link=1
        )
        offline = replayed.sequence_chart(
            ["server", "client"], events=events, link=1
        )
        assert live == offline


def test_detached_log_refuses_emit():
    replayed = TraceLog.from_jsonl("")
    with pytest.raises(ValueError):
        replayed.emit("a", "e")


def test_non_json_detail_degrades_to_repr():
    eng = Engine()
    log = TraceLog(eng)
    log.emit("a", "e", obj={1, 2})
    rec = json.loads(log.events[0].to_json())
    assert "1" in rec["detail"]["obj"]  # repr of the set
