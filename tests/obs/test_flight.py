"""FlightRecorder: dump bounds, the alarm sites, dump schema,
round-trip."""

import json

import pytest

from repro.core.api import (
    BYTES,
    Operation,
    Proc,
    RecoveryExhausted,
    RecoveryPolicy,
    make_cluster,
)
from repro.obs.flight import (
    FLIGHT_SCHEMA,
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    describe_flight_dump,
    load_flight_dump,
)
from repro.sim.engine import Engine
from repro.sim.faults import FaultPlan
from repro.sim.metrics import MetricSet
from repro.sim.trace import TraceLog

ECHO = Operation("echo", (BYTES,), (BYTES,))


def _log(capacity=100_000):
    engine = Engine()
    return engine, TraceLog(engine, capacity)


def _ticks(path):
    return [ev.detail["i"] for ev in load_flight_dump(path)[2]]


def test_ring_is_bounded(tmp_path):
    engine, trace = _log()
    fr = FlightRecorder(trace, tmp_path, capacity=8)
    for i in range(50):
        trace.emit("a", "tick", i=i)
    header, _, _ = load_flight_dump(fr.dump())
    assert _ticks(fr.dumps[0]) == list(range(42, 50))
    assert (header["capacity"], header["events"]) == (8, 8)


def test_a_dump_holds_only_what_a_smaller_log_holds(tmp_path):
    """A dump is the log's tail: a `TraceLog` whose capacity is below
    the recorder's has already dropped the older events."""
    engine, trace = _log(capacity=5)
    fr = FlightRecorder(trace, tmp_path, capacity=8)
    for i in range(50):
        trace.emit("a", "tick", i=i)
    header, _, _ = load_flight_dump(fr.dump())
    assert _ticks(fr.dumps[0]) == list(range(45, 50))
    assert (header["capacity"], header["events"]) == (8, 5)


def test_a_dump_holds_events_recorded_before_the_recorder(tmp_path):
    engine, trace = _log()
    for i in range(3):
        trace.emit("a", "tick", i=i)
    fr = FlightRecorder(trace, tmp_path, capacity=8)
    trace.emit("a", "tick", i=3)
    assert _ticks(fr.dump()) == [0, 1, 2, 3]


def test_a_disabled_log_still_dumps_its_last_tail(tmp_path):
    """`alarm` records nothing on a disabled log, but still trips the
    recorder, which dumps what the log held when it was switched off."""
    engine, trace = _log()
    fr = FlightRecorder(trace, tmp_path)
    trace.emit("a", "tick", i=0)
    trace.enabled = False
    trace.emit("a", "tick", i=1)
    trace.alarm("a", "crash")
    assert [p.name for p in fr.dumps] == ["flight-000-crash.jsonl"]
    assert _ticks(fr.dumps[0]) == [0]


def test_trigger_event_dumps_automatically(tmp_path):
    engine, trace = _log()
    metrics = MetricSet()
    fr = FlightRecorder(trace, tmp_path, metrics=metrics, engine=engine,
                        kind="ideal", seed=3)
    trace.emit("a", "tick")
    trace.alarm("faults", "partition-entered", window=0)
    assert len(fr.dumps) == 1
    assert fr.dumps[0].name == "flight-000-partition-entered.jsonl"
    assert metrics.get("obs.flight_dumps") == 1
    header, snap, events = load_flight_dump(fr.dumps[0])
    assert header["schema"] == FLIGHT_SCHEMA
    assert header["version"] == FLIGHT_SCHEMA_VERSION
    assert header["reason"] == "partition-entered"
    assert header["kind"] == "ideal" and header["seed"] == 3
    assert [ev.event for ev in events] == ["tick", "partition-entered"]
    assert "counters" in snap


def test_max_dumps_caps_a_crash_storm(tmp_path):
    engine, trace = _log()
    fr = FlightRecorder(trace, tmp_path, max_dumps=2)
    for _ in range(10):
        trace.alarm("proc", "crash", mode="kill")
    assert len(fr.dumps) == 2
    assert len(list(tmp_path.glob("*.jsonl"))) == 2


class _Server(Proc):
    def main(self, ctx):
        (end,) = ctx.initial_links
        yield from ctx.register(ECHO)
        yield from ctx.open(end)
        inc = yield from ctx.wait_request((end,))
        yield from ctx.reply(inc, (inc.args[0],))


class _Client(Proc):
    def main(self, ctx):
        (end,) = ctx.initial_links
        try:
            yield from ctx.connect(end, ECHO, (b"x",))
        except RecoveryExhausted:
            pass


def _converse(out_dir, plan, policy=None):
    """One echo over an ideal cluster with ``plan`` installed, its
    flight recorder installed first; returns the recorder."""
    cluster = make_cluster("ideal", seed=1)
    fr = cluster.install_flight_recorder(out_dir)
    cluster.install_faults(plan)
    if policy is not None:
        cluster.install_recovery(policy)
    c = cluster.spawn(_Client(), "client")
    s = cluster.spawn(_Server(), "server")
    cluster.create_link(c, s)
    cluster.run_until_quiet(max_ms=1e6)
    return fr


def test_every_trigger_event_is_a_trigger(tmp_path):
    """Each site that raises an alarm dumps once, its trigger the
    dump's last event: a `FaultPlan` partition window opening (after
    the echo, and before the window heals) and a `RecoveryPolicy`
    running out on a network that drops everything.  The third site,
    `crash_process`, is `test_cluster_crash_triggers_installed_recorder`."""
    cases = {
        "partition-entered": _converse(
            tmp_path / "partition", FaultPlan().partition(500.0, 600.0)),
        "recovery-exhausted": _converse(
            tmp_path / "recovery", FaultPlan().drop(1.0),
            RecoveryPolicy(timeout_ms=40.0, max_retries=1)),
    }
    for trigger, fr in cases.items():
        assert len(fr.dumps) == 1, trigger
        header, _, events = load_flight_dump(fr.dumps[0])
        assert header["reason"] == trigger
        assert events[-1].event == trigger


def test_manual_dump_and_describe(tmp_path):
    engine, trace = _log()
    metrics = MetricSet()
    metrics.count("faults.dropped", 3)
    metrics.latency("rpc.roundtrip").record(2.5)
    fr = FlightRecorder(trace, tmp_path, metrics=metrics, engine=engine,
                        kind="soda", seed=0)
    trace.emit("client", "send", link=1)
    path = fr.dump()
    text = describe_flight_dump(path)
    assert "reason   manual" in text
    assert "kernel soda" in text
    assert "faults.dropped" in text
    assert "rpc.roundtrip" in text
    assert "send" in text


def test_load_rejects_foreign_files(tmp_path):
    p = tmp_path / "x.jsonl"
    p.write_text(json.dumps({"schema": "other", "version": 1}) + "\n")
    with pytest.raises(ValueError):
        load_flight_dump(p)
    p.write_text(json.dumps(
        {"schema": FLIGHT_SCHEMA, "version": 99}) + "\n")
    with pytest.raises(ValueError):
        load_flight_dump(p)
    p.write_text("")
    with pytest.raises(ValueError):
        load_flight_dump(p)


def test_cluster_crash_triggers_installed_recorder(tmp_path):
    from repro.core.api import Proc

    class Sleeper(Proc):
        def main(self, ctx):
            yield from ctx.delay(1000.0)

    cluster = make_cluster("ideal", seed=1)
    fr = cluster.install_flight_recorder(tmp_path)
    h = cluster.spawn(Sleeper(), "victim")
    cluster.engine.run(until=1.0)
    cluster.crash_process("victim")
    assert len(fr.dumps) == 1
    header, _, events = load_flight_dump(fr.dumps[0])
    assert header["reason"] == "crash"
    assert header["kind"] == "ideal"
    assert events[-1].event == "crash"
    assert events[-1].actor == "victim"


def test_same_seed_dumps_are_identical(tmp_path):
    def one(sub):
        engine = Engine()
        trace = TraceLog(engine)
        fr = FlightRecorder(trace, tmp_path / sub, seed=0, kind="t")
        for i in range(5):
            trace.emit("a", "tick", i=i)
        trace.alarm("a", "crash")
        return fr.dumps[0].read_text()

    assert one("a") == one("b")
