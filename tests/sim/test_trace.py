"""Tests for the trace log and sequence charts."""

import json

import pytest

from repro.core.api import BYTES, LINK, Operation, Proc, make_cluster
from repro.core.links import EndRef
from repro.core.wire import MsgKind, WireMessage
from repro.obs.causal import SpanContext
from repro.sim.engine import Engine
from repro.sim.trace import TraceEvent, TraceLog

ECHO = Operation("echo", (BYTES,), (BYTES,))


def _counting_build(calls):
    def build(time, actor, event):
        calls.append(event)
        return TraceEvent(time, actor, event, {})
    return build


def _select(log, event):
    return [ev for ev in log.events if ev.event == event]


def test_emit_and_read_back():
    eng = Engine()
    log = TraceLog(eng)
    log.emit("a", "send", link=1, kind="request")
    eng.now = 5.0
    log.emit("b", "consume", link=1, kind="request")
    log.emit("a", "send", link=2, kind="reply")
    assert len(log.events) == 3
    assert [e.actor for e in _select(log, "send")] == ["a", "a"]
    assert [e.time for e in log.events if e.detail["link"] == 1] == [0.0, 5.0]
    assert _select(log, "consume")[0].detail["link"] == 1


def test_capacity_bound():
    eng = Engine()
    log = TraceLog(eng, capacity=5)
    for i in range(20):
        log.emit("a", "e", i=i)
    assert len(log.events) == 5
    assert log.events[0].detail["i"] == 15


def test_disabled_log_records_nothing():
    """Catches: the ``enabled`` test moved after the row is stored or
    the event is built."""
    calls = []
    log = TraceLog(Engine())
    log.enabled = False
    log.emit("a", "e")
    log.alarm("a", "crash")
    log.defer(_counting_build(calls), "a", "e")
    assert (len(log.events), calls) == (0, [])


def test_tail_builds_only_the_newest_rows():
    """Catches: `tail` (and so `dump` and a flight dump) building every
    row to keep a few, or returning them newest first."""
    calls = []
    log = TraceLog(Engine(), capacity=4)
    for i in range(6):
        log.defer(_counting_build(calls), "a", f"e{i}")
    assert [ev.event for ev in log.tail(2)] == ["e4", "e5"]
    assert sorted(calls) == ["e4", "e5"]
    assert [ev.event for ev in log.tail(10)] == ["e2", "e3", "e4", "e5"]
    assert log.tail(0) == []
    assert log.dump(limit=1).split()[-2:] == ["a", "e5"]


def test_an_alarm_without_a_recorder_is_an_emit():
    log = TraceLog(Engine())
    log.alarm("victim", "crash", mode="kill")
    assert list(log.events) == [
        TraceEvent(0.0, "victim", "crash", {"mode": "kill"})
    ]


def test_dump_is_readable():
    eng = Engine()
    log = TraceLog(eng)
    log.emit("proc-1", "send", link=3, kind="request")
    text = log.dump()
    assert "proc-1" in text and "send" in text and "link=3" in text


def test_dump_aligns_long_actors_and_big_timestamps():
    """Formatting regression: actor names longer than the 12-char
    default and timestamps of 6+ digits must not shear the columns —
    every field starts at the same offset on every line."""
    eng = Engine()
    log = TraceLog(eng)
    log.emit("a", "send", link=1)
    eng.now = 123456.789  # 10-char stamp, wider than the default field
    log.emit("a-very-long-process-name", "send", link=2)
    log.emit("b", "an-event-name-past-sixteen", link=3)
    lines = log.dump().splitlines()
    assert len(lines) == 3
    closes = {line.index("]") for line in lines}
    assert len(closes) == 1  # time column closes at one offset
    details = {line.index("link=") for line in lines}
    assert len(details) == 1  # detail column starts at one offset
    assert "[123456.789]" in log.dump()


def test_describe_never_truncates_wide_fields():
    eng = Engine()
    eng.now = 1234567.125
    log = TraceLog(eng)
    log.emit("name-longer-than-twelve-chars", "event-longer-than-sixteen",
             k=1)
    line = log.events[0].describe()
    assert "name-longer-than-twelve-chars" in line
    assert "event-longer-than-sixteen" in line
    assert "[1234567.125]" in line
    assert "k=1" in line
    # narrow content still pads out to the default column widths
    short = TraceLog(Engine())
    short.emit("a", "e", k=1)
    assert short.events[0].describe() \
        == f"[{'0.000':>10}] {'a':<12} {'e':<16} k=1"


def test_sequence_chart_draws_arrows():
    eng = Engine()
    log = TraceLog(eng)
    log.emit("a", "send", peer="b", kind="request", link=1)
    log.emit("b", "send", peer="a", kind="reply", link=1)
    chart = log.sequence_chart(["a", "b"], width=20)
    lines = chart.splitlines()
    assert lines[0].startswith("a")
    req_line = next(l for l in lines if "request" in l)
    rep_line = next(l for l in lines if "reply" in l)
    assert req_line.strip().endswith(">") or ">" in req_line
    assert "<" in rep_line


def test_sequence_chart_filters_by_link():
    eng = Engine()
    log = TraceLog(eng)
    log.emit("a", "send", peer="b", kind="request", link=1)
    log.emit("a", "send", peer="b", kind="noise", link=2)
    chart = log.sequence_chart(["a", "b"], link=1)
    assert "request" in chart and "noise" not in chart


@pytest.mark.parametrize("kind", ("charlotte", "soda", "chrysalis"))
def test_clusters_record_rpc_traces(kind):
    class Server(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.register(ECHO)
            yield from ctx.open(end)
            inc = yield from ctx.wait_request()
            yield from ctx.reply(inc, (inc.args[0],))

    class Client(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.connect(end, ECHO, (b"x",))

    cluster = make_cluster(kind)
    s = cluster.spawn(Server(), "server")
    c = cluster.spawn(Client(), "client")
    cluster.create_link(s, c)
    cluster.run_until_quiet(max_ms=1e6)
    sends = _select(cluster.trace, "send")
    consumes = _select(cluster.trace, "consume")
    kinds = {e.detail.get("kind") for e in sends}
    assert {"request", "reply"} <= kinds
    assert len(consumes) >= 2  # request consumed + reply consumed


def test_charlotte_packets_traced_for_figure2():
    """The figure-2 regeneration path: packet-level events exist and
    include the goahead and enc packets."""
    GIVE2 = Operation("give2", (LINK, LINK), ())

    class Giver(Proc):
        def main(self, ctx):
            (to_b,) = ctx.initial_links
            ends = []
            for _ in range(2):
                mine, theirs = yield from ctx.new_link()
                ends.append(theirs)
            yield from ctx.connect(to_b, GIVE2, tuple(ends))

    class Taker(Proc):
        def main(self, ctx):
            (from_a,) = ctx.initial_links
            yield from ctx.register(GIVE2)
            yield from ctx.open(from_a)
            inc = yield from ctx.wait_request()
            yield from ctx.reply(inc, ())

    cluster = make_cluster("charlotte")
    a = cluster.spawn(Giver(), "giver")
    b = cluster.spawn(Taker(), "taker")
    cluster.create_link(a, b)
    cluster.run_until_quiet(max_ms=1e6)
    packets = [e.detail["kind"] for e in _select(cluster.trace, "packet")
               if e.detail.get("link") == 1]
    assert packets == ["request", "goahead", "enc", "reply"]


# ----------------------------------------------------------------------
# `TraceEvent` is a tuple value; its export is byte-for-byte the
# parent's (lines below are taken from a seed-3 Charlotte run there)
# ----------------------------------------------------------------------
GOLDEN_PLAIN = (
    '{"actor": "client", "detail": {"bytes": 32, "kind": "request", '
    '"link": 1, "op": "ping", "peer": "server", "seq": 1}, '
    '"event": "send", "t": 0.503}'
)
GOLDEN_SPAN = (
    '{"actor": "client", "detail": {}, "event": "span", "span": '
    '{"host": "client", "id": 3, "layer": "kernel", "name": '
    '"transfer:request", "parent": 1, "t0": 0.503, "t1": 26.7574, '
    '"trace": 1}, "t": 0.503}'
)


@pytest.mark.parametrize("line", (GOLDEN_PLAIN, GOLDEN_SPAN))
def test_a_trace_event_round_trips_byte_for_byte(line):
    ev = TraceEvent.from_record(json.loads(line))
    assert ev.to_json() == line
    assert TraceEvent.from_record(ev.to_record()) == ev
    assert ("span" in ev.to_record()) == (ev.span is not None)


def test_a_seeded_run_still_exports_the_golden_lines():
    from repro.workloads.rpc import run_rpc_workload

    lines = run_rpc_workload(
        "charlotte", 0, count=2, seed=3
    ).trace.to_jsonl().splitlines()
    assert GOLDEN_PLAIN in lines
    assert GOLDEN_SPAN in lines


def test_a_trace_event_is_an_immutable_five_field_value():
    ev = TraceEvent(1.5, "a", "send", {"link": 1})
    assert ev.span is None
    assert ev == TraceEvent(time=1.5, actor="a", event="send",
                            detail={"link": 1}, span=None)
    assert TraceEvent._fields == ("time", "actor", "event", "detail", "span")
    assert repr(ev) == ("TraceEvent(time=1.5, actor='a', event='send', "
                        "detail={'link': 1}, span=None)")
    with pytest.raises(AttributeError):
        ev.time = 2.0


def test_record_stores_the_mapping_it_is_given():
    """`emit` builds a dict from its keywords; `record` is for a caller
    that already has one — no second copy is taken."""
    eng = Engine()
    log = TraceLog(eng)
    detail = {"link": 1, "kind": "request"}
    log.record("a", "send", detail)
    log.emit("a", "send", link=1, kind="request")
    by_record, by_emit = log.events
    assert by_record.detail is detail
    assert by_record == by_emit
    log.enabled = False
    log.record("a", "send", detail)
    assert len(log.events) == 2
    with pytest.raises(ValueError):
        TraceLog(None).record("a", "send", detail)


# ----------------------------------------------------------------------
# the deferred log: a record is one ``(build, time, *args)`` row until
# something reads it.  Each test names the mutation of `TraceLog.defer`,
# the `events` view or `ClusterBase.trace_msg` it catches.
# ----------------------------------------------------------------------
def test_len_of_events_builds_nothing_and_every_read_builds_afresh():
    """Catches: `len` building the records (`perf/passes.py` reads it
    after the clock stops, so the work would only move off the clock),
    and records cached in place on a first read (the log would then hold
    both the rows and the events)."""
    calls = []
    log = TraceLog(Engine())
    for i in range(3):
        log.defer(_counting_build(calls), "a", f"e{i}")
    assert len(log.events) == 3
    assert calls == []
    assert [ev.event for ev in log.events] == ["e0", "e1", "e2"]
    assert log.events[-1].event == "e2"
    assert calls == ["e0", "e1", "e2", "e2"]
    assert log.events[0] == log.events[0]
    assert log.events[0] is not log.events[0]


def _message_cluster():
    cluster = make_cluster("ideal")
    link = cluster.registry.alloc_link("client", "server")
    return cluster, EndRef(link, 0), EndRef(link, 1)


def test_deferred_rows_read_back_as_the_eager_records():
    """Catches: a builder that drops or renames a field, or a row
    stamped with the wrong time: a log filled through `trace_msg` and
    `SpanTracker` exports byte for byte what `record` stores."""
    cluster, near, _ = _message_cluster()
    eager = TraceLog(cluster.engine)
    root = cluster.spans.new_trace()
    msg = WireMessage(kind=MsgKind.REQUEST, seq=1, opname="ping",
                      payload=b"x" * 9, span=root)
    cluster.engine.now = 0.5
    cluster.trace_msg("client", "send", near, msg, "ping")
    eager.record("client", "send", {
        "link": near.link, "op": "ping", "kind": "request", "seq": 1,
        "bytes": msg.wire_size, "peer": "server",
    })
    cluster.engine.now = 2.25
    cluster.spans.emit(root, "kernel", "transfer", "client", 0.5, 2.0)
    cluster.spans.emit_root(root, "connect:ping", "client", 0.5, 3.0)
    eager.record("client", "span", {}, {
        "trace": 1, "id": 2, "parent": 1, "layer": "kernel",
        "name": "transfer", "host": "client", "t0": 0.5, "t1": 2.0,
    })
    eager.record("client", "span", {}, {
        "trace": 1, "id": 1, "parent": None, "layer": "rpc",
        "name": "connect:ping", "host": "client", "t0": 0.5, "t1": 3.0,
    })
    assert len(cluster.trace.events) == 3
    assert cluster.trace.to_jsonl() == eager.to_jsonl()
    assert list(cluster.trace.events) == list(eager.events)


def test_a_message_row_holds_values_taken_at_record_time():
    """Catches: a row that keeps ``ref`` or ``msg`` and reads the peer,
    kind, seq or size when the log is read — a record made before the
    far end moved would then name its new owner."""
    cluster, near, far = _message_cluster()
    msg = WireMessage(kind=MsgKind.REQUEST, seq=7, opname="ping")
    size = msg.wire_size
    cluster.trace_msg("client", "send", near, msg, "ping")
    cluster.registry.record_in_transit(far)
    cluster.trace_msg("client", "consume", near, msg)
    cluster.registry.record_adopted(far, "elsewhere")
    cluster.trace_msg("client", "send", near, msg)
    msg.kind, msg.seq, msg.payload = MsgKind.REPLY, 8, b"longer"
    sent, in_transit, moved = cluster.trace.events
    assert sent.detail == {"link": near.link, "op": "ping",
                           "kind": "request", "seq": 7, "bytes": size,
                           "peer": "server"}
    # no op given, and no owner while the far end is in transit
    assert in_transit.detail == {"link": near.link, "kind": "request",
                                 "seq": 7, "bytes": size}
    assert moved.detail["peer"] == "elsewhere"


def test_an_unsampled_message_leaves_no_row():
    """Catches: the sampling test moved after the row is stored."""
    cluster, near, _ = _message_cluster()
    msg = WireMessage(kind=MsgKind.REQUEST, seq=1,
                      span=SpanContext(1, 1, None, sampled=False))
    cluster.trace_msg("client", "send", near, msg, "ping")
    assert len(cluster.trace.events) == 0


def test_a_detached_log_refuses_records_and_still_round_trips():
    """Catches: `from_jsonl` storing built events where the view expects
    rows, or a detached log accepting a deferred record."""
    from repro.workloads.rpc import run_rpc_workload

    text = run_rpc_workload("soda", 0, count=2, seed=3).trace.to_jsonl()
    replayed = TraceLog.from_jsonl(text)
    assert replayed.to_jsonl() == text
    with pytest.raises(ValueError):
        replayed.defer(TraceEvent, "a", "e", {}, None)
    with pytest.raises(ValueError):
        replayed.emit("a", "e")
    assert replayed.to_jsonl() == text
