"""Unit tests for the discrete-event engine."""

from typing import NamedTuple

import pytest

from repro.sim.backends import make_engine, registered_sim_backends
from repro.sim.engine import Engine, EngineError


def test_events_fire_in_time_order():
    eng = Engine()
    order = []
    eng.schedule(3.0, order.append, "c")
    eng.schedule(1.0, order.append, "a")
    eng.schedule(2.0, order.append, "b")
    eng.run()
    assert order == ["a", "b", "c"]
    assert eng.now == 3.0


def test_same_instant_events_fire_fifo():
    eng = Engine()
    order = []
    for i in range(10):
        eng.schedule(5.0, order.append, i)
    eng.run()
    assert order == list(range(10))


def test_zero_delay_runs_after_pending_same_instant():
    eng = Engine()
    order = []

    def first():
        order.append("first")
        eng.schedule(0.0, order.append, "third")

    eng.schedule(0.0, first)
    eng.schedule(0.0, order.append, "second")
    eng.run()
    assert order == ["first", "second", "third"]


def test_clock_does_not_go_backwards():
    eng = Engine()
    eng.schedule(10.0, lambda: None)
    eng.run()
    with pytest.raises(EngineError):
        eng.schedule_at(5.0, lambda: None)


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(EngineError):
        eng.schedule(-1.0, lambda: None)


def test_cancel_prevents_firing():
    eng = Engine()
    fired = []
    ev = eng.schedule(1.0, fired.append, "x")
    eng.schedule(2.0, fired.append, "y")
    ev.cancel()
    eng.run()
    assert fired == ["y"]


def test_cancel_is_idempotent():
    eng = Engine()
    ev = eng.schedule(1.0, lambda: None)
    ev.cancel()
    ev.cancel()
    eng.run()
    assert eng.events_fired == 0


def test_run_until_is_inclusive_and_advances_clock():
    eng = Engine()
    fired = []
    eng.schedule(1.0, fired.append, 1)
    eng.schedule(2.0, fired.append, 2)
    eng.schedule(3.0, fired.append, 3)
    eng.run(until=2.0)
    assert fired == [1, 2]
    assert eng.now == 2.0
    eng.run()
    assert fired == [1, 2, 3]


def test_run_until_with_empty_heap_keeps_clock():
    """Quiescence leaves the clock at the last event: `now` reads as
    the workload's true duration, not the (arbitrary) budget."""
    eng = Engine()
    eng.run(until=42.0)
    assert eng.now == 0.0
    eng.schedule(5.0, lambda: None)
    eng.run(until=42.0)
    assert eng.now == 5.0


def test_run_max_events():
    eng = Engine()
    fired = []
    for i in range(5):
        eng.schedule(float(i), fired.append, i)
    n = eng.run(max_events=3)
    assert n == 3
    assert fired == [0, 1, 2]


def test_events_scheduled_during_run_are_honoured():
    eng = Engine()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 4:
            eng.schedule(1.0, chain, n + 1)

    eng.schedule(0.0, chain, 0)
    eng.run()
    assert seen == [0, 1, 2, 3, 4]
    assert eng.now == 4.0


def test_pending_counts_only_uncancelled():
    eng = Engine()
    ev1 = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    ev1.cancel()
    assert eng.pending == 1


def test_determinism_across_identical_runs():
    def build_and_run():
        eng = Engine()
        log = []
        for i in range(50):
            eng.schedule((i * 7) % 13 + 0.5, log.append, i)
        eng.run()
        return log

    assert build_and_run() == build_and_run()


# ----------------------------------------------------------------------
# bare `run()` against bounded `run(...)`: two loops in PR 6, one
# (`Engine._drain`) since PR 12 (docs/PERFORMANCE.md §2.1)
# ----------------------------------------------------------------------
def test_fast_path_matches_general_loop_exactly():
    """`run()` with no stop condition must be observationally
    identical to `run(max_events=huge)`: same firing order, clock,
    events_fired."""

    def drive(run_kwargs):
        eng = Engine()
        fired = []

        def tick(label, depth):
            fired.append((eng.now, label))
            if depth:
                eng.schedule(1.5, tick, label, depth - 1)

        a = eng.schedule(2.0, tick, "a", 3)
        eng.schedule(1.0, tick, "b", 2)
        eng.schedule(1.0, tick, "c", 0)
        a.cancel()
        n = eng.run(**run_kwargs)
        return fired, eng.now, eng.events_fired, n

    fast = drive({})
    general = drive({"max_events": 10_000})
    assert fast == general


def test_fast_path_counts_events_fired_once():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    assert eng.run() == 2
    assert eng.events_fired == 2
    eng.schedule(1.0, lambda: None)
    assert eng.run() == 1
    assert eng.events_fired == 3


def test_fast_path_skips_cancelled_and_propagates_exceptions():
    eng = Engine()

    def boom():
        raise RuntimeError("boom")

    ok = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, boom)
    ok.cancel()
    with pytest.raises(RuntimeError):
        eng.run()
    # the count was still flushed on the way out
    assert eng.events_fired == 1
    assert eng.now == 2.0


# ----------------------------------------------------------------------
# engine semantics, on every registered backend at one shard and at
# four: one `Engine` class drains one queue, a k-way merge or lookahead
# windows, and the three must agree on everything a caller can observe
# ----------------------------------------------------------------------
LOOKAHEAD_MS = 0.5

backends = pytest.mark.parametrize(
    "backend, shards",
    [
        # the one-shard ids predate the shard-count parameter
        pytest.param(b, k, id=b if k == 1 else f"{b}-s{k}")
        for k in (1, 4)
        for b in registered_sim_backends()
    ],
)


def _engine(backend, shards, **kwargs):
    eng = make_engine(backend, shards=shards, lookahead_ms=LOOKAHEAD_MS, **kwargs)
    for s in range(shards):
        eng.bind_receiver(s, lambda key, *args: None)
    return eng


@backends
def test_schedule_and_defer_interleave_fifo(backend, shards):
    eng = _engine(backend, shards)
    order = []
    for i in range(0, 12, 3):
        eng.schedule(0.0, order.append, i)
        eng.defer(0.0, order.append, i + 1)
        eng.schedule(0.0, order.append, i + 2)
    eng.schedule_at(0.0, order.append, 12)
    eng.defer_on(0, 0.0, order.append, 13)
    eng.schedule_on(0, 0.0, order.append, 14)
    assert eng.run() == 15
    assert order == list(range(15))


@backends
def test_cancel_at_the_heap_head(backend, shards):
    eng = _engine(backend, shards)
    fired = []
    head = eng.schedule(1.0, fired.append, "head")
    also = eng.schedule(1.0, fired.append, "also")
    eng.defer(2.0, fired.append, "tail")
    assert eng.pending == 3
    head.cancel()
    head.cancel()  # idempotent
    also.cancel()
    assert eng.pending == 1
    assert eng._peek_time() == 2.0  # tombstones at the head are skipped
    assert eng.pending == 1
    assert eng.run() == 1
    assert fired == ["tail"]
    assert eng.events_fired == 1
    head.cancel()  # after the fact: still harmless
    assert eng.pending == 0 and eng._peek_time() is None


@backends
def test_run_until_clock_advance_cases(backend, shards):
    eng = _engine(backend, shards)
    fired = []
    for t in (1.0, 2.0, 5.0):
        eng.defer(t, fired.append, t)
    # inclusive, and a pending event beyond the bound: clock -> until
    assert eng.run(until=2.0) == 2
    assert fired == [1.0, 2.0] and eng.now == 2.0
    assert eng.run(until=3.5) == 0
    assert eng.now == 3.5
    # a bound behind the clock never moves it backwards
    assert eng.run(until=3.0) == 0
    assert eng.now == 3.5
    # the heap empties inside the bound: clock stays at the last event
    assert eng.run(until=100.0) == 1
    assert eng.now == 5.0


@backends
def test_max_events_is_exact_past_cancelled_heads(backend, shards):
    eng = _engine(backend, shards)
    fired = []
    handles = [eng.schedule(float(i), fired.append, i) for i in range(8)]
    for i in (0, 1, 4):
        handles[i].cancel()
    assert eng.run(max_events=0) == 0
    assert eng.run(max_events=2) == 2
    assert fired == [2, 3]
    assert eng.run(max_events=2) == 2
    assert fired == [2, 3, 5, 6]
    assert eng.run(until=100.0, max_events=5) == 1
    assert fired == [2, 3, 5, 6, 7]
    assert eng.events_fired == 5
    # the heap emptied inside the bound: the clock stays put
    assert eng.now == 7.0


@backends
@pytest.mark.parametrize("run_kwargs", ({}, {"until": 10.0, "max_events": 10}))
def test_raising_callback_still_counts(backend, shards, run_kwargs):
    eng = _engine(backend, shards)

    def boom():
        raise RuntimeError("boom")

    eng.defer(1.0, lambda: None)
    eng.defer(2.0, boom)
    eng.defer(3.0, lambda: None)
    with pytest.raises(RuntimeError):
        eng.run(**run_kwargs)
    assert eng.events_fired == 2
    assert eng.now == 2.0
    assert eng.run(**run_kwargs) == 1
    assert eng.events_fired == 3


@backends
def test_trace_hook_sees_deferred_entries_as_events(backend, shards):
    """A `schedule`, a `defer` and a `post` to the current shard, all
    landing on one instant, fire in the order they were called — the
    post through its bound receiver, on every backend and shard
    count. The name dates from the engine's trace hook, which watched
    these entries fire; the hook is gone, so callbacks and a receiver
    record the order instead."""
    eng = _engine(backend, shards)
    out = []
    eng.bind_receiver(0, lambda key, *args: out.append((eng.now, key, args)))
    eng.schedule(1.0, lambda: out.append((eng.now, "s")))
    eng.defer(1.0, out.append, (1.0, "d"))
    eng.post(0, 1.0, "p", 7)
    eng.schedule(1.0, out.append, (1.0, "s2"))
    assert eng.run() == 4
    assert out == [(1.0, "s"), (1.0, "d"), (1.0, "p", (7,)), (1.0, "s2")]
    assert eng.events_fired == 4 and eng.now == 1.0


@backends
def test_nan_delay_or_time_is_rejected(backend, shards):
    """`delay < 0` is False for NaN: an accepted NaN timestamp breaks
    the heap order of everything scheduled after it."""
    eng = _engine(backend, shards)
    nan = float("nan")
    for call in (
        lambda: eng.schedule(nan, print),
        lambda: eng.defer(nan, print),
        lambda: eng.schedule_on(0, nan, print),
        lambda: eng.defer_on(0, nan, print),
        lambda: eng.post(0, nan, "k"),
        lambda: eng.schedule_at(nan, print),
        lambda: eng.defer(-0.5, print),
        lambda: eng.defer_on(0, -0.5, print),
    ):
        with pytest.raises(EngineError):
            call()
    assert eng.pending == 0
    order = []
    for t in (2.0, 1.0, 0.5):
        eng.schedule(t, order.append, t)
    eng.run()
    assert order == [0.5, 1.0, 2.0]


def _chatter(eng, shards, log):
    """On every shard: chains, a cancellation, zero delays, `schedule`
    / `defer` mixed, placed with `schedule_on` / `defer_on`; each chain
    `post`s once to the next shard, whose receiver answers locally.
    ``log`` rows start with the shard that fired them.  Delays are
    offset per shard so no two shards' posts tie on arrival: a tie
    would be broken by which barrier flushed first."""

    def tick(shard, label, depth):
        log.append((shard, eng.now, label, depth))
        assert eng.now == eng.shard_now(shard)
        if depth:
            eng.defer(0.75 * depth, tick, shard, label, depth - 1)
            eng.schedule(0.0, log.append, (shard, eng.now, label, "soon"))
        if depth == 2:
            eng.post((shard + 1) % shards, 0.6 + 0.01 * shard, "hop", shard, label)

    def receiver(shard):
        def on_post(key, origin, label):
            log.append((shard, eng.now, key, origin, label))
            eng.defer(0.125, log.append, (shard, eng.now, label, "served"))

        return on_post

    for shard in range(shards):
        eng.bind_receiver(shard, receiver(shard))
        eng.bind_harvest(
            shard, lambda shard=shard: [row for row in log if row[0] == shard]
        )
        doomed = eng.schedule_on(shard, 0.5, log.append, (shard, "never"))
        for i, label in enumerate("abc"):
            eng.defer_on(shard, 1.0 + i % 2 + 0.03 * shard, tick, shard, label, 3)
        eng.defer_on(shard, 0.25, doomed.cancel)


class _Outcome(NamedTuple):
    """What a run leaves behind.  ``order`` is the global firing order;
    the rest survives a different interleaving of shards."""

    order: list
    by_shard: list  # per-shard logs, through `harvest` (forked workers too)
    clocks: list
    events_fired: int
    pending: int


def _drive(backend, shards, advance, **kwargs):
    eng = _engine(backend, shards, **kwargs)
    log = []
    _chatter(eng, shards, log)
    advance(eng)
    clocks = [eng.shard_now(s) for s in range(shards)]
    return _Outcome(log, eng.harvest(), clocks, eng.events_fired, eng.pending)


def _stepping(eng):
    while eng.step():
        pass


#: every way of advancing an engine to exhaustion, besides `step()`
RUN_FORMS = (
    lambda eng: eng.run(),
    lambda eng: eng.run(until=1e7, max_events=5_000_000),
    lambda eng: [eng.run(max_events=4) for _ in range(12 * eng.shards)],
    lambda eng: [eng.run(until=t) for t in (1.0, 2.5, 1e7)],
)


@backends
def test_every_run_form_fires_the_stepping_sequence(backend, shards):
    ref = _drive("global", shards, _stepping)
    assert (ref.events_fired, ref.pending) == (28 * shards, 0)
    if backend == "sharded-parallel":
        # advances in windows and refuses step(): a one-event run is
        # its single step
        def single(eng):
            while eng.run(max_events=1):
                pass
    else:
        single = _stepping
    windowed = backend == "sharded-parallel" and shards > 1
    if windowed:
        # windows interleave the shards differently from the global
        # order and give each its own clock; within a shard nothing
        # may move, and every other run form must reproduce run()
        own = _drive(backend, shards, RUN_FORMS[0])
        assert own.by_shard == ref.by_shard
        assert (own.events_fired, own.pending) == (ref.events_fired, 0)
        ref = own
    for advance in (single,) + RUN_FORMS:
        got = _drive(backend, shards, advance)
        assert got[1:] == ref[1:]
        assert windowed or got.order == ref.order


@pytest.mark.parametrize("until", (None, 3.0))
def test_forked_workers_fire_the_in_process_sequence(until):
    """`workers=2` against the in-process window loop, to exhaustion
    and stopped at a bound with work still pending.  (The parent of a
    forked run keeps no queues, so `pending` is not compared.)"""
    def advance(eng):
        assert eng.run(until=until) == eng.events_fired

    inproc = _drive("sharded-parallel", 4, advance)
    forked = _drive("sharded-parallel", 4, advance, workers=2)
    assert forked[1:4] == inproc[1:4]
    assert (inproc.pending > 0) == (until is not None)
