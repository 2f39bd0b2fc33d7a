"""`repro.core.recovery.TimerWheel`: unit semantics of the batched
timer buckets, and — the load-bearing guarantee — end-to-end
equivalence with one engine event per timer under seeded fault plans,
the engine itself standing in for the wheel.  The wheel is a pure
scheduling-cost optimization; if any simulated outcome shifts, it
stopped being one."""

import gc

import pytest

from repro.core.recovery import RecoveryPolicy, TimerWheel
from repro.sim.engine import Engine, EngineError
from repro.workloads.chaos import (
    chaos_policy,
    lossy_plan,
    partitioned_plan,
    run_chaos_workload,
)

RUNTIME_PLACEMENT_KINDS = ("soda", "chrysalis", "ideal")


# ----------------------------------------------------------------------
# unit: bucket batching, firing order, cancellation
# ----------------------------------------------------------------------
def test_same_deadline_timers_share_one_engine_event():
    eng = Engine()
    wheel = TimerWheel(eng)
    fired = []
    for i in range(5):
        wheel.schedule(10.0, fired.append, i)
    assert eng.pending == 1  # the batch, not five heap entries
    eng.run()
    assert fired == [0, 1, 2, 3, 4]  # insertion order == (time, seq)
    assert eng.pending == 0


def test_distinct_deadlines_fire_in_time_order():
    eng = Engine()
    wheel = TimerWheel(eng)
    fired = []
    wheel.schedule(20.0, fired.append, "late")
    wheel.schedule(10.0, fired.append, "early")
    eng.run()
    assert fired == ["early", "late"]
    assert eng.now == 20.0


def test_cancel_is_o1_and_idempotent():
    eng = Engine()
    wheel = TimerWheel(eng)
    fired = []
    keep = wheel.schedule(5.0, fired.append, "keep")
    drop = wheel.schedule(5.0, fired.append, "drop")
    drop.cancel()
    drop.cancel()
    assert eng.pending == 1  # the bucket lives on for ``keep``
    eng.run()
    assert fired == ["keep"]
    assert keep.cancelled  # spent after firing


def test_cancelling_whole_bucket_releases_the_engine_event():
    eng = Engine()
    wheel = TimerWheel(eng)
    handles = [wheel.schedule(5.0, lambda: None) for _ in range(3)]
    for h in handles:
        h.cancel()
    assert eng.pending == 0  # the shared event was tombstoned
    assert eng.run() == 0


def test_callback_may_rearm_at_the_same_instant():
    eng = Engine()
    wheel = TimerWheel(eng)
    fired = []

    def first():
        fired.append("first")
        wheel.schedule(0.0, fired.append, "rearmed")

    wheel.schedule(5.0, first)
    eng.run()
    assert fired == ["first", "rearmed"]


def test_callback_may_cancel_a_sibling_in_the_same_bucket():
    eng = Engine()
    wheel = TimerWheel(eng)
    fired = []
    handles = {}

    def killer():
        fired.append("killer")
        handles["victim"].cancel()

    wheel.schedule(5.0, killer)
    handles["victim"] = wheel.schedule(5.0, fired.append, "victim")
    eng.run()
    assert fired == ["killer"]


def _spend_a_bucket(cancelled: int) -> None:
    eng = Engine()
    wheel = TimerWheel(eng)
    handles = [wheel.schedule(5.0, lambda: None) for _ in range(3)]
    for handle in handles[:cancelled]:
        handle.cancel()
    eng.run()


@pytest.mark.parametrize(
    "cancelled", (0, 1, 3), ids=("fired", "partly-cancelled", "cancelled")
)
def test_a_spent_bucket_leaves_no_cyclic_garbage(cancelled):
    """Fired, partly and fully cancelled buckets are freed by reference
    counting alone.  Catches a bucket that keeps its engine event
    (``Event.args`` is the bucket) or its handles (each points back at
    the bucket) once it has fired or been released."""
    gc.collect()
    gc.disable()
    try:
        _spend_a_bucket(cancelled)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_negative_delay_raises_like_the_engine():
    wheel = TimerWheel(Engine())
    with pytest.raises(EngineError):
        wheel.schedule(-1.0, lambda: None)


# ----------------------------------------------------------------------
# equivalence: wheel vs per-timer heap pushes under seeded fault plans
# ----------------------------------------------------------------------
def _engine_timers(monkeypatch):
    """Make every runtime arm each recovery timer as its own engine
    event: the engine's ``schedule`` / ``Event.cancel`` are the surface
    the runtime asks of its wheel."""
    import repro.core.runtime as runtime_mod

    monkeypatch.setattr(runtime_mod, "TimerWheel", lambda engine: engine)


def _outcome(result):
    return (
        result.completed,
        result.failed,
        result.failed_over,
        result.rtts,
        result.elapsed_ms,
        result.counters,
    )


@pytest.mark.parametrize("kind", RUNTIME_PLACEMENT_KINDS)
def test_partition_outcome_identical_with_and_without_wheel(
    kind, monkeypatch
):
    kw = dict(count=12, seed=7, plan=partitioned_plan(quick=True),
              policy=chaos_policy())
    wheel = run_chaos_workload(kind, **kw)
    _engine_timers(monkeypatch)
    heap = run_chaos_workload(kind, **kw)
    assert _outcome(wheel) == _outcome(heap)


@pytest.mark.parametrize("seed", (0, 3))
def test_lossy_outcome_identical_with_and_without_wheel(
    seed, monkeypatch
):
    kw = dict(count=10, seed=seed, plan=lossy_plan(),
              policy=RecoveryPolicy(timeout_ms=25.0, max_retries=4,
                                    backoff_factor=2.0, jitter_frac=0.1))
    wheel = run_chaos_workload("soda", **kw)
    _engine_timers(monkeypatch)
    heap = run_chaos_workload("soda", **kw)
    assert _outcome(wheel) == _outcome(heap)
