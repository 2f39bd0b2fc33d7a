"""Unit coverage for the fault plane itself (`repro.sim.faults`):
plan builders, partition geometry, verdict determinism and the
counters — independent of any kernel."""

import dataclasses

import pytest

from repro.sim.engine import Engine
from repro.sim.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    PartitionWindow,
)
from repro.sim.metrics import MetricSet
from repro.sim.rng import SimRandom
from repro.sim.trace import TraceLog


def make_injector(plan, seed=0):
    engine = Engine()
    metrics = MetricSet()
    inj = FaultInjector(engine, plan, SimRandom(seed), metrics,
                        TraceLog(engine))
    return engine, metrics, inj


# the plan --------------------------------------------------------------


def test_plan_defaults_are_healthy_and_empty():
    plan = FaultPlan()
    assert plan.spec.healthy
    assert plan.partitions == ()
    assert FaultSpec().healthy


def test_builders_return_new_frozen_plans():
    """A plan is a value: one plan may be installed into many clusters
    (the chaos pass shares one across four), so a builder must never
    change the plan it is called on."""
    base = FaultPlan()
    plan = base.drop(0.1).duplicate(0.2).delay(5.0).partition(1.0, 2.0)
    assert plan is not base
    assert (plan.spec.drop, plan.spec.dup, plan.spec.delay_ms) == (0.1, 0.2, 5.0)
    assert len(plan.partitions) == 1
    assert base == FaultPlan()
    assert base.spec.healthy and base.partitions == ()
    assert [f.name for f in dataclasses.fields(FaultPlan)] == [
        "spec", "partitions"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.spec = FaultSpec()


def test_partition_builder_freezes_groups():
    plan = FaultPlan().partition(10.0, 20.0, a=("x",), b=("y", "z"))
    (win,) = plan.partitions
    assert (win.t0, win.t1) == (10.0, 20.0)
    assert win.a == frozenset({"x"})
    assert win.b == frozenset({"y", "z"})


# partition geometry ----------------------------------------------------


def test_window_severs_inside_half_open_interval_only():
    win = PartitionWindow(10.0, 20.0, frozenset({"a"}), frozenset({"b"}))
    assert not win.severs("a", "b", 9.99)
    assert win.severs("a", "b", 10.0)
    assert win.severs("b", "a", 15.0)  # symmetric
    assert not win.severs("a", "b", 20.0)  # t1 excluded


def test_window_group_membership():
    win = PartitionWindow(0.0, 100.0, frozenset({"a"}), frozenset({"b"}))
    assert not win.severs("a", "c", 50.0)  # c in neither group
    assert not win.severs("c", "b", 50.0)
    assert not win.severs("a", None, 50.0)  # unknown destination


def test_global_window_severs_everyone():
    win = PartitionWindow(0.0, 100.0)  # a=b=None: everyone
    assert win.severs("anyone", "anywhere", 50.0)
    assert win.severs("p", None, 50.0)


def test_same_process_is_never_partitioned():
    plan = FaultPlan().partition(0.0, 100.0)  # global sever
    _, _, inj = make_injector(plan)
    assert not inj.partitioned("p", "p")
    assert inj.partitioned("p", "q")
    v = inj.judge("p", "p", 1, "request")
    assert not v.drop


# verdicts --------------------------------------------------------------


def test_healthy_plan_judges_clean_without_consuming_randomness():
    _, metrics, inj = make_injector(FaultPlan())
    for _ in range(5):
        v = inj.judge("a", "b", 1, "request")
        assert not (v.drop or v.dup or v.delay_ms)
    assert metrics.counters("faults.") == {}


def test_partition_drop_is_counted_and_flagged():
    plan = FaultPlan().partition(0.0, 50.0, a=("a",), b=("b",))
    _, metrics, inj = make_injector(plan)
    assert inj.judge("a", "b", 1, "request").drop
    assert metrics.get("faults.partition_dropped") == 1
    assert metrics.get("faults.dropped") == 0  # random-loss counter


def test_certain_drop_and_certain_dup():
    _, metrics, inj = make_injector(FaultPlan().drop(1.0))
    assert inj.judge("a", "b", 1, "request").drop
    assert metrics.get("faults.dropped") == 1

    _, metrics, inj = make_injector(FaultPlan().duplicate(1.0))
    v = inj.judge("a", "b", 1, "request")
    assert v.dup and not v.drop
    assert metrics.get("faults.duplicated") == 1


def test_delay_draw_is_bounded_and_counted():
    _, metrics, inj = make_injector(FaultPlan().delay(10.0), seed=5)
    draws = [inj.judge("a", "b", 1, "request").delay_ms
             for _ in range(20)]
    assert all(0.0 <= d <= 10.0 for d in draws)
    assert any(d > 0.0 for d in draws)
    assert metrics.get("faults.delayed") == sum(1 for d in draws if d > 0)


def test_judgements_replay_exactly_from_the_seed():
    plan = FaultPlan().drop(0.3).duplicate(0.3).delay(8.0)

    def verdicts(seed):
        _, _, inj = make_injector(plan, seed=seed)
        return [
            (v.drop, v.dup, v.delay_ms)
            for v in (inj.judge("a", "b", 1, "request")
                      for _ in range(30))
        ]

    assert verdicts(4) == verdicts(4)
    assert verdicts(4) != verdicts(5)


def test_links_draw_from_independent_streams():
    """Adding traffic on one link must not perturb another's verdicts."""
    plan = FaultPlan().drop(0.5)

    def link_one_fates(interleave):
        _, _, inj = make_injector(plan, seed=9)
        fates = []
        for _ in range(20):
            if interleave:
                inj.judge("a", "b", 2, "request")  # extra link-2 noise
            fates.append(inj.judge("a", "b", 1, "request").drop)
        return fates

    assert link_one_fates(False) == link_one_fates(True)


def test_healing_is_counted_and_traced():
    plan = FaultPlan().partition(5.0, 30.0, a=("a",), b=("b",))
    engine, metrics, inj = make_injector(plan)
    engine.run(until=100.0)
    assert metrics.get("faults.partitions_healed") == 1
    healed = [ev for ev in inj.trace.events if ev.event == "partition-healed"]
    assert len(healed) == 1
    assert healed[0].time == 30.0
