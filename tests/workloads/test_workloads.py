"""Integration tests for the reusable workloads on all three kernels."""

import pytest

from repro.core.api import KERNEL_KINDS
from repro.workloads import (
    run_dormant_migration,
    run_migration_churn,
    run_open_close_scenario,
    run_reverse_scenario,
    run_rpc_workload,
    run_skewed_load,
)
from repro.workloads.chaos import chaos_policy, lossy_plan, run_chaos_workload
from repro.workloads.raw import raw_charlotte_rpc


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_rpc_workload_runs_everywhere(kind):
    r = run_rpc_workload(kind, payload_bytes=64, count=4)
    assert len(r.rtts) == 4
    assert all(t > 0 for t in r.rtts)
    assert r.messages == 10.0  # (4 + 1 warmup) RPCs x 2 messages


def test_rpc_rtt_increases_with_payload():
    small = run_rpc_workload("charlotte", 0, count=3).mean_ms
    big = run_rpc_workload("charlotte", 4096, count=3).mean_ms
    assert big > small


def test_raw_charlotte_is_faster_than_lynx():
    raw = raw_charlotte_rpc(0, count=3).mean_ms
    lynx = run_rpc_workload("charlotte", 0, count=3).mean_ms
    assert raw < lynx


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_reverse_scenario_completes(kind):
    d = run_reverse_scenario(kind, rounds=2)
    assert d["messages"] >= d["useful_messages"]
    if kind == "charlotte":
        assert d["unwanted"] >= 2
    else:
        assert d["unwanted"] == 0
        # bounce counters are absent, not zero, where no bouncing exists
        assert "forbid" not in d and "retry" not in d


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_open_close_scenario_completes(kind):
    d = run_open_close_scenario(kind, rounds=2)
    if kind == "charlotte":
        assert d["retry"] >= 2
    else:
        assert "retry" not in d
        assert d["messages"] == d["useful_messages"]


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_migration_churn_serves_every_hop(kind):
    d = run_migration_churn(kind, members=3, hops=6, seed=1,
                            linger_ms=4000.0)
    assert d["finished"], d
    assert d["rpcs_served"] == 6
    # hops rotate: each RPC answered by member (h % 3)
    assert d["servers_in_hop_order"] == [0, 1, 2, 0, 1, 2]


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_dormant_migration_repairs_on_first_use(kind):
    d = run_dormant_migration(kind, members=3, hops=5, seed=1)
    assert d["served_by"] == 5 % 3
    assert d["repair_latency_ms"] is not None


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_skewed_load_is_fair(kind):
    d = run_skewed_load(kind, quiet_clients=2, chatty_requests=10)
    assert sorted(set(d["order"])) == [0, 1, 2]
    assert d["worst_chatty_run_before_quiet"] <= 6


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_raw_baselines_run_and_are_faster_than_lynx(kind):
    from repro.workloads.raw import raw_rpc

    raw = raw_rpc(kind, 0, count=3)
    lynx = run_rpc_workload(kind, 0, count=3)
    assert len(raw.rtts) == 3
    assert raw.mean_ms < lynx.mean_ms


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_raw_baselines_scale_with_payload(kind):
    from repro.workloads.raw import raw_rpc

    small = raw_rpc(kind, 0, count=3).mean_ms
    big = raw_rpc(kind, 2000, count=3).mean_ms
    assert big > small


#: engine events fired at seed 0: (rpc count=50, migration members=4
#: hops=8, lossy chaos count=50).  A host-side change to the wait path,
#: the runtimes or the kernels leaves these exactly as they are; one that
#: adds or drops a single event (an extra wake, a missing defer) moves one
EVENTS_FIRED = {
    "charlotte": (2042, 999, 2053),
    "soda": (2112, 1341, 2683),
    "chrysalis": (2623, 1533, 2950),
    "ideal": (1021, 509, 1211),
}


@pytest.mark.parametrize("kind", sorted(EVENTS_FIRED))
def test_the_event_stream_is_pinned(kind):
    fired = (
        run_rpc_workload(kind, 0, count=50).trace.engine.events_fired,
        run_migration_churn(kind, members=4, hops=8)["trace"].engine.events_fired,
        run_chaos_workload(
            kind, count=50, plan=lossy_plan(0.1, 0.05), policy=chaos_policy(),
            pace_ms=0.0,
        ).trace.engine.events_fired,
    )
    assert fired == EVENTS_FIRED[kind]
