"""Reusable LYNX workloads for benches, examples and stress tests.

Each workload is a set of `Proc` programs plus a driver that wires them
into a cluster and reports metrics.  They are deliberately written
against the public `repro.core.api` only, so every workload runs on all
three kernels — the experiments are cross-kernel comparisons.
"""

from repro.workloads.rpc import (
    PingServer,
    PingClient,
    run_rpc_workload,
    RPCResult,
)
from repro.workloads.raw import raw_charlotte_rpc
from repro.workloads.migration import (
    Observer,
    Dispatcher,
    Member,
    run_migration_churn,
    run_dormant_migration,
)
from repro.workloads.adversarial import (
    ReverseRequestPair,
    OpenCloseRacer,
    run_reverse_scenario,
    run_open_close_scenario,
)
from repro.workloads.skew import run_skewed_load
from repro.workloads.scale import ShardSim, ScaleResult, run_scale

__all__ = [
    "ShardSim",
    "ScaleResult",
    "run_scale",
    "PingServer",
    "PingClient",
    "run_rpc_workload",
    "RPCResult",
    "raw_charlotte_rpc",
    "Observer",
    "Dispatcher",
    "Member",
    "run_migration_churn",
    "run_dormant_migration",
    "ReverseRequestPair",
    "OpenCloseRacer",
    "run_reverse_scenario",
    "run_open_close_scenario",
    "run_skewed_load",
]
