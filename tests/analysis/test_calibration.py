"""Calibration guard: the executed protocols must keep reproducing the
paper's end-to-end numbers (within tolerance).

If a protocol change alters message counts or critical paths, these
tests catch the drift — they are the contract between DESIGN.md §4 and
the simulators.
"""

import pytest

from repro.core.costs import ChrysalisCosts, CostModel
from repro.experiments import PAPER
from repro.experiments.latency import SMALL_MSG_SPEEDUP_REL
from repro.workloads.raw import raw_charlotte_rpc
from repro.workloads.rpc import run_rpc_workload


def test_charlotte_raw_rpc_0_bytes():
    r = raw_charlotte_rpc(0, count=5)
    assert r.mean_ms == pytest.approx(PAPER["charlotte.raw.rpc0"], rel=0.05)


def test_charlotte_raw_rpc_1000_bytes():
    r = raw_charlotte_rpc(1000, count=5)
    assert r.mean_ms == pytest.approx(PAPER["charlotte.raw.rpc1000"], rel=0.05)


def test_charlotte_lynx_rpc_0_bytes():
    r = run_rpc_workload("charlotte", 0, count=5)
    assert r.mean_ms == pytest.approx(PAPER["charlotte.lynx.rpc0"], rel=0.05)


def test_charlotte_lynx_rpc_1000_bytes():
    r = run_rpc_workload("charlotte", 1000, count=5)
    assert r.mean_ms == pytest.approx(PAPER["charlotte.lynx.rpc1000"], rel=0.05)


def test_lynx_slower_than_raw_kernel_calls():
    """§3.3: the LYNX runtime adds measurable overhead over the bare
    kernel calls (57 vs 55, 65 vs 60)."""
    raw = raw_charlotte_rpc(0, count=5).mean_ms
    lynx = run_rpc_workload("charlotte", 0, count=5).mean_ms
    assert raw < lynx < raw + 5.0


def test_chrysalis_lynx_rpc_0_bytes():
    r = run_rpc_workload("chrysalis", 0, count=5)
    assert r.mean_ms == pytest.approx(PAPER["chrysalis.lynx.rpc0"], rel=0.08)


def test_chrysalis_lynx_rpc_1000_bytes():
    r = run_rpc_workload("chrysalis", 1000, count=5)
    assert r.mean_ms == pytest.approx(PAPER["chrysalis.lynx.rpc1000"], rel=0.08)


def test_chrysalis_order_of_magnitude_faster_than_charlotte():
    """§5.3: "Message transmission times are also faster on the
    Butterfly, by more than an order of magnitude." """
    char = run_rpc_workload("charlotte", 0, count=5).mean_ms
    chry = run_rpc_workload("chrysalis", 0, count=5).mean_ms
    assert char / chry > 10.0


def test_soda_three_times_faster_small_messages():
    """§4.3 fn 2: "for small messages SODA was three times as fast as
    Charlotte"."""
    char = run_rpc_workload("charlotte", 0, count=5).mean_ms
    soda = run_rpc_workload("soda", 0, count=5).mean_ms
    assert char / soda == pytest.approx(
        PAPER["soda.small_msg_speedup_vs_charlotte"], rel=SMALL_MSG_SPEEDUP_REL)


def test_soda_charlotte_breakeven_between_1k_and_2k():
    """§4.3 fn 2: "The figures break even somewhere between 1K and 2K
    bytes." """
    lo, hi = None, None
    for nbytes in (1024, 1536, 2048):
        char = run_rpc_workload("charlotte", nbytes, count=3).mean_ms
        soda = run_rpc_workload("soda", nbytes, count=3).mean_ms
        if soda < char:
            lo = nbytes  # SODA still ahead here
        elif hi is None:
            hi = nbytes  # Charlotte ahead from here on
    assert lo is not None and hi is not None and lo < hi


def test_chrysalis_tuned_improvement_in_paper_band():
    """§5.3: tuning "likely to improve both figures by 30 to 40%" —
    checked on the 0-byte figure (the 1000-byte figure is copy-bound
    and improves less; EXPERIMENTS.md discusses)."""
    base = run_rpc_workload("chrysalis", 0, count=5).mean_ms
    tuned = run_rpc_workload(
        "chrysalis", 0, count=5,
        costmodel=CostModel(chrysalis=ChrysalisCosts().tuned())).mean_ms
    improvement = (base - tuned) / base
    assert (PAPER["chrysalis.tuning_improvement.low"] <= improvement
            <= PAPER["chrysalis.tuning_improvement.high"])
