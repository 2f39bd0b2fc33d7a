"""The measurement tables: simple-remote-operation latency on each
kernel (E1 §3.3, E4 §4.3 fn.2, E5 §5.3) and the run-time package's
share of it (A4 §3.3 / §4.3)."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.api import KERNEL_KINDS
from repro.core.costs import ChrysalisCosts, CostModel
from repro.experiments import PAPER, Experiment, near, register_experiment
from repro.obs.report import Table, paper_vs_measured
from repro.workloads.raw import raw_charlotte_rpc, raw_rpc
from repro.workloads.rpc import run_rpc_workload


# ----------------------------------------------------------------------
# E1 — §3.3's measurements table for Charlotte
#
#   "A simple remote operation (no enclosures) requires approximately
#   57 ms with no data transfer and about 65 ms with 1000 bytes of
#   parameters in both directions.  C programs that make the same
#   series of kernel calls require 55 and 60 ms, respectively."
#
# All four numbers come from running the RPC workload on the simulated
# Crystal/Charlotte stack — once through the LYNX runtime package, once
# as raw kernel calls — anchored against the ``ideal`` backend, whose
# zero-protocol round trip is the floor every real kernel sits above.
# ----------------------------------------------------------------------
def _e1_measure(seed, quick):
    count = 5
    raw0 = raw_charlotte_rpc(0, count=count, seed=seed)
    raw1000 = raw_charlotte_rpc(1000, count=count, seed=seed)
    lynx0 = run_rpc_workload("charlotte", 0, count=count, seed=seed)
    lynx1000 = run_rpc_workload("charlotte", 1000, count=count, seed=seed)
    ideal0 = run_rpc_workload("ideal", 0, count=count, seed=seed)
    ideal1000 = run_rpc_workload("ideal", 1000, count=count, seed=seed)
    return {
        "raw_rpc0_ms": raw0.mean_ms,
        "raw_rpc1000_ms": raw1000.mean_ms,
        "lynx_rpc0_ms": lynx0.mean_ms,
        "lynx_rpc1000_ms": lynx1000.mean_ms,
        "lynx_rpc0_wire_msgs": lynx0.messages,
        "lynx_rpc0_wire_bytes": lynx0.wire_bytes,
        "ideal_rpc0_ms": ideal0.mean_ms,
        "ideal_rpc1000_ms": ideal1000.mean_ms,
    }


def _e1_claims(m):
    assert near(m["raw_rpc0_ms"], PAPER["charlotte.raw.rpc0"], 0.05)
    assert near(m["raw_rpc1000_ms"], PAPER["charlotte.raw.rpc1000"], 0.05)
    assert near(m["lynx_rpc0_ms"], PAPER["charlotte.lynx.rpc0"], 0.05)
    assert near(m["lynx_rpc1000_ms"], PAPER["charlotte.lynx.rpc1000"], 0.05)
    # the runtime package's overhead is visible but modest (§3.3)
    assert m["lynx_rpc0_ms"] > m["raw_rpc0_ms"]
    assert m["lynx_rpc1000_ms"] > m["raw_rpc1000_ms"]
    assert m["lynx_rpc1000_ms"] > m["lynx_rpc0_ms"]
    # the ideal backend is strictly the fastest thing in the table
    assert m["ideal_rpc0_ms"] < m["raw_rpc0_ms"]
    assert m["ideal_rpc1000_ms"] < m["raw_rpc1000_ms"]


def _e1_table(m):
    return paper_vs_measured("E1: Charlotte simple remote operation (ms)", [
        ("raw kernel calls, 0 B", PAPER["charlotte.raw.rpc0"],
         m["raw_rpc0_ms"]),
        ("raw kernel calls, 1000 B each way", PAPER["charlotte.raw.rpc1000"],
         m["raw_rpc1000_ms"]),
        ("LYNX, 0 B", PAPER["charlotte.lynx.rpc0"], m["lynx_rpc0_ms"]),
        ("LYNX, 1000 B each way", PAPER["charlotte.lynx.rpc1000"],
         m["lynx_rpc1000_ms"]),
        ("ideal backend (floor), 0 B", None, m["ideal_rpc0_ms"]),
        ("ideal backend (floor), 1000 B each way", None,
         m["ideal_rpc1000_ms"]),
    ])


register_experiment(Experiment(
    id="E1", table_name="e1_charlotte_latency", paper_section="§3.3",
    measure=_e1_measure, claims=_e1_claims, table=_e1_table,
))


# ----------------------------------------------------------------------
# E4 — §4.3 and its footnote 2: SODA vs Charlotte latency
#
#   "Experimental figures reveal that for small messages SODA was
#   three times as fast as Charlotte.  The difference is less dramatic
#   for larger messages: SODA's slow network exacted a heavy toll.
#   The figures break even somewhere between 1K and 2K bytes."
# ----------------------------------------------------------------------
#: payload bytes each way; the crossover is located on this grid
E4_SWEEP = (0, 256, 512, 1024, 1536, 2048, 3072, 4096)


def _e4_measure(seed, quick):
    count = 3
    out = {}
    crossover = None
    prev_winner = None
    for nbytes in E4_SWEEP:
        c = run_rpc_workload("charlotte", nbytes, count=count, seed=seed)
        s = run_rpc_workload("soda", nbytes, count=count, seed=seed)
        out[f"charlotte_rpc{nbytes}_ms"] = c.mean_ms
        out[f"soda_rpc{nbytes}_ms"] = s.mean_ms
        winner = "soda" if s.mean_ms < c.mean_ms else "charlotte"
        if prev_winner == "soda" and winner == "charlotte":
            crossover = nbytes
        prev_winner = winner
    out["small_msg_speedup"] = out["charlotte_rpc0_ms"] / out["soda_rpc0_ms"]
    out["crossover_bytes"] = crossover  # None when the sweep never flips
    return out


def _e4_claims(m):
    assert 2.6 < m["small_msg_speedup"] < 3.4, "~3x for small messages"
    crossover = m["crossover_bytes"]
    assert crossover is not None and (
        PAPER["soda.breakeven_bytes.low"] < crossover
        <= PAPER["soda.breakeven_bytes.high"]
    ), "break-even between 1K and 2K bytes"
    # SODA's slow network: its per-byte slope is much steeper
    slope_c = (m["charlotte_rpc4096_ms"] - m["charlotte_rpc0_ms"]) / 4096
    slope_s = (m["soda_rpc4096_ms"] - m["soda_rpc0_ms"]) / 4096
    assert slope_s > 2.5 * slope_c


#: glyphs assigned to series, in order: footnote 2's comparison is
#: really a figure (two latency curves crossing), and `ascii_plot`
#: renders it in plain text below E4's table
MARKS = "ox+*#@"


def ascii_plot(
    series: Dict[str, Sequence[Tuple[float, float]]],
    width: int = 64,
    height: int = 18,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render named (x, y) series on one axis grid.

    Points are nearest-cell plotted; collisions show the later series'
    mark.  Returns a multi-line string with axes, tick labels and a
    legend.
    """
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    grid = [[" "] * width for _ in range(height)]

    def cell(x: float, y: float) -> Tuple[int, int]:
        cx = round((x - x_lo) / (x_hi - x_lo) * (width - 1))
        cy = round((y - y_lo) / (y_hi - y_lo) * (height - 1))
        return cx, height - 1 - cy

    for (name, pts), mark in zip(series.items(), MARKS):
        # connect consecutive points with linear interpolation so the
        # curve shape reads even with few samples
        pts = sorted(pts)
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            steps = max(
                abs(cell(x1, y1)[0] - cell(x0, y0)[0]),
                abs(cell(x1, y1)[1] - cell(x0, y0)[1]),
                1,
            )
            for s in range(steps + 1):
                f = s / steps
                cx, cy = cell(x0 + (x1 - x0) * f, y0 + (y1 - y0) * f)
                grid[cy][cx] = mark
        for x, y in pts:  # points overwrite interpolation
            cx, cy = cell(x, y)
            grid[cy][cx] = mark

    lines: List[str] = []
    if y_label:
        lines.append(y_label)
    y_hi_s, y_lo_s = f"{y_hi:.4g}", f"{y_lo:.4g}"
    margin = max(len(y_hi_s), len(y_lo_s)) + 1
    for i, row in enumerate(grid):
        if i == 0:
            label = y_hi_s
        elif i == height - 1:
            label = y_lo_s
        else:
            label = ""
        lines.append(label.rjust(margin) + " |" + "".join(row))
    lines.append(" " * margin + " +" + "-" * width)
    x_lo_s, x_hi_s = f"{x_lo:.4g}", f"{x_hi:.4g}"
    axis = x_lo_s + x_hi_s.rjust(width - len(x_lo_s))
    lines.append(" " * (margin + 2) + axis)
    if x_label:
        lines.append(" " * (margin + 2) + x_label.center(width))
    legend = "   ".join(
        f"{mark} {name}" for (name, _), mark in zip(series.items(), MARKS)
    )
    lines.append(" " * (margin + 2) + legend)
    return "\n".join(lines)


def _e4_table(m):
    t = Table(
        "E4: simple remote operation latency vs payload (ms; fn.2 sweep)",
        ["payload B each way", "charlotte", "soda", "winner"],
    )
    for nbytes in E4_SWEEP:
        c, s = m[f"charlotte_rpc{nbytes}_ms"], m[f"soda_rpc{nbytes}_ms"]
        t.add(nbytes, c, s, "soda" if s < c else "charlotte")
    t.add("crossover", "1K-2K", m["crossover_bytes"], "")
    t.add("small-msg speedup", PAPER["soda.small_msg_speedup_vs_charlotte"],
          m["small_msg_speedup"], "")
    figure = ascii_plot(
        {kind: [(n, m[f"{kind}_rpc{n}_ms"]) for n in E4_SWEEP]
         for kind in ("charlotte", "soda")},
        x_label="payload bytes each way",
        y_label="round trip ms",
    )
    return t.render() + "\n\n" + figure


register_experiment(Experiment(
    id="E4", table_name="e4_soda_crossover", paper_section="§4.3 fn.2",
    measure=_e4_measure, claims=_e4_claims, table=_e4_table,
))


# ----------------------------------------------------------------------
# E5 — §5.3's Chrysalis measurements
#
#   "Recent tests indicate that a simple remote operation requires
#   about 2.4 ms with no data transfer and about 4.6 ms with 1000
#   bytes of parameters in both directions.  Code tuning and protocol
#   optimizations now under development are likely to improve both
#   figures by 30 to 40%."
#
# Also §5.3's comparative claim: "Message transmission times are also
# faster on the Butterfly, by more than an order of magnitude" (vs
# Charlotte).  The tuned cost profile is the paper's announced
# optimisation, run as an ablation.
# ----------------------------------------------------------------------
def _e5_measure(seed, quick):
    count = 5
    c0 = run_rpc_workload("chrysalis", 0, count=count, seed=seed).mean_ms
    c1000 = run_rpc_workload("chrysalis", 1000, count=count, seed=seed).mean_ms
    tuned = CostModel(chrysalis=ChrysalisCosts().tuned())
    t0 = run_rpc_workload("chrysalis", 0, count=count, seed=seed,
                          costmodel=tuned).mean_ms
    t1000 = run_rpc_workload("chrysalis", 1000, count=count, seed=seed,
                             costmodel=tuned).mean_ms
    char0 = run_rpc_workload("charlotte", 0, count=count, seed=seed).mean_ms
    return {
        "lynx_rpc0_ms": c0,
        "lynx_rpc1000_ms": c1000,
        "tuned_rpc0_ms": t0,
        "tuned_rpc1000_ms": t1000,
        "tuned_improvement_rpc0": (c0 - t0) / c0,
        "charlotte_ratio_rpc0": char0 / c0,
    }


def _e5_claims(m):
    assert near(m["lynx_rpc0_ms"], PAPER["chrysalis.lynx.rpc0"], 0.08)
    assert near(m["lynx_rpc1000_ms"], PAPER["chrysalis.lynx.rpc1000"], 0.08)
    assert (PAPER["chrysalis.tuning_improvement.low"]
            <= m["tuned_improvement_rpc0"]
            <= PAPER["chrysalis.tuning_improvement.high"])
    assert m["charlotte_ratio_rpc0"] > 10.0


def _e5_table(m):
    impr1000 = ((m["lynx_rpc1000_ms"] - m["tuned_rpc1000_ms"])
                / m["lynx_rpc1000_ms"])
    return paper_vs_measured("E5: Chrysalis simple remote operation", [
        ("LYNX, 0 B (ms)", PAPER["chrysalis.lynx.rpc0"], m["lynx_rpc0_ms"]),
        ("LYNX, 1000 B each way (ms)", PAPER["chrysalis.lynx.rpc1000"],
         m["lynx_rpc1000_ms"]),
        ("tuned, 0 B (ms)", "30-40% better", m["tuned_rpc0_ms"]),
        ("tuned improvement, 0 B", "0.30-0.40", m["tuned_improvement_rpc0"]),
        ("tuned improvement, 1000 B", "copy-bound", impr1000),
        ("Charlotte/Chrysalis ratio, 0 B", ">10", m["charlotte_ratio_rpc0"]),
    ])


register_experiment(Experiment(
    id="E5", table_name="e5_chrysalis_latency", paper_section="§5.3",
    measure=_e5_measure, claims=_e5_claims, table=_e5_table,
))


# ----------------------------------------------------------------------
# A4 — the run-time package's overhead on every kernel (§3.3 / §4.3)
#
# §3.3 measures LYNX against "C programs that make the same series of
# kernel calls" and attributes the difference to the runtime's work:
# "gather and scatter parameters, block and unblock coroutines,
# establish default exception handlers, enforce flow control, perform
# type checking, update tables for enclosed links."  §4.3 then
# *predicts* the SODA runtime's overhead: "run-time routines under SODA
# would need to perform most of the same functions as their
# counterparts for Charlotte ... relatively major differences in
# run-time package overhead appear to be unlikely."  LYNX-minus-raw on
# all three kernels (raw baselines: `repro.workloads.raw`) tests it.
# ----------------------------------------------------------------------
def _a4_measure(seed, quick):
    out = {}
    for kind in KERNEL_KINDS:
        for nbytes in (0, 1000):
            out[f"{kind}_raw_rpc{nbytes}_ms"] = raw_rpc(
                kind, nbytes, count=5, seed=seed).mean_ms
            out[f"{kind}_lynx_rpc{nbytes}_ms"] = run_rpc_workload(
                kind, nbytes, count=5, seed=seed).mean_ms
    return out


def _a4_overhead(m, kind, nbytes=0):
    return m[f"{kind}_lynx_rpc{nbytes}_ms"] - m[f"{kind}_raw_rpc{nbytes}_ms"]


def _a4_claims(m):
    overhead0 = {kind: _a4_overhead(m, kind) for kind in KERNEL_KINDS}
    # overhead is real and positive everywhere (§3.3's 57 > 55)
    for kind in KERNEL_KINDS:
        assert overhead0[kind] > 0.5, (kind, overhead0)
    # §4.3's prediction: Charlotte's and SODA's runtime overheads are
    # of the same magnitude (we allow 2x either way)
    assert 0.5 < overhead0["soda"] / overhead0["charlotte"] < 2.0, overhead0
    # Chrysalis's runtime rides much faster primitives: its overhead is
    # the smallest in absolute terms...
    assert overhead0["chrysalis"] == min(overhead0.values())
    # ...but the largest *relative* to its raw kernel cost — simple
    # primitives shift work INTO the runtime (§6 lesson three's flip
    # side)
    rel = {k: overhead0[k] / m[f"{k}_raw_rpc0_ms"] for k in KERNEL_KINDS}
    assert rel["chrysalis"] == max(rel.values())


def _a4_table(m):
    t = Table(
        "A4: LYNX runtime overhead = LYNX minus raw kernel calls (ms)",
        ["kernel", "raw 0B", "LYNX 0B", "overhead 0B",
         "raw 1000B", "LYNX 1000B", "overhead 1000B"],
    )
    for kind in KERNEL_KINDS:
        t.add(kind, m[f"{kind}_raw_rpc0_ms"], m[f"{kind}_lynx_rpc0_ms"],
              _a4_overhead(m, kind), m[f"{kind}_raw_rpc1000_ms"],
              m[f"{kind}_lynx_rpc1000_ms"], _a4_overhead(m, kind, 1000))
    return t


register_experiment(Experiment(
    id="A4", table_name="a4_runtime_overhead", paper_section="§3.3 / §4.3",
    measure=_a4_measure, claims=_a4_claims, table=_a4_table,
))
