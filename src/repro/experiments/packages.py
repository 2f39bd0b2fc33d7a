"""How much language implementation each kernel interface costs: the
LYNX run-time package sizes (E2, §3.3 vs §5.3) and a second language
on the same kernels (A5, §6 lesson three)."""

from __future__ import annotations

import importlib

from repro.analysis.complexity import (
    analyze_module,
    comparison,
    runtime_package_stats,
)
from repro.analysis.report import Table
from repro.core.api import KERNEL_KINDS
from repro.experiments import Experiment, register_experiment
from repro.linda import ANY, make_linda


# ----------------------------------------------------------------------
# E2 — the code-size comparison of §3.3 vs §5.3 (and §4.3's savings
# prediction)
#
# Paper figures (C + assembler, 1986):
#
# * Charlotte runtime: 4000 C + 200 asm, ~21 KB object, ~45 % in
#   kernel-facing communication routines, "perhaps 5K" (≈24 % of object)
#   for unwanted messages and multiple enclosures;
# * Chrysalis runtime: 3600 C + 200 asm, 15–16 KB — "appreciably
#   smaller" on both measures;
# * SODA (predicted): "savings on the order of 4K bytes" from the lack
#   of special cases.
#
# Our analog (DESIGN.md §4): relative logical-LoC and branch counts of
# the kernel-specific runtime halves of this repository, measured by
# AST analysis of the real source.  What must reproduce is the *shape*:
# Charlotte's package biggest and branchiest, a substantial slice of it
# pure special-casing; Chrysalis smallest; SODA's hint-machinery cost
# concentrated in the (optional) freeze fallback.
# ----------------------------------------------------------------------
def _e2_measure(seed, quick):
    cmp_ = comparison()
    out = {}
    for kind, row in cmp_.items():
        out[f"{kind}_loc"] = row["kernel_specific_loc"]
        out[f"{kind}_branches"] = row["kernel_specific_branches"]
    out["charlotte_special_case_loc"] = cmp_["charlotte"]["special_case_loc"]
    out["charlotte_special_case_share"] = (
        cmp_["charlotte"]["special_case_share_of_specific"])
    # SODA's runtime module alone, without the last-resort freeze search
    soda_rt = runtime_package_stats("soda").modules[0]
    out["soda_runtime_loc"] = soda_rt.logical_loc
    out["soda_runtime_branches"] = soda_rt.branches
    return out


def _e2_claims(m):
    # §5.3: Chrysalis package "appreciably smaller" than Charlotte's
    assert m["chrysalis_loc"] < m["charlotte_loc"]
    assert m["chrysalis_branches"] < m["charlotte_branches"]
    # §3.3: a large slice of the Charlotte package is pure special-case
    # handling (paper: ~5K of 21K object ≈ 24 %)
    assert 0.15 <= m["charlotte_special_case_share"] <= 0.45
    # §4.3: without the last-resort freeze module, SODA's runtime is
    # also smaller than Charlotte's ("lack of special cases")
    assert m["soda_runtime_loc"] < m["charlotte_loc"] * 1.05
    # Charlotte is the branchiest per line — the "awkward and slow"
    # adaptation cost of §6 lesson three
    assert (m["charlotte_branches"] / m["charlotte_loc"]
            >= m["chrysalis_branches"] / m["chrysalis_loc"])
    # the ideal backend bounds the glue from below: a kernel designed
    # for the runtime needs less glue than any real 1986 kernel did
    for kind in KERNEL_KINDS:
        assert m["ideal_loc"] < m[f"{kind}_loc"]
        assert m["ideal_branches"] < m[f"{kind}_branches"]


def _e2_table(m):
    t = Table(
        "E2: LYNX runtime package size (kernel-specific half)",
        ["kernel", "paper (C loc)", "logical loc", "branches",
         "special-case loc", "special-case share"],
    )
    t.add("charlotte", 4200, m["charlotte_loc"], m["charlotte_branches"],
          m["charlotte_special_case_loc"], m["charlotte_special_case_share"])
    t.add("soda (runtime)", None, m["soda_runtime_loc"],
          m["soda_runtime_branches"], 0, 0.0)
    t.add("soda (+freeze fallback)", None, m["soda_loc"], m["soda_branches"],
          0, 0.0)
    t.add("chrysalis", 3800, m["chrysalis_loc"], m["chrysalis_branches"],
          0, 0.0)
    t.add("ideal (reference)", None, m["ideal_loc"], m["ideal_branches"],
          0, 0.0)
    return t


register_experiment(Experiment(
    id="E2", table_name="e2_code_size", paper_section="§3.3 vs §5.3",
    measure=_e2_measure, claims=_e2_claims, table=_e2_table,
))


# ----------------------------------------------------------------------
# A5 — a second language on the same kernels (§6, lesson three)
#
#   "...by maintaining the flexibility of the kernel interface they
#   permit equally efficient implementations of a wide variety of
#   other distributed languages, with entirely different needs."
#
# Mini-Linda (`repro.linda`) is that other language: an associative
# tuple space with blocking ``in`` — nothing like LYNX links.  The
# three kernel adapters are compared on the latency of an out + take
# exchange, the extra kernel traffic when a take must wait (SODA: zero
# — the unaccepted request IS the wait; Chrysalis: zero — an event
# block parks; Charlotte: the server must buffer the pattern and owe a
# reply), and adapter complexity (the E2 measure applied to the second
# language).  The shape that must reproduce: the low-level kernels fit
# the second language as naturally as they fit the first; the
# high-level kernel is again the bulkiest fit.
# ----------------------------------------------------------------------
def _linda_exchange(kind, block_ms, seed):
    system = make_linda(kind, seed=seed)
    stamps = {}

    def consumer(c):
        t0 = system.engine.now
        tup = yield from c.take(("k", ANY))
        stamps["latency"] = system.engine.now - t0
        assert tup == ("k", 1)
        yield from c.close()

    def producer(c):
        if block_ms:
            yield block_ms
        yield from c.out(("k", 1))
        yield from c.close()

    system.spawn(consumer(system.client("c")))
    system.spawn(producer(system.client("p")))
    system.run_until_quiet(max_ms=1e7)
    assert system.all_finished
    system.check()
    frames = (system.metrics.total("wire.frames.")
              + system.metrics.total("wire.messages."))
    return stamps["latency"], frames


def _a5_measure(seed, quick):
    out = {}
    for kind in KERNEL_KINDS:
        out[f"{kind}_latency_ms"], out[f"{kind}_frames"] = _linda_exchange(
            kind, 0.0, seed)
        _, out[f"{kind}_blocked_frames"] = _linda_exchange(kind, 1000.0, seed)
        stats = analyze_module(
            importlib.import_module(f"repro.linda.{kind}_adapter"))
        out[f"{kind}_adapter_loc"] = stats.logical_loc
        out[f"{kind}_adapter_branches"] = stats.branches
    return out


def _a5_claims(m):
    # correctness everywhere, at wildly different costs
    assert (m["chrysalis_latency_ms"] < m["soda_latency_ms"]
            < m["charlotte_latency_ms"])
    # blocking costs NO extra kernel traffic on the low-level kernels
    for kind in ("soda", "chrysalis"):
        assert m[f"{kind}_blocked_frames"] == m[f"{kind}_frames"], kind
    # the high-level kernel needs the biggest adapter for the second
    # language too — §6 lesson three, generalised beyond LYNX
    loc = {kind: m[f"{kind}_adapter_loc"] for kind in KERNEL_KINDS}
    assert loc["charlotte"] == max(loc.values())
    assert loc["chrysalis"] == min(loc.values())


def _a5_table(m):
    t = Table(
        "A5: mini-Linda (the second language) per kernel",
        ["kernel", "out+take ms", "frames", "frames when take blocks 1s",
         "adapter loc", "adapter branches"],
    )
    for kind in KERNEL_KINDS:
        t.add(kind, m[f"{kind}_latency_ms"], m[f"{kind}_frames"],
              m[f"{kind}_blocked_frames"], m[f"{kind}_adapter_loc"],
              m[f"{kind}_adapter_branches"])
    return t


register_experiment(Experiment(
    id="A5", table_name="a5_second_language", paper_section="§6 lesson three",
    measure=_a5_measure, claims=_a5_claims, table=_a5_table,
))
