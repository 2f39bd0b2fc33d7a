"""Unit tests for the code-complexity accounting (E2's instrument)."""

import importlib
import pkgutil

import pytest

import repro.charlotte.runtime
import repro.core.runtime
from repro.analysis.complexity import (
    CHARLOTTE_SPECIAL_CASES,
    analyze_module,
    charlotte_special_case_stats,
    comparison,
    runtime_package_stats,
)


def test_analyze_module_counts_are_positive_and_stable():
    a = analyze_module(repro.core.runtime)
    b = analyze_module(repro.core.runtime)
    assert a.logical_loc == b.logical_loc > 100
    assert a.branches == b.branches > 20
    assert "LynxRuntimeBase" in a.units


def test_docstrings_do_not_count_as_logical_lines():
    import types

    mod = types.ModuleType("fake")
    src = '''
def f():
    """A very long docstring.

    Many lines of prose here that must not count.
    """
    return 1
'''
    import ast as _ast
    tree = _ast.parse(src)
    from repro.analysis.complexity import _branches, _logical_lines

    # def + return = 2 statements; the docstring Expr is skipped
    assert _logical_lines(tree) == 2
    assert _branches(tree) == 0


def test_special_case_units_exist_in_source():
    """The curated special-case list must stay in sync with the
    Charlotte runtime's actual function names."""
    mod = analyze_module(repro.charlotte.runtime)
    for name in CHARLOTTE_SPECIAL_CASES:
        assert name in mod.units, name


def test_special_case_stats_nonzero():
    s = charlotte_special_case_stats()
    assert s.logical_loc > 40
    assert s.branches > 5


def test_package_stats_shape():
    for kind in ("charlotte", "soda", "chrysalis"):
        stats = runtime_package_stats(kind)
        assert stats.kernel_specific_loc > 0
        assert stats.common_loc > 0
        assert 0.0 < stats.kernel_share < 1.0
        assert stats.total_loc == stats.kernel_specific_loc + stats.common_loc


def test_comparison_reproduces_paper_ordering():
    cmp_ = comparison()
    assert (
        cmp_["chrysalis"]["kernel_specific_loc"]
        < cmp_["charlotte"]["kernel_specific_loc"]
    )
    assert 0.0 < cmp_["charlotte"]["special_case_share_of_specific"] < 1.0


def _modules_of(*packages):
    """Every module of each package, its ``__init__`` included."""
    names = []
    for pkg in packages:
        names.append(pkg)
        names.extend(m.name for m in pkgutil.iter_modules(
            importlib.import_module(pkg).__path__, pkg + "."))
    return tuple(names)


#: ROADMAP item 4's tree-wide size budget, one row per collapsed area:
#: `analyze_module` logical lines and branches summed over the row's
#: modules, as the PR that shrank it left them.  Like
#: LINT_BASELINE.json it only ratchets down, so lower a row when a
#: change shrinks the code and do not raise one to admit growth.
SIZE_BUDGETS = [
    # PR 13: one Engine, three drain policies (before: 733 / 215)
    ("engine", ("repro.sim.engine", "repro.sim.backends",
                "repro.sim.backends.sharded"), 498, 160),
    # PR 15: real-asyncio is ideal plus a codec hook (before: 917 / 170)
    # PR 17: a layout codec, one server loop per wake-up, node stderr
    # kept (before: 621 / 116)
    ("net+ideal", _modules_of("repro.net", "repro.ideal"), 610, 114),
    # PR 16: bench owns only exact values, compare is equality
    # (before: 1,182 / 352)
    # PR 18: the eight bench bodies left for the experiment registry;
    # bench.py is the runner and the envelope (before: 1,020 / 292)
    ("obs", _modules_of("repro.obs"), 783, 230),
    # PR 18: every paper experiment declared once.  Not growth: these
    # lines came from the 21 `benchmarks/bench_*.py` modules (which no
    # budget row counted) and the eight bodies the `obs` row lost — and
    # the `obs` row's drop is that move, not a saving.  The surface they
    # shared (obs/bench.py + this package + benchmarks/*.py) went
    # 1,475 / 302 -> 1,203 / 245.
    ("experiments", _modules_of("repro.experiments"), 950, 162),
]


def test_engine_size_budget_only_ratchets_down():
    for area, modules, loc, branches in SIZE_BUDGETS:
        stats = [analyze_module(importlib.import_module(m)) for m in modules]
        assert sum(s.logical_loc for s in stats) <= loc, area
        assert sum(s.branches for s in stats) <= branches, area
