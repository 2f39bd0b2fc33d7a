"""The five checks over the shipped tree, and the exemption table that
lets the real transport and the bench export stamp read a host clock
(`tests/analysis/lint_checks.py`; each check's own contract is in
`test_lint_rules`).

Several tests here keep the names they had when an exemption was an
inline ``allow`` comment on the offending line; the table replaced
those comments and does their job."""

import ast
from pathlib import Path

from tests.analysis.lint_checks import (
    Module,
    judge,
    misplaced,
    parse,
    run_checks,
    shipped_modules,
)


def _module(source: str, package=("net", "load")) -> Module:
    return Module(Path("/".join(package) + ".py"), package, ast.parse(source))


def test_shipped_tree_is_clean():
    """Every check over ``src/repro`` finds nothing the exemption table
    does not exempt, and every table entry still exempts a finding."""
    active, stale = judge(run_checks(shipped_modules()))
    assert active == [], [str(f) for f in active]
    assert stale == [], f"stale exemptions (delete them): {stale}"


def test_host_clocks_stay_out_of_the_simulator():
    """Every exemption sits in the real transport or the bench export:
    the simulator reads no host clock, not even an exempted one."""
    assert misplaced() == []


def test_an_exemption_in_the_simulator_is_refused():
    table = {("repro.sim.engine", "time"): "a wall-clock watchdog",
             ("repro.net", "time"): "the package itself is a home"}
    assert misplaced(table) == [("repro.sim.engine", "time")]


def test_stale_allow_fires_via_full_rule_set():
    """An entry whose hazard no longer occurs in its module is stale."""
    found = run_checks([_module("X = 1\n")])
    table = {("repro.net.load", "time"): "the clock read this covered is gone"}
    assert judge(found, table) == ([], [("repro.net.load", "time")])


def test_used_allow_is_not_convicted():
    """An entry whose hazard fires exempts that finding and is not
    stale."""
    found = run_checks([_module("from time import perf_counter\n")])
    assert [f.hazard for f in found] == ["time"]
    assert judge(found, {("repro.net.load", "time"): "rtt"}) == ([], [])


def test_allow_names_only_the_listed_rules():
    """An entry exempts its own hazard in its own module and nothing
    else: not another hazard there, not the same hazard elsewhere."""
    found = run_checks([
        _module("import time\nimport random\n"),
        _module("import time\n", package=("sim", "engine")),
    ])
    active, stale = judge(found, {("repro.net.load", "time"): "rtt"})
    assert [(f.module.name, f.hazard) for f in active] == [
        ("repro.net.load", "random"), ("repro.sim.engine", "time")]
    assert stale == []


def test_allow_naming_an_unregistered_rule_is_a_finding():
    """A misspelt hazard exempts nothing, so it is stale at once."""
    found = run_checks([_module("from time import monotonic\n")])
    active, stale = judge(found, {("repro.net.load", "tme"): "typo"})
    assert [f.hazard for f in active] == ["time"]
    assert stale == [("repro.net.load", "tme")]


def test_module_info_package_for_src_repro(tmp_path):
    target = tmp_path / "src" / "repro" / "sim" / "rng.py"
    target.parent.mkdir(parents=True)
    target.write_text("import random\n")
    mod = parse(target, root=tmp_path)
    assert mod.package == ("sim", "rng")
    assert mod.name == "repro.sim.rng"


def test_module_info_package_none_outside_src(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("x = 1\n")
    assert parse(target).package is None

