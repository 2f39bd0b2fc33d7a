"""Tests for the lint engine itself: the registry, inline
suppressions, ordering and path semantics — everything
below the individual rules (`test_lint_rules`) and the CLI
(`test_lint_cli`)."""

from pathlib import Path

import pytest

from repro.analysis.lint import (
    Finding,
    LintResult,
    ModuleInfo,
    Rule,
    collect_files,
    get_rule,
    register_rule,
    registered_rules,
    run_lint,
)
from repro.analysis.lint.core import _comment_allow_tags, lint_modules
from repro.analysis.lint.runner import LintPathError

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO = Path(__file__).resolve().parents[2]
EXPECTED_RULES = {"DET001", "DET002", "LAY001", "API001", "SIM001"}


def _module(tmp_path: Path, source: str, name: str = "mod.py") -> ModuleInfo:
    p = tmp_path / name
    p.write_text(source)
    return ModuleInfo.parse(p)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_shipped_rule_set_is_registered():
    assert {r.id for r in registered_rules()} >= EXPECTED_RULES


def test_registered_rules_sorted_by_id():
    ids = [r.id for r in registered_rules()]
    assert ids == sorted(ids)


def test_get_rule_unknown_id_lists_registered():
    with pytest.raises(ValueError, match="DET001"):
        get_rule("NOPE999")


def test_duplicate_rule_id_rejected():
    det001 = get_rule("DET001")
    with pytest.raises(ValueError, match="already registered"):
        register_rule(det001)


def test_bad_severity_rejected():
    with pytest.raises(ValueError, match="severity"):
        register_rule(Rule(id="TST999", title="t", severity="fatal",
                           check=lambda m: iter(())))


# ----------------------------------------------------------------------
# inline suppressions
# ----------------------------------------------------------------------
def test_allow_comment_on_the_line_suppresses(tmp_path):
    mod = _module(tmp_path, "import random  # repro: allow[DET001]\n")
    result = lint_modules([mod], rules=[get_rule("DET001")])
    (f,) = result.findings
    assert f.suppressed and not f.active
    assert result.exit_code == 0


def test_allow_comment_on_the_line_above_suppresses(tmp_path):
    mod = _module(
        tmp_path,
        "# repro: allow[DET001] — justification prose here\n"
        "import random\n",
    )
    result = lint_modules([mod], rules=[get_rule("DET001")])
    assert result.findings[0].suppressed


def test_allow_comment_two_lines_above_does_not_suppress(tmp_path):
    mod = _module(
        tmp_path,
        "# repro: allow[DET001]\n"
        "\n"
        "import random\n",
    )
    result = lint_modules([mod], rules=[get_rule("DET001")])
    assert result.exit_code == 1


def test_allow_names_only_the_listed_rules(tmp_path):
    mod = _module(tmp_path, "import random  # repro: allow[LAY001]\n")
    result = lint_modules([mod], rules=[get_rule("DET001")])
    assert not result.findings[0].suppressed


def test_allow_accepts_a_comma_list(tmp_path):
    mod = _module(
        tmp_path, "import random  # repro: allow[DET001, SIM001]\n"
    )
    result = lint_modules([mod], rules=[get_rule("DET001")])
    assert result.findings[0].suppressed


def test_suppressed_findings_still_reported():
    """The JSON artifact records every sanctioned escape hatch."""
    result = run_lint()
    assert result.exit_code == 0
    assert len(result.suppressed) >= 4  # bench wall clock + profiler


# ----------------------------------------------------------------------
# ALLOW001: the escape hatch polices itself
# ----------------------------------------------------------------------
def test_stale_allow_fires_via_full_rule_set():
    result = run_lint(paths=[FIXTURES / "allow001_bad.py"], root=REPO)
    assert result.exit_code == 1
    assert "ALLOW001" in result.fired()
    [finding] = [f for f in result.findings if f.rule == "ALLOW001"]
    assert "SIM001" in finding.message
    assert finding.active


def test_used_allow_is_not_convicted(tmp_path):
    """An allow whose rule genuinely fires on that line is earning its
    keep: SIM001 reports the site as suppressed, ALLOW001 stays out."""
    mod = _module(
        tmp_path,
        "def late(sent_at, t0):\n"
        "    return sent_at == t0  # repro: allow[SIM001] probe\n",
    )
    result = lint_modules([mod])
    assert "ALLOW001" not in result.fired()
    assert any(
        f.rule == "SIM001" and f.suppressed for f in result.findings
    )


def test_allow_for_rule_that_did_not_run_is_not_judged(tmp_path):
    """A subset run must not convict an allow that covers a registered
    rule it left out — the rule never ran, so the allow's finding had
    no chance to fire.  The same file under every rule *is* judged."""
    mod = _module(tmp_path, "X = 1  # repro: allow[DET001] left out\n")
    subset = [r for r in registered_rules() if r.id != "DET001"]
    assert "ALLOW001" not in lint_modules([mod], rules=subset).fired()
    assert "ALLOW001" in lint_modules([mod]).fired()


def test_allow_naming_an_unregistered_rule_is_a_finding(tmp_path):
    """A tag naming no registered rule (a typo, or a deleted rule)
    grants nothing: ALLOW001 says so, on every run that has it."""
    mod = _module(tmp_path, "X = 1  # repro: allow[SIM004] names no rule\n")
    [finding] = lint_modules([mod]).findings
    assert finding.rule == "ALLOW001" and finding.active
    assert "SIM004" in finding.message and "registered" in finding.message


def test_subset_run_without_allow_rule_skips_the_post_pass(tmp_path):
    mod = _module(tmp_path, "X = 1  # repro: allow[DET001] stale\n")
    result = lint_modules([mod], rules=[get_rule("DET001")])
    assert not result.findings
    assert result.exit_code == 0


def test_docstring_mention_of_allow_syntax_is_ignored(tmp_path):
    mod = _module(
        tmp_path,
        '"""Suppress with ``# repro: allow[DET001]`` on the line."""\n'
        "X = 1\n",
    )
    assert "ALLOW001" not in lint_modules([mod]).fired()


def test_shipped_tree_is_clean():
    """`python -m repro lint` over src/ runs every rule and exits 0:
    every finding is fixed or allowed inline where it fires — the
    acceptance bar, machine-checked."""
    result = run_lint(paths=[REPO / "src" / "repro"], root=REPO)
    assert {r.id for r in result.rules} == {r.id for r in registered_rules()}
    active = [f for f in result.findings if f.active]
    assert result.exit_code == 0, [f.location() for f in active]


#: the only packages whose code may read a host clock or host entropy
#: under a DET001 allow: the real transport (sockets and processes) and
#: the bench export stamp
HOST_CLOCK_HOMES = (("net",), ("obs", "bench"))


def test_host_clocks_stay_out_of_the_simulator():
    """Every DET001 allow tag in the shipped tree sits in a
    `HOST_CLOCK_HOMES` package: the simulator reads no host clock, not
    even one the lint was told to let through."""
    stray = []
    for path in collect_files([REPO / "src" / "repro"]):
        module = ModuleInfo.parse(path, root=REPO)
        homed = any(module.package[:len(home)] == home
                    for home in HOST_CLOCK_HOMES)
        stray += [f"{module.display}:{line}"
                  for line, tags in _comment_allow_tags(module).items()
                  if "DET001" in tags and not homed]
    assert stray == []


# ----------------------------------------------------------------------
# ordering / result shape
# ----------------------------------------------------------------------
def test_findings_sorted_by_path_line_col_rule(tmp_path):
    (tmp_path / "b.py").write_text("import random\nimport uuid\n")
    (tmp_path / "a.py").write_text("import time\n")
    result = run_lint(paths=[tmp_path], rules=[get_rule("DET001")])
    keys = [(f.path, f.line, f.col, f.rule) for f in result.findings]
    assert keys == sorted(keys)
    assert result.files_scanned == 2


def test_lint_result_exit_code_gates_on_active_only():
    f_active = Finding("DET001", "error", "x.py", 1, 0, "m")
    f_supp = Finding("DET001", "error", "x.py", 2, 0, "m", suppressed=True)
    assert LintResult([f_supp], 1, ()).exit_code == 0
    assert LintResult([f_supp, f_active], 1, ()).exit_code == 1


# ----------------------------------------------------------------------
# path semantics
# ----------------------------------------------------------------------
def test_missing_path_raises_lint_path_error(tmp_path):
    with pytest.raises(LintPathError, match="no such file or directory"):
        collect_files([tmp_path / "does-not-exist"])


def test_collect_files_dedups_and_sorts(tmp_path):
    a = tmp_path / "a.py"
    b = tmp_path / "b.py"
    a.write_text("")
    b.write_text("")
    files = collect_files([b, tmp_path, a])
    assert files == [a, b]


def test_module_info_package_for_src_repro(tmp_path):
    root = tmp_path
    target = root / "src" / "repro" / "sim" / "rng.py"
    target.parent.mkdir(parents=True)
    target.write_text("import random\n")
    mod = ModuleInfo.parse(target, root=root)
    assert mod.package == ("sim", "rng")
    assert mod.display == "src/repro/sim/rng.py"


def test_module_info_package_none_outside_src(tmp_path):
    mod = _module(tmp_path, "x = 1\n")
    assert mod.package is None
