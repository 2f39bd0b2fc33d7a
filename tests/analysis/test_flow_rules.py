"""Contract tests for the whole-program (``scope="program"``) rules:
every program rule fires on its seeded fixture under
``tests/analysis/fixtures/`` and stays silent on the clean twin;
ALLOW001 convicts stale suppressions and tags naming no registered
rule, without convicting allows that cover rules a subset run left
out; and the shipped tree is clean under every rule with an empty
baseline — the acceptance bar, machine-checked."""

from pathlib import Path

import pytest

from repro.analysis.flow import build_program
from repro.analysis.lint import ModuleInfo, get_rule, registered_rules, run_lint
from repro.analysis.lint.core import lint_modules

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO = Path(__file__).resolve().parents[2]

#: rule id -> fixture stem and the number of distinct seeded hazards
DEEP_RULE_FIXTURES = {
    "NET001": ("net001", 3),
}


def _deep_findings(stem, kind, rule_id):
    mod = ModuleInfo.parse(FIXTURES / f"{stem}_{kind}.py")
    prog = build_program([mod])
    return list(get_rule(rule_id).run(prog))


@pytest.mark.parametrize(
    "rule_id,stem,count",
    sorted((r, s, c) for r, (s, c) in DEEP_RULE_FIXTURES.items()),
)
def test_deep_rule_fires_on_its_fixture(rule_id, stem, count):
    findings = _deep_findings(stem, "bad", rule_id)
    assert len(findings) == count
    assert all(f.rule == rule_id for f in findings)
    assert all(f.active for f in findings)


@pytest.mark.parametrize(
    "rule_id,stem",
    sorted((r, s) for r, (s, _) in DEEP_RULE_FIXTURES.items()),
)
def test_deep_rule_passes_clean_fixture(rule_id, stem):
    assert _deep_findings(stem, "clean", rule_id) == []


def test_registry_matches_the_fixture_table():
    program_rules = [r for r in registered_rules() if r.scope == "program"]
    assert {r.id for r in program_rules} == set(DEEP_RULE_FIXTURES)
    for r in program_rules:
        assert r.severity == "error"


def test_deep_rules_all_fire_through_lint_modules():
    """The engine path: program findings flow through the same result
    object, counts, and exit code as module ones — `lint_modules`
    links the graph itself when a program rule is active."""
    mods = [
        ModuleInfo.parse(FIXTURES / f"{stem}_bad.py")
        for stem, _ in sorted(DEEP_RULE_FIXTURES.values())
    ]
    program_rules = [r for r in registered_rules() if r.scope == "program"]
    result = lint_modules(mods, rules=program_rules)
    assert result.exit_code == 1
    assert result.fired() == set(DEEP_RULE_FIXTURES)
    assert len(result.findings) == sum(
        c for _, c in DEEP_RULE_FIXTURES.values()
    )


def test_deep_findings_honour_inline_allow(tmp_path):
    src = FIXTURES / "net001_bad.py"
    lines = src.read_text().splitlines()
    patched = []
    for line in lines:
        if "time.sleep" in line and not line.lstrip().startswith("#"):
            line += "  # repro: allow[NET001] fixture escape"
        patched.append(line)
    f = tmp_path / "net001_allowed.py"
    f.write_text("\n".join(patched) + "\n")
    mod = ModuleInfo.parse(f)
    findings = list(get_rule("NET001").run(build_program([mod])))
    assert len(findings) == 3
    sleeps = [x for x in findings if "time.sleep" in x.message]
    assert sleeps and all(x.suppressed for x in sleeps)
    # the allow reaches one line down by design, so the sendall on the
    # next line is suppressed too; the transitive chain stays active
    active = [x for x in findings if x.active]
    assert len(active) == 1


# --- ALLOW001: the escape hatch polices itself ------------------------

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
    f = tmp_path / "used.py"
    f.write_text(
        "def late(sent_at, t0):\n"
        "    return sent_at == t0  # repro: allow[SIM001] probe\n"
    )
    mod = ModuleInfo.parse(f)
    result = lint_modules([mod])
    assert "ALLOW001" not in result.fired()
    assert any(
        f.rule == "SIM001" and f.suppressed for f in result.findings
    )


def test_allow_for_rule_that_did_not_run_is_not_judged(tmp_path):
    """A subset run must not convict an allow that covers a registered
    rule it left out — the rule never ran, so the allow's finding had
    no chance to fire.  The same file under every rule *is* judged."""
    f = tmp_path / "deep_tag.py"
    f.write_text(
        "X = 1  # repro: allow[NET001] covers a program-scope finding\n"
    )
    mod = ModuleInfo.parse(f)
    module_rules = [r for r in registered_rules() if r.scope == "module"]
    subset = lint_modules([mod], rules=module_rules)
    assert "ALLOW001" not in subset.fired()
    assert "ALLOW001" in lint_modules([mod]).fired()


def test_allow_naming_an_unregistered_rule_is_a_finding(tmp_path):
    """A tag naming no registered rule (a typo, or a deleted rule)
    grants nothing: ALLOW001 says so, on every run that has it."""
    f = tmp_path / "ghost_tag.py"
    f.write_text("X = 1  # repro: allow[SIM004] names no rule\n")
    mod = ModuleInfo.parse(f)
    [finding] = lint_modules([mod]).findings
    assert finding.rule == "ALLOW001" and finding.active
    assert "SIM004" in finding.message and "registered" in finding.message
    module_rules = [r for r in registered_rules() if r.scope == "module"]
    assert lint_modules([mod], rules=module_rules).fired() == {"ALLOW001"}


def test_subset_run_without_allow_rule_skips_the_post_pass(tmp_path):
    f = tmp_path / "tagged.py"
    f.write_text("X = 1  # repro: allow[DET001] stale\n")
    mod = ModuleInfo.parse(f)
    result = lint_modules([mod], rules=[get_rule("DET001")])
    assert not result.findings
    assert result.exit_code == 0


def test_docstring_mention_of_allow_syntax_is_ignored(tmp_path):
    f = tmp_path / "prose.py"
    f.write_text(
        '"""Suppress with ``# repro: allow[DET001]`` on the line."""\n'
        "X = 1\n"
    )
    result = lint_modules([ModuleInfo.parse(f)])
    assert "ALLOW001" not in result.fired()


# --- the acceptance bar ----------------------------------------------

def test_shipped_tree_is_deep_clean():
    """`python -m repro lint` over src/ runs the program rules too and
    exits 0 with the shipped (empty) baseline."""
    result = run_lint(paths=[REPO / "src" / "repro"], root=REPO)
    assert {r.id for r in result.rules} == {r.id for r in registered_rules()}
    assert "NET001" in {r.id for r in result.rules}
    active = [f for f in result.findings if f.active]
    assert result.exit_code == 0, [f.location() for f in active]
    assert not any(f.baselined for f in result.findings)
