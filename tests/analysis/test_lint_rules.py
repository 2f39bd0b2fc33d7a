"""Per-rule contract tests: every shipped rule fires on its seeded
fixture under ``tests/analysis/fixtures/`` and stays silent on the
clean fixture and on its designated exemptions.  The fixtures are
never imported — only parsed by the lint pass."""

from pathlib import Path

import pytest

from repro.analysis.lint import ModuleInfo, get_rule, run_lint
from repro.analysis.lint.core import lint_modules

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO = Path(__file__).resolve().parents[2]

RULE_FIXTURES = {
    "DET001": "det001_bad.py",
    "DET002": "det002_bad.py",
    "LAY001": "lay001_bad.py",
    "API001": "api001_bad.py",
    "SIM001": "sim001_bad.py",
}


def _lint_fixture(name, rule_id):
    mod = ModuleInfo.parse(FIXTURES / name)
    return lint_modules([mod], rules=[get_rule(rule_id)])


@pytest.mark.parametrize("rule_id,fixture", sorted(RULE_FIXTURES.items()))
def test_rule_fires_on_its_fixture(rule_id, fixture):
    result = _lint_fixture(fixture, rule_id)
    assert result.exit_code == 1
    assert result.fired() == {rule_id}


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_rule_passes_the_clean_fixture(rule_id):
    result = _lint_fixture("clean.py", rule_id)
    assert result.exit_code == 0
    assert not result.findings


def test_full_rule_set_on_fixture_dir_fires_every_rule():
    result = run_lint(paths=[FIXTURES])
    assert result.fired() >= set(RULE_FIXTURES)
    assert result.exit_code == 1


# ----------------------------------------------------------------------
# rule-specific contracts beyond fire/clean
# ----------------------------------------------------------------------
def test_det001_exempts_sim_rng():
    """The one sanctioned entropy source may import random freely."""
    rng = REPO / "src" / "repro" / "sim" / "rng.py"
    mod = ModuleInfo.parse(rng, root=REPO)
    assert mod.package == ("sim", "rng")
    result = lint_modules([mod], rules=[get_rule("DET001")])
    assert not result.findings


def test_det001_finds_each_hazard_kind():
    result = _lint_fixture("det001_bad.py", "DET001")
    messages = " ".join(f.message for f in result.findings)
    assert "import of 'random'" in messages
    assert "time.time()" in messages
    assert "id()" in messages


def test_det002_only_in_order_sensitive_modules(tmp_path):
    """The same set iteration is fine in, say, an analysis module."""
    src = "def f(xs):\n    for x in set(xs):\n        yield x\n"
    root = tmp_path
    target = root / "src" / "repro" / "analysis" / "report.py"
    target.parent.mkdir(parents=True)
    target.write_text(src)
    mod = ModuleInfo.parse(target, root=root)
    assert mod.package == ("analysis", "report")
    assert not lint_modules([mod], rules=[get_rule("DET002")]).findings

    sim_target = root / "src" / "repro" / "sim" / "sched.py"
    sim_target.parent.mkdir(parents=True)
    sim_target.write_text(src)
    sim_mod = ModuleInfo.parse(sim_target, root=root)
    assert lint_modules([sim_mod], rules=[get_rule("DET002")]).findings


def test_lay001_exempts_the_kernels_own_package(tmp_path):
    src = "from repro.soda.kernel import SodaKernel  # noqa\n"
    target = tmp_path / "src" / "repro" / "soda" / "runtime.py"
    target.parent.mkdir(parents=True)
    target.write_text(src)
    mod = ModuleInfo.parse(target, root=tmp_path)
    assert mod.package == ("soda", "runtime")
    assert not lint_modules([mod], rules=[get_rule("LAY001")]).findings


def test_lay001_exempts_declared_per_kernel_glue(tmp_path):
    src = "from repro.soda.kernel import SodaKernel  # noqa\n"
    target = tmp_path / "soda_adapter.py"
    target.write_text(src)
    mod = ModuleInfo.parse(target)
    assert not lint_modules([mod], rules=[get_rule("LAY001")]).findings


def test_lay001_sees_type_checking_guards():
    """`if TYPE_CHECKING:` is not an escape hatch (module-level too)."""
    result = _lint_fixture("lay001_bad.py", "LAY001")
    lines = sorted(f.line for f in result.findings)
    assert len(lines) == 2  # the plain import AND the guarded one


def test_lay001_ignores_function_level_imports(tmp_path):
    src = ("def factory(engine):\n"
           "    from repro.soda.kernel import SodaKernel\n"
           "    return SodaKernel(engine)\n")
    target = tmp_path / "registry_glue.py"
    target.write_text(src)
    mod = ModuleInfo.parse(target)
    assert not lint_modules([mod], rules=[get_rule("LAY001")]).findings


def test_api001_accepts_metric_recording_handler():
    """The fixture's second handler records recovery.give_ups."""
    result = _lint_fixture("api001_bad.py", "API001")
    assert len(result.findings) == 1


def test_api001_accepts_reraise(tmp_path):
    src = ("def f(op):\n"
           "    try:\n"
           "        op()\n"
           "    except RecoveryExhausted:\n"
           "        raise\n")
    target = tmp_path / "h.py"
    target.write_text(src)
    mod = ModuleInfo.parse(target)
    assert not lint_modules([mod], rules=[get_rule("API001")]).findings


def test_sim001_allows_tolerance_comparisons():
    """Only the == / != comparisons are flagged, not abs() < eps."""
    result = _lint_fixture("sim001_bad.py", "SIM001")
    assert len(result.findings) == 2


def test_shipped_tree_is_lint_clean():
    """The acceptance bar: `python -m repro lint src/repro` exits 0."""
    result = run_lint(paths=[REPO / "src" / "repro"], root=REPO)
    assert result.exit_code == 0, [f.location() for f in result.active]
