"""Per-check contract tests: every check fires on its seeded fixture
under ``tests/analysis/fixtures/`` and stays silent on the clean
fixture and on its designated exemptions.  The fixtures are never
imported — only parsed."""

from pathlib import Path

import pytest

from tests.analysis.lint_checks import (
    CHECKS,
    REPO,
    judge,
    parse,
    run_checks,
    shipped_modules,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"

RULE_FIXTURES = {
    "DET001": "det001_bad.py",
    "DET002": "det002_bad.py",
    "LAY001": "lay001_bad.py",
    "API001": "api001_bad.py",
    "SIM001": "sim001_bad.py",
}


def _hazards(path, rule_id, root=REPO):
    return [hazard for _, hazard in CHECKS[rule_id](parse(path, root=root))]


@pytest.mark.parametrize("rule_id,fixture", sorted(RULE_FIXTURES.items()))
def test_rule_fires_on_its_fixture(rule_id, fixture):
    assert _hazards(FIXTURES / fixture, rule_id)


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_rule_passes_the_clean_fixture(rule_id):
    assert _hazards(FIXTURES / "clean.py", rule_id) == []


def test_full_rule_set_on_fixture_dir_fires_every_rule():
    found = run_checks(parse(p) for p in sorted(FIXTURES.glob("*.py")))
    assert {f.check for f in found} == set(RULE_FIXTURES) == set(CHECKS)


# ----------------------------------------------------------------------
# check-specific contracts beyond fire/clean
# ----------------------------------------------------------------------
def test_det001_exempts_sim_rng():
    """The one sanctioned entropy source may import random freely."""
    rng = REPO / "src" / "repro" / "sim" / "rng.py"
    assert parse(rng).package == ("sim", "rng")
    assert _hazards(rng, "DET001") == []


def test_det001_finds_each_hazard_kind():
    hazards = _hazards(FIXTURES / "det001_bad.py", "DET001")
    assert {"random", "uuid", "time.time", "random.random",
            "key=id"} <= set(hazards)


def test_det002_only_in_order_sensitive_modules(tmp_path):
    """The same set iteration is fine in, say, an analysis module."""
    src = "def f(xs):\n    for x in set(xs):\n        yield x\n"
    target = tmp_path / "src" / "repro" / "analysis" / "report.py"
    target.parent.mkdir(parents=True)
    target.write_text(src)
    assert parse(target, root=tmp_path).package == ("analysis", "report")
    assert _hazards(target, "DET002", root=tmp_path) == []

    sim_target = tmp_path / "src" / "repro" / "sim" / "sched.py"
    sim_target.parent.mkdir(parents=True)
    sim_target.write_text(src)
    assert _hazards(sim_target, "DET002", root=tmp_path)


def test_lay001_exempts_the_kernels_own_package(tmp_path):
    target = tmp_path / "src" / "repro" / "soda" / "runtime.py"
    target.parent.mkdir(parents=True)
    target.write_text("from repro.soda.kernel import SodaKernel  # noqa\n")
    assert parse(target, root=tmp_path).package == ("soda", "runtime")
    assert _hazards(target, "LAY001", root=tmp_path) == []


def test_lay001_exempts_declared_per_kernel_glue(tmp_path):
    target = tmp_path / "soda_adapter.py"
    target.write_text("from repro.soda.kernel import SodaKernel  # noqa\n")
    assert _hazards(target, "LAY001") == []


def test_lay001_sees_type_checking_guards():
    """`if TYPE_CHECKING:` is not an escape hatch (module-level too)."""
    assert sorted(_hazards(FIXTURES / "lay001_bad.py", "LAY001")) == [
        "repro.charlotte", "repro.soda"]


def test_lay001_ignores_function_level_imports(tmp_path):
    target = tmp_path / "registry_glue.py"
    target.write_text("def factory(engine):\n"
                      "    from repro.soda.kernel import SodaKernel\n"
                      "    return SodaKernel(engine)\n")
    assert _hazards(target, "LAY001") == []


def test_api001_accepts_metric_recording_handler():
    """The fixture's second handler records recovery.give_ups."""
    assert len(_hazards(FIXTURES / "api001_bad.py", "API001")) == 1


def test_api001_accepts_reraise(tmp_path):
    target = tmp_path / "h.py"
    target.write_text("def f(op):\n"
                      "    try:\n"
                      "        op()\n"
                      "    except RecoveryExhausted:\n"
                      "        raise\n")
    assert _hazards(target, "API001") == []


def test_sim001_allows_tolerance_comparisons():
    """Only the == / != comparisons are flagged, not abs() < eps."""
    assert len(_hazards(FIXTURES / "sim001_bad.py", "SIM001")) == 2


def test_shipped_tree_is_lint_clean():
    """Each check on its own finds nothing unexempted in ``src/repro``."""
    found = run_checks(shipped_modules())
    for rule_id in sorted(CHECKS):
        active, _ = judge([f for f in found if f.check == rule_id])
        assert active == [], (rule_id, [str(f) for f in active])
