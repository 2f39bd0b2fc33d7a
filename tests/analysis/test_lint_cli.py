"""Tests for ``python -m repro lint``: exit codes, the JSON report
(checked against the golden schema the same way BENCH docs are), and
the path-error convention shared with ``bench --only``."""

import json
import time
from pathlib import Path

from repro.cli import main

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden_lint_schema.json"


def test_lint_shipped_tree_exits_zero(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "repro lint: ok" in out


def test_lint_exits_nonzero_on_each_bad_fixture(capsys):
    for fixture in sorted(FIXTURES.glob("*_bad.py")):
        assert main(["lint", str(fixture)]) == 1, fixture.name
        out = capsys.readouterr().out
        assert "finding(s)" in out


def test_lint_clean_fixture_exits_zero(capsys):
    assert main(["lint", str(FIXTURES / "clean.py")]) == 0
    capsys.readouterr()


def test_lint_missing_path_exits_2_with_message(capsys):
    assert main(["lint", "no/such/path.py"]) == 2
    err = capsys.readouterr().err
    assert "repro lint:" in err and "no such file or directory" in err


def test_lint_json_stdout_matches_golden_schema(capsys):
    assert main(["lint", "--json", "-", str(FIXTURES)]) == 1
    doc = json.loads(capsys.readouterr().out)
    golden = json.loads(GOLDEN.read_text())
    assert doc["schema"] == golden["schema"]
    assert doc["schema_version"] == golden["schema_version"]
    assert sorted(doc) == golden["top_level"]
    assert sorted(doc["counts"]) == golden["counts_keys"]
    assert sorted(doc["rules"]) == golden["rule_ids"]
    for entry in doc["rules"].values():
        assert sorted(entry) == golden["rule_keys"]
    # the fixture directory seeds a finding for every rule
    assert {f["rule"] for f in doc["findings"]} == set(golden["rule_ids"])
    for f in doc["findings"]:
        assert sorted(f) == golden["finding_keys"]
    assert doc["exit_code"] == 1
    assert doc["counts"]["active"] == len(doc["findings"])


def test_lint_json_report_is_deterministic(capsys):
    """Two runs over the same tree produce byte-identical reports —
    no timestamps, no absolute paths, stable ordering."""
    assert main(["lint", "--json", "-", str(FIXTURES)]) == 1
    first = capsys.readouterr().out
    assert main(["lint", "--json", "-", str(FIXTURES)]) == 1
    assert capsys.readouterr().out == first


def test_lint_json_to_file(tmp_path, capsys):
    out = tmp_path / "lint.json"
    assert main(["lint", "--json", str(out)]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.lint"
    assert doc["exit_code"] == 0


def test_lint_suppressions_visible_in_text_summary(capsys):
    """The shipped tree's sanctioned wall-clock uses show up in the
    summary so the escape hatch stays visible."""
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "suppressed" in out


def test_lint_deep_shipped_tree_exits_zero(capsys):
    """The acceptance bar: the full pass — every rule — over src/ is
    clean, inside a wall budget generous next to its ~2.5 s
    and tight enough to catch an accidentally quadratic rule before
    the analysis becomes the slow stage."""
    from repro.analysis.lint import registered_rules

    t0 = time.perf_counter()
    assert main(["lint"]) == 0
    assert time.perf_counter() - t0 < 30.0
    out = capsys.readouterr().out
    assert f"{len(registered_rules())} rules" in out


def test_lint_deep_flag_is_gone(capsys):
    """Every run runs every rule, so there is no flag to opt in."""
    import pytest

    with pytest.raises(SystemExit) as exc:
        main(["lint", "--deep"])
    assert exc.value.code == 2
    assert "--deep" in capsys.readouterr().err


def test_lint_baseline_flags_are_gone(capsys):
    """A finding is fixed or allowed inline where it fires (ALLOW001
    polices the allows), so there is no baseline file to name or
    rewrite."""
    import pytest

    for flag in (["--baseline", "b.json"], ["--fix-baseline"]):
        with pytest.raises(SystemExit) as exc:
            main(["lint", *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err


def test_lint_report_loader_validates_the_current_shape(capsys):
    """`load_lint_report` returns a well-formed report unchanged and
    rejects everything else — a version-2 document (with its top-level
    `deep` flag), a version-3 one (with its per-rule `scope`) and a
    version-4 one (with its `baselined` count and flags) included: none
    was ever archived."""
    import pytest

    from repro.analysis.lint import LintReportError, load_lint_report

    assert main(["lint", "--json", "-", str(FIXTURES)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert load_lint_report(doc) == doc

    scoped = {rid: {**entry, "scope": "module"}
              for rid, entry in doc["rules"].items()}
    baselined = {
        "counts": {**doc["counts"], "baselined": 0},
        "findings": [{**f, "baselined": False} for f in doc["findings"]],
    }
    for broken in (
        {**doc, "schema": "wrong"},
        {**doc, "schema_version": 2, "deep": True},
        {**doc, "schema_version": 3, "rules": scoped},
        {**doc, "schema_version": 4, **baselined},
        {k: v for k, v in doc.items() if k != "findings"},
    ):
        with pytest.raises(LintReportError):
            load_lint_report(broken)
