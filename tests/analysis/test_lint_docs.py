"""docs/LINT.md is a contract: its catalog must name the checks
exactly, every name it documents must exist in the codebase, its
exemption table must be the one the checks read, and the docs that
advertise the checks must link it — so the doc cannot drift from the
code."""

import re
from pathlib import Path

from tests.analysis.lint_checks import CHECKS, HOST_CLOCK_EXEMPTIONS

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "LINT.md"
CODE_DIRS = ("src", "tests", "examples", "benchmarks")


def _codebase_blob() -> str:
    chunks = []
    for d in CODE_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            chunks.append(path.read_text())
    return "\n".join(chunks)


def _section(title: str) -> str:
    """The body of one ``## `` section."""
    return DOC.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _documented_names() -> set:
    """Backticked tokens from the first column of the catalog's rows."""
    names = set()
    for line in _section("The checks").splitlines():
        if line.startswith("| `"):
            names.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return names


def test_doc_catalog_covers_the_registry_exactly():
    documented = _documented_names()
    assert documented == set(CHECKS), (
        f"docs/LINT.md catalog and CHECKS drifted: "
        f"undocumented={sorted(set(CHECKS) - documented)} "
        f"stale={sorted(documented - set(CHECKS))}"
    )


def test_every_documented_name_appears_in_codebase():
    blob = _codebase_blob()
    missing = [n for n in sorted(_documented_names()) if n not in blob]
    assert not missing, f"documented but absent from the code: {missing}"


def test_doc_states_the_workflows():
    """The exemption table in the doc is `HOST_CLOCK_EXEMPTIONS`, row
    for row, reasons included."""
    rows = {tuple(cell.strip() for cell in line.split("|")[1:4])
            for line in _section("The exemption table").splitlines()
            if line.startswith("| repro.")}
    assert rows == {(module, hazard, why) for (module, hazard), why
                    in HOST_CLOCK_EXEMPTIONS.items()}


def test_doc_is_linked_from_readme_and_api():
    assert "LINT.md" in (ROOT / "README.md").read_text()
    assert "LINT.md" in (ROOT / "docs" / "API.md").read_text()
