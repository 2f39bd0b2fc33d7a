"""docs/LINT.md is a contract: the rule catalog must cover the
registered rule set exactly, every documented token must exist in the
codebase, and the docs that advertise the pass must actually link it —
so the doc cannot drift from the linter."""

import re
from pathlib import Path

from repro.analysis.lint import registered_rules

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "LINT.md"
CODE_DIRS = ("src", "tests", "examples", "benchmarks")


def _codebase_blob() -> str:
    chunks = []
    for d in CODE_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            chunks.append(path.read_text())
    return "\n".join(chunks)


def _documented_names() -> set:
    """Backticked tokens from the first column of every table row."""
    names = set()
    for line in DOC.read_text().splitlines():
        if not line.startswith("| `"):
            continue
        first_cell = line.split("|")[1]
        names.update(re.findall(r"`([^`]+)`", first_cell))
    return names


def test_doc_catalog_covers_the_registry_exactly():
    assert DOC.exists()
    documented = _documented_names()
    registered = {r.id for r in registered_rules()}
    assert documented == registered, (
        f"docs/LINT.md catalog and the rule registry drifted: "
        f"undocumented={sorted(registered - documented)} "
        f"stale={sorted(documented - registered)}"
    )


def test_every_documented_name_appears_in_codebase():
    blob = _codebase_blob()
    missing = [n for n in sorted(_documented_names()) if n not in blob]
    assert not missing, f"documented but absent from the code: {missing}"


def test_doc_states_the_workflows():
    text = DOC.read_text()
    assert "repro: allow[" in text  # the suppression syntax
    assert "repro.lint" in text  # the JSON schema name
    assert "--json" in text
    assert "exits 2" in text or "exit 2" in text.lower()


def test_doc_severity_claims_match_registry():
    text = DOC.read_text()
    for r in registered_rules():
        assert f"| `{r.id}` | {r.severity} |" in text, (
            f"{r.id}: catalog row must state severity {r.severity!r}"
        )


def test_doc_is_linked_from_readme_and_api():
    assert "LINT.md" in (ROOT / "README.md").read_text()
    assert "LINT.md" in (ROOT / "docs" / "API.md").read_text()
