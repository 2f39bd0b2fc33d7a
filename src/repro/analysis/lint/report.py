"""Report rendering: the machine-readable JSON document (schema
``repro.lint`` — versioned and drift-gated like the bench schemas)
and the human-readable text listing.

The JSON document is deliberately timestamp- and path-free of
anything machine-specific: findings are repo-relative and sorted, so
two clean checkouts produce byte-identical reports — the lint pass
holds itself to the determinism bar it enforces.

Schema v5 (this version) drops v4's ``counts.baselined`` and each
finding's ``baselined``: there is no baseline file, so both could hold
zero / false only.  (v4 had dropped v3's per-rule ``scope``.)
`load_lint_report` validates exactly that shape and rejects v4 and
earlier.
"""

from __future__ import annotations

from typing import List

from repro.analysis.lint.core import LintResult

LINT_SCHEMA = "repro.lint"
LINT_SCHEMA_VERSION = 5


class LintReportError(ValueError):
    """A lint report document is not one this version can load."""


def lint_json_doc(result: LintResult) -> dict:
    """The versioned machine-readable report for one lint run."""
    rules = {r.id: {"severity": r.severity, "title": r.title}
             for r in result.rules}
    return {
        "schema": LINT_SCHEMA,
        "schema_version": LINT_SCHEMA_VERSION,
        "rules": rules,
        "files_scanned": result.files_scanned,
        "counts": {
            "total": len(result.findings),
            "active": len(result.active),
            "suppressed": len(result.suppressed),
        },
        "findings": [
            {
                "rule": f.rule,
                "severity": f.severity,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
                "suppressed": f.suppressed,
            }
            for f in result.findings
        ],
        "exit_code": result.exit_code,
    }


def load_lint_report(doc: dict) -> dict:
    """Validate a ``repro.lint`` report and return it."""
    if not isinstance(doc, dict) or doc.get("schema") != LINT_SCHEMA:
        raise LintReportError(
            f"not a {LINT_SCHEMA} document: schema="
            f"{doc.get('schema') if isinstance(doc, dict) else type(doc)!r}"
        )
    version = doc.get("schema_version")
    if version != LINT_SCHEMA_VERSION:
        raise LintReportError(
            f"unsupported {LINT_SCHEMA} schema_version {version!r} "
            f"(this build loads {LINT_SCHEMA_VERSION})"
        )
    for key in ("rules", "files_scanned", "counts", "findings", "exit_code"):
        if key not in doc:
            raise LintReportError(f"lint report missing {key!r}")
    return dict(doc)


def render_text(result: LintResult) -> str:
    """The terminal listing: one line per active finding, then a
    summary that accounts for every disposition."""
    lines: List[str] = []
    for f in result.active:
        lines.append(f"{f.location()}: {f.rule} [{f.severity}] {f.message}")
    n_active = len(result.active)
    summary = (
        "repro lint: "
        f"{'ok' if not n_active else f'{n_active} finding(s)'}"
        f" ({result.files_scanned} files, {len(result.rules)} rules"
    )
    if result.suppressed:
        summary += f", {len(result.suppressed)} suppressed"
    summary += ")"
    lines.append(summary)
    return "\n".join(lines)
