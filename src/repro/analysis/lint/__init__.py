"""repro.analysis.lint — the determinism & layering static-analysis pass.

The reproduction rests on two invariants nothing else enforces
mechanically: *determinism* (all randomness and time flow through
`repro.sim.rng.SimRandom` and the engine clock, which is what makes
same-seed fault runs bit-identical and every bench comparison
meaningful) and *layering discipline* (runtimes reach kernels only
through `repro.core.ports` and the capabilities each backend
declares).  This package turns both conventions into checked rules,
Eraser-style: an AST visitor core, a rule registry with per-rule
severity, and ``# repro: allow[RULE]`` inline suppressions, each
policed by ALLOW001.  One registry holds every rule, each reading one
module, and every run runs them all.  Blocking calls inside
`repro.net` coroutines are caught at run time instead, by the audit
hook in ``tests/net/conftest.py``.

Entry points::

    python -m repro lint [--json OUT|-] [paths...]

    from repro.analysis.lint import run_lint
    result = run_lint()            # every rule over <repo>/src/repro
    result.exit_code               # 1 iff active findings exist

The rule catalog, suppression workflow and JSON report schema are
documented in docs/LINT.md (kept honest by a doc-drift test).
"""

from repro.analysis.lint.core import (
    Finding,
    LintResult,
    ModuleInfo,
    Rule,
    get_rule,
    register_rule,
    registered_rules,
    rule,
)
from repro.analysis.lint.report import (
    LINT_SCHEMA,
    LINT_SCHEMA_VERSION,
    LintReportError,
    lint_json_doc,
    load_lint_report,
    render_text,
)
from repro.analysis.lint.runner import (
    LintPathError,
    collect_files,
    lint_repo_root,
    run_lint,
)

# importing the rules package registers the shipped rule set
import repro.analysis.lint.rules  # noqa: F401  (registration side effect)

__all__ = [
    "Finding",
    "LINT_SCHEMA",
    "LINT_SCHEMA_VERSION",
    "LintPathError",
    "LintReportError",
    "LintResult",
    "ModuleInfo",
    "Rule",
    "collect_files",
    "get_rule",
    "lint_json_doc",
    "lint_repo_root",
    "load_lint_report",
    "register_rule",
    "registered_rules",
    "render_text",
    "rule",
    "run_lint",
]
