"""Visitor core of the lint pass: findings, the rule registry, inline
suppressions, and the engine that runs every registered rule over a
set of parsed modules.

A *rule* is a check function registered under a stable id (``DET001``,
``SIM001``, ...) with a severity and a one-line title.  Its check takes
one `ModuleInfo` and yields ``(node_or_line, message)``.  Rules never
see files — the engine parses once and hands
every rule the same trees, so adding a rule costs one function, not
another walk over the repository.

Suppression is per-line and explicit: ``# repro: allow[DET001]`` on
the offending line (or the line directly above it) silences exactly
the named rules there and nowhere else.  Suppressed findings are
still reported (marked ``suppressed``) so the JSON artifact records
every sanctioned escape hatch; only *active* findings gate the exit
code.  There is no baseline of grandfathered findings: a finding is
fixed or it is allowed where it fires.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

#: the severities a rule may declare, strongest first
SEVERITIES: Tuple[str, ...] = ("error", "warning")

#: the inline suppression marker: ``repro: allow[DET001,SIM001]``
#: inside a comment; prose may follow the closing bracket (justify
#: the suppression!)
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: str
    path: str  # posix, repo-relative when under the lint root
    line: int
    col: int
    message: str
    #: silenced by an inline allow comment naming this rule
    suppressed: bool = False

    @property
    def active(self) -> bool:
        """Does this finding gate the exit code?"""
        return not self.suppressed

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


@dataclass
class ModuleInfo:
    """One parsed source file, shared by every rule.

    ``package`` is the module's dotted-path parts relative to the
    ``repro`` package root when the file lives under ``src/repro``
    (``("sim", "rng")`` for ``src/repro/sim/rng.py``) and ``None``
    otherwise.  Rules that scope themselves to parts of the tree
    (order-sensitive modules, kernel packages) treat ``None`` as
    in-scope everywhere, so fixture files and ad-hoc paths get the
    full rule set.
    """

    path: Path
    display: str
    package: Optional[Tuple[str, ...]]
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    @classmethod
    def parse(cls, path: Path, root: Optional[Path] = None) -> "ModuleInfo":
        source = path.read_text()
        display = path.as_posix()
        package: Optional[Tuple[str, ...]] = None
        if root is not None:
            try:
                rel = path.resolve().relative_to(root.resolve())
            except ValueError:
                rel = None
            if rel is not None:
                display = rel.as_posix()
                parts = rel.parts
                if parts[:2] == ("src", "repro") and len(parts) > 2:
                    mod = parts[2:-1] + (Path(parts[-1]).stem,)
                    package = tuple(p for p in mod if p != "__init__")
        return cls(
            path=path,
            display=display,
            package=package,
            source=source,
            tree=ast.parse(source, filename=str(path)),
            lines=source.splitlines(),
        )

    def allowed_rules(self, line: int) -> set:
        """Rule ids suppressed at ``line`` (1-based): an allow comment
        on the line itself or on the line directly above it."""
        allowed: set = set()
        for lineno in (line, line - 1):
            if 1 <= lineno <= len(self.lines):
                m = _ALLOW_RE.search(self.lines[lineno - 1])
                if m:
                    allowed.update(
                        tag.strip() for tag in m.group(1).split(",") if tag.strip()
                    )
        return allowed


#: what a rule's check yields: an AST node (location source) or a
#: 1-based line number, plus the human-readable message
Violation = Tuple[Union[ast.AST, int], str]
CheckFn = Callable[[ModuleInfo], Iterator[Violation]]


@dataclass(frozen=True)
class Rule:
    """A registered rule: stable id, severity, title, check function."""

    id: str
    title: str
    severity: str
    check: CheckFn

    def run(self, module: ModuleInfo) -> Iterator[Finding]:
        """Findings of this rule over one module."""
        for node_or_line, message in self.check(module):
            if isinstance(node_or_line, int):
                line, col = node_or_line, 0
            else:
                line = getattr(node_or_line, "lineno", 1)
                col = getattr(node_or_line, "col_offset", 0)
            yield Finding(
                rule=self.id,
                severity=self.severity,
                path=module.display,
                line=line,
                col=col,
                message=message,
                suppressed=self.id in module.allowed_rules(line),
            )


_RULES: Dict[str, Rule] = {}


def register_rule(r: Rule) -> Rule:
    """Register a rule; ids are unique and severities constrained."""
    if r.id in _RULES:
        raise ValueError(f"lint rule {r.id!r} already registered")
    if r.severity not in SEVERITIES:
        raise ValueError(
            f"lint rule {r.id!r}: severity {r.severity!r} not in {SEVERITIES}"
        )
    _RULES[r.id] = r
    return r


def rule(id: str, title: str, severity: str = "error"):
    """Decorator form of `register_rule` for plain check functions."""

    def deco(fn: CheckFn) -> CheckFn:
        register_rule(Rule(id=id, title=title, severity=severity, check=fn))
        return fn

    return deco


def registered_rules() -> Tuple[Rule, ...]:
    """Every registered rule, sorted by id (stable report order)."""
    return tuple(_RULES[k] for k in sorted(_RULES))


def get_rule(rule_id: str) -> Rule:
    """Look up one rule, with a helpful error listing what exists."""
    try:
        return _RULES[rule_id]
    except KeyError:
        raise ValueError(
            f"unknown lint rule {rule_id!r}; registered rules: "
            f"{', '.join(sorted(_RULES))}"
        ) from None


@dataclass
class LintResult:
    """Everything one lint run produced, in deterministic order;
    ``rules`` holds every rule that ran."""

    findings: List[Finding]
    files_scanned: int
    rules: Tuple[Rule, ...]

    @property
    def active(self) -> List[Finding]:
        return [f for f in self.findings if f.active]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def exit_code(self) -> int:
        """Non-zero iff unsuppressed findings exist."""
        return 1 if self.active else 0

    def fired(self) -> set:
        """Rule ids with at least one finding (any disposition)."""
        return {f.rule for f in self.findings}


#: rule id of the unused-suppression post-pass (see rules/hygiene.py)
ALLOW_RULE_ID = "ALLOW001"


def _comment_allow_tags(module: ModuleInfo) -> Dict[int, List[str]]:
    """``line -> allow tags`` for allows in *actual comments*.  The
    suppression regex is line-based, so prose in a docstring that
    quotes the allow syntax matches it too; convicting documentation
    of being a stale suppression would be absurd, so ALLOW001 judges
    only COMMENT tokens."""
    import io
    import tokenize

    out: Dict[int, List[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(module.source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _ALLOW_RE.search(tok.string)
            if m:
                out[tok.start[0]] = [
                    t.strip() for t in m.group(1).split(",") if t.strip()
                ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # unparseable token stream (the file itself parsed, so this is
        # rare): fall back to the same line regex suppression uses
        for lineno, text in enumerate(module.lines, start=1):
            m = _ALLOW_RE.search(text)
            if m:
                out[lineno] = [
                    t.strip() for t in m.group(1).split(",") if t.strip()
                ]
    return out


def _unused_allow_findings(
    modules: Sequence[ModuleInfo],
    findings: Sequence[Finding],
    ran_ids: set,
    allow_rule: Rule,
) -> Iterator[Finding]:
    """The ALLOW001 post-pass: every ``# repro: allow[RULE]`` tag must
    name a registered rule and have silenced an actual finding this
    run, else the escape hatch has rotted.  A tag naming a registered
    rule left out of a subset run (``rules=``) is not judged."""
    suppressed_lines: Dict[Tuple[str, str], set] = {}
    for f in findings:
        if f.suppressed:
            suppressed_lines.setdefault((f.path, f.rule), set()).add(f.line)
    for module in modules:
        for lineno, tags in sorted(_comment_allow_tags(module).items()):
            for tag in tags:
                if tag not in _RULES:
                    why = (f"unknown rule in suppression: no rule {tag} "
                           f"is registered; delete the "
                           f"`# repro: allow[{tag}]`")
                else:
                    if tag == ALLOW_RULE_ID or tag not in ran_ids:
                        continue
                    covered = suppressed_lines.get((module.display, tag),
                                                   set())
                    # an allow on line N silences findings on N and N+1
                    if covered & {lineno, lineno + 1}:
                        continue
                    why = (f"unused suppression: no {tag} finding fires "
                           f"here any more — the code this allow covered "
                           f"has changed; delete the stale "
                           f"`# repro: allow[{tag}]`")
                yield Finding(
                    rule=ALLOW_RULE_ID,
                    severity=allow_rule.severity,
                    path=module.display,
                    line=lineno,
                    col=0,
                    message=why,
                    suppressed=ALLOW_RULE_ID
                    in module.allowed_rules(lineno),
                )


def lint_modules(
    modules: Iterable[ModuleInfo],
    rules: Optional[Sequence[Rule]] = None,
) -> LintResult:
    """Run ``rules`` (default: all registered) over parsed modules;
    every rule sees each module."""
    module_list = list(modules)
    active_rules = tuple(rules) if rules is not None else registered_rules()
    findings: List[Finding] = []
    for module in module_list:
        for r in active_rules:
            findings.extend(r.run(module))
    allow_rule = next(
        (r for r in active_rules if r.id == ALLOW_RULE_ID), None
    )
    if allow_rule is not None:
        ran_ids = {r.id for r in active_rules}
        findings.extend(_unused_allow_findings(
            module_list, findings, ran_ids, allow_rule
        ))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return LintResult(
        findings=findings,
        files_scanned=len(module_list),
        rules=active_rules,
    )


# ----------------------------------------------------------------------
# shared AST helpers used by several rules
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_level_imports(tree: ast.Module) -> Iterator[ast.AST]:
    """Top-level Import/ImportFrom nodes, including ones nested in
    module-level ``if``/``try`` blocks (TYPE_CHECKING guards are
    module-level too — typing-only cycles still count as layering)."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            todo.extend(ast.iter_child_nodes(node))


def imported_modules(node: ast.AST) -> List[str]:
    """The dotted module names an Import/ImportFrom node binds."""
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return []
