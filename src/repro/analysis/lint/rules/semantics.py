"""Recovery-API and simulated-time semantics rules.

API001 guards the hints discipline (§4.1): `RecoveryExhausted` is the
one signal a runtime-placement backend gives the application that the
network misbehaved, so code that swallows it silently erases the
paper's hints-vs-absolutes distinction — a handler must either
re-raise or record a ``recovery.*`` metric so the loss stays
observable.

SIM001 guards the clock: simulated timestamps are floats accumulated
from cost-model charges, so exact equality is a coincidence of one
cost profile and breaks the moment a charge changes.  Compare with
tolerances or half-open windows.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.core import ModuleInfo, Violation, rule

EXHAUSTED = "RecoveryExhausted"


def _names_exhausted(expr: ast.AST) -> bool:
    """Does an except-clause type expression mention RecoveryExhausted?"""
    if isinstance(expr, ast.Tuple):
        return any(_names_exhausted(e) for e in expr.elts)
    if isinstance(expr, ast.Name):
        return expr.id == EXHAUSTED
    if isinstance(expr, ast.Attribute):
        return expr.attr == EXHAUSTED
    return False


def _handler_keeps_signal(handler: ast.ExceptHandler) -> bool:
    """True when the handler re-raises or records a recovery.* metric
    (any call carrying a string literal in the ``recovery.`` metric
    namespace counts — ``metrics.count("recovery.failovers")``)."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.startswith("recovery.")
        ):
            return True
    return False


@rule(
    "API001",
    "RecoveryExhausted swallowed without re-raise or recovery.* metric",
)
def api001(module: ModuleInfo) -> Iterator[Violation]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Try):
            continue
        for handler in node.handlers:
            if handler.type is None or not _names_exhausted(handler.type):
                continue
            if not _handler_keeps_signal(handler):
                yield handler, (
                    "except RecoveryExhausted must re-raise or record a "
                    "recovery.* metric; swallowing it hides the hint the "
                    "runtime-placement stance exists to surface (§4.1)"
                )


#: names that hold simulated instants in this codebase's vocabulary
TIMESTAMP_NAMES = frozenset({"now", "sent_at", "t0", "t1", "deadline"})
TIMESTAMP_SUFFIXES = ("_at", "_t0", "_t1")


def _is_timestamp(expr: ast.AST) -> bool:
    name = None
    if isinstance(expr, ast.Attribute):
        name = expr.attr
    elif isinstance(expr, ast.Name):
        name = expr.id
    if name is None:
        return False
    return name in TIMESTAMP_NAMES or name.endswith(TIMESTAMP_SUFFIXES)


@rule(
    "SIM001",
    "float equality on simulated timestamps",
)
def sim001(module: ModuleInfo) -> Iterator[Violation]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_timestamp(left) or _is_timestamp(right):
                yield node, (
                    "simulated timestamps are accumulated floats; == / != "
                    "on them is cost-model roulette — compare with a "
                    "tolerance or a half-open window"
                )
