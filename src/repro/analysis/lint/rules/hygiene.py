"""Lint-hygiene rules: the suppression machinery polices itself.

ALLOW001 keeps ``# repro: allow[RULE]`` honest.  An allow is a
sanctioned, justified escape hatch — but code moves, and an allow
whose finding no longer fires is a live grant of permission attached
to nothing.  Left in place it will silently re-arm the day someone
reintroduces the pattern two lines away, with the justification for a
different decade's code.  An allow naming a rule that is not
registered (a typo, or a rule since deleted) grants nothing at all and
is a finding too.

The detection is not a per-module AST walk: whether an allow is *used*
depends on which rules ran and what they found, so it runs as a
post-pass inside `lint_modules` (see ``_unused_allow_findings``) after
every other rule's findings exist.  This module only
registers the id/severity/title so the registry, report, docs table,
and drift tests treat ALLOW001 like any other rule."""

from __future__ import annotations

from typing import Iterator

from repro.analysis.lint.core import ALLOW_RULE_ID, ModuleInfo, Violation, rule


@rule(
    ALLOW_RULE_ID,
    "unused # repro: allow[...] suppression",
)
def allow001(module: ModuleInfo) -> Iterator[Violation]:
    # findings come from the post-pass in core.lint_modules, which can
    # see every other rule's output; registration here is what opts the
    # pass in and gives the rule its place in the registry
    return iter(())
