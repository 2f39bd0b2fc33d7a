"""The whole-program graph that program-scope lint rules read.

The per-file rules of `repro.analysis.lint` check what one AST can
show.  This package links every parsed module into a `ProgramGraph` —
import graph, symbol table, conservative call graph — so a rule
registered with ``scope="program"`` can follow a call across helpers
and files: NET001 finds a blocking call buried under ordinary sync
helpers inside a `repro.net` coroutine.

`build_program` links `ModuleInfo`s; `lint_modules` calls it once per
run when a program-scope rule is active, so ``python -m repro lint``
runs every rule every time.
"""

from repro.analysis.flow.graph import (
    ClassInfo,
    FunctionInfo,
    ModuleGraph,
    ProgramGraph,
    build_program,
)

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleGraph",
    "ProgramGraph",
    "build_program",
]
