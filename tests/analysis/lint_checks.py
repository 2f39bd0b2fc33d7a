"""The repo's five static checks: plain functions over one parsed
module (docs/LINT.md).

Two invariants rest on them.  *Determinism*: all randomness flows
through `repro.sim.rng.SimRandom` and all time through the engine
clock, so a run is a pure function of its seed (DET001, DET002).
*Layering*: layers above the kernel packages reach a backend only
through `repro.core.ports` (LAY001).  API001 keeps `RecoveryExhausted`
observable and SIM001 keeps exact equality off simulated timestamps.

A check takes a `Module` and yields ``(node, hazard)``.  The shipped
tree's host clocks are exempt from DET001 only by
`HOST_CLOCK_EXEMPTIONS`, keyed by (module, hazard).
`tests/analysis/test_lint_core.py` runs every check over ``src/repro``
and holds the table to the tree; `tests/analysis/test_lint_rules.py`
holds each check to its fixture under ``tests/analysis/fixtures/``
(parsed, never imported).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.core.ports import registered_kernels

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"

#: the host clocks and entropy the shipped tree reads on purpose:
#: (module, hazard) -> why.  None of them feeds simulated state.
HOST_CLOCK_EXEMPTIONS: Dict[Tuple[str, str], str] = {
    ("repro.net.load", "time"):
        "measuring real-transport wall-clock RTT is the module's purpose",
    ("repro.net.load", "os.urandom"):
        "a real node outlives a load run, so a run's identity on the "
        "wire comes from entropy",
    ("repro.obs.bench", "datetime"):
        "the bench export is stamped with real UTC time",
    ("repro.obs.bench", "datetime.now"):
        "the export stamp is metadata, not a simulation input",
}

#: the only packages an exemption may name: the real transport and the
#: bench export stamp.  The simulator reads no host clock.
HOST_CLOCK_HOMES = ("repro.net", "repro.obs.bench")


class Module(NamedTuple):
    """One parsed source file.  ``package`` is its dotted path under
    ``src/repro`` (``("sim", "rng")`` for ``src/repro/sim/rng.py``), or
    None outside it: a fixture is in every check's scope."""

    path: Path
    package: Optional[Tuple[str, ...]]
    tree: ast.Module

    @property
    def name(self) -> str:
        if self.package is None:
            return str(self.path)
        return ".".join(("repro",) + self.package)


def parse(path: Path, root: Path = REPO) -> Module:
    package = None
    try:
        parts = path.resolve().relative_to(root.resolve()).parts
    except ValueError:
        parts = ()
    if parts[:2] == ("src", "repro") and len(parts) > 2:
        mod = parts[2:-1] + (Path(parts[-1]).stem,)
        package = tuple(p for p in mod if p != "__init__")
    return Module(path, package, ast.parse(path.read_text(), str(path)))


class Finding(NamedTuple):
    check: str
    module: Module
    line: int
    hazard: str

    def __str__(self) -> str:
        return f"{self.module.path}:{self.line}: {self.check} {self.hazard}"


def run_checks(modules) -> List[Finding]:
    """Every check over every module."""
    return [Finding(cid, m, node.lineno, hazard)
            for m in modules
            for cid, check in CHECKS.items()
            for node, hazard in check(m)]


def shipped_modules() -> List[Module]:
    return [parse(p) for p in sorted(SRC.rglob("*.py"))]


def judge(found, exemptions=HOST_CLOCK_EXEMPTIONS):
    """Split ``found`` by the exemption table: the findings it does not
    exempt, and its stale entries (those that exempt nothing)."""
    def exempt(f: Finding) -> bool:
        return f.check == "DET001" and (f.module.name, f.hazard) in exemptions

    used = {(f.module.name, f.hazard) for f in found if exempt(f)}
    return [f for f in found if not exempt(f)], sorted(set(exemptions) - used)


def misplaced(exemptions=HOST_CLOCK_EXEMPTIONS) -> List[Tuple[str, str]]:
    """Exemptions outside `HOST_CLOCK_HOMES`."""
    return sorted(key for key in exemptions
                  if not any(key[0] == home or key[0].startswith(home + ".")
                             for home in HOST_CLOCK_HOMES))


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------
def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _imported(node: ast.AST) -> List[str]:
    """The dotted module names an Import/ImportFrom node binds."""
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return []


def _module_level_imports(tree: ast.Module) -> Iterator[ast.AST]:
    """Top-level imports, including those nested in module-level
    ``if`` / ``try`` blocks (``if TYPE_CHECKING:`` among them)."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            todo.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------
# DET001 / DET002: a run is a pure function of its seed
# ----------------------------------------------------------------------
ENTROPY_MODULES = frozenset({"random", "secrets", "uuid"})
CLOCK_MODULES = frozenset({"time", "datetime"})
NONDETERMINISTIC_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.thread_time", "time.thread_time_ns",
    "time.sleep",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "date.today", "datetime.date.today",
    "os.urandom",
})
#: ordering calls whose ``key=id`` orders by allocator address
ORDERING_CALLS = frozenset({"sorted", "sort", "min", "max"})


def det001(module: Module):
    """Wall-clock or entropy outside `repro.sim.rng`: an import of a
    clock or entropy module (hazard: the module), a call that reads
    the host clock or entropy pool (hazard: its dotted name), or
    ordering keyed on ``id()`` (hazard: ``key=id``)."""
    if module.package == ("sim", "rng"):
        return
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in _imported(node):
                root = name.split(".")[0]
                if root in ENTROPY_MODULES | CLOCK_MODULES:
                    yield node, root
        elif isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            if (dotted in NONDETERMINISTIC_CALLS
                    or dotted.split(".")[0] in ENTROPY_MODULES):
                yield node, dotted
            elif (
                (dotted in ORDERING_CALLS or dotted.split(".")[-1] == "sort")
                and any(kw.arg == "key" and isinstance(kw.value, ast.Name)
                        and kw.value.id == "id" for kw in node.keywords)
            ):
                yield node, "key=id"


def _order_sensitive(package: Optional[Tuple[str, ...]]) -> bool:
    """``sim/``, ``core/runtime.py`` and the kernel packages, where
    iteration order feeds scheduling decisions."""
    if package is None:
        return True
    if package[:1] == ("sim",) or package == ("core", "runtime"):
        return True
    return bool(package) and package[0] in registered_kernels()


def _is_set_expr(node: ast.AST) -> bool:
    """Syntactically set-valued: a set literal or comprehension, a call
    to set() / frozenset(), or a set-algebra method result."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "intersection", "union", "difference", "symmetric_difference",
        ):
            return True
    return False


def det002(module: Module):
    """Iteration over a syntactic set expression in an order-sensitive
    module (``for x in set(...)``, a comprehension over one,
    ``list({...})``).  Set order depends on hash values, so the
    schedule it feeds diverges between same-seed runs: sort it or keep
    an ordered collection."""
    if not _order_sensitive(module.package):
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.For) and _is_set_expr(node.iter):
            yield node.iter, "set iteration"
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                if _is_set_expr(gen.iter):
                    yield gen.iter, "set iteration"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple", "enumerate")
            and node.args
            and _is_set_expr(node.args[0])
        ):
            yield node.args[0], "set iteration"


# ----------------------------------------------------------------------
# LAY001: the kernel/runtime boundary is `repro.core.ports`
# ----------------------------------------------------------------------
def lay001(module: Module):
    """A module-level import of ``repro.<kernel>`` outside that
    kernel's own package (hazard: ``repro.<kernel>``).  Per-kernel glue
    whose filename names its kernel (``soda_adapter.py``) and
    function-level imports, which run only after a profile lookup chose
    the backend, are allowed."""
    kernels = registered_kernels()
    if module.package and module.package[0] in kernels:
        return
    for node in _module_level_imports(module.tree):
        for name in _imported(node):
            parts = name.split(".")
            if len(parts) >= 2 and parts[0] == "repro" and parts[1] in kernels:
                if parts[1] not in module.path.stem:
                    yield node, f"repro.{parts[1]}"


# ----------------------------------------------------------------------
# API001 / SIM001: the recovery signal and the simulated clock
# ----------------------------------------------------------------------
def _names_exhausted(expr: ast.AST) -> bool:
    if isinstance(expr, ast.Tuple):
        return any(_names_exhausted(e) for e in expr.elts)
    if isinstance(expr, ast.Name):
        return expr.id == "RecoveryExhausted"
    if isinstance(expr, ast.Attribute):
        return expr.attr == "RecoveryExhausted"
    return False


def _handler_keeps_signal(handler: ast.ExceptHandler) -> bool:
    """The handler re-raises or names a ``recovery.*`` metric."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.startswith("recovery.")):
            return True
    return False


def api001(module: Module):
    """An ``except RecoveryExhausted:`` handler that neither re-raises
    nor records a ``recovery.*`` metric: it hides the hint the
    runtime-placement stance exists to surface (§4.1)."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Try):
            for handler in node.handlers:
                if (handler.type is not None
                        and _names_exhausted(handler.type)
                        and not _handler_keeps_signal(handler)):
                    yield handler, "RecoveryExhausted swallowed"


#: names that hold simulated instants in this codebase's vocabulary
TIMESTAMP_NAMES = frozenset({"now", "sent_at", "t0", "t1", "deadline"})
TIMESTAMP_SUFFIXES = ("_at", "_t0", "_t1")


def _is_timestamp(expr: ast.AST) -> bool:
    if isinstance(expr, ast.Attribute):
        name = expr.attr
    elif isinstance(expr, ast.Name):
        name = expr.id
    else:
        return False
    return name in TIMESTAMP_NAMES or name.endswith(TIMESTAMP_SUFFIXES)


def sim001(module: Module):
    """``==`` / ``!=`` on a simulated timestamp.  Simulated instants
    are accumulated floats, so exact equality is a coincidence of one
    cost profile: compare with a tolerance or a half-open window."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if (isinstance(op, (ast.Eq, ast.NotEq))
                    and (_is_timestamp(left) or _is_timestamp(right))):
                yield node, "timestamp equality"


CHECKS = {
    "DET001": det001,
    "DET002": det002,
    "LAY001": lay001,
    "API001": api001,
    "SIM001": sim001,
}
