"""The whole-program graph: modules, symbols, and a conservative call graph.

`build_program` parses nothing itself — it takes the same `ModuleInfo`
objects the per-file rules already read and links them into a
`ProgramGraph`:

* **module graph** — every file under ``src/repro`` keyed by its dotted
  name (``repro.sim.engine``); ad-hoc files (fixtures, scripts) keyed
  by their stem so program-scope rules run on them too;
* **symbol table** — per module: imports (aliases, ``from`` symbols,
  relative forms), top-level functions, and classes with their methods
  and ``self.x = ...`` bindings;
* **call graph** — for every function, the calls whose targets resolve
  statically (direct names, imported names, ``self.method``, methods
  on locally constructed instances).

Resolution is deliberately conservative: an edge exists only when the
target is certain, and anything dynamic (``fn(*args)``, dict dispatch,
``getattr``) resolves to nothing.  Program-scope rules are therefore
biased toward precision — a finding names a chain that really exists —
at the price of recall, which is the right trade for a CI gate.

Import resolution follows re-export chains (``from repro.net import
SpawnFailed`` where ``repro.net.__init__`` itself imported it from
``repro.net.supervisor``) with a cycle guard, so import cycles terminate.
Nested ``def``s are folded into their enclosing function: a closure
handed to a scheduler is part of the parent's behaviour, and walking
it with the parent is what makes reachability see it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.analysis.lint.core import ModuleInfo, dotted_name

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleGraph",
    "ProgramGraph",
    "build_program",
]

@dataclass
class FunctionInfo:
    """One function or method, with its resolved outgoing edges."""

    name: str
    qualname: str  # "<module>.<Class>.<name>" / "<module>.<name>"
    module: ModuleGraph
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    cls: Optional["ClassInfo"] = None
    is_async: bool = False
    #: resolved per call node (id(node) -> target), in source order
    call_targets: Dict[int, "FunctionInfo"] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FunctionInfo {self.qualname}>"


@dataclass
class ClassInfo:
    """One class: methods, base names, and ``self.x = ...`` bindings."""

    name: str
    module: "ModuleGraph"
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.NAME = <expr>`` seen in any method (last one wins)
    self_bindings: Dict[str, ast.AST] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClassInfo {self.module.name}.{self.name}>"


@dataclass
class _Import:
    kind: str  # "module" | "symbol"
    module: str
    symbol: Optional[str] = None


@dataclass
class ModuleGraph:
    """One module's symbol table inside the program."""

    name: str
    info: ModuleInfo
    is_package: bool
    imports: Dict[str, _Import] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ModuleGraph {self.name}>"


def module_dotted_name(info: ModuleInfo) -> str:
    """``repro.sim.engine`` for files under ``src/repro``; the file
    stem for ad-hoc paths (fixtures keep their full rule coverage)."""
    if info.package is not None:
        return ".".join(("repro",) + info.package)
    return info.path.stem


class ProgramGraph:
    """The linked whole-program view program-scope rules run on."""

    def __init__(self, modules: Sequence[ModuleGraph]) -> None:
        self.modules: Dict[str, ModuleGraph] = {m.name: m for m in modules}

    def iter_functions(self) -> List[FunctionInfo]:
        out: List[FunctionInfo] = []
        for name in sorted(self.modules):
            mod = self.modules[name]
            out.extend(mod.functions[k] for k in mod.functions)
            for cname in mod.classes:
                cls = mod.classes[cname]
                out.extend(cls.methods[k] for k in cls.methods)
        return out

    # -- symbol resolution ---------------------------------------------
    def resolve(self, mod: ModuleGraph, dotted: str):
        """Resolve a dotted name as seen from ``mod``.  Returns one of
        ``("func", FunctionInfo)``, ``("class", ClassInfo)``,
        ``("module", ModuleGraph)`` or None."""
        return self._resolve_parts(mod, dotted.split("."), set())

    def _resolve_parts(self, mod: ModuleGraph, parts: List[str], seen: set):
        if not parts:
            return ("module", mod)
        head, rest = parts[0], parts[1:]
        if head in mod.classes:
            cls = mod.classes[head]
            if not rest:
                return ("class", cls)
            if len(rest) == 1:
                meth = self.class_method(cls, rest[0])
                if meth is not None:
                    return ("func", meth)
            return None
        if head in mod.functions:
            return ("func", mod.functions[head]) if not rest else None
        imp = mod.imports.get(head)
        if imp is not None:
            if imp.kind == "module":
                return self._resolve_module_path(imp.module, rest, seen)
            # a `from M import x` symbol: x may itself be a submodule
            sub = f"{imp.module}.{imp.symbol}"
            if sub in self.modules:
                return self._resolve_module_path(sub, rest, seen)
            target = self.modules.get(imp.module)
            if target is None:
                return None
            key = (target.name, imp.symbol)
            if key in seen:  # re-export cycle: give up, don't loop
                return None
            seen.add(key)
            return self._resolve_parts(target, [imp.symbol] + rest, seen)
        return None

    def _resolve_module_path(self, dotted: str, rest: List[str], seen: set):
        parts = dotted.split(".") + rest
        for i in range(len(parts), 0, -1):
            name = ".".join(parts[:i])
            if name in self.modules:
                remaining = parts[i:]
                if not remaining:
                    return ("module", self.modules[name])
                return self._resolve_parts(self.modules[name], remaining, seen)
        return None

    def class_method(self, cls: ClassInfo, name: str,
                     _seen: Optional[set] = None) -> Optional[FunctionInfo]:
        """Look ``name`` up on ``cls`` and its resolvable bases."""
        if name in cls.methods:
            return cls.methods[name]
        _seen = _seen if _seen is not None else set()
        key = (cls.module.name, cls.name)
        if key in _seen:
            return None
        _seen.add(key)
        for base in cls.bases:
            resolved = self._resolve_parts(cls.module, base.split("."), set())
            if resolved is not None and resolved[0] == "class":
                meth = self.class_method(resolved[1], name, _seen)
                if meth is not None:
                    return meth
        return None


# ----------------------------------------------------------------------
# building: per-module symbol tables, then a linking pass
# ----------------------------------------------------------------------
def _collect_imports(mod: ModuleGraph) -> None:
    for node in ast.walk(mod.info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    mod.imports[alias.asname] = _Import("module", alias.name)
                else:
                    head = alias.name.split(".")[0]
                    mod.imports.setdefault(head, _Import("module", head))
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = mod.name.split(".")
                if not mod.is_package:
                    parts = parts[:-1]
                parts = parts[: max(len(parts) - (node.level - 1), 0)]
                base = ".".join(parts + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue  # star imports resolve to nothing (precision)
                bound = alias.asname or alias.name
                mod.imports[bound] = _Import("symbol", base, alias.name)


def _collect_class(mod: ModuleGraph, node: ast.ClassDef) -> ClassInfo:
    cls = ClassInfo(name=node.name, module=mod, node=node)
    for base in node.bases:
        name = dotted_name(base)
        if name is not None:
            cls.bases.append(name)
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fi = FunctionInfo(
                name=stmt.name,
                qualname=f"{mod.name}.{node.name}.{stmt.name}",
                module=mod,
                node=stmt,
                cls=cls,
                is_async=isinstance(stmt, ast.AsyncFunctionDef),
            )
            cls.methods[stmt.name] = fi
    # self.NAME = <expr> bindings, from every method
    for meth in cls.methods.values():
        for sub in ast.walk(meth.node):
            if not isinstance(sub, ast.Assign):
                continue
            for t in sub.targets:
                if (
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                ):
                    cls.self_bindings[t.attr] = sub.value
    return cls


def _collect_module(info: ModuleInfo) -> ModuleGraph:
    mod = ModuleGraph(
        name=module_dotted_name(info),
        info=info,
        is_package=info.path.name == "__init__.py",
    )
    _collect_imports(mod)
    for node in info.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            mod.functions[node.name] = FunctionInfo(
                name=node.name,
                qualname=f"{mod.name}.{node.name}",
                module=mod,
                node=node,
                is_async=isinstance(node, ast.AsyncFunctionDef),
            )
        elif isinstance(node, ast.ClassDef):
            mod.classes[node.name] = _collect_class(mod, node)
    return mod


class _Linker(ast.NodeVisitor):
    """Resolve one function's call sites.

    Walks the function body in source order, tracking locally
    constructed instances (``x = SomeClass(...)``) so ``x.method()``
    resolves.  Nested ``def``s are walked as part of the parent.
    """

    def __init__(self, program: ProgramGraph, func: FunctionInfo) -> None:
        self.program = program
        self.func = func
        self.mod = func.module
        #: local name -> ClassInfo for locally constructed instances
        self.local_types: Dict[str, ClassInfo] = {}

    def run(self) -> None:
        node = self.func.node
        for stmt in node.body:
            self.visit(stmt)

    # -- resolution helpers --------------------------------------------
    def _resolve_callable(self, expr: ast.AST):
        """Resolve an expression to a FunctionInfo, or None."""
        cls = self.func.cls
        if isinstance(expr, ast.Attribute):
            base = expr.value
            if isinstance(base, ast.Name):
                if base.id in ("self", "cls") and cls is not None:
                    meth = self.program.class_method(cls, expr.attr)
                    if meth is not None:
                        return meth
                    # `self.x(...)` where __init__ bound x to a method:
                    bound = cls.self_bindings.get(expr.attr)
                    if bound is not None:
                        return self._resolve_callable(bound)
                    return None
                local = self.local_types.get(base.id)
                if local is not None:
                    return self.program.class_method(local, expr.attr)
        name = dotted_name(expr)
        if name is None:
            return None
        resolved = self.program.resolve(self.mod, name)
        if resolved is None:
            return None
        if resolved[0] == "func":
            return resolved[1]
        if resolved[0] == "class":
            return self.program.class_method(resolved[1], "__init__")
        return None

    def _resolve_class(self, expr: ast.AST) -> Optional[ClassInfo]:
        name = dotted_name(expr)
        if name is None:
            return None
        resolved = self.program.resolve(self.mod, name)
        if resolved is not None and resolved[0] == "class":
            return resolved[1]
        return None

    # -- visitors ------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        # track `x = SomeClass(...)` for later `x.method()` resolution
        if isinstance(node.value, ast.Call):
            built = self._resolve_class(node.value.func)
            if built is not None:
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        self.local_types[t.id] = built
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        target = self._resolve_callable(node.func)
        if target is not None:
            self.func.call_targets[id(node)] = target
        self.generic_visit(node)


def build_program(modules: Iterable[ModuleInfo]) -> ProgramGraph:
    """Link parsed modules into a `ProgramGraph` (one pass to collect
    symbols, one to resolve call sites)."""
    graphs: List[ModuleGraph] = []
    names: Set[str] = set()
    for info in modules:
        mg = _collect_module(info)
        if mg.name in names:  # two ad-hoc files with one stem: keep first
            continue
        names.add(mg.name)
        graphs.append(mg)
    program = ProgramGraph(graphs)
    for func in program.iter_functions():
        _Linker(program, func).run()
    return program
