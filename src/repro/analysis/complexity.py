"""Code-size and complexity accounting for the three runtime packages.

Paper §3.3: the Charlotte runtime was "just over 4000 lines of C and
200 lines of VAX assembler, compiling to about 21K of object code ...
approximately 45% is devoted to the communication routines that
interact with the Charlotte kernel, including perhaps 5K for unwanted
messages and multiple enclosures."  §5.3: the Chrysalis runtime was
"approximately 3600 lines of C and 200 lines of assembler, compiling
to 15 or 16K ... appreciably smaller".  §4.3 predicts SODA would save
"on the order of 4K bytes" of special-case code.

We cannot compare Python lines to 1986 C lines in absolute terms; what
*is* comparable — and what the paper's claim is really about — is the
**relative** size and branchiness of the three kernel-specific runtime
halves, and what fraction of the Charlotte package exists only to
handle unwanted messages and multiple enclosures.  This module measures
those quantities by static analysis (AST) of the actual source.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import repro.core.runtime
from repro.core.ports import kernel_profile, registered_kernels

#: functions/classes of the Charlotte runtime that exist solely for the
#: §3.2.1 unwanted-message machinery and the §3.2.2 multi-enclosure
#: protocol — the "perhaps 5K" of §3.3.  Curated by reading the module;
#: `test_complexity.py` asserts the names stay in sync with the source.
CHARLOTTE_SPECIAL_CASES = frozenset(
    {
        "_bounce_unwanted",
        "_recv_bounce",
        "_recv_allow",
        "_resend",
        "_recv_goahead",
        "_recv_enc",
        "_packetise",
        "_PartialIn",
        "_recv_ack",
    }
)


def runtime_modules(kind: str) -> List:
    """The imported module set making up one kernel-specific runtime
    half — read from the backend's `KernelProfile` so this analyzer
    never names a kernel package itself (and automatically covers new
    backends such as ``ideal``)."""
    profile = kernel_profile(kind)
    return [importlib.import_module(m) for m in profile.runtime_modules]


#: the kernel-independent half shared by every backend (§2's semantics)
COMMON_MODULES = [repro.core.runtime]


@dataclass
class UnitStats:
    """Logical size of one function or class."""

    name: str
    logical_loc: int
    branches: int


@dataclass
class ModuleStats:
    module: str
    logical_loc: int
    branches: int
    units: Dict[str, UnitStats] = field(default_factory=dict)


@dataclass
class PackageStats:
    kind: str
    kernel_specific_loc: int
    kernel_specific_branches: int
    common_loc: int
    common_branches: int
    modules: List[ModuleStats] = field(default_factory=list)

    @property
    def total_loc(self) -> int:
        return self.kernel_specific_loc + self.common_loc

    @property
    def kernel_share(self) -> float:
        """Fraction of the package that is kernel-specific — the analog
        of §3.3's "devoted to the communication routines that interact
        with the ... kernel"."""
        return self.kernel_specific_loc / self.total_loc


_BRANCH_NODES = (
    ast.If,
    ast.For,
    ast.While,
    ast.Try,
    ast.ExceptHandler,
    ast.BoolOp,
    ast.IfExp,
    ast.comprehension,
)


def _logical_lines(node: ast.AST) -> int:
    """Count statement nodes — a whitespace/comment/docstring-insensitive
    'logical lines of code' measure."""
    count = 0
    for sub in ast.walk(node):
        if isinstance(sub, ast.stmt):
            # skip bare docstring expressions
            if isinstance(sub, ast.Expr) and isinstance(sub.value, ast.Constant):
                continue
            count += 1
    return count


def _branches(node: ast.AST) -> int:
    return sum(1 for sub in ast.walk(node) if isinstance(sub, _BRANCH_NODES))


def analyze_module(module) -> ModuleStats:
    src = inspect.getsource(module)
    tree = ast.parse(src)
    stats = ModuleStats(
        module=module.__name__,
        logical_loc=_logical_lines(tree),
        branches=_branches(tree),
    )
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stats.units[node.name] = UnitStats(
                node.name, _logical_lines(node), _branches(node)
            )
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        stats.units[sub.name] = UnitStats(
                            sub.name, _logical_lines(sub), _branches(sub)
                        )
    return stats


#: `src/repro` cut into the areas whose size is budgeted
#: (`SIZE_BUDGETS` in tests/analysis/test_complexity.py): a module
#: counts under the area naming its longest dotted prefix, so the rows
#: are disjoint and a new package needs a row before `area_sizes` runs
SIZE_AREAS = {
    "engine": ("repro.sim.engine", "repro.sim.backends"),
    "sim": ("repro.sim",),
    "core": ("repro.core",),
    "charlotte": ("repro.charlotte",),
    "soda": ("repro.soda",),
    "chrysalis": ("repro.chrysalis",),
    "net+ideal": ("repro.net", "repro.ideal"),
    "linda": ("repro.linda",),
    "workloads": ("repro.workloads",),
    "experiments": ("repro.experiments",),
    "obs": ("repro.obs",),
    "analysis": ("repro.analysis",),
    "cli": ("repro.cli",),
}


def area_sizes() -> Dict[str, Tuple[int, int]]:
    """``(logical lines, branches)`` of each `SIZE_AREAS` row:
    `analyze_module` summed over every module of the tree, nested
    packages included.  ``repro.__main__`` is not a module of the tree
    in this sense — importing it runs the CLI."""
    owner = {p: area for area, prefixes in SIZE_AREAS.items() for p in prefixes}
    sizes = dict.fromkeys(SIZE_AREAS, (0, 0))
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":
            continue
        area = owner[max(
            (p for p in owner if f"{info.name}.".startswith(f"{p}.")), key=len
        )]
        stats = analyze_module(importlib.import_module(info.name))
        loc, branches = sizes[area]
        sizes[area] = (loc + stats.logical_loc, branches + stats.branches)
    return sizes


def runtime_package_stats(kind: str) -> PackageStats:
    """Size up one kernel's LYNX runtime package: its kernel-specific
    modules plus the shared kernel-independent half."""
    modules = [analyze_module(m) for m in runtime_modules(kind)]
    common = [analyze_module(m) for m in COMMON_MODULES]
    return PackageStats(
        kind=kind,
        kernel_specific_loc=sum(m.logical_loc for m in modules),
        kernel_specific_branches=sum(m.branches for m in modules),
        common_loc=sum(m.logical_loc for m in common),
        common_branches=sum(m.branches for m in common),
        modules=modules,
    )


def charlotte_special_case_stats() -> UnitStats:
    """Aggregate size of the retry/forbid/allow + goahead/enc machinery
    in the Charlotte runtime — §3.3's "perhaps 5K for unwanted messages
    and multiple enclosures"."""
    (mod,) = [
        m for m in map(analyze_module, runtime_modules("charlotte"))
        if m.module == "repro.charlotte.runtime"
    ]
    loc = 0
    branches = 0
    for name in CHARLOTTE_SPECIAL_CASES:
        unit = mod.units.get(name)
        if unit is None:
            raise KeyError(
                f"special-case unit {name!r} vanished from charlotte.runtime; "
                "update CHARLOTTE_SPECIAL_CASES"
            )
        loc += unit.logical_loc
        branches += unit.branches
    return UnitStats("charlotte-special-cases", loc, branches)


def comparison() -> Dict[str, Dict[str, float]]:
    """The E2 table: per kernel, package sizes and ratios, with the
    paper's C figures alongside."""
    out: Dict[str, Dict[str, float]] = {}
    for kind in registered_kernels():
        stats = runtime_package_stats(kind)
        out[kind] = {
            "kernel_specific_loc": stats.kernel_specific_loc,
            "kernel_specific_branches": stats.kernel_specific_branches,
            "total_loc": stats.total_loc,
            "kernel_share": stats.kernel_share,
        }
    special = charlotte_special_case_stats()
    out["charlotte"]["special_case_loc"] = special.logical_loc
    out["charlotte"]["special_case_share_of_specific"] = (
        special.logical_loc / out["charlotte"]["kernel_specific_loc"]
    )
    return out
