"""NET001 — no blocking calls reachable inside ``repro.net`` coroutines.

The real transport multiplexes every node and client connection onto
one asyncio event loop.  A single synchronous ``time.sleep``, a
blocking socket ``recv``, a file ``open``, or — worst — a nested
``Engine.run`` inside an ``async def`` stalls *every* coroutine on the
loop: the measured half of E17 silently serializes and the
measured-vs-simulated comparison stops meaning anything.

A per-file lint can catch ``time.sleep`` lexically inside an ``async
def``; what it cannot catch is the same call two frames down a
perfectly ordinary helper.  This rule walks each coroutine's body
*and* the sync functions it (transitively) calls through the resolved
call graph, and reports the blocking operation at the coroutine's call
site, naming the chain's end so the fix is one jump away.

Escapes: code handed to ``run_in_executor`` / ``asyncio.to_thread`` is
exactly where blocking calls belong, so those arguments are skipped.
Async callees are not descended into — they are coroutines themselves
and get their own scan.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.analysis.lint.core import ProgramViolation, dotted_name, rule

if TYPE_CHECKING:  # flow.graph imports the lint package, which imports this
    from repro.analysis.flow.graph import (
        FunctionInfo,
        ModuleGraph,
        ProgramGraph,
    )

#: socket methods that block the calling thread
_BLOCKING_SOCKET_METHODS = frozenset(
    {"sendall", "recv", "recv_into", "accept", "makefile"}
)
#: executor escapes: their arguments legitimately block
_EXECUTOR_CALLS = frozenset({"run_in_executor", "to_thread"})


def _in_net_scope(mod: ModuleGraph) -> bool:
    pkg = mod.info.package
    return pkg is None or pkg[:1] == ("net",)


def _sleep_is_time_sleep(mod: ModuleGraph, call: ast.Call) -> bool:
    """A bare ``sleep(...)`` that resolves to ``from time import sleep``."""
    if not isinstance(call.func, ast.Name) or call.func.id != "sleep":
        return False
    imp = mod.imports.get("sleep")
    return imp is not None and imp.module == "time" and imp.symbol == "sleep"


def _direct_block(
    program: ProgramGraph, func: FunctionInfo, call: ast.Call
) -> Optional[str]:
    """A human-readable description if this call blocks the thread."""
    mod = func.module
    name = dotted_name(call.func)
    if name == "time.sleep" or _sleep_is_time_sleep(mod, call):
        return "time.sleep(...)"
    if name is not None and (
        name == "asyncio.run" or name.endswith(".run_until_complete")
    ):
        return f"{name}(...) (nested event loop)"
    if isinstance(call.func, ast.Name) and call.func.id == "open":
        return "open(...) (synchronous file IO)"
    if isinstance(call.func, ast.Attribute):
        attr = call.func.attr
        base = dotted_name(call.func.value) or ""
        if attr in _BLOCKING_SOCKET_METHODS:
            return f"{base or '<socket>'}.{attr}(...) (blocking socket IO)"
        if attr == "connect" and "sock" in base.lower():
            return f"{base}.connect(...) (blocking socket IO)"
        if attr == "run":
            target = func.call_targets.get(id(call))
            if (
                target is not None
                and target.cls is not None
                and target.cls.name.endswith("Engine")
            ):
                return (
                    f"{target.cls.name}.run(...) (runs the simulation "
                    f"loop to completion)"
                )
    return None


def _walk_skipping_executors(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` minus the argument subtrees of executor escapes."""
    todo: List[ast.AST] = [node]
    while todo:
        cur = todo.pop()
        yield cur
        if (
            isinstance(cur, ast.Call)
            and isinstance(cur.func, ast.Attribute)
            and cur.func.attr in _EXECUTOR_CALLS
        ):
            todo.append(cur.func)  # the receiver can still block
            continue
        todo.extend(ast.iter_child_nodes(cur))


#: memo: qualname -> (description of the blocking op, or None)
_BlockMemo = Dict[str, Optional[str]]


def _blocks(
    program: ProgramGraph,
    func: FunctionInfo,
    memo: _BlockMemo,
) -> Optional[str]:
    """Does calling this *sync* function (transitively) block?  Returns
    a description like ``"time.sleep(...) in repro.net.<module>.<helper>"``."""
    key = func.qualname
    if key in memo:
        return memo[key]
    memo[key] = None  # in-progress: cycles resolve to "not blocking"
    result: Optional[str] = None
    for sub in _walk_skipping_executors(func.node):
        if not isinstance(sub, ast.Call):
            continue
        desc = _direct_block(program, func, sub)
        if desc is not None:
            result = f"{desc} in {func.qualname}"
            break
        target = func.call_targets.get(id(sub))
        if target is not None and not target.is_async:
            deeper = _blocks(program, target, memo)
            if deeper is not None:
                result = deeper
                break
    memo[key] = result
    return result


def _async_functions(
    program: ProgramGraph,
) -> Iterator[Tuple[ModuleGraph, FunctionInfo]]:
    for func in program.iter_functions():
        if func.is_async and _in_net_scope(func.module):
            yield func.module, func


@rule(
    "NET001",
    "no blocking calls reachable from repro.net coroutines",
    scope="program",
)
def check_blocking_in_coroutines(
    program: ProgramGraph,
) -> Iterator[ProgramViolation]:
    memo: _BlockMemo = {}
    for mod, func in _async_functions(program):
        seen_sites = set()
        for sub in _walk_skipping_executors(func.node):
            if not isinstance(sub, ast.Call):
                continue
            site = (getattr(sub, "lineno", 0), getattr(sub, "col_offset", 0))
            if site in seen_sites:
                continue
            desc = _direct_block(program, func, sub)
            if desc is not None:
                seen_sites.add(site)
                yield (
                    mod.info,
                    sub,
                    f"blocking call {desc} inside coroutine "
                    f"{func.qualname}; this stalls the entire event loop "
                    f"— await an async equivalent or hand it to an "
                    f"executor",
                )
                continue
            target = func.call_targets.get(id(sub))
            if target is not None and not target.is_async:
                deeper = _blocks(program, target, memo)
                if deeper is not None:
                    seen_sites.add(site)
                    yield (
                        mod.info,
                        sub,
                        f"coroutine {func.qualname} calls "
                        f"{target.qualname}, which blocks: {deeper}; "
                        f"this stalls the entire event loop — await an "
                        f"async equivalent or hand it to an executor",
                    )
    return
