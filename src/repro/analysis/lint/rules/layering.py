"""Layering rule: the paper's central claim is that the placement of
the kernel/runtime boundary decides how awkward the language
implementation becomes, and PR 3 reified that boundary as
`repro.core.ports`.  LAY001 keeps the boundary real: every layer
above the kernel packages reaches a backend only through the
registry."""

from __future__ import annotations

from typing import FrozenSet, Iterator

from repro.analysis.lint.core import (
    ModuleInfo,
    Violation,
    imported_modules,
    module_level_imports,
    rule,
)


def _kernel_packages() -> FrozenSet[str]:
    from repro.core.ports import registered_kernels

    return frozenset(registered_kernels())


@rule(
    "LAY001",
    "kernel import that bypasses repro.core.ports",
)
def lay001(module: ModuleInfo) -> Iterator[Violation]:
    """No module outside a kernel's own package may import
    ``repro.<kernel>`` internals at module level.  Two escape hatches,
    both deliberate: per-kernel glue whose filename declares the
    kernel it binds (``repro/linda/soda_adapter.py`` may import
    ``repro.soda``), and function-level lazy imports (the registry's
    factories, the raw baselines) — those run only after a profile
    lookup has chosen the backend.  ``if TYPE_CHECKING:`` blocks are
    module-level too: typing-only cycles still count as layering."""
    kernels = _kernel_packages()
    if module.package and module.package[0] in kernels:
        return  # the kernel's own package
    for node in module_level_imports(module.tree):
        for name in imported_modules(node):
            parts = name.split(".")
            if len(parts) >= 2 and parts[0] == "repro" and parts[1] in kernels:
                kernel = parts[1]
                if kernel in module.path.stem:
                    continue  # declared per-kernel glue (soda_adapter)
                yield node, (
                    f"module-level import of repro.{kernel} crosses the "
                    f"kernel/runtime boundary; reach backends through the "
                    f"repro.core.ports registry"
                )
