"""Layering guard for the reified kernel/runtime interface.

The point of `repro.core.ports` is that every layer above the kernel
packages — `core.api`, the CLI, workloads, benches, observability,
analysis — reaches a backend only through the registry.  The check is
LAY001 in `tests/analysis/lint_checks.py`; this test pins the tree to
it and keeps its contract on `if TYPE_CHECKING:` honest.
"""

from tests.analysis.lint_checks import lay001, parse, shipped_modules


def test_no_module_level_kernel_imports_outside_kernel_packages():
    found = [f"{m.path}:{node.lineno}" for m in shipped_modules()
             for node, _ in lay001(m)]
    assert not found, (
        "modules must reach kernels via repro.core.ports, not direct "
        "module-level imports:\n" + "\n".join(found)
    )


def test_type_checking_guard_is_not_an_escape_hatch(tmp_path):
    """LAY001 must see inside `if TYPE_CHECKING:` blocks — a
    typing-only cycle still counts as layering."""
    mod = tmp_path / "guard.py"
    mod.write_text(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.soda.kernel import SodaKernel\n"
    )
    [(node, hazard)] = lay001(parse(mod))
    assert (node.lineno, hazard) == (3, "repro.soda")
