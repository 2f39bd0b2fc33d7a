"""Layering guard for the reified kernel/runtime interface.

The point of `repro.core.ports` is that every layer above the kernel
packages — `core.api`, the CLI, workloads, benches, observability,
analysis — reaches a backend only through the registry.  The check is
LAY001 in `tests/analysis/lint_checks.py`; the shipped tree is held to
it with the other checks (`tests/analysis/test_lint_core.py::
test_shipped_tree_is_clean`), and this test keeps its contract on
`if TYPE_CHECKING:` honest.
"""

from tests.analysis.lint_checks import lay001, parse


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
