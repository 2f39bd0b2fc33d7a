"""What each entry point imports, checked in a fresh interpreter.

A node process (``python -m repro.net``) is the only code the real
transport runs, and every spawn compiles what it imports when there is
no bytecode cache: it imports the wire and nothing of the simulator,
the kernels or the CLI.  And with no package ``__init__`` importing the
public API on the side, every module that others start from must import
on its own, with the kernel and engine registries whole."""

import os
import subprocess
import sys

import pytest

#: every `repro` module ``import repro.net.server`` loads: the package
#: roots, the link identity and message it encodes, and the node itself
#: (`repro.net` re-exports the supervisor's exceptions)
NODE_CLOSURE = [
    "repro",
    "repro.core",
    "repro.core.links",
    "repro.core.wire",
    "repro.net",
    "repro.net.frames",
    "repro.net.server",
    "repro.net.supervisor",
]


def _fresh(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout


def test_a_node_imports_the_wire_and_nothing_else():
    """Eight modules, not the 40 a root ``make_cluster`` re-export or a
    `repro.core.wire` that imports `repro.obs.causal` (for
    `SpanContext`) would drag in: either one loads the engine, the
    tracer and every ``__init__`` between them."""
    out = _fresh("import sys, repro.net.server\n"
                 "print(*sorted(m for m in sys.modules\n"
                 "              if m == 'repro' or m.startswith('repro.')),\n"
                 "      sep='\\n')")
    assert out.split() == NODE_CLOSURE


@pytest.mark.parametrize("module", [
    "repro.core.wire",
    "repro.obs.causal",
    "repro.net.frames",
    "repro.core.api",
    "repro.workloads.scale",
    "repro.cli",
])
def test_an_entry_imports_alone_and_the_registries_are_whole(module):
    out = _fresh(f"import {module}\n"
                 "from repro.core.ports import registered_kernels\n"
                 "from repro.sim.backends import registered_sim_backends\n"
                 "print(registered_kernels(), registered_sim_backends())")
    assert out.strip() == (
        "('charlotte', 'soda', 'chrysalis', 'ideal', 'real-asyncio') "
        "('global', 'sharded-serial', 'sharded-parallel')"
    )


def test_a_cluster_run_imports_no_guard():
    """The simulator carries its calibrated hardware itself
    (`repro.core.costs`): a cluster of every registered kind, built by
    `make_cluster` and run through one null RPC, loads nothing of
    `repro.analysis`, the guards that measure the tree."""
    out = _fresh("import sys\n"
                 "from repro.core.ports import registered_kernels\n"
                 "from repro.workloads.rpc import run_rpc_workload\n"
                 "for kind in registered_kernels():\n"
                 "    assert len(run_rpc_workload(kind, 0, count=1).rtts) == 1\n"
                 "print(*sorted(m for m in sys.modules\n"
                 "              if m.startswith('repro.analysis')))")
    assert out.split() == []
