"""Every ``"module:Name"`` a kernel profile carries resolves, and
every hook a backend is handed is one some backend varies.

A profile names its cluster class, Linda adapter and raw-RPC baseline
as strings that `repro.core.ports.load` imports on first use, so a
typo would otherwise surface only when some run first asks for that
kernel's piece.  Here it fails at once, for every registered kernel."""

import ast
import importlib
import inspect
import textwrap

import pytest

from repro.core.cluster import ClusterBase
from repro.core.ports import (
    KernelRuntimePort,
    kernel_profile,
    load,
    registered_kernels,
)
from repro.core.runtime import LynxRuntimeBase


@pytest.mark.parametrize("kind", registered_kernels())
def test_the_factory_is_the_cluster_class_of_its_kind(kind):
    cls = load(kernel_profile(kind).factory)
    assert issubclass(cls, ClusterBase)
    assert cls.KIND == kind


@pytest.mark.parametrize("kind", registered_kernels())
def test_the_optional_loaders_resolve_where_they_are_set(kind):
    profile = kernel_profile(kind)
    if profile.linda_adapter is not None:
        assert isinstance(load(profile.linda_adapter), type)
    if profile.raw_rpc is not None:
        assert callable(load(profile.raw_rpc))


@pytest.mark.parametrize("kind", registered_kernels())
def test_every_runtime_module_imports(kind):
    for name in kernel_profile(kind).runtime_modules:
        assert importlib.import_module(name).__name__ == name


def test_a_misspelt_name_fails_to_load():
    with pytest.raises(ModuleNotFoundError):
        load("repro.no_such_kernel.cluster:Cluster")
    with pytest.raises(AttributeError):
        load("repro.core.ports:NoSuchName")


def _is_stub(fn) -> bool:
    """The body is only a docstring, ``pass`` or ``raise
    NotImplementedError``: the method exists to be overridden."""
    (node,) = ast.parse(textwrap.dedent(inspect.getsource(fn))).body
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        or (isinstance(stmt, ast.Raise)
            and ast.unparse(stmt.exc) == "NotImplementedError")
        for stmt in node.body
    )


DOWNCALLS = sorted(
    name for name in vars(KernelRuntimePort)
    if not name.startswith(("_", "deliver_", "notify_"))
)
CLUSTER_HOOKS = sorted(
    name for name, fn in vars(ClusterBase).items()
    if inspect.isfunction(fn) and _is_stub(fn)
)


def _hook_owners(base):
    clusters = [load(kernel_profile(k).factory) for k in registered_kernels()]
    return clusters if base is ClusterBase else [c.RUNTIME for c in clusters]


@pytest.mark.parametrize(
    "base, name",
    [(LynxRuntimeBase, n) for n in DOWNCALLS]
    + [(ClusterBase, n) for n in CLUSTER_HOOKS],
)
def test_some_backend_varies_every_hook(base, name):
    """A hook no registered backend overrides belongs to the shared
    half, not to the interface every backend is handed."""
    assert any(
        getattr(owner, name) is not getattr(base, name)
        for owner in _hook_owners(base)
    ), f"no registered backend overrides {base.__name__}.{name}"
