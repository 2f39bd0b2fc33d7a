"""Every ``"module:Name"`` a kernel profile carries resolves.

A profile names its cluster class, Linda adapter and raw-RPC baseline
as strings that `repro.core.ports.load` imports on first use, so a
typo would otherwise surface only when some run first asks for that
kernel's piece.  Here it fails at once, for every registered kernel."""

import importlib

import pytest

from repro.core.cluster import ClusterBase
from repro.core.ports import kernel_profile, load, registered_kernels


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
