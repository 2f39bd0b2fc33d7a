"""Fixtures for the cross-kernel conformance suite.

``kernel_kind`` parametrises every test over the *registry*
(`repro.core.ports.registered_kernels`) — the three paper kernels plus
any reference backend such as ``ideal``.  Running identical LYNX
programs on every registered backend is the paper's experimental setup
taken one step further: the suite encodes both the shared semantics
and the *documented divergences* (Charlotte's §3.2.2 enclosure loss,
Chrysalis's undetected processor failures), and the divergence tests
read each backend's `KernelCapabilities` instead of hardcoding kinds.
"""

import pytest

from repro.core.api import make_cluster, registered_kernels


@pytest.fixture(params=registered_kernels())
def kernel_kind(request):
    return request.param


@pytest.fixture
def cluster(kernel_kind):
    """A cluster on the backend under test, closed once the test is done
    (`ClusterBase.close`), whatever state the test left it in."""
    with make_cluster(kernel_kind, seed=7) as cluster:
        yield cluster
