"""The registered ``real-asyncio`` backend: ideal semantics, real bytes.

`repro.net.ideal_framed` is the ideal backend with every kernel
message encoded to the node processes' frame and decoded again before
delivery.  No socket is involved, so everything it produces (RTT
shapes, message counts, event order) is deterministic for a seed and
bit-identical to ``ideal`` on every simulation backend.  What is *not*
deterministic — wall-clock timing over real sockets — lives in the
distributed ``serve``/``load`` path (`tests/net/test_distributed.py`,
the ``net_meas_*`` half of the E17 bench).
"""

import pytest

from repro.core.api import kernel_profile, make_cluster, registered_kernels
from repro.core.links import EndRef
from repro.core.wire import ExceptionCode, MsgKind, WireMessage
from repro.obs.causal import SpanContext
from repro.workloads.rpc import run_rpc_workload


def _rpc(kind, **kw):
    return run_rpc_workload(kind, count=6, seed=3, **kw)


def test_registered_with_the_real_transport_flag():
    # the flag itself is gone: the backend is an ordinary registry entry
    # that reuses ideal's cost bundle under its own metric namespace
    assert "real-asyncio" in registered_kernels()
    profile = kernel_profile("real-asyncio")
    assert not hasattr(profile, "real_transport")
    assert profile.metric_namespaces == {"net"}
    assert profile.capabilities == kernel_profile("ideal").capabilities


def test_same_seed_runs_are_bit_identical():
    a, b = _rpc("real-asyncio"), _rpc("real-asyncio")
    assert a.rtts == b.rtts
    assert (a.messages, a.wire_bytes) == (b.messages, b.wire_bytes)


def test_matches_the_ideal_backend_shape_exactly():
    real, ideal = _rpc("real-asyncio"), _rpc("ideal")
    assert real.rtts == ideal.rtts
    assert (real.messages, real.wire_bytes) == (ideal.messages,
                                                ideal.wire_bytes)


@pytest.mark.parametrize("sim_backend", ["sharded-serial", "sharded-parallel"])
def test_matches_ideal_on_the_sharded_sim_backends(sim_backend):
    real = _rpc("real-asyncio", sim_backend=sim_backend)
    ideal = _rpc("ideal", sim_backend=sim_backend)
    assert real.rtts == ideal.rtts
    assert (real.messages, real.wire_bytes) == (ideal.messages,
                                                ideal.wire_bytes)


def test_transit_substitutes_the_wires_copy():
    cluster = make_cluster("real-asyncio", seed=1)
    messages = [
        WireMessage(kind=MsgKind.REQUEST, seq=9, opname="ping",
                    sighash=2**63, payload=b"over the wire"),
        WireMessage(kind=MsgKind.REPLY, seq=3, reply_to=9, opname="ping",
                    error=ExceptionCode.REQUEST_ABORTED),
        WireMessage(kind=MsgKind.REQUEST, seq=10, opname="give",
                    enclosures=[EndRef(4, 0), EndRef(7, 1)],
                    enclosure_meta=[{"home": "a"}, {"home": "b", "gen": 2}],
                    enc_total=2),
        WireMessage(kind=MsgKind.REQUEST, seq=11, opname="ping",
                    span=SpanContext(trace_id=5, span_id=6, parent_id=2,
                                     sampled=True)),
    ]
    for n, msg in enumerate(messages, start=1):
        wired = cluster.kernel._transit(msg)
        # content-identical, but a distinct object rebuilt from bytes
        assert wired == msg
        assert wired is not msg
        assert cluster.metrics.get("net.frames") == n
    assert cluster.metrics.get("net.frame_bytes") > 0
