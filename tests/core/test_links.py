"""`EndRef` is a value: what the tables keyed by it rely on."""

import json

import pytest

from repro.core.api import make_cluster
from repro.core.links import EndRef
from repro.core.ports import registered_kernels
from repro.workloads.migration import Dispatcher, Member, Observer
from repro.workloads.rpc import PingClient, PingServer


def test_an_end_ref_hashes_and_compares_as_its_pair():
    """The frozen dataclass it replaced hashed ``(link, side)`` too:
    no set or dict keyed by ends can change its iteration order."""
    assert hash(EndRef(7, 1)) == hash((7, 1))
    assert EndRef(7, 1) == EndRef(link=7, side=1)
    assert EndRef(7, 1) != EndRef(7, 0)
    table = {EndRef(7, 1): "x"}
    assert table[EndRef(7, 0).peer] == "x"  # equal, not identical


def test_an_end_ref_is_immutable():
    ref = EndRef(3, 0)
    with pytest.raises(AttributeError):
        ref.side = 1
    with pytest.raises(AttributeError):
        ref.owner = "p"  # no instance dict either


def test_peer_str_and_repr():
    ref = EndRef(3, 0)
    assert ref.peer == EndRef(3, 1)
    assert ref.peer.peer == ref
    assert (str(ref), str(ref.peer)) == ("L3a", "L3b")
    assert repr(ref) == "EndRef(link=3, side=0)"


def _rpc(cluster):
    s = cluster.spawn(PingServer(4, 0), "server")
    c = cluster.spawn(PingClient(3, 0), "client")
    cluster.create_link(s, c)


def _migration(cluster):
    d = cluster.spawn(Dispatcher(4, 2), "dispatcher")
    obs = cluster.spawn(Observer(4), "observer")
    cluster.create_link(d, obs)
    for i in range(2):
        cluster.create_link(d, cluster.spawn(Member(i, 2, 50.0), f"member{i}"))


@pytest.mark.parametrize("scenario", (_rpc, _migration))
@pytest.mark.parametrize("kind", registered_kernels())
def test_no_trace_record_holds_an_end_ref(kind, scenario):
    """A tuple is JSON: an `EndRef` in a ``detail`` would now export
    as ``[3, 0]`` where ``default=repr`` used to write a string.  No
    backend puts one there — links travel as their integer id."""
    cluster = make_cluster(kind, seed=3)
    scenario(cluster)
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished
    assert len(cluster.trace.events) > 20
    for ev in cluster.trace.events:
        for value in (*ev.detail.values(), *(ev.span or {}).values()):
            assert not isinstance(value, (tuple, list, dict)), ev
        json.dumps(ev.to_record())  # and nothing needs ``default=``
