"""Unit tests for the SODA kernel simulator (§4.1 semantics)."""

import pytest

from repro.analysis.costmodel import CostModel
from repro.core.registry import LinkRegistry
from repro.sim.engine import Engine
from repro.sim.metrics import MetricSet
from repro.sim.network import CSMABus
from repro.soda.kernel import (
    AcceptStatus,
    Interrupt,
    InterruptKind,
    SodaKernel,
)


def make_kernel(broadcast_loss=0.0, pair_limit=None):
    eng = Engine()
    metrics = MetricSet()
    costs = CostModel().soda
    if pair_limit is not None:
        from dataclasses import replace

        costs = replace(costs, pair_request_limit=pair_limit)
    bus = CSMABus(eng, metrics=metrics, broadcast_loss=broadcast_loss)
    return eng, SodaKernel(eng, metrics, costs, bus, LinkRegistry())


class Collector:
    """A fake client processor: records interrupts."""

    def __init__(self, kernel, name, node=0):
        self.name = name
        self.port = kernel.register_process(name, node)
        self.interrupts = []
        self.port.set_handler(self.interrupts.append)

    def kinds(self):
        return [i.kind for i in self.interrupts]


def test_new_names_are_unique():
    eng, k = make_kernel()
    names = {k.new_name() for _ in range(100)}
    assert len(names) == 100


def test_request_interrupt_delivered_when_name_advertised():
    eng, k = make_kernel()
    a, b = Collector(k, "a"), Collector(k, "b")
    name = k.new_name()
    k.advertise("b", name)
    k.request("a", "b", name, {"kind": "req"}, 10, 0, b"payload")
    eng.run()
    assert b.kinds() == [InterruptKind.REQUEST]
    intr = b.interrupts[0]
    assert intr.frm == "a" and intr.name == name and intr.nsend == 10


def test_request_parks_when_name_not_advertised():
    """"A process feels a software interrupt when its id and one of its
    ADVERTISED names are specified" — otherwise nothing happens (the
    stale-hint case of §4.2)."""
    eng, k = make_kernel()
    a, b = Collector(k, "a"), Collector(k, "b")
    name = k.new_name()
    k.request("a", "b", name, {}, 0, 0, None)
    eng.run()
    assert b.interrupts == []
    # late advertisement delivers the parked request
    k.advertise("b", name)
    eng.run()
    assert b.kinds() == [InterruptKind.REQUEST]


def test_accept_transfers_both_directions_and_completes():
    eng, k = make_kernel()
    a, b = Collector(k, "a"), Collector(k, "b")
    name = k.new_name()
    k.advertise("b", name)
    rid = k.request("a", "b", name, {"kind": "x"}, 5, 7, "a-data")
    eng.run()
    got = []
    b.port.accept(rid, oob={"note": "hi"}, nsend=7, nrecv=5, data="b-data")\
        .add_done_callback(lambda f: got.append(f.value))
    eng.run()
    status, data = got[0]
    assert status is AcceptStatus.OK
    assert data == "a-data"  # accepter received the requester's data
    comp = [i for i in a.interrupts if i.kind is InterruptKind.COMPLETION]
    assert len(comp) == 1
    assert comp[0].data == "b-data"
    assert comp[0].oob == {"note": "hi"}


def test_zero_length_accept_moves_no_data():
    eng, k = make_kernel()
    a, b = Collector(k, "a"), Collector(k, "b")
    name = k.new_name()
    k.advertise("b", name)
    rid = k.request("a", "b", name, {}, 5, 0, "payload")
    eng.run()
    got = []
    b.port.accept(rid, oob={"kind": "destroyed"}, nrecv=0)\
        .add_done_callback(lambda f: got.append(f.value))
    eng.run()
    status, data = got[0]
    assert status is AcceptStatus.OK and data is None
    comp = [i for i in a.interrupts if i.kind is InterruptKind.COMPLETION]
    assert comp[0].oob == {"kind": "destroyed"}


def test_death_before_accept_gives_crash_interrupt():
    """§4.1: "If a process dies before accepting a request, the
    requester feels an interrupt that informs it of the crash." """
    eng, k = make_kernel()
    a, b = Collector(k, "a"), Collector(k, "b")
    name = k.new_name()
    k.advertise("b", name)
    k.request("a", "b", name, {}, 0, 0, None)
    eng.run()
    k.process_died("b")
    eng.run()
    assert InterruptKind.CRASH in a.kinds()


def test_request_to_dead_process_crashes_immediately():
    eng, k = make_kernel()
    a, b = Collector(k, "a"), Collector(k, "b")
    k.process_died("b")
    k.request("a", "b", k.new_name(), {}, 0, 0, None)
    eng.run()
    assert a.kinds() == [InterruptKind.CRASH]


def test_accept_of_withdrawn_request_reports_withdrawn():
    eng, k = make_kernel()
    a, b = Collector(k, "a"), Collector(k, "b")
    name = k.new_name()
    k.advertise("b", name)
    rid = k.request("a", "b", name, {}, 5, 0, "data")
    eng.run()
    assert k.withdraw("a", rid)
    got = []
    b.port.accept(rid, nrecv=5).add_done_callback(lambda f: got.append(f.value))
    eng.run()
    assert got[0][0] is AcceptStatus.WITHDRAWN
    # no completion interrupt reaches the requester
    assert InterruptKind.COMPLETION not in a.kinds()


def test_pair_limit_queues_excess_requests():
    """§4.2.1: outstanding requests between a pair are limited; excess
    waits invisibly at the sending kernel."""
    eng, k = make_kernel(pair_limit=2)
    a, b = Collector(k, "a"), Collector(k, "b")
    name = k.new_name()
    k.advertise("b", name)
    rids = [k.request("a", "b", name, {"i": i}, 0, 0, None) for i in range(4)]
    eng.run()
    assert len(b.interrupts) == 2  # only the first two delivered
    assert k.metrics.get("soda.pair_limit_queued") == 2
    # accepting one frees a slot; the third request flows
    got = []
    b.port.accept(rids[0]).add_done_callback(lambda f: got.append(f.value))
    eng.run()
    assert len(b.interrupts) == 3


def test_discover_finds_advertiser():
    eng, k = make_kernel()
    a, b = Collector(k, "a"), Collector(k, "b", node=1)
    name = k.new_name()
    k.advertise("b", name)
    got = []
    a.port.discover(name).add_done_callback(lambda f: got.append(f.value))
    eng.run()
    assert got == ["b"]


def test_discover_times_out_when_nobody_advertises():
    eng, k = make_kernel()
    a = Collector(k, "a")
    Collector(k, "b")
    got = []
    a.port.discover(12345).add_done_callback(lambda f: got.append(f.value))
    eng.run()
    assert got == [None]


def test_discover_unreliable_broadcast_can_fail():
    eng, k = make_kernel(broadcast_loss=1.0)
    a, b = Collector(k, "a"), Collector(k, "b")
    name = k.new_name()
    k.advertise("b", name)
    got = []
    a.port.discover(name).add_done_callback(lambda f: got.append(f.value))
    eng.run()
    assert got == [None]


def test_requests_from_dead_process_become_withdrawn():
    eng, k = make_kernel()
    a, b = Collector(k, "a"), Collector(k, "b")
    name = k.new_name()
    k.advertise("b", name)
    rid = k.request("a", "b", name, {}, 0, 0, None)
    eng.run()
    k.process_died("a")
    got = []
    b.port.accept(rid).add_done_callback(lambda f: got.append(f.value))
    eng.run()
    assert got[0][0] is AcceptStatus.WITHDRAWN


def test_dead_requesters_queued_requests_are_never_delivered():
    """Releasing a dead requester's slots at the §4.2.1 pair limit must
    not admit its queued requests: the target would take a REQUEST
    interrupt from a process that no longer exists."""
    eng, k = make_kernel(pair_limit=2)
    a, b = Collector(k, "a"), Collector(k, "b")
    name = k.new_name()
    k.advertise("b", name)
    for i in range(4):
        k.request("a", "b", name, {"i": i}, 0, 0, None)
    k.process_died("a")
    eng.run()
    assert [i.kind for i in b.interrupts] == [InterruptKind.REQUEST] * 2
    assert sorted(i.rid for i in b.interrupts) == [1, 2]


def test_process_ids_enumerates_live_processes():
    eng, k = make_kernel()
    Collector(k, "a")
    Collector(k, "b")
    Collector(k, "c")
    k.process_died("b")
    assert sorted(k.process_ids()) == ["a", "c"]


# ----------------------------------------------------------------------
# the four request varieties of §4.1: put, get, signal, exchange
# ----------------------------------------------------------------------
def _transfer(eng, k, a, b, nsend, nrecv, a_data, acc_nsend, acc_nrecv,
              b_data):
    name = k.new_name()
    k.advertise("b", name)
    rid = k.request("a", "b", name, {}, nsend, nrecv, a_data)
    eng.run()
    got = []
    b.port.accept(rid, nsend=acc_nsend, nrecv=acc_nrecv, data=b_data)\
        .add_done_callback(lambda f: got.append(f.value))
    eng.run()
    completion = [i for i in a.interrupts
                  if i.kind is InterruptKind.COMPLETION][-1]
    return got[0], completion


def test_put_moves_data_toward_accepter_only():
    eng, k = make_kernel()
    a, b = Collector(k, "a"), Collector(k, "b")
    (status, data), comp = _transfer(eng, k, a, b, 10, 0, "payload",
                                     0, 10, "ignored")
    assert status is AcceptStatus.OK
    assert data == "payload"      # accepter received the put
    assert comp.data is None      # requester got nothing back


def test_get_moves_data_toward_requester_only():
    eng, k = make_kernel()
    a, b = Collector(k, "a"), Collector(k, "b")
    (status, data), comp = _transfer(eng, k, a, b, 0, 10, None,
                                     10, 0, "served")
    assert status is AcceptStatus.OK
    assert data is None           # accepter received nothing
    assert comp.data == "served"  # requester got the data


def test_signal_moves_no_data_but_completes():
    eng, k = make_kernel()
    a, b = Collector(k, "a"), Collector(k, "b")
    (status, data), comp = _transfer(eng, k, a, b, 0, 0, None, 0, 0, None)
    assert status is AcceptStatus.OK
    assert data is None and comp.data is None


def test_exchange_moves_data_both_directions_simultaneously():
    eng, k = make_kernel()
    a, b = Collector(k, "a"), Collector(k, "b")
    (status, data), comp = _transfer(eng, k, a, b, 5, 5, "a->b",
                                     5, 5, "b->a")
    assert status is AcceptStatus.OK
    assert data == "a->b"
    assert comp.data == "b->a"


def test_amount_transferred_is_smaller_of_specified():
    """"The amount of data transferred in each direction is the smaller
    of the specified amounts." — a zero on either side means none."""
    eng, k = make_kernel()
    a, b = Collector(k, "a"), Collector(k, "b")
    # requester offers 10 but accepter will take 0: nothing moves
    (status, data), comp = _transfer(eng, k, a, b, 10, 0, "payload",
                                     0, 0, None)
    assert status is AcceptStatus.OK
    assert data is None


# ----------------------------------------------------------------------
# the kernel's answers once a request has ended
# ----------------------------------------------------------------------
def _accept_status(eng, k, port, rid):
    """``port.accept(rid)``'s status and the simulated ms it took."""
    got = []
    t0 = eng.now
    port.accept(rid).add_done_callback(
        lambda f: got.append((f.value[0], eng.now - t0)))
    eng.run()
    return got[0]


@pytest.mark.parametrize("ending", ["accepted", "withdrawn", "crashed",
                                    "dead-on-arrival", "unknown"])
def test_accept_of_an_ended_request_resolves_withdrawn(ending):
    eng, k = make_kernel()
    a, b = Collector(k, "a"), Collector(k, "b")
    name = k.new_name()
    k.advertise("b", name)
    if ending == "dead-on-arrival":
        k.process_died("b")
    rid = k.request("a", "b", name, {}, 0, 0, None)
    eng.run()
    if ending == "accepted":
        assert _accept_status(eng, k, b.port, rid)[0] is AcceptStatus.OK
    elif ending == "withdrawn":
        assert k.withdraw("a", rid)
    elif ending == "crashed":
        k.process_died("b")
        eng.run()
    elif ending == "unknown":
        rid += 1000
    status, took = _accept_status(eng, k, b.port, rid)
    assert status is AcceptStatus.WITHDRAWN
    assert took == pytest.approx(k.costs.accept_syscall_ms)


def test_withdraw_after_accept_returns_false():
    eng, k = make_kernel()
    a, b = Collector(k, "a"), Collector(k, "b")
    name = k.new_name()
    k.advertise("b", name)
    rid = k.request("a", "b", name, {}, 0, 0, None)
    eng.run()
    assert _accept_status(eng, k, b.port, rid)[0] is AcceptStatus.OK
    assert k.withdraw("a", rid) is False
    assert k.metrics.get("soda.withdrawals") == 0


def test_parked_request_is_delivered_after_many_finished_ones():
    eng, k = make_kernel()
    a, b = Collector(k, "a"), Collector(k, "b")
    busy = k.new_name()
    k.advertise("b", busy)
    for _ in range(50):
        rid = k.request("a", "b", busy, {}, 0, 0, None)
        eng.run()
        _accept_status(eng, k, b.port, rid)
    late = k.new_name()
    parked = k.request("a", "b", late, {}, 0, 0, None)
    eng.run()
    assert [i.rid for i in b.interrupts if i.name == late] == []
    k.advertise("b", late)
    eng.run()
    assert [i.rid for i in b.interrupts if i.name == late] == [parked]


def test_nothing_is_in_flight_after_a_soda_rpc_workload(monkeypatch):
    from repro.workloads import rpc

    clusters = []
    make_cluster = rpc.make_cluster

    def keep(*args, **kwargs):
        clusters.append(make_cluster(*args, **kwargs))
        return clusters[-1]

    monkeypatch.setattr(rpc, "make_cluster", keep)
    result = rpc.run_rpc_workload("soda", 0, count=20)
    assert len(result.rtts) == 20
    (cluster,) = clusters
    assert cluster.kernel._requests == {}


@pytest.mark.parametrize("dies", ["a", "b"])
def test_nothing_is_in_flight_after_either_party_dies(dies):
    eng, k = make_kernel(pair_limit=2)
    a, b = Collector(k, "a"), Collector(k, "b")
    name = k.new_name()
    k.advertise("b", name)
    for i in range(4):
        k.request("a", "b", name, {"i": i}, 0, 0, None)
    eng.run()
    k.process_died(dies)
    eng.run()
    assert k._requests == {}
    crashes = [i.rid for i in a.interrupts if i.kind is InterruptKind.CRASH]
    assert sorted(crashes) == ([1, 2, 3, 4] if dies == "b" else [])


def test_pair_limit_queue_admits_in_fifo_order():
    eng, k = make_kernel(pair_limit=1)
    a, b = Collector(k, "a"), Collector(k, "b")
    name = k.new_name()
    k.advertise("b", name)
    rids = [k.request("a", "b", name, {"i": i}, 0, 0, None)
            for i in range(5)]
    eng.run()
    order = []
    while len(order) < len(rids):
        (intr,) = b.interrupts[len(order):]
        order.append(intr.rid)
        assert _accept_status(eng, k, b.port, intr.rid)[0] is AcceptStatus.OK
    assert order == rids
    assert k._requests == {}
