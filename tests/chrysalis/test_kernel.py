"""Unit tests for the Chrysalis primitives (§5.1 semantics)."""

import pytest

from repro.analysis.costmodel import CostModel
from repro.chrysalis.kernel import ChrysalisKernel, ChrysalisPort, DQ_BLOCKED
from repro.core.exceptions import ProtocolViolation
from repro.sim.engine import Engine
from repro.sim.metrics import MetricSet
from repro.sim.network import SharedMemoryInterconnect
from repro.sim.tasks import Task


@pytest.fixture
def kern():
    eng = Engine()
    metrics = MetricSet()
    costs = CostModel().chrysalis
    switch = SharedMemoryInterconnect(eng, metrics=metrics)
    return eng, ChrysalisKernel(eng, metrics, costs, switch)


# ---------------------------------------------------------------- events
def test_event_post_then_wait_returns_datum(kern):
    eng, k = kern
    e = k.make_event("p")
    k.post(e, 42)
    got = []
    k.event_wait("p", e).add_done_callback(lambda f: got.append(f.value))
    eng.run()
    assert got == [42]


def test_event_wait_then_post(kern):
    eng, k = kern
    e = k.make_event("p")
    got = []
    k.event_wait("p", e).add_done_callback(lambda f: got.append(f.value))
    eng.run()
    assert got == []
    k.post(e, "late")
    eng.run()
    assert got == ["late"]


def test_only_owner_may_wait(kern):
    """"only the owner of an event block can wait" (§5.1)."""
    eng, k = kern
    e = k.make_event("owner")
    with pytest.raises(ProtocolViolation):
        k.event_wait("intruder", e)


def test_posts_queue_when_nobody_waits(kern):
    eng, k = kern
    e = k.make_event("p")
    k.post(e, 1)
    k.post(e, 2)
    got = []
    k.event_wait("p", e).add_done_callback(lambda f: got.append(f.value))
    eng.run()
    k.event_wait("p", e).add_done_callback(lambda f: got.append(f.value))
    eng.run()
    assert got == [1, 2]


# ---------------------------------------------------------------- queues
def test_dual_queue_fifo_data(kern):
    eng, k = kern
    q = k.make_queue()
    k.enqueue(q, "a")
    k.enqueue(q, "b")
    e = k.make_event("p")
    assert k.dequeue(q, e) == "a"
    assert k.dequeue(q, e) == "b"


def test_dual_queue_empty_parks_event_name(kern):
    """"Once a queue becomes empty ... dequeue operations actually
    enqueue event block names" (§5.1)."""
    eng, k = kern
    q = k.make_queue()
    e = k.make_event("p")
    assert k.dequeue(q, e) is DQ_BLOCKED
    got = []
    k.event_wait("p", e).add_done_callback(lambda f: got.append(f.value))
    # "An enqueue operation on a queue containing event block names
    # actually posts a queued event instead"
    k.enqueue(q, "datum")
    eng.run()
    assert got == ["datum"]
    # the queue is back in data mode
    k.enqueue(q, "next")
    assert k.dequeue(q, e) == "next"


def test_dual_queue_overflow_detected(kern):
    eng, k = kern
    q = k.make_queue(capacity=2)
    k.enqueue(q, 1)
    k.enqueue(q, 2)
    with pytest.raises(ProtocolViolation):
        k.enqueue(q, 3)


def test_enqueue_to_dead_queue_is_discarded(kern):
    """A stale dual-queue name after a move must be survivable (§5.2)."""
    eng, k = kern
    k.enqueue(9999, "ghost")  # no such queue
    assert k.metrics.get("chrysalis.enqueue_to_dead_queue") == 1


# --------------------------------------------------------------- objects
def test_memory_object_refcount_reclaim(kern):
    eng, k = kern
    oid = k.make_object({"x": 1})
    assert k.map_object(oid) == {"x": 1}
    k.map_object(oid)
    assert k.object_refcount(oid) == 2
    k.mark_reclaimable(oid)
    k.unmap_object(oid)
    assert not k.object_reclaimed(oid)
    k.unmap_object(oid)
    # "At this point Chrysalis notices that the reference count has
    # reached zero, and the object is reclaimed." (§5.2)
    assert k.object_reclaimed(oid)


def test_map_of_reclaimed_object_fails(kern):
    eng, k = kern
    oid = k.make_object(object())
    k.map_object(oid)
    k.mark_reclaimable(oid)
    k.unmap_object(oid)
    with pytest.raises(ProtocolViolation):
        k.map_object(oid)


def test_port_charges_costs(kern):
    """A port call is a `Delay`: the task that yields it resumes with
    the call's result once the call's cost has passed."""
    eng, k = kern
    port = ChrysalisPort(k, "p")
    done = []

    def proc():
        qid = yield port.make_queue()
        done.append((eng.now, qid in k._queues))

    Task(eng, proc(), "p")
    eng.run()
    assert done == [(pytest.approx(k.costs.make_queue_ms), True)]
