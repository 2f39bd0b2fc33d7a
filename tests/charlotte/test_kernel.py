"""Unit tests for the Charlotte kernel simulator (§3.1 semantics)."""

import pytest

from repro.charlotte.kernel import (
    CallStatus,
    CharlotteKernel,
    CompletionKind,
    Direction,
)
from repro.core.costs import CostModel
from repro.core.links import EndRef
from repro.core.registry import LinkRegistry
from repro.core.wire import MsgKind, WireMessage
from repro.sim.engine import Engine
from repro.sim.metrics import MetricSet
from repro.sim.network import TokenRing


@pytest.fixture
def kern():
    eng = Engine()
    metrics = MetricSet()
    costs = CostModel().charlotte
    ring = TokenRing(eng, metrics=metrics, access_delay_ms=costs.ring_access_ms)
    kernel = CharlotteKernel(eng, metrics, costs, ring, LinkRegistry())
    return eng, kernel


def _collect(fut, sink):
    fut.add_done_callback(lambda f: sink.append(f.value))


def _mk(kernel, a="a", b="b"):
    pa = kernel.register_process(a, 0)
    pb = kernel.register_process(b, 1)
    status, ra, rb = kernel._make_link(a)
    assert status is CallStatus.SUCCESS
    # hand side b to process b (as the cluster's create_link does)
    kernel.links[ra.link].ends[1].owner = b
    kernel.links[ra.link].ends[1].node = 1
    return pa, pb, ra, rb


def _msg(kind=MsgKind.REQUEST, seq=1, payload=b"", encs=()):
    return WireMessage(
        kind=kind, seq=seq, payload=payload, enclosures=list(encs),
        enc_total=len(encs),
    )


def test_make_link_returns_two_ends(kern):
    eng, kernel = kern
    kernel.register_process("a", 0)
    status, ra, rb = kernel._make_link("a")
    assert status is CallStatus.SUCCESS
    assert ra.link == rb.link and ra.side != rb.side


def test_send_without_receive_stays_pending(kern):
    eng, kernel = kern
    pa, pb, ra, rb = _mk(kernel)
    assert kernel._send("a", ra, _msg(), None) is CallStatus.SUCCESS
    eng.run()
    # no completion anywhere: the send is parked awaiting a match
    assert not kernel._completions["a"]
    assert not kernel._completions["b"]


def test_matched_transfer_completes_both_sides(kern):
    eng, kernel = kern
    pa, pb, ra, rb = _mk(kernel)
    kernel._send("a", ra, _msg(payload=b"data"), None)
    kernel._receive("b", rb)
    eng.run()
    (ca,) = kernel._completions["a"]
    (cb,) = kernel._completions["b"]
    assert ca.kind is CompletionKind.SEND_DONE and ca.ref == ra
    assert cb.kind is CompletionKind.RECV_DONE and cb.ref == rb
    assert cb.msg.payload == b"data"


def test_one_outstanding_activity_per_direction(kern):
    eng, kernel = kern
    pa, pb, ra, rb = _mk(kernel)
    assert kernel._send("a", ra, _msg(), None) is CallStatus.SUCCESS
    assert kernel._send("a", ra, _msg(seq=2), None) is CallStatus.BUSY
    assert kernel._receive("b", rb) is CallStatus.SUCCESS
    assert kernel._receive("b", rb) is CallStatus.BUSY


def test_cancel_unmatched_send_succeeds(kern):
    eng, kernel = kern
    pa, pb, ra, rb = _mk(kernel)
    kernel._send("a", ra, _msg(), None)
    assert kernel._cancel("a", ra, Direction.SEND) is CallStatus.SUCCESS
    # and the slot is free again
    assert kernel._send("a", ra, _msg(seq=2), None) is CallStatus.SUCCESS


def test_cancel_matched_activity_fails_too_late(kern):
    """"If B has requested an operation in the meantime, the Cancel
    will fail." (§3.2.1)"""
    eng, kernel = kern
    pa, pb, ra, rb = _mk(kernel)
    kernel._receive("b", rb)
    kernel._send("a", ra, _msg(), None)
    # match already decided, transfer scheduled
    assert kernel._cancel("b", rb, Direction.RECEIVE) is CallStatus.TOO_LATE
    assert kernel._cancel("a", ra, Direction.SEND) is CallStatus.TOO_LATE


def test_cancel_nothing_returns_not_found(kern):
    eng, kernel = kern
    pa, pb, ra, rb = _mk(kernel)
    assert kernel._cancel("a", ra, Direction.SEND) is CallStatus.NOT_FOUND


def test_send_on_foreign_end_invalid(kern):
    eng, kernel = kern
    pa, pb, ra, rb = _mk(kernel)
    assert kernel._send("b", ra, _msg(), None) is CallStatus.INVALID


def test_more_than_one_enclosure_rejected(kern):
    """The kernel constraint that drives the §3.2.2 enc protocol."""
    eng, kernel = kern
    pa, pb, ra, rb = _mk(kernel)
    _, ea, eb = kernel._make_link("a")
    _, fa, fb = kernel._make_link("a")
    msg = _msg(encs=(ea, fa))
    assert kernel._send("a", ra, msg, ea) is CallStatus.INVALID


def test_enclosure_must_match_send_argument(kern):
    eng, kernel = kern
    pa, pb, ra, rb = _mk(kernel)
    _, ea, eb = kernel._make_link("a")
    assert kernel._send("a", ra, _msg(encs=(ea,)), None) is CallStatus.INVALID
    assert kernel._send("a", ra, _msg(), ea) is CallStatus.INVALID


def test_cannot_enclose_end_of_same_link(kern):
    eng, kernel = kern
    pa, pb, ra, rb = _mk(kernel)
    assert (
        kernel._send("a", ra, _msg(encs=(ra,)), ra) is CallStatus.INVALID
    )


def test_enclosure_moves_ownership_on_delivery(kern):
    eng, kernel = kern
    pa, pb, ra, rb = _mk(kernel)
    _, ea, eb = kernel._make_link("a")
    kernel._receive("b", rb)
    assert kernel._send("a", ra, _msg(encs=(ea,)), ea) is CallStatus.SUCCESS
    eng.run()
    moved = kernel.links[ea.link].ends[ea.side]
    assert moved.owner == "b"
    assert not moved.moving
    assert kernel.metrics.get("charlotte.moves_committed") == 1
    # three-party protocol cost three inter-kernel messages
    assert kernel.metrics.get("charlotte.move_msgs") == 3


def test_enclosed_end_cannot_be_used_while_moving(kern):
    eng, kernel = kern
    pa, pb, ra, rb = _mk(kernel)
    _, ea, eb = kernel._make_link("a")
    kernel._send("a", ra, _msg(encs=(ea,)), ea)  # unmatched: still staged
    assert kernel._send("a", ea, _msg(seq=9), None) is CallStatus.MOVING


def test_destroy_notifies_peer_and_fails_activities(kern):
    eng, kernel = kern
    pa, pb, ra, rb = _mk(kernel)
    kernel._send("a", ra, _msg(), None)  # unmatched
    assert kernel._destroy("b", rb) is CallStatus.SUCCESS
    eng.run()
    kinds_a = [c.kind for c in kernel._completions["a"]]
    assert CompletionKind.SEND_FAILED in kinds_a
    assert CompletionKind.LINK_DESTROYED in kinds_a
    # double destroy reports DESTROYED
    assert kernel._destroy("a", ra) is CallStatus.DESTROYED
    assert kernel._send("a", ra, _msg(), None) is CallStatus.DESTROYED


def test_process_death_destroys_all_its_links(kern):
    """§3.1: Charlotte even guarantees that process termination
    destroys all of the process's links."""
    eng, kernel = kern
    pa, pb, ra, rb = _mk(kernel)
    status, rc, rd = kernel._make_link("b")
    kernel.process_died("b")
    eng.run()
    assert kernel.links[ra.link].destroyed
    assert kernel.links[rc.link].destroyed
    kinds_a = [c.kind for c in kernel._completions["a"]]
    assert CompletionKind.LINK_DESTROYED in kinds_a


def test_receiver_death_mid_transfer_loses_the_enclosure(kern):
    """§3.2.2: the receiver dies after the transfer matched and before
    it completed.  Its death destroys the carrying link, so the
    transfer completes on a destroyed link: the sender's send fails
    in transfer, the enclosure is recorded lost and unlocked, and its
    ownership never commits to the dead receiver."""
    eng, kernel = kern
    pa, pb, ra, rb = _mk(kernel)
    _, ea, eb = kernel._make_link("a")
    kernel._receive("b", rb)
    assert kernel._send("a", ra, _msg(encs=(ea,)), ea) is CallStatus.SUCCESS
    kernel.process_died("b")
    eng.run()
    assert kernel.links[ra.link].destroyed
    assert kernel.registry.lost_ends() == [ea]
    moved = kernel.links[ea.link]
    assert moved.ends[ea.side].owner == "a"
    assert not moved.ends[ea.side].moving and not moved.move_locked
    [failed] = [c for c in kernel._completions["a"]
                if c.kind is CompletionKind.SEND_FAILED]
    assert failed.reason.startswith("in-transfer: ")
    assert kernel.metrics.get("charlotte.moves_committed") == 0


def test_wait_returns_queued_completion(kern):
    eng, kernel = kern
    pa, pb, ra, rb = _mk(kernel)
    kernel._receive("b", rb)
    kernel._send("a", ra, _msg(payload=b"z"), None)
    eng.run()
    got = []
    _collect(kernel._wait("b"), got)
    eng.run()
    assert len(got) == 1 and got[0].kind is CompletionKind.RECV_DONE


def test_wait_parks_until_completion(kern):
    eng, kernel = kern
    pa, pb, ra, rb = _mk(kernel)
    got = []
    _collect(kernel._wait("b"), got)
    eng.run()
    assert got == []  # parked
    kernel._receive("b", rb)
    kernel._send("a", ra, _msg(), None)
    eng.run()
    assert len(got) == 1 and got[0].kind is CompletionKind.RECV_DONE


def test_simultaneous_moves_of_both_ends_serialise(kern):
    """Figure 1: both ends of one link moved at once; the per-link move
    lock serialises the two agreements and both complete."""
    eng, kernel = kern
    pa, pb, ra, rb = _mk(kernel)  # transport link a<->b
    kernel.register_process("c", 2)
    kernel.register_process("d", 3)
    # second transport link between c and d
    status, rc, rd = kernel._make_link("c")
    kernel.links[rc.link].ends[1].owner = "d"
    # link 3, one end at a, other end at c
    status, e_at_a, e_at_c = kernel._make_link("a")
    kernel.links[e_at_a.link].ends[1].owner = "c"
    # a sends its end of link3 to b; c sends its end of link3 to d
    kernel._receive("b", rb)
    kernel._receive("d", rd)
    assert kernel._send("a", ra, _msg(encs=(e_at_a,)), e_at_a) is CallStatus.SUCCESS
    assert kernel._send("c", rc, _msg(seq=2, encs=(e_at_c,)), e_at_c) is CallStatus.SUCCESS
    eng.run()
    l3 = kernel.links[e_at_a.link]
    owners = {l3.ends[0].owner, l3.ends[1].owner}
    assert owners == {"b", "d"}
    assert kernel.metrics.get("charlotte.moves_committed") == 2
    # the loser of the lock race paid at least one retry
    assert kernel.metrics.get("charlotte.move_retries") >= 1
