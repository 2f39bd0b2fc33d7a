"""Unit tests for the logical link registry (the test oracle)."""

import pytest

from repro.core.links import EndRef
from repro.core.registry import EndDisposition, LinkRegistry


def test_alloc_assigns_owners_and_increments_ids():
    r = LinkRegistry()
    l1 = r.alloc_link("a", "b")
    l2 = r.alloc_link("c", "c")
    assert l1 != l2
    assert r.owner_of(EndRef(l1, 0)) == "a"
    assert r.owner_of(EndRef(l1, 1)) == "b"
    assert r.owner_of(EndRef(l2, 0)) == "c"


def test_move_lifecycle_transitions():
    r = LinkRegistry()
    link = r.alloc_link("a", "b")
    ref = EndRef(link, 1)
    r.record_in_transit(ref)
    assert r.disposition_of(ref) is EndDisposition.IN_TRANSIT
    assert r.owner_of(ref) is None
    r.record_adopted(ref, "c")
    assert r.disposition_of(ref) is EndDisposition.OWNED
    assert r.owner_of(ref) == "c"


def test_bounce_restores_owner():
    r = LinkRegistry()
    link = r.alloc_link("a", "b")
    ref = EndRef(link, 0)
    r.record_in_transit(ref)
    r.record_bounced(ref, "a")
    assert r.owner_of(ref) == "a"
    assert r.disposition_of(ref) is EndDisposition.OWNED


def test_lost_ends_tracked():
    r = LinkRegistry()
    link = r.alloc_link("a", "b")
    ref = EndRef(link, 1)
    r.record_in_transit(ref)
    r.record_lost(ref)
    assert r.lost_ends() == [ref]
    assert r.disposition_of(ref) is EndDisposition.LOST


def test_destroy_idempotent_and_reason_kept():
    r = LinkRegistry()
    link = r.alloc_link("a", "b")
    r.record_destroyed(link, "first")
    r.record_destroyed(link, "second")
    assert r.is_destroyed(link)
    assert r.links[link].destroy_reason == "first"
    assert r.live_links() == []


def test_invariants_catch_ownerless_owned_end():
    r = LinkRegistry()
    link = r.alloc_link("a", "b")
    rec = r.links[link].ends[0]
    rec.owner = None  # corrupt deliberately
    problems = r.check_invariants()
    assert problems and "owned by nobody" in problems[0]

