"""The ideal kernel: per-end mailboxes and an owner table.

There is no protocol to model.  A message "on the wire" is one entry
in the destination end's mailbox; delivery is a pointer move charged
at `IdealCosts.delivery_ms`.  Receipt of a request is confirmed when
the owner *consumes* it (`IdealRuntime.rt_take_request`), so withdrawn
requests — and their enclosures — are always recoverable; replies are
handed to the requester synchronously at send time.

The kernel knows nothing about the LYNX runtime beyond the upcall half
of `repro.core.ports.KernelRuntimePort`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Set, TYPE_CHECKING

from repro.core.links import EndRef
from repro.core.wire import WireMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.ideal.runtime import IdealRuntime


class IdealKernel:
    """Owner routes, mailboxes, and the shared abort/destroy tables."""

    #: counter names — a subclass that is the same kernel under another
    #: registered name (`repro.net.ideal_framed`) keeps its own namespace
    HANDOFFS = "ideal.handoffs"
    WITHDRAWALS = "ideal.withdrawals"

    def __init__(self, registry, metrics) -> None:
        self.registry = registry
        self.metrics = metrics
        #: owning runtime of each registered end
        self.route: Dict[EndRef, "IdealRuntime"] = {}
        #: unconsumed messages, keyed by the *destination* end (the
        #: key survives moves: the adopter inherits the mailbox)
        self.mailbox: Dict[EndRef, Deque[WireMessage]] = {}
        #: destroyed links and why
        self.destroyed: Dict[int, str] = {}
        #: consumed-then-aborted request seqs, keyed by requester end
        self.aborted: Dict[EndRef, Set[int]] = {}

    def owner(self, ref: EndRef):
        return self.route.get(ref)

    def box(self, ref: EndRef) -> Deque[WireMessage]:
        return self.mailbox.setdefault(ref, deque())

    def is_destroyed(self, ref: EndRef) -> bool:
        return ref.link in self.destroyed

    def post(self, dest: EndRef, msg: WireMessage) -> None:
        """Queue ``msg`` for ``dest`` and wake its owner."""
        self.box(dest).append(msg)
        self.metrics.count(f"wire.messages.{msg.kind._value_}")
        self.metrics.count("wire.bytes", msg.wire_size)
        self.metrics.count(self.HANDOFFS)
        owner = self.route.get(dest)
        if owner is not None:
            owner._wake()

    def deliver(self, dest: EndRef, msg: WireMessage) -> None:
        """Hand a reply straight to the requester's runtime (replies
        are always wanted, §3.2.1 — no mailbox stop)."""
        self.metrics.count(f"wire.messages.{msg.kind._value_}")
        self.metrics.count("wire.bytes", msg.wire_size)
        self.metrics.count(self.HANDOFFS)
        owner = self.route.get(dest)
        if owner is not None:
            owner.deliver_reply(dest, msg)

    def withdraw(self, dest: EndRef, seq: int) -> bool:
        """Remove an unconsumed request before its receipt, if possible."""
        box = self.mailbox.get(dest)
        if box:
            for msg in list(box):
                if msg.seq == seq:
                    box.remove(msg)
                    self.metrics.count(self.WITHDRAWALS)
                    return True
        return False

    def destroy_link(self, ref: EndRef, reason: str) -> None:
        """Mark the link of ``ref`` dead and unwind both mailboxes:
        unconsumed messages were never received, so their senders get
        bounces (enclosures come home), then the surviving peer is told
        the link is gone."""
        if ref.link in self.destroyed:
            return
        self.destroyed[ref.link] = reason
        peer = ref.peer
        # messages TO ``ref`` were sent by the peer and never received
        for msg in self.mailbox.pop(ref, ()):
            sender = self.route.get(peer)
            if sender is not None:
                sender.notify_bounce(peer, msg.seq)
        # messages FROM ``ref`` sitting unconsumed at the peer
        owner = self.route.get(ref)
        for msg in self.mailbox.pop(peer, ()):
            if owner is not None:
                owner.notify_bounce(ref, msg.seq)
        self.aborted.pop(ref, None)
        self.aborted.pop(peer, None)
        peer_rt = self.route.get(peer)
        if peer_rt is not None:
            peer_rt.notify_destroyed(peer, reason, crash="crash" in reason)
        self.route.pop(ref, None)

    def process_crashed(self, runtime, reason: str) -> None:
        """A processor failed: every link routed to ``runtime`` dies.
        The dead side ran no cleanup, so the kernel does it: bounces
        for the peers' unreceived messages, loss records for the dead
        side's in-transit enclosures, crash notices all around."""
        dead = [ref for ref, rt in self.route.items() if rt is runtime]
        # unroute first so no upcall lands in the dead process
        for ref in dead:
            self.route.pop(ref, None)
        for ref in dead:
            if ref.link in self.destroyed:
                continue
            # enclosures the dead process had in transit are gone
            for msg in self.mailbox.get(ref.peer, ()):
                for enc in msg.enclosures:
                    self.registry.record_lost(enc)
            self.destroy_link(ref, reason)
            self.registry.record_destroyed(ref.link, reason)
