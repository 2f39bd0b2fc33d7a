"""The LYNX runtime for the ideal backend.

Every `rt_*` hook is the shortest correct implementation of the
published port contract (`repro.core.ports.KernelRuntimePort`):

* requests go straight into the peer end's mailbox (one charged
  handoff, `IdealCosts.delivery_ms`);
* receipt is confirmed when the owner consumes a request, so an
  aborted connect always recovers its enclosures if the server has
  not taken it yet;
* replies are screened against the shared aborted-seq table — the
  server *feels* aborts, like SODA and Chrysalis and unlike
  Charlotte — and delivered synchronously to the requester.

There is no naming, no flow control, no retry machinery and no
resend policy: the divergence-shaped complexity of the three real
runtimes is exactly what this file does not contain (E2 counts it).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.exceptions import RequestAborted
from repro.core.links import ConnectWaiter, EndRef, EndState
from repro.core.runtime import LynxRuntimeBase
from repro.core.wire import WireMessage


class IdealRuntime(LynxRuntimeBase):
    """Mailbox transport; see module docstring."""

    def __init__(self, handle, cluster) -> None:
        super().__init__(handle, cluster)
        self.costs = cluster.costs
        self.kernel = cluster.kernel

    # ------------------------------------------------------------------
    # transport hooks
    # ------------------------------------------------------------------
    def rt_new_link(self) -> Generator:
        link = self.registry.alloc_link(self.name, self.name)
        ref_a, ref_b = EndRef(link, 0), EndRef(link, 1)
        self.kernel.route[ref_a] = self
        self.kernel.route[ref_b] = self
        return ref_a, ref_b
        yield

    def _handoff(self, msg: WireMessage) -> Generator:
        """Charge the one cost of the ideal transport and span it."""
        t0 = self.engine.now
        yield self.costs.delivery_ms
        if msg.span is not None:
            self.cluster.spans.emit(
                msg.span, "kernel", "handoff", self.name, t0, self.engine.now
            )

    def rt_send_request(self, es: EndState, msg: WireMessage) -> Generator:
        if self.kernel.is_destroyed(es.ref):
            raise self.destroyed_error(self.kernel.destroyed[es.ref.link])
        yield from self._handoff(msg)
        self.kernel.post(es.ref.peer, msg)

    def rt_send_reply(self, es: EndState, msg: WireMessage) -> Generator:
        requester = es.ref.peer
        if self.kernel.is_destroyed(es.ref):
            raise self.destroyed_error(self.kernel.destroyed[es.ref.link])
        aborted = self.kernel.aborted.get(requester)
        if aborted and msg.reply_to in aborted:
            aborted.discard(msg.reply_to)
            raise RequestAborted(
                f"requester aborted seq {msg.reply_to} on {es.ref}"
            )
        yield from self._handoff(msg)
        self.kernel.deliver(requester, msg)
        # delivery is the receipt: unblock the replying coroutine now
        self.notify_receipt(es.ref, msg.seq)

    def rt_block_wait(self) -> Generator:
        yield self.wakeup_future()

    def rt_request_available(self, es: EndState) -> bool:
        return bool(self.kernel.mailbox.get(es.ref))

    def rt_take_request(self, es: EndState) -> Generator:
        box = self.kernel.mailbox.get(es.ref)
        if not box:
            return None
        msg = box.popleft()
        # receipt-at-consumption: unconsumed requests stay withdrawable
        sender = self.kernel.owner(es.ref.peer)
        if sender is not None:
            sender.notify_receipt(es.ref.peer, msg.seq)
        return msg
        yield

    def rt_destroy(self, es: EndState, reason: str) -> Generator:
        why = self.crash_tagged(reason)
        # our unconsumed sends: the base already cleared ``outgoing``,
        # so bring their enclosures home directly before the kernel
        # drops the mailboxes
        for msg in self.kernel.mailbox.get(es.ref.peer, ()):
            self._restore_enclosures(msg)
        self.kernel.destroy_link(es.ref, why)
        return
        yield

    def rt_abort_connect(self, es: EndState, waiter: ConnectWaiter) -> Generator:
        if self.kernel.withdraw(es.ref.peer, waiter.seq):
            return True
        # consumed already: flag the seq so the reply raises on the
        # server side (the ideal kernel shares SODA's capability here)
        self.kernel.aborted.setdefault(es.ref, set()).add(waiter.seq)
        return False
        yield

    def rt_adopt_end(self, ref: EndRef, meta: dict) -> Generator:
        self.kernel.route[ref] = self
        reason: Optional[str] = self.kernel.destroyed.get(ref.link)
        if reason is not None:
            self.notify_destroyed(ref, reason, crash="crash" in reason)
        elif self.kernel.mailbox.get(ref):
            self._wake()
        return
        yield
