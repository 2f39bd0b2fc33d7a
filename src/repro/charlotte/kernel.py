"""The Charlotte kernel (paper §3.1), simulated.

Kernel calls (verbatim from the paper)::

    MakeLink (var end1, end2 : link)
    Destroy  (myend : link)
    Send     (L : link; buffer; length; enclosure : link)
    Receive  (L : link; buffer; length)
    Cancel   (L : link; d : direction)
    Wait     (var e : description)

"All calls return a status code.  All but Wait are guaranteed to
complete in a bounded amount of time. ... The Charlotte kernel matches
send and receive activities.  It allows only one outstanding activity
in each direction on a given end of a link."

Simulation notes
----------------
* Each simulated process gets a `KernelPort`; every bounded call
  returns a `repro.sim.tasks.Delay` that resumes the caller after the
  syscall CPU cost with a `CallStatus` (plus results).  `wait()`
  returns a Future that resolves when a completion descriptor is
  available.
* Messages between nodes ride the `TokenRing` model; the kernel adds a
  per-message fixed cost and per-byte copy cost from the cost model.
* At most **one enclosure per message** (the §3.2.2 constraint that
  forces the LYNX runtime's enc-packet protocol).
* Enclosure moves run the three-party agreement of §6 lesson 1 ("The
  Charlotte kernel admits that a link end has been moved only when all
  three parties agree"), implemented in `repro.charlotte.moves`; its
  inter-kernel messages are counted under ``charlotte.move_msgs``.
* Process death (any crash mode) is detected by the kernel, which
  destroys all the process's links and notifies the peers — Charlotte
  "even guarantees that process termination destroys all of the
  process's links" (§3.1).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.analysis.costmodel import CharlotteCosts
from repro.charlotte import moves
from repro.core.links import EndRef
from repro.core.wire import MsgKind, WireMessage
from repro.sim.engine import Engine
from repro.sim.futures import Future, FutureState
from repro.sim.metrics import MetricSet
from repro.sim.network import TokenRing
from repro.sim.tasks import Delay


#: the kernel span of a transfer, by message kind: built once, shared
#: by every trace row that records one
_TRANSFER_SPANS = {k._value_: f"transfer:{k._value_}" for k in MsgKind}


class CallStatus(enum.Enum):
    SUCCESS = "success"
    #: the link is (already) destroyed
    DESTROYED = "destroyed"
    #: activity slot already in use in that direction
    BUSY = "busy"
    #: cancel lost the race: the activity already matched
    TOO_LATE = "too-late"
    #: no such activity to cancel
    NOT_FOUND = "not-found"
    #: the end is currently being moved
    MOVING = "moving"
    #: bad arguments (enclosing an end of the same link, etc.)
    INVALID = "invalid"


class Direction(enum.Enum):
    SEND = "send"
    RECEIVE = "receive"


class CompletionKind(enum.Enum):
    SEND_DONE = "send-done"
    RECV_DONE = "recv-done"
    SEND_FAILED = "send-failed"
    RECV_FAILED = "recv-failed"
    #: unsolicited notification that a link of yours died
    LINK_DESTROYED = "link-destroyed"


@dataclass
class Completion:
    """What Wait returns: "link end, direction, length, enclosure"."""

    kind: CompletionKind
    ref: EndRef
    msg: Optional[WireMessage] = None
    status: CallStatus = CallStatus.SUCCESS
    reason: str = ""


@dataclass
class _Activity:
    msg: Optional[WireMessage] = None  # send only
    matched: bool = False


@dataclass
class _KEnd:
    ref: EndRef
    owner: str
    node: int
    send: Optional[_Activity] = None
    recv: Optional[_Activity] = None
    #: set while this end is the enclosure of an in-flight message
    moving: bool = False


@dataclass
class _KLink:
    link: int
    ends: List[_KEnd]
    destroyed: bool = False
    #: move-protocol mutual exclusion (repro.charlotte.moves)
    move_locked: bool = False


class CharlotteKernel:
    """Global kernel state (logically replicated per node; inter-node
    interactions are charged to the ring and counted)."""

    def __init__(
        self,
        engine: Engine,
        metrics: MetricSet,
        costs: CharlotteCosts,
        ring: TokenRing,
        registry,
        spans=None,
    ) -> None:
        self.engine = engine
        self.metrics = metrics
        self.costs = costs
        self.ring = ring
        self.registry = registry
        #: causal SpanTracker of the owning cluster (None for bare
        #: kernel tests); transfers of span-carrying messages open
        #: kernel/network child spans (repro.obs.causal)
        self.spans = spans
        self.links: Dict[int, _KLink] = {}
        #: per-process completion queues and parked Wait futures
        self._completions: Dict[str, Deque[Completion]] = {}
        self._waiters: Dict[str, Future] = {}
        self._nodes: Dict[str, int] = {}
        self._dead: set = set()

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------
    def register_process(self, name: str, node: int) -> "KernelPort":
        self._completions[name] = deque()
        self._nodes[name] = node
        return KernelPort(self, name)

    def process_died(self, name: str) -> None:
        """Kernel-detected death: destroy all the process's links
        (§3.1), notify peers and drop the dead process's parked wait."""
        self._dead.add(name)
        for klink in list(self.links.values()):
            if klink.destroyed:
                continue
            for kend in klink.ends:
                if kend.owner == name:
                    self._destroy_link(
                        klink, f"process {name} died", notify=klink.ends
                    )
                    break
        # nobody will consume a parked wait's completion: leave it
        # unsettled
        self._waiters.pop(name, None)

    def node_of(self, name: str) -> int:
        return self._nodes.get(name, 0)

    # ------------------------------------------------------------------
    # syscall implementations (invoked by KernelPort)
    # ------------------------------------------------------------------
    def _make_link(self, caller: str) -> Tuple[CallStatus, EndRef, EndRef]:
        link = self.registry.alloc_link(caller, caller)
        node = self.node_of(caller)
        ref_a, ref_b = EndRef(link, 0), EndRef(link, 1)
        self.links[link] = _KLink(
            link,
            [_KEnd(ref_a, caller, node), _KEnd(ref_b, caller, node)],
        )
        self.metrics.count("kernel.calls.MakeLink")
        return CallStatus.SUCCESS, ref_a, ref_b

    def _destroy(self, caller: str, ref: EndRef) -> CallStatus:
        self.metrics.count("kernel.calls.Destroy")
        klink = self.links.get(ref.link)
        if klink is None or klink.destroyed:
            return CallStatus.DESTROYED
        kend = klink.ends[ref.side]
        if kend.owner != caller:
            return CallStatus.INVALID
        # notify the peer (the destroyer already knows)
        self._destroy_link(
            klink, f"destroyed by {caller}", notify=[klink.ends[1 - ref.side]]
        )
        return CallStatus.SUCCESS

    def _destroy_link(self, klink: _KLink, reason: str, notify) -> None:
        klink.destroyed = True
        self.registry.record_destroyed(klink.link, reason)
        for kend in klink.ends:
            if kend.send is not None:
                # an unmatched send never transferred: its staged
                # enclosure is released back to the sender; a matched
                # one is mid-move — the ambiguous §3.2.2 territory
                unsent = not kend.send.matched
                if unsent and kend.send.msg is not None:
                    for enc in kend.send.msg.enclosures[:1]:
                        self._unstage_enclosure(enc)
                self._complete(
                    kend.owner,
                    Completion(
                        CompletionKind.SEND_FAILED,
                        kend.ref,
                        status=CallStatus.DESTROYED,
                        reason=("unsent: " if unsent else "in-transfer: ")
                        + reason,
                    ),
                )
                kend.send = None
            if kend.recv is not None:
                self._complete(
                    kend.owner,
                    Completion(
                        CompletionKind.RECV_FAILED,
                        kend.ref,
                        status=CallStatus.DESTROYED,
                        reason=reason,
                    ),
                )
                kend.recv = None
        for kend in notify:
            if kend.owner not in self._dead:
                self._complete(
                    kend.owner,
                    Completion(
                        CompletionKind.LINK_DESTROYED, kend.ref, reason=reason
                    ),
                )

    def _send(
        self, caller: str, ref: EndRef, msg: WireMessage, enclosure: Optional[EndRef]
    ) -> CallStatus:
        self.metrics.count("kernel.calls.Send")
        klink = self.links.get(ref.link)
        if klink is None or klink.destroyed:
            return CallStatus.DESTROYED
        kend = klink.ends[ref.side]
        if kend.owner != caller:
            return CallStatus.INVALID
        if kend.moving:
            return CallStatus.MOVING
        if kend.send is not None:
            return CallStatus.BUSY
        # the kernel carries AT MOST ONE enclosure per message (§3.2.2),
        # and it must be the one named in the Send call
        if len(msg.enclosures) > 1:
            return CallStatus.INVALID
        if list(msg.enclosures[:1]) != ([enclosure] if enclosure else []):
            return CallStatus.INVALID
        if enclosure is not None:
            if enclosure.link == ref.link:
                return CallStatus.INVALID
            status = self._start_enclosure(caller, enclosure)
            if status is not CallStatus.SUCCESS:
                return status
        kend.send = _Activity(msg=msg)
        self._try_match(klink)
        return CallStatus.SUCCESS

    def _start_enclosure(self, caller: str, enc: EndRef) -> CallStatus:
        eklink = self.links.get(enc.link)
        if eklink is None or eklink.destroyed:
            return CallStatus.DESTROYED
        ekend = eklink.ends[enc.side]
        if ekend.owner != caller:
            return CallStatus.INVALID
        if ekend.moving:
            return CallStatus.MOVING
        ekend.moving = True
        # a pending (unmatched) receive on a moving end is cancelled by
        # the kernel; a matched transfer delays the move (moves.py)
        if ekend.recv is not None and not ekend.recv.matched:
            ekend.recv = None
            self._complete(
                caller,
                Completion(
                    CompletionKind.RECV_FAILED,
                    enc,
                    status=CallStatus.MOVING,
                    reason="end enclosed in a message",
                ),
            )
        return CallStatus.SUCCESS

    def _receive(self, caller: str, ref: EndRef) -> CallStatus:
        self.metrics.count("kernel.calls.Receive")
        klink = self.links.get(ref.link)
        if klink is None or klink.destroyed:
            return CallStatus.DESTROYED
        kend = klink.ends[ref.side]
        if kend.owner != caller:
            return CallStatus.INVALID
        if kend.recv is not None:
            return CallStatus.BUSY
        kend.recv = _Activity()
        self._try_match(klink)
        return CallStatus.SUCCESS

    def _cancel(self, caller: str, ref: EndRef, direction: Direction) -> CallStatus:
        self.metrics.count("kernel.calls.Cancel")
        klink = self.links.get(ref.link)
        if klink is None or klink.destroyed:
            return CallStatus.DESTROYED
        kend = klink.ends[ref.side]
        if kend.owner != caller:
            return CallStatus.INVALID
        act = kend.send if direction is Direction.SEND else kend.recv
        if act is None:
            return CallStatus.NOT_FOUND
        if act.matched:
            # "If B has requested an operation in the meantime, the
            # Cancel will fail." (§3.2.1)
            return CallStatus.TOO_LATE
        if direction is Direction.SEND:
            kend.send = None
            if act.msg is not None and act.msg.enclosures:
                # un-move the enclosure that was staged
                self._unstage_enclosure(act.msg.enclosures[0])
        else:
            kend.recv = None
        return CallStatus.SUCCESS

    def _unstage_enclosure(self, enc: EndRef) -> None:
        eklink = self.links.get(enc.link)
        if eklink is not None:
            eklink.ends[enc.side].moving = False

    # ------------------------------------------------------------------
    # matching and transfer
    # ------------------------------------------------------------------
    def _try_match(self, klink: _KLink) -> None:
        for side in (0, 1):
            sender, receiver = klink.ends[side], klink.ends[1 - side]
            if (
                sender.send is not None
                and not sender.send.matched
                and receiver.recv is not None
                and not receiver.recv.matched
            ):
                sender.send.matched = True
                receiver.recv.matched = True
                self._begin_transfer(klink, sender, receiver)

    def _begin_transfer(
        self, klink: _KLink, sender: _KEnd, receiver: _KEnd
    ) -> None:
        msg = sender.send.msg
        nbytes = msg.wire_size
        base_delay = (
            self.costs.kernel_msg_fixed_ms
            + self.costs.kernel_per_byte_ms * nbytes
            + (net := self.ring.transit_time(nbytes))
        )
        self.metrics.count("kernel.transfers")
        self.metrics.count("wire.bytes", nbytes)
        self.metrics.count(f"wire.messages.{msg.kind._value_}")
        enclosure = msg.enclosures[0] if msg.enclosures else None
        if enclosure is not None:
            # three-party agreement before delivery (moves.py); it
            # reports the extra delay its messages took
            moves.move(
                self,
                enclosure,
                lambda extra: self._finish_transfer(
                    klink, sender, receiver, msg, base_delay + extra, net
                ),
            )
        else:
            self._finish_transfer(klink, sender, receiver, msg, base_delay, net)

    def _finish_transfer(
        self,
        klink: _KLink,
        sender: _KEnd,
        receiver: _KEnd,
        msg: WireMessage,
        delay: float,
        net: float,
    ) -> None:
        if msg.span is not None and self.spans is not None:
            # split the transfer delay into kernel CPU (fixed +
            # per-byte + any move-agreement extra) and the ring transit
            # ``net`` it includes
            now = self.engine.now
            self.spans.emit(
                msg.span, "kernel", _TRANSFER_SPANS[msg.kind._value_],
                sender.owner, now, now + delay - net,
            )
            self.spans.emit(
                msg.span, "network", "ring", "ring",
                now + delay - net, now + delay,
            )

        def complete() -> None:
            if klink.destroyed:
                # destruction already produced failure completions; make
                # sure a staged enclosure is not locked forever.  The
                # enclosure was mid-move when the link died: nobody can
                # say which side has it — the honest Charlotte answer
                # (§3.2.2) is that it is lost.
                for enc in msg.enclosures[:1]:
                    self._unstage_enclosure(enc)
                    eklink = self.links.get(enc.link)
                    if eklink is not None:
                        eklink.move_locked = False
                    self.registry.record_lost(enc)
                return
            sender.send = None
            receiver.recv = None
            for enc in msg.enclosures[:1]:
                # third party agreement concludes; ownership commits
                moves.commit(self, enc, receiver.owner)
            self._complete(
                sender.owner, Completion(CompletionKind.SEND_DONE, sender.ref)
            )
            # the receiver is alive: `process_died` destroys every
            # link a dead process owns an end of, and `moves.commit`
            # hands an end only to the receiver of a live link, so a
            # receiver that died mid-transfer took the branch above
            self._complete(
                receiver.owner,
                Completion(CompletionKind.RECV_DONE, receiver.ref, msg=msg),
            )

        self.engine.defer(delay, complete)

    # ------------------------------------------------------------------
    # completion delivery / Wait
    # ------------------------------------------------------------------
    def _complete(self, owner: str, completion: Completion) -> None:
        if owner in self._dead:
            return
        queue = self._completions.get(owner)
        if queue is None:
            return
        queue.append(completion)
        fut = self._waiters.pop(owner, None)
        if fut is not None and fut.state is FutureState.PENDING:
            # the parked Wait returns now, paying its syscall cost
            fut.resolve_later(self.costs.wait_syscall_ms, queue.popleft())

    def _wait(self, caller: str) -> Future:
        """Wait "blocks the caller until an activity completes"."""
        self.metrics.count("kernel.calls.Wait")
        queue = self._completions[caller]
        fut = Future(self.engine, "Wait")
        if queue:
            fut.resolve_later(self.costs.wait_syscall_ms, queue.popleft())
        else:
            self._waiters[caller] = fut
        return fut


class KernelPort:
    """A process's syscall interface: every bounded call returns a
    `Delay` that resumes its caller with the call's result after the
    syscall's CPU cost; only `wait` returns a Future."""

    def __init__(self, kernel: CharlotteKernel, name: str) -> None:
        self.kernel = kernel
        self.name = name

    def make_link(self) -> Delay:
        return Delay(
            self.kernel.costs.makelink_ms, self.kernel._make_link(self.name)
        )

    def destroy(self, ref: EndRef) -> Delay:
        return Delay(
            self.kernel.costs.destroy_ms, self.kernel._destroy(self.name, ref)
        )

    def send(
        self, ref: EndRef, msg: WireMessage, enclosure: Optional[EndRef] = None
    ) -> Delay:
        return Delay(
            self.kernel.costs.syscall_ms,
            self.kernel._send(self.name, ref, msg, enclosure),
        )

    def receive(self, ref: EndRef) -> Delay:
        return Delay(
            self.kernel.costs.syscall_ms, self.kernel._receive(self.name, ref)
        )

    def cancel(self, ref: EndRef, direction: Direction) -> Delay:
        return Delay(
            self.kernel.costs.syscall_ms,
            self.kernel._cancel(self.name, ref, direction),
        )

    def wait(self) -> Future:
        return self.kernel._wait(self.name)
