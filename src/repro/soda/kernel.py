"""The SODA kernel (paper §4.1), simulated.

"Each node on a SODA network consists of two processors: a client
processor, and an associated kernel processor. ... Every SODA process
has a unique id.  It also advertises a collection of names to which it
is willing to respond.  There is a kernel call to generate new names,
unique over space and time.  The discover kernel call uses unreliable
broadcast in an attempt to find a process that has advertised a given
name.

Processes do not necessarily send messages, rather they request the
transfer of data. ... The four varieties of request are termed put,
get, signal, and exchange. ... A process feels a software interrupt
when its id and one of its advertised names are specified in a request
from some other process. ... At any time, a process can accept a
request that was made of it at some time in the past. ... data is
transferred in both directions simultaneously ... the requester feels
a software interrupt informing it of the completion. ... If a process
dies before accepting a request, the requester feels an interrupt that
informs it of the crash."

Two modelled limits from §4.2.1:

* out-of-band data is small (the real kernel gave fewer than the ~48
  bits LYNX wanted) — we carry a small dict and charge a fixed OOB
  size; DESIGN.md records the idealisation;
* the "permissible number of outstanding requests between a given pair
  of processes" — ``pair_request_limit`` — beyond which requests queue
  at the sending kernel, which is what makes E10's deadlock possible.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core.costs import SodaCosts
from repro.sim.engine import Engine
from repro.sim.futures import Future
from repro.sim.metrics import MetricSet
from repro.sim.network import CSMABus
from repro.sim.tasks import Delay

#: bytes charged for a request/interrupt control frame (id, name, oob,
#: sizes — the small-OOB regime of §4.2.1)
CONTROL_FRAME_BYTES = 24


class InterruptKind(enum.Enum):
    #: someone requested a transfer naming us
    REQUEST = "request"
    #: a request of ours was accepted; transfer done
    COMPLETION = "completion"
    #: the process our request targeted died first (§4.1)
    CRASH = "crash"


class AcceptStatus(enum.Enum):
    OK = "ok"
    #: the requester withdrew (or died) before the accept
    WITHDRAWN = "withdrawn"


class _ReqState(enum.Enum):
    #: waiting at the sending kernel for a pair-limit slot
    QUEUED = "queued"
    #: visible (or deliverable) at the target
    PENDING = "pending"


@dataclass
class _Request:
    rid: int
    frm: str
    to: str
    name: int
    oob: dict
    nsend: int
    nrecv: int
    data: Any
    state: _ReqState
    #: interrupt delivered to the target? (only if the name was
    #: advertised; otherwise it parks invisibly, §4.2's stale-hint case)
    delivered: bool = False


@dataclass
class _SodaProc:
    name: str
    node: int
    handler: Optional[Callable[["Interrupt"], None]] = None
    advertised: set = field(default_factory=set)
    dead: bool = False


@dataclass
class Interrupt:
    kind: InterruptKind
    rid: int
    frm: str = ""
    name: int = 0
    oob: dict = field(default_factory=dict)
    nsend: int = 0
    nrecv: int = 0
    #: COMPLETION: data sent back by the accepter
    data: Any = None


class SodaKernel:
    """All kernel processors of a SODA network (their cooperation is
    modelled centrally; inter-node frames ride the CSMA bus)."""

    def __init__(
        self,
        engine: Engine,
        metrics: MetricSet,
        costs: SodaCosts,
        bus: CSMABus,
        registry,
        spans=None,
    ) -> None:
        self.engine = engine
        self.metrics = metrics
        self.costs = costs
        self.bus = bus
        self.registry = registry
        #: causal SpanTracker of the owning cluster (None for bare
        #: kernel tests); span-carrying transfers open kernel/network
        #: child spans.  NOTE: ``bus.transit_time`` draws from the rng,
        #: so every instrumented site calls it exactly once and reuses
        #: the bound value for both the delay and the span boundaries.
        self.spans = spans
        self._procs: Dict[str, _SodaProc] = {}
        #: requests in flight only: one leaves at accept, withdraw or
        #: the death of either party
        self._requests: Dict[int, _Request] = {}
        self._next_rid = 1
        self._next_name = 1
        #: per (frm, to): rids counting toward the pair limit
        self._pair_load: Dict[Tuple[str, str], int] = {}
        self._pair_queue: Dict[Tuple[str, str], Deque[int]] = {}

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def register_process(self, name: str, node: int) -> "SodaPort":
        self._procs[name] = _SodaProc(name, node)
        return SodaPort(self, name)

    def process_ids(self) -> List[str]:
        """"SODA makes it easy to guess their ids" (§4.2) — the freeze
        algorithm enumerates every live process."""
        return [p.name for p in self._procs.values() if not p.dead]

    def process_died(self, name: str) -> None:
        proc = self._procs.get(name)
        if proc is None or proc.dead:
            return
        proc.dead = True
        proc.advertised.clear()
        proc.handler = None
        for req in list(self._requests.values()):
            if name not in (req.to, req.frm):
                continue
            self._forget(req)
            if req.to == name:
                # "the requester feels an interrupt that informs it of
                # the crash" (§4.1)
                self._interrupt(
                    req.frm,
                    Interrupt(InterruptKind.CRASH, req.rid, frm=name,
                              name=req.name, oob=req.oob),
                )

    # ------------------------------------------------------------------
    # names
    # ------------------------------------------------------------------
    def new_name(self) -> int:
        n = self._next_name
        self._next_name += 1
        return n

    def advertise(self, caller: str, name: int) -> None:
        self._procs[caller].advertised.add(name)
        self.metrics.count("soda.advertise")
        # a parked request for this (proc, name) can now be delivered
        for req in self._requests.values():
            if (
                req.to == caller
                and req.name == name
                and req.state is _ReqState.PENDING
                and not req.delivered
            ):
                self._deliver(req)

    def unadvertise(self, caller: str, name: int) -> None:
        self._procs[caller].advertised.discard(name)

    def discover(self, caller: str, name: int) -> Future:
        """Unreliable broadcast query (§4.1): resolves with a process id
        advertising ``name``, or None after the timeout."""
        self.metrics.count("soda.discover")
        fut = Future(self.engine, "discover")
        responders: List[str] = []

        def hear(proc: _SodaProc) -> None:
            if not proc.dead and name in proc.advertised:
                responders.append(proc.name)

        others = [p for p in self._procs.values() if p.name != caller]
        self.bus.broadcast(
            CONTROL_FRAME_BYTES,
            [(lambda p=p: hear(p)) for p in others],
            kind="discover",
        )

        def conclude() -> None:
            # a response unicast arrives within the window
            fut.resolve(responders[0] if responders else None)

        self.engine.defer(
            self.costs.discover_cost_ms + self.costs.discover_timeout_ms, conclude
        )
        return fut

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def request(
        self,
        caller: str,
        to: str,
        name: int,
        oob: dict,
        nsend: int,
        nrecv: int,
        data: Any,
    ) -> int:
        rid = self._next_rid
        self._next_rid += 1
        self.metrics.count("soda.requests")
        target = self._procs.get(to)
        if target is None or target.dead:
            # dead on arrival: immediate crash interrupt
            self._interrupt(
                caller,
                Interrupt(InterruptKind.CRASH, rid, frm=to, name=name, oob=oob),
            )
            return rid
        req = _Request(
            rid, caller, to, name, dict(oob), nsend, nrecv, data,
            _ReqState.QUEUED,
        )
        self._requests[rid] = req
        pair = (caller, to)
        if self._pair_load.get(pair, 0) >= self.costs.pair_request_limit:
            # §4.2.1: over the outstanding-request limit the request
            # waits at the sending kernel — invisibly to everyone
            self._pair_queue.setdefault(pair, deque()).append(rid)
            self.metrics.count("soda.pair_limit_queued")
            return rid
        self._admit(req)
        return rid

    def _admit(self, req: _Request) -> None:
        pair = (req.frm, req.to)
        self._pair_load[pair] = self._pair_load.get(pair, 0) + 1
        req.state = _ReqState.PENDING
        target = self._procs.get(req.to)
        if target is not None and req.name in target.advertised:
            self._deliver(req)
        # else: parked until the name is advertised (stale-hint case)

    def _deliver(self, req: _Request) -> None:
        req.delivered = True
        intr = Interrupt(
            InterruptKind.REQUEST,
            req.rid,
            frm=req.frm,
            name=req.name,
            oob=req.oob,
            nsend=req.nsend,
            nrecv=req.nrecv,
        )
        net = self.bus.transit_time(CONTROL_FRAME_BYTES)
        delay = net + self.costs.interrupt_ms
        self.metrics.count("wire.frames.soda-request")
        self.metrics.count("wire.bytes", CONTROL_FRAME_BYTES)
        span = getattr(req.data, "span", None)
        if span is not None and self.spans is not None:
            now = self.engine.now
            self.spans.emit(span, "network", "bus:request", "bus",
                            now, now + net)
            self.spans.emit(span, "kernel", "interrupt", req.to,
                            now + net, now + delay)
        self.engine.defer(delay, self._interrupt_now, req.to, intr)

    def _release_pair(self, req: _Request) -> None:
        pair = (req.frm, req.to)
        self._pair_load[pair] -= 1
        queue = self._pair_queue.get(pair)
        while queue:
            nxt = self._requests[queue.popleft()]
            # a dead requester's queued requests are never delivered
            # (`process_died` may free a slot before it reaches them)
            if not self._procs[nxt.frm].dead:
                self._admit(nxt)
                break

    def _forget(self, req: _Request) -> None:
        """``req`` leaves the request table: a PENDING one frees its
        pair slot, a QUEUED one leaves its pair's deque at once (unless
        `_release_pair` already took it out), so a deque holds only
        requests in flight."""
        del self._requests[req.rid]
        if req.state is _ReqState.PENDING:
            self._release_pair(req)
        elif req.rid in (queue := self._pair_queue[(req.frm, req.to)]):
            queue.remove(req.rid)

    def accept(
        self,
        caller: str,
        rid: int,
        oob: dict,
        nsend: int,
        nrecv: int,
        data: Any,
    ) -> Future:
        """Complete a past request: "data is transferred in both
        directions simultaneously ... The amount of data transferred in
        each direction is the smaller of the specified amounts."

        Resolves with (status, data_from_requester).
        """
        fut = Future(self.engine, "accept")
        req = self._requests.get(rid)
        if (req is None or req.to != caller
                or req.state is not _ReqState.PENDING):
            fut.resolve_later(
                self.costs.accept_syscall_ms, (AcceptStatus.WITHDRAWN, None)
            )
            return fut
        del self._requests[rid]
        self._release_pair(req)
        to_accepter = req.data if min(req.nsend, nrecv) > 0 else None
        to_requester = data if min(nsend, req.nrecv) > 0 else None
        moved = min(req.nsend, nrecv) + min(nsend, req.nrecv)
        net = self.bus.transit_time(moved + CONTROL_FRAME_BYTES)
        delay = (
            self.costs.accept_syscall_ms
            + self.costs.transfer_fixed_ms
            + self.costs.transfer_per_byte_ms * moved
            + net
        )
        self.metrics.count("soda.accepts")
        self.metrics.count("wire.frames.soda-transfer")
        self.metrics.count("wire.bytes", moved + CONTROL_FRAME_BYTES)
        span = (getattr(req.data, "span", None)
                or getattr(data, "span", None))
        if span is not None and self.spans is not None:
            now = self.engine.now
            self.spans.emit(span, "kernel", "accept-transfer", caller,
                            now, now + delay - net)
            self.spans.emit(span, "network", "bus:transfer", "bus",
                            now + delay - net, now + delay)

        def finish() -> None:
            fut.resolve((AcceptStatus.OK, to_accepter))
            self._interrupt(
                req.frm,
                Interrupt(
                    InterruptKind.COMPLETION,
                    rid,
                    frm=caller,
                    name=req.name,
                    oob=dict(oob),
                    data=to_requester,
                ),
            )

        self.engine.defer(delay, finish)
        return fut

    def withdraw(self, caller: str, rid: int) -> bool:
        """Documented extension (see package docstring): retract an
        unaccepted request."""
        req = self._requests.get(rid)
        if req is None or req.frm != caller:
            return False
        self._forget(req)
        self.metrics.count("soda.withdrawals")
        return True

    # ------------------------------------------------------------------
    # interrupts
    # ------------------------------------------------------------------
    def _interrupt(self, to: str, intr: Interrupt) -> None:
        net = self.bus.transit_time(CONTROL_FRAME_BYTES)
        delay = net + self.costs.interrupt_ms
        self.metrics.count("wire.frames.soda-interrupt")
        self.metrics.count("wire.bytes", CONTROL_FRAME_BYTES)
        span = getattr(intr.data, "span", None)
        if span is not None and self.spans is not None:
            now = self.engine.now
            self.spans.emit(span, "network", "bus:interrupt", "bus",
                            now, now + net)
            self.spans.emit(span, "kernel", "interrupt", to,
                            now + net, now + delay)
        self.engine.defer(delay, self._interrupt_now, to, intr)

    def _interrupt_now(self, to: str, intr: Interrupt) -> None:
        proc = self._procs.get(to)
        if proc is None or proc.dead or proc.handler is None:
            self.metrics.count("soda.interrupts_dropped")
            return
        self.metrics.count(f"soda.interrupts.{intr.kind._value_}")
        proc.handler(intr)


class SodaPort:
    """Per-process kernel interface: a bounded call returns a `Delay`
    charging its cost; `accept` and `discover`, whose answer comes
    later, return Futures."""

    def __init__(self, kernel: SodaKernel, name: str) -> None:
        self.kernel = kernel
        self.name = name

    def set_handler(self, fn: Callable[[Interrupt], None]) -> None:
        """"Each process establishes a single handler" (§4.1)."""
        self.kernel._procs[self.name].handler = fn

    def new_name(self) -> Delay:
        return Delay(self.kernel.costs.new_name_ms, self.kernel.new_name())

    def advertise(self, name: int) -> Delay:
        self.kernel.advertise(self.name, name)
        return Delay(self.kernel.costs.advertise_ms)

    def unadvertise(self, name: int) -> Delay:
        self.kernel.unadvertise(self.name, name)
        return Delay(self.kernel.costs.advertise_ms)

    def discover(self, name: int) -> Future:
        return self.kernel.discover(self.name, name)

    def request(
        self,
        to: str,
        name: int,
        oob: dict,
        nsend: int = 0,
        nrecv: int = 0,
        data: Any = None,
    ) -> Delay:
        rid = self.kernel.request(self.name, to, name, oob, nsend, nrecv, data)
        return Delay(self.kernel.costs.request_syscall_ms, rid)

    def accept(
        self,
        rid: int,
        oob: Optional[dict] = None,
        nsend: int = 0,
        nrecv: int = 0,
        data: Any = None,
    ) -> Future:
        return self.kernel.accept(self.name, rid, oob or {}, nsend, nrecv, data)

    def withdraw(self, rid: int) -> Delay:
        ok = self.kernel.withdraw(self.name, rid)
        return Delay(self.kernel.costs.request_syscall_ms, ok)
