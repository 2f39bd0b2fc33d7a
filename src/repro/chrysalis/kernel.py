"""The Chrysalis operating system primitives (paper §5.1), simulated.

"The Chrysalis operating system provides primitives, many of them in
microcode, for the management of system abstractions.  Among these
abstractions are processes, memory objects, event blocks, and dual
queues."

* **Memory objects** are mappable into many address spaces and
  reference-counted; "Chrysalis keeps a reference count for each
  memory object" and reclaims at zero (§5.2).
* **Event blocks**: "similar to a binary semaphore, except that 1) a
  32-bit datum can be provided to the V operation, to be returned by a
  subsequent P, and 2) only the owner of an event block can wait for
  the event to be posted."
* **Dual queues**: "so named because of its ability to hold either
  data or event block names.  A queue containing data is a simple
  bounded buffer ... Once a queue becomes empty, subsequent dequeue
  operations actually enqueue event block names, on which the calling
  processes can wait.  An enqueue operation on a queue containing
  event block names actually posts a queued event instead of adding
  its datum to the queue."
* **Atomic 16-bit operations** are "extremely inexpensive"; atomic
  changes to wider quantities are "relatively costly", which is why
  the runtime writes dual-queue names non-atomically (§5.2).

Fidelity note: real dual-queue data and event datums are 32 bits; we
carry small Python tuples and charge the 32-bit cost, since packing
notice codes into machine words would add noise without changing any
measured quantity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional

from repro.analysis.costmodel import ChrysalisCosts
from repro.core.exceptions import ProtocolViolation
from repro.sim.engine import Engine
from repro.sim.futures import Future, FutureState
from repro.sim.metrics import MetricSet
from repro.sim.network import SharedMemoryInterconnect
from repro.sim.tasks import Delay

#: sentinel returned by dequeue when the queue was empty and the caller's
#: event block name was parked instead
DQ_BLOCKED = object()


@dataclass
class _MemObject:
    oid: int
    content: Any
    refcount: int = 0
    reclaimable: bool = False
    reclaimed: bool = False


@dataclass
class _EventBlock:
    eid: int
    owner: str
    #: posts that arrived while nobody waited (queued completions)
    pending: Deque[Any] = field(default_factory=deque)
    waiter: Optional[Future] = None


@dataclass
class _DualQueue:
    qid: int
    capacity: int
    #: either data items or parked event-block names — never both
    data: Deque[Any] = field(default_factory=deque)
    events: Deque[int] = field(default_factory=deque)


class ChrysalisKernel:
    """One Butterfly box: shared primitives for all its processes."""

    def __init__(
        self,
        engine: Engine,
        metrics: MetricSet,
        costs: ChrysalisCosts,
        switch: SharedMemoryInterconnect,
    ) -> None:
        self.engine = engine
        self.metrics = metrics
        self.costs = costs
        self.switch = switch
        self._objects: Dict[int, _MemObject] = {}
        self._events: Dict[int, _EventBlock] = {}
        self._queues: Dict[int, _DualQueue] = {}
        self._next_id = 1

    def _alloc_id(self) -> int:
        i = self._next_id
        self._next_id += 1
        return i

    # ------------------------------------------------------------------
    # memory objects
    # ------------------------------------------------------------------
    def make_object(self, content: Any) -> int:
        oid = self._alloc_id()
        self._objects[oid] = _MemObject(oid, content)
        self.metrics.count("chrysalis.ops.make_object")
        return oid

    def map_object(self, oid: int) -> Any:
        obj = self._objects.get(oid)
        if obj is None or obj.reclaimed:
            raise ProtocolViolation(f"map of reclaimed object {oid}")
        obj.refcount += 1
        self.metrics.count("chrysalis.ops.map")
        return obj.content

    def unmap_object(self, oid: int) -> None:
        obj = self._objects.get(oid)
        if obj is None or obj.reclaimed:
            return
        obj.refcount = max(0, obj.refcount - 1)
        self.metrics.count("chrysalis.ops.unmap")
        self._maybe_reclaim(obj)

    def mark_reclaimable(self, oid: int) -> None:
        """"informs Chrysalis that the object can be deallocated when
        its reference count reaches zero" (§5.2)."""
        obj = self._objects.get(oid)
        if obj is not None:
            obj.reclaimable = True
            self._maybe_reclaim(obj)

    def _maybe_reclaim(self, obj: _MemObject) -> None:
        if obj.reclaimable and obj.refcount == 0 and not obj.reclaimed:
            obj.reclaimed = True
            self.metrics.count("chrysalis.objects_reclaimed")

    def object_refcount(self, oid: int) -> int:
        obj = self._objects.get(oid)
        return 0 if obj is None else obj.refcount

    def object_reclaimed(self, oid: int) -> bool:
        obj = self._objects.get(oid)
        return obj is None or obj.reclaimed

    # ------------------------------------------------------------------
    # event blocks
    # ------------------------------------------------------------------
    def make_event(self, owner: str) -> int:
        eid = self._alloc_id()
        self._events[eid] = _EventBlock(eid, owner)
        self.metrics.count("chrysalis.ops.make_event")
        return eid

    def post(self, eid: int, datum: Any) -> None:
        """V: anyone may post; the datum is handed to a waiting P or
        queued ("Completion interrupts are queued when a handler is
        busy")."""
        ev = self._events.get(eid)
        if ev is None:
            return
        self.metrics.count("chrysalis.ops.post")
        if ev.waiter is not None and ev.waiter.state is FutureState.PENDING:
            waiter, ev.waiter = ev.waiter, None
            waiter.resolve_later(self.costs.event_wait_ms, datum)
        else:
            ev.pending.append(datum)

    def event_wait(self, caller: str, eid: int) -> Future:
        """P: only the owner can wait (§5.1)."""
        ev = self._events[eid]
        if ev.owner != caller:
            raise ProtocolViolation(
                f"{caller} waited on event {eid} owned by {ev.owner}"
            )
        fut = Future(self.engine, "event")
        if ev.pending:
            fut.resolve_later(self.costs.event_wait_ms, ev.pending.popleft())
        else:
            if ev.waiter is not None and ev.waiter.state is FutureState.PENDING:
                raise ProtocolViolation(f"double wait on event {eid}")
            ev.waiter = fut
        return fut

    # ------------------------------------------------------------------
    # dual queues
    # ------------------------------------------------------------------
    def make_queue(self, capacity: int = 512) -> int:
        qid = self._alloc_id()
        self._queues[qid] = _DualQueue(qid, capacity)
        self.metrics.count("chrysalis.ops.make_queue")
        return qid

    def enqueue(self, qid: int, datum: Any) -> None:
        q = self._queues.get(qid)
        self.metrics.count("chrysalis.ops.enqueue")
        if q is None:
            # stale dual-queue name (its owner died): the notice is a
            # hint; losing it is survivable by design (§5.2)
            self.metrics.count("chrysalis.enqueue_to_dead_queue")
            return
        if q.events:
            # "actually posts a queued event instead"
            self.post(q.events.popleft(), datum)
            return
        if len(q.data) >= q.capacity:
            raise ProtocolViolation(f"dual queue {qid} overflow")
        q.data.append(datum)

    def dequeue(self, qid: int, event_name: int) -> Any:
        """Returns a datum, or parks ``event_name`` and returns
        `DQ_BLOCKED` ("subsequent dequeue operations actually enqueue
        event block names")."""
        q = self._queues[qid]
        self.metrics.count("chrysalis.ops.dequeue")
        if q.data:
            return q.data.popleft()
        q.events.append(event_name)
        return DQ_BLOCKED


class ChrysalisPort:
    """Per-process syscall surface: a call returns a `Delay` that
    resumes its caller with the result after the call's cost;
    `event_wait` returns a Future."""

    def __init__(self, kernel: ChrysalisKernel, name: str) -> None:
        self.kernel = kernel
        self.name = name

    # memory objects ------------------------------------------------------
    def make_object(self, content: Any) -> Delay:
        return Delay(
            self.kernel.costs.make_object_ms, self.kernel.make_object(content)
        )

    def map_object(self, oid: int) -> Delay:
        return Delay(self.kernel.costs.map_ms, self.kernel.map_object(oid))

    def unmap_object(self, oid: int) -> Delay:
        self.kernel.unmap_object(oid)
        return Delay(self.kernel.costs.unmap_ms)

    def mark_reclaimable(self, oid: int) -> Delay:
        self.kernel.mark_reclaimable(oid)
        return Delay(self.kernel.costs.flag_op_ms)

    # events / queues -------------------------------------------------------
    def make_event(self) -> Delay:
        return Delay(
            self.kernel.costs.make_event_ms, self.kernel.make_event(self.name)
        )

    def make_queue(self, capacity: int = 512) -> Delay:
        return Delay(
            self.kernel.costs.make_queue_ms, self.kernel.make_queue(capacity)
        )

    def post(self, eid: int, datum: Any) -> Delay:
        self.kernel.post(eid, datum)
        return Delay(self.kernel.costs.event_post_ms)

    def event_wait(self, eid: int) -> Future:
        return self.kernel.event_wait(self.name, eid)

    def enqueue(self, qid: int, datum: Any) -> Delay:
        self.kernel.enqueue(qid, datum)
        return Delay(self.kernel.costs.dq_enqueue_ms)

    def dequeue(self, qid: int, event_name: int) -> Delay:
        return Delay(
            self.kernel.costs.dq_dequeue_ms,
            self.kernel.dequeue(qid, event_name),
        )

    # atomic / wide memory operations ----------------------------------------
    def atomic(self, fn: Callable[[], Any]) -> Delay:
        """A 16-bit atomic flag operation: "extremely inexpensive"."""
        self.kernel.metrics.count("chrysalis.ops.atomic")
        return Delay(self.kernel.costs.flag_op_ms, fn())

    def wide_write(self, fn: Callable[[], Any]) -> Delay:
        """A >16-bit non-atomic write (dual-queue names, §5.2)."""
        self.kernel.metrics.count("chrysalis.ops.wide_write")
        return Delay(self.kernel.costs.wide_write_ms, fn())

    def copy(self, nbytes: int) -> Delay:
        """A block copy through the switch (gather into / scatter out
        of a link buffer)."""
        return Delay(self.kernel.switch.transit_time(nbytes))
