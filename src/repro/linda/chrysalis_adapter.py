"""Linda over raw Chrysalis — there is no server at all.

The tuple space is a mapped memory object; ``out``/``take``/``read``
are a handful of atomic operations on it, and a blocked ``in`` parks
the caller's event-block name inside the space and waits — precisely
the pattern §5.1's primitives were microcoded for.  "Chrysalis
provides no messages at all, but its shared-memory operations can be
used to build whatever style of screening is desired" (§6, lesson
two): here the "screening" is a pattern match under an atomic op.

This adapter is by far the smallest of the three — lesson three in
miniature.
"""

from __future__ import annotations

from repro.chrysalis.cluster import ChrysalisCluster
from repro.chrysalis.kernel import ChrysalisPort
from repro.linda.api import LindaClientBase, LindaSystemBase, encode_tuple
from repro.linda.space import Pattern, TupleSpace

#: shared-memory bytes charged per tuple copy (header + encoding)
_COPY_HEADER = 16


class ChrysalisLinda(LindaSystemBase):
    KIND = "chrysalis"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self.cluster = ChrysalisCluster(seed=seed)
        kernel = self.cluster.kernel
        self.space = TupleSpace()
        self.oid = kernel.make_object(self.space)

    def client(self, name: str) -> "ChrysalisLindaClient":
        return ChrysalisLindaClient(self, name)


class ChrysalisLindaClient(LindaClientBase):
    def __init__(self, system: ChrysalisLinda, name: str) -> None:
        self.system = system
        self.name = name
        self.port = ChrysalisPort(system.cluster.kernel, name)
        self._event: int | None = None
        self._space: TupleSpace | None = None

    def _setup(self):
        if self._space is None:
            self._space = yield self.port.map_object(self.system.oid)
            self._event = yield self.port.make_event()

    def out(self, tup):
        yield from self._setup()
        yield self.port.copy(len(encode_tuple(tup)) + _COPY_HEADER)
        satisfied = yield self.port.atomic(lambda: self._space.out(tup))
        self.system.metrics.count("linda.outs")
        for waiter, served in satisfied:
            # waiter.token is the blocked client's event-block name
            yield self.port.post(waiter.token, served)

    def _query(self, pattern: Pattern, take: bool):
        yield from self._setup()
        # match-or-park is one atomic op: an ``out`` racing it either
        # lands first (and matches) or finds the waiter parked
        tup = yield self.port.atomic(
            lambda: self._space.match_or_park(pattern, take, self._event)
        )
        if tup is None:
            self.system.metrics.count("linda.blocked_waiters")
            tup = yield self.port.event_wait(self._event)
        yield self.port.copy(len(encode_tuple(tup)) + _COPY_HEADER)
        self.system.metrics.count("linda.served")
        return tup

    def take(self, pattern):
        result = yield from self._query(pattern, take=True)
        return result

    def read(self, pattern):
        result = yield from self._query(pattern, take=False)
        return result
