"""Linda over raw SODA — the natural fit.

A blocking ``in`` is *exactly* a SODA request the server has not
accepted yet: "At any time, a process can accept a request that was
made of it at some time in the past" (§4.1).  The server keeps the
pattern (carried out-of-band, the §4.2.1 small-OOB idealisation) and
simply accepts the request — shipping the tuple back in the same
transfer — the moment a match exists.  No polling, no bouncing, no
extra messages: one request and one completion per operation, however
long the wait.

The server is pure event logic inside the software-interrupt handler:
it needs no task of its own.
"""

from __future__ import annotations

from typing import Dict

from repro.linda.api import (
    LindaClientBase,
    LindaSystemBase,
    decode_tuple,
    encode_tuple,
)
from repro.linda.space import Pattern, TupleSpace
from repro.sim.futures import Future, FutureState
from repro.soda.cluster import SodaCluster
from repro.soda.kernel import AcceptStatus, Interrupt, InterruptKind

SERVER = "linda-server"


class SodaLinda(LindaSystemBase):
    KIND = "soda"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self.cluster = SodaCluster(seed=seed)
        kernel = self.cluster.kernel
        self.port = kernel.register_process(SERVER, 0)
        self.space = TupleSpace()
        self.name = kernel.new_name()
        kernel.advertise(SERVER, self.name)
        self.port.set_handler(self._on_interrupt)
        self._next_node = 1

    # ------------------------------------------------------------------
    # the entire server
    # ------------------------------------------------------------------
    def _on_interrupt(self, intr: Interrupt) -> None:
        if intr.kind is not InterruptKind.REQUEST:
            return
        op = intr.oob.get("op")
        if op == "out":
            # accept now; the tuple arrives with the transfer
            fut = self.port.accept(intr.rid, nrecv=intr.nsend)
            fut.add_done_callback(self._on_out_received)
        elif op in ("take", "read"):
            # with no match, THE Linda move: just... don't accept yet
            # (§4.1) — the unaccepted rid parks as the waiter's token
            pattern = intr.oob["pattern"]
            tup = self.space.match_or_park(pattern, op == "take", intr.rid)
            if tup is not None:
                self._serve(intr.rid, tup)
            else:
                self.metrics.count("linda.blocked_waiters")

    def _on_out_received(self, fut: Future) -> None:
        status, data = fut.value
        if status is not AcceptStatus.OK or data is None:
            return
        tup = decode_tuple(data)
        self.metrics.count("linda.outs")
        for waiter, served in self.space.out(tup):
            self._serve(waiter.token, served)

    def _serve(self, rid: int, tup) -> None:
        payload = encode_tuple(tup)
        self.port.accept(rid, nsend=len(payload), data=payload)
        self.metrics.count("linda.served")

    # ------------------------------------------------------------------
    def client(self, name: str) -> "SodaLindaClient":
        port = self.cluster.kernel.register_process(name, self._next_node)
        self._next_node += 1
        return SodaLindaClient(self, name, port)


class SodaLindaClient(LindaClientBase):
    def __init__(self, system: SodaLinda, name: str, port) -> None:
        self.system = system
        self.name = name
        self.port = port
        self._completions: Dict[int, Future] = {}
        port.set_handler(self._on_interrupt)

    def _on_interrupt(self, intr: Interrupt) -> None:
        fut = self._completions.pop(intr.rid, None)
        if fut is not None and fut.state is FutureState.PENDING:
            if intr.kind is InterruptKind.COMPLETION:
                fut.resolve(intr.data)
            else:
                fut.fail(RuntimeError(f"linda server died ({intr.kind})"))

    def _await_completion(self, rid: int) -> Future:
        fut = Future(self.system.engine, f"{self.name}.linda")
        self._completions[rid] = fut
        return fut

    def out(self, tup):
        payload = encode_tuple(tup)
        rid = yield self.port.request(
            SERVER, self.system.name, {"op": "out"},
            nsend=len(payload), data=payload,
        )
        yield self._await_completion(rid)

    def _query(self, op: str, pattern: Pattern):
        rid = yield self.port.request(
            SERVER, self.system.name, {"op": op, "pattern": pattern},
            nsend=0, nrecv=1 << 16,
        )
        data = yield self._await_completion(rid)
        return decode_tuple(data)

    def take(self, pattern):
        result = yield from self._query("take", pattern)
        return result

    def read(self, pattern):
        result = yield from self._query("read", pattern)
        return result
