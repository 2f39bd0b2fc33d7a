"""Linda over raw Charlotte — the awkward fit, again.

A central server holds the space with one kernel link per client.  The
shape of the §3.2 problems recurs for this *entirely different*
language:

* the server must keep a Receive posted on every client link and
  repost after each delivery (activity juggling);
* one outstanding send per link means replies to blocked ``in``s queue
  in the server when a client has several pending operations;
* a blocking ``in`` forces the server to hold the request and reply
  much later — there is no way to leave it "in the kernel" as SODA
  does, so the server buffers patterns and owes replies, growing
  state the low-level kernels never need.

That the same kernel is clumsy for two unrelated languages is §6's
lesson three: "A high-level interface is only useful to those
applications for which its abstractions are appropriate."
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict

from repro.charlotte.cluster import CharlotteCluster
from repro.charlotte.kernel import (
    CallStatus,
    Completion,
    CompletionKind,
    _KEnd,
    _KLink,
)
from repro.core.links import EndRef
from repro.core.wire import MsgKind, WireMessage
from repro.linda.api import (
    LindaClientBase,
    LindaSystemBase,
    decode_pattern,
    decode_tuple,
    encode_pattern,
    encode_tuple,
)
from repro.linda.space import Pattern, TupleSpace
from repro.sim.tasks import Task

SERVER = "linda-server"


class CharlotteLinda(LindaSystemBase):
    KIND = "charlotte"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self.cluster = CharlotteCluster(seed=seed)
        self.kernel = self.cluster.kernel
        self.port = self.kernel.register_process(SERVER, 0)
        self.space = TupleSpace()
        self._next_node = 1
        self._client_refs: Dict[str, EndRef] = {}
        #: per-link outbound queues (one outstanding send each, §3.1)
        self._sendq: Dict[EndRef, Deque[WireMessage]] = {}
        self._send_busy: Dict[EndRef, bool] = {}
        self._started = False

    # ------------------------------------------------------------------
    def client(self, name: str) -> "CharlotteLindaClient":
        cport = self.kernel.register_process(name, self._next_node)
        link = self.cluster.registry.alloc_link(SERVER, name)
        ref_s, ref_c = EndRef(link, 0), EndRef(link, 1)
        self.kernel.links[link] = _KLink(
            link,
            [_KEnd(ref_s, SERVER, 0), _KEnd(ref_c, name, self._next_node)],
        )
        self._next_node += 1
        self._client_refs[name] = ref_s
        self._sendq[ref_s] = deque()
        self._send_busy[ref_s] = False
        if not self._started:
            self._started = True
            # the server is a daemon: it does not count toward client
            # completion (it winds down when the last link dies, or
            # simply idles in Wait at quiescence)
            Task(self.cluster.engine, self._server(), "linda-server")
        return CharlotteLindaClient(self, name, cport, ref_c)

    # ------------------------------------------------------------------
    # the server task: Wait-loop over all client links
    # ------------------------------------------------------------------
    def _server(self):
        # post the initial Receive on every client link as they appear
        posted = set()
        while True:
            for ref in self._client_refs.values():
                if ref not in posted:
                    yield self.port.receive(ref)
                    posted.add(ref)
            desc: Completion = yield self.port.wait()
            if desc.kind is CompletionKind.RECV_DONE:
                yield self.port.receive(desc.ref)  # repost immediately
                yield from self._handle(desc.ref, desc.msg)
            elif desc.kind is CompletionKind.SEND_DONE:
                self._send_busy[desc.ref] = False
                yield from self._pump(desc.ref)
            elif desc.kind is CompletionKind.LINK_DESTROYED:
                self._client_refs = {
                    n: r for n, r in self._client_refs.items()
                    if r != desc.ref
                }
                if not self._client_refs:
                    return  # all clients gone: wind down

    def _handle(self, ref: EndRef, msg: WireMessage):
        op = msg.opname
        if op == "out":
            tup = decode_tuple(msg.payload)
            self.metrics.count("linda.outs")
            for waiter, served in self.space.out(tup):
                yield from self._send_tuple(waiter.token, served)
        else:
            # with no match the server itself must buffer the pattern
            # and owe the reply — Charlotte gives it nowhere else to park
            pattern = decode_pattern(msg.payload)
            tup = self.space.match_or_park(pattern, op == "take", ref)
            if tup is not None:
                yield from self._send_tuple(ref, tup)
            else:
                self.metrics.count("linda.blocked_waiters")

    def _send_tuple(self, ref: EndRef, tup):
        msg = WireMessage(kind=MsgKind.REPLY, seq=0, opname="tuple",
                          payload=encode_tuple(tup))
        self._sendq[ref].append(msg)
        self.metrics.count("linda.served")
        yield from self._pump(ref)

    def _pump(self, ref: EndRef):
        if self._send_busy.get(ref) or not self._sendq.get(ref):
            return
        msg = self._sendq[ref].popleft()
        status = yield self.port.send(ref, msg)
        if status is CallStatus.SUCCESS:
            self._send_busy[ref] = True
        # a DESTROYED status simply drops the reply: the client is gone


class CharlotteLindaClient(LindaClientBase):
    def __init__(self, system: CharlotteLinda, name: str, port,
                 ref: EndRef) -> None:
        self.system = system
        self.name = name
        self.port = port
        self.ref = ref

    def _await(self, want_kind: CompletionKind):
        while True:
            desc = yield self.port.wait()
            if desc.kind is want_kind:
                return desc

    def out(self, tup):
        msg = WireMessage(kind=MsgKind.REQUEST, seq=0, opname="out",
                          payload=encode_tuple(tup))
        status = yield self.port.send(self.ref, msg)
        assert status is CallStatus.SUCCESS, status
        yield from self._await(CompletionKind.SEND_DONE)

    def _query(self, op: str, pattern: Pattern):
        # post the Receive for the (possibly much later) reply first
        yield self.port.receive(self.ref)
        msg = WireMessage(kind=MsgKind.REQUEST, seq=0, opname=op,
                          payload=encode_pattern(pattern))
        status = yield self.port.send(self.ref, msg)
        assert status is CallStatus.SUCCESS, status
        yield from self._await(CompletionKind.SEND_DONE)
        desc = yield from self._await(CompletionKind.RECV_DONE)
        return decode_tuple(desc.msg.payload)

    def take(self, pattern):
        result = yield from self._query("take", pattern)
        return result

    def read(self, pattern):
        result = yield from self._query("read", pattern)
        return result

    def close(self):
        yield self.port.destroy(self.ref)
