"""The simple-remote-operation workload of §3.3/§4.3/§5.3.

Two processes, one link, N round trips of a typed ``ping`` operation
with a configurable payload in each direction — the measurement behind
every latency number in the paper — plus the *raw kernel-call* variant
for Charlotte ("C programs that make the same series of kernel calls",
§3.3) used as E1's baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.api import BYTES, Operation, Proc, make_cluster
from repro.core.links import EndRef
from repro.core.wire import MsgKind, WireMessage
from repro.sim.metrics import ordered_mean
from repro.sim.trace import TraceLog

PING = Operation("ping", (BYTES,), (BYTES,))


class PingServer(Proc):
    """Serves ``count`` pings, echoing ``reply_bytes`` of payload."""

    def __init__(self, count: int, reply_bytes: int) -> None:
        self.count = count
        self.reply_bytes = reply_bytes

    def main(self, ctx):
        (end,) = ctx.initial_links
        yield from ctx.register(PING)
        yield from ctx.open(end)
        body = b"r" * self.reply_bytes
        for _ in range(self.count):
            inc = yield from ctx.wait_request()
            yield from ctx.reply(inc, (body,))


class PingClient(Proc):
    """Issues ``count`` sequential pings of ``request_bytes`` payload,
    recording per-operation round-trip times (simulated ms)."""

    def __init__(self, count: int, request_bytes: int,
                 warmup: int = 1) -> None:
        self.count = count
        self.request_bytes = request_bytes
        self.warmup = warmup
        self.rtts: List[float] = []

    def main(self, ctx):
        (end,) = ctx.initial_links
        body = b"q" * self.request_bytes
        for i in range(self.count + self.warmup):
            t0 = yield from ctx.now()
            yield from ctx.connect(end, PING, (body,))
            t1 = yield from ctx.now()
            if i >= self.warmup:
                self.rtts.append(t1 - t0)


@dataclass
class RPCResult:
    kind: str
    payload_bytes: int
    rtts: List[float]
    messages: float
    wire_bytes: float
    #: the cluster's TraceLog — carries the causal spans (repro.obs.causal)
    trace: Optional[TraceLog] = None

    @property
    def mean_ms(self) -> float:
        return ordered_mean(self.rtts)


def run_rpc_workload(
    kind: str,
    payload_bytes: int = 0,
    count: int = 10,
    seed: int = 0,
    **cluster_kw,
) -> RPCResult:
    """The paper's simple remote operation: payload in *both*
    directions (§3.3 measures "1000 bytes of parameters in both
    directions")."""
    with make_cluster(kind, seed=seed, **cluster_kw) as cluster:
        server = PingServer(count + 1, payload_bytes)
        client = PingClient(count, payload_bytes)
        s = cluster.spawn(server, "server")
        c = cluster.spawn(client, "client")
        cluster.create_link(s, c)
        cluster.run_until_quiet(max_ms=1e7)
        if not cluster.all_finished:
            raise RuntimeError(
                f"rpc workload hung on {kind}: {cluster.unfinished()}")
        return RPCResult(
            kind=kind,
            payload_bytes=payload_bytes,
            rtts=client.rtts,
            messages=cluster.metrics.total("wire.messages."),
            wire_bytes=cluster.metrics.get("wire.bytes"),
            trace=cluster.trace,
        )


def raw_charlotte_rpc(
    payload_bytes: int = 0, count: int = 10, seed: int = 0
) -> RPCResult:
    """§3.3's baseline: "C programs that make the same series of kernel
    calls" — the RPC pattern driven directly against the Charlotte
    kernel ports, bypassing the LYNX runtime entirely."""
    from repro.charlotte.kernel import CompletionKind
    from repro.charlotte.cluster import CharlotteCluster
    from repro.sim.tasks import Task

    cluster = CharlotteCluster(seed=seed)
    kernel = cluster.kernel
    ka = kernel.register_process("raw-client", 0)
    kb = kernel.register_process("raw-server", 1)
    status, ra, rb = kernel._make_link("raw-client")
    kernel.links[ra.link].ends[1].owner = "raw-server"
    kernel.links[ra.link].ends[1].node = 1

    rtts: List[float] = []
    eng = cluster.engine
    total = count + 1  # one warm-up

    def client():
        body = b"q" * payload_bytes
        for i in range(total):
            t0 = eng.now
            # post the receive for the reply, then send the request
            yield ka.receive(ra)
            msg = WireMessage(kind=MsgKind.REQUEST, seq=i + 1, payload=body)
            yield ka.send(ra, msg)
            # wait for send completion, then for the reply
            got_reply = False
            while not got_reply:
                desc = yield ka.wait()
                if desc.kind is CompletionKind.RECV_DONE:
                    got_reply = True
            if i > 0:
                rtts.append(eng.now - t0)

    def server():
        body = b"r" * payload_bytes
        yield kb.receive(rb)
        for i in range(total):
            # wait for a request
            while True:
                desc = yield kb.wait()
                if desc.kind is CompletionKind.RECV_DONE:
                    req = desc.msg
                    break
            # repost receive for the next request, then send the reply
            if i + 1 < total:
                yield kb.receive(rb)
            reply = WireMessage(
                kind=MsgKind.REPLY, seq=1000 + i, reply_to=req.seq, payload=body
            )
            yield kb.send(rb, reply)
            while True:
                desc = yield kb.wait()
                if desc.kind is CompletionKind.SEND_DONE:
                    break

    tc = Task(eng, client(), "raw-client")
    ts = Task(eng, server(), "raw-server")
    cluster.run_until_quiet(max_ms=1e7)
    if not (tc.finished and ts.finished):
        raise RuntimeError("raw Charlotte RPC workload hung")
    tc.done.result()
    ts.done.result()
    return RPCResult(
        kind="charlotte-raw",
        payload_bytes=payload_bytes,
        rtts=rtts,
        messages=cluster.metrics.total("wire.messages."),
        wire_bytes=cluster.metrics.get("wire.bytes"),
        trace=cluster.trace,
    )
