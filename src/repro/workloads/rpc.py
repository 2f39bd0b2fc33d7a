"""The simple-remote-operation workload of §3.3/§4.3/§5.3.

Two processes, one link, N round trips of a typed ``ping`` operation
with a configurable payload in each direction — the measurement behind
every latency number in the paper.  The *raw kernel-call* variants
("C programs that make the same series of kernel calls", §3.3) are in
`repro.workloads.raw`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.api import BYTES, Operation, Proc, make_cluster
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
