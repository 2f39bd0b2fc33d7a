"""Skewed-load fairness workload (E12).

§2.1: "For the sake of fairness, an implementation must guarantee that
no queue is ignored forever."  One chatty client floods a server with
back-to-back requests on its link; several quiet clients each send a
single request.  If the server's queue choice were unfair the quiet
requests would starve behind the flood; the round-robin of the runtime
base must bound their waiting.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.api import INT, Operation, Proc, make_cluster

WORK = Operation("work", (INT, INT), (INT,))


class SkewServer(Proc):
    def __init__(self, total: int) -> None:
        self.total = total
        self.service_order: List[int] = []

    def main(self, ctx):
        ends = ctx.initial_links
        yield from ctx.register(WORK)
        for e in ends:
            yield from ctx.open(e)
        for _ in range(self.total):
            inc = yield from ctx.wait_request()
            self.service_order.append(inc.args[0])
            yield from ctx.reply(inc, (0,))


class ChattyClient(Proc):
    def __init__(self, ident: int, requests: int) -> None:
        self.ident = ident
        self.requests = requests

    def main(self, ctx):
        (end,) = ctx.initial_links
        for _ in range(self.requests):
            yield from ctx.connect(end, WORK, (self.ident, 0))


class QuietClient(Proc):
    def __init__(self, ident: int, start_after_ms: float) -> None:
        self.ident = ident
        self.start_after_ms = start_after_ms
        self.latency: float = float("nan")

    def main(self, ctx):
        (end,) = ctx.initial_links
        yield from ctx.delay(self.start_after_ms)
        t0 = yield from ctx.now()
        yield from ctx.connect(end, WORK, (self.ident, 0))
        self.latency = (yield from ctx.now()) - t0


def run_skewed_load(
    kind: str,
    quiet_clients: int = 3,
    chatty_requests: int = 20,
    seed: int = 0,
    **cluster_kw,
) -> Dict[str, object]:
    """Returns service order, quiet-client latencies, and the maximum
    number of chatty services any quiet request had to wait through
    after arriving (the starvation measure)."""
    total = chatty_requests + quiet_clients
    with make_cluster(kind, seed=seed, **cluster_kw) as cluster:
        server = SkewServer(total)
        s = cluster.spawn(server, "server")
        chatty = cluster.spawn(ChattyClient(0, chatty_requests), "chatty")
        cluster.create_link(s, chatty)
        quiet_progs = []
        for i in range(quiet_clients):
            q = QuietClient(i + 1, start_after_ms=10.0)
            quiet_progs.append(q)
            handle = cluster.spawn(q, f"quiet{i + 1}")
            cluster.create_link(s, handle)
        cluster.run_until_quiet(max_ms=1e7)
        if not cluster.all_finished:
            raise RuntimeError(f"skew workload hung on {kind}: "
                               f"{cluster.unfinished()}")
        order = server.service_order
        # starvation measure: longest run of chatty services between any
        # quiet service and the preceding quiet service (or start)
        worst_gap = 0
        gap = 0
        for ident in order:
            if ident == 0:
                gap += 1
            else:
                worst_gap = max(worst_gap, gap)
                gap = 0
        return {
            "order": order,
            "quiet_latencies_ms": [q.latency for q in quiet_progs],
            "worst_chatty_run_before_quiet": worst_gap,
            "sim_time_ms": cluster.engine.now,
        }
