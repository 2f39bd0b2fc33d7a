"""Link-migration churn: a link end hops between processes while its
far end keeps talking to it.

This is the workload behind E9 (SODA hint machinery: every hop leaves
the observer's hint one owner behind, exercising cache redirects,
discover and — under heavy broadcast loss — the freeze search) and E11
(kernel cost of a move: Charlotte's three-party agreement vs hint
updates).  It generalises figure 1: ends move while traffic flows.

Topology: a *dispatcher* is linked to every member; the *work link*'s
far end sits with a stationary *observer*.  Per hop, the dispatcher
gives the work end to the next member, the member serves exactly one
observer RPC on it and hands it back — two moves per hop, with the
observer's location hint going stale at every step.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.api import INT, LINK, LinkDestroyed, Operation, Proc, make_cluster
from repro.core.ports import kernel_metric_digest
from repro.sim.metrics import ordered_mean

ADD = Operation("add", (INT, INT), (INT,))
GIVEH = Operation("giveh", (LINK, INT), ())


class Observer(Proc):
    """Holds the stationary end of the work link; issues one RPC per
    hop and records who answered."""

    def __init__(self, hops: int) -> None:
        self.hops = hops
        self.servers: List[int] = []
        self.rtts: List[float] = []

    def main(self, ctx):
        (work,) = ctx.initial_links
        for h in range(self.hops):
            t0 = yield from ctx.now()
            try:
                (who,) = yield from ctx.connect(work, ADD, (h, 0))
            except LinkDestroyed:
                break
            self.rtts.append((yield from ctx.now()) - t0)
            self.servers.append(who)


class Dispatcher(Proc):
    """Hands the work end to members round-robin, one hop at a time."""

    def __init__(self, hops: int, members: int) -> None:
        self.hops = hops
        self.members = members

    def main(self, ctx):
        work, *member_links = ctx.initial_links
        yield from ctx.register(GIVEH)
        for link in member_links:
            yield from ctx.open(link)
        current = work
        for h in range(self.hops):
            target = member_links[h % self.members]
            yield from ctx.connect(target, GIVEH, (current, h))
            inc = yield from ctx.wait_request()
            current = inc.args[0]
            yield from ctx.reply(inc, ())
        yield from ctx.destroy(current)


class Member(Proc):
    """Per hop it is assigned: adopt the work end, serve exactly one
    observer RPC on it, hand it back to the dispatcher."""

    def __init__(self, index: int, expected: int, linger_ms: float) -> None:
        self.index = index
        self.expected = expected
        self.linger_ms = linger_ms

    def main(self, ctx):
        (to_dispatcher,) = ctx.initial_links
        yield from ctx.register(GIVEH, ADD)
        yield from ctx.open(to_dispatcher)
        for _ in range(self.expected):
            inc = yield from ctx.wait_request([to_dispatcher])
            work, hop = inc.args
            yield from ctx.reply(inc, ())
            yield from ctx.open(work)
            req = yield from ctx.wait_request([work])
            yield from ctx.reply(req, (self.index,))
            yield from ctx.close(work)
            yield from ctx.connect(to_dispatcher, GIVEH, (work, hop))
        # linger to answer stale-hint redirects aimed at us, then exit
        yield from ctx.delay(self.linger_ms)


def run_migration_churn(
    kind: str,
    members: int = 4,
    hops: int = 8,
    seed: int = 0,
    linger_ms: float = 2000.0,
    **cluster_kw,
) -> Dict[str, object]:
    """Run the churn; returns a metrics digest for E9/E11."""
    with make_cluster(kind, seed=seed, **cluster_kw) as cluster:
        observer = Observer(hops)
        dispatcher = Dispatcher(hops, members)
        member_progs = [
            Member(i, len([h for h in range(hops) if h % members == i]),
                   linger_ms)
            for i in range(members)
        ]
        d = cluster.spawn(dispatcher, "dispatcher")
        obs = cluster.spawn(observer, "observer")
        handles = [cluster.spawn(m, f"member{i}")
                   for i, m in enumerate(member_progs)]
        cluster.create_link(d, obs)  # the work link (dispatcher side moves)
        for h in handles:
            cluster.create_link(d, h)
        cluster.run_until_quiet(max_ms=1e7)
        m = cluster.metrics
        digest = {
            "finished": cluster.all_finished,
            "rpcs_served": len(observer.servers),
            "servers_in_hop_order": list(observer.servers),
            "mean_rpc_ms": ordered_mean(observer.rtts, empty=0.0),
            "moves": 2 * hops,  # by construction: out and back per hop
            "wire_messages": m.total("wire.messages."),
            "wire_bytes": m.get("wire.bytes"),
            "sim_time_ms": cluster.engine.now,
            "trace": cluster.trace,
        }
    # kernel-specific machinery counts appear only on kernels that have
    # the machinery; consumers must test `key in digest`
    digest.update(kernel_metric_digest(kind, m, {
        "move_msgs": "charlotte.move_msgs",
        "move_retries": "charlotte.move_retries",
        "redirects_served": "soda.redirects_served",
        "redirects_followed": "soda.redirects_followed",
        "discover_repairs": "soda.hints_repaired_by_discover",
        "freeze_searches": "soda.freeze.searches",
        "freeze_repairs": "soda.hints_repaired_by_freeze",
        "frozen_ms": "soda.freeze.frozen_ms",
        "presumed_destroyed": "soda.links_presumed_destroyed",
        "discovers": "soda.discover",
        "stale_notices": "chrysalis.stale_notices",
    }))
    return digest


class DormantDispatcher(Proc):
    """Moves the work end through the members with NO traffic on it —
    the §4.2 dormant case — then hands it to a final holder to serve."""

    def __init__(self, hops: int, members: int) -> None:
        self.hops = hops
        self.members = members

    def main(self, ctx):
        work, *member_links = ctx.initial_links
        yield from ctx.register(GIVEH)
        for link in member_links:
            yield from ctx.open(link)
        current = work
        for h in range(self.hops):
            target = member_links[h % self.members]
            yield from ctx.connect(target, GIVEH, (current, h))
            inc = yield from ctx.wait_request()
            current = inc.args[0]
            yield from ctx.reply(inc, ())
        # final handoff: the holder serves the observer's one request
        final = member_links[self.hops % self.members]
        yield from ctx.connect(final, GIVEH, (current, -1))
        yield from ctx.delay(self.linger_ms)

    linger_ms: float = 4000.0


class DormantMember(Proc):
    """Passes the work end straight back (hop >= 0); on the final
    handoff (hop == -1) it opens the end and serves one request."""

    def __init__(self, index: int, passes: int, is_final: bool,
                 linger_ms: float) -> None:
        self.index = index
        self.passes = passes
        self.is_final = is_final
        self.linger_ms = linger_ms

    def main(self, ctx):
        (to_dispatcher,) = ctx.initial_links
        yield from ctx.register(GIVEH, ADD)
        yield from ctx.open(to_dispatcher)
        total = self.passes + (1 if self.is_final else 0)
        for _ in range(total):
            inc = yield from ctx.wait_request([to_dispatcher])
            work, hop = inc.args
            yield from ctx.reply(inc, ())
            if hop == -1:
                yield from ctx.open(work)
                req = yield from ctx.wait_request([work])
                yield from ctx.reply(req, (self.index,))
                yield from ctx.destroy(work)
            else:
                yield from ctx.connect(to_dispatcher, GIVEH, (work, hop))
        yield from ctx.delay(self.linger_ms)


class DormantObserver(Proc):
    """Waits for the churn to settle, then uses the (moved) link once:
    the single RPC's latency is the hint-repair cost."""

    def __init__(self, settle_ms: float) -> None:
        self.settle_ms = settle_ms
        self.server = None
        self.repair_latency_ms = None

    def main(self, ctx):
        (work,) = ctx.initial_links
        yield from ctx.delay(self.settle_ms)
        t0 = yield from ctx.now()
        try:
            (who,) = yield from ctx.connect(work, ADD, (0, 0))
        except LinkDestroyed:
            return
        self.repair_latency_ms = (yield from ctx.now()) - t0
        self.server = who


def run_dormant_migration(
    kind: str,
    members: int = 3,
    hops: int = 5,
    seed: int = 0,
    settle_ms: float = 1500.0,
    linger_ms: float = 60000.0,
    **cluster_kw,
) -> Dict[str, object]:
    """§4.2's dormant-link scenario: the end moves ``hops + 1`` times
    with nothing posted against it; afterwards the far end uses it once
    and pays whatever hint repair costs (redirect chain / discover /
    freeze).  Returns the metrics digest including the repair latency.
    """
    with make_cluster(kind, seed=seed, **cluster_kw) as cluster:
        observer = DormantObserver(settle_ms)
        dispatcher = DormantDispatcher(hops, members)
        dispatcher.linger_ms = linger_ms
        final_index = hops % members
        member_progs = [
            DormantMember(
                i,
                len([h for h in range(hops) if h % members == i]),
                i == final_index,
                linger_ms,
            )
            for i in range(members)
        ]
        d = cluster.spawn(dispatcher, "dispatcher")
        obs = cluster.spawn(observer, "observer")
        handles = [cluster.spawn(m, f"member{i}")
                   for i, m in enumerate(member_progs)]
        cluster.create_link(d, obs)
        for h in handles:
            cluster.create_link(d, h)
        cluster.run_until_quiet(max_ms=1e7)
        m = cluster.metrics
        digest = {
            "finished": cluster.all_finished,
            "served_by": observer.server,
            "repair_latency_ms": observer.repair_latency_ms,
            "wire_messages": m.total("wire.messages."),
            "sim_time_ms": cluster.engine.now,
            "trace": cluster.trace,
        }
    digest.update(kernel_metric_digest(kind, m, {
        "redirects_served": "soda.redirects_served",
        "redirects_followed": "soda.redirects_followed",
        "cache_evictions": "soda.cache_evictions",
        "hint_probes": "soda.hint_probes",
        "discovers": "soda.discover",
        "discover_repairs": "soda.hints_repaired_by_discover",
        "freeze_searches": "soda.freeze.searches",
        "freeze_repairs": "soda.hints_repaired_by_freeze",
        "frozen_ms": "soda.freeze.frozen_ms",
        "presumed_destroyed": "soda.links_presumed_destroyed",
        "move_msgs": "charlotte.move_msgs",
        "stale_notices": "chrysalis.stale_notices",
    }))
    return digest
