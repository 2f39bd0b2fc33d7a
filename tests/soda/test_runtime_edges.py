"""SODA runtime edge cases: probe backoff, crash repair, concurrent
freezes, redirect chains."""

import pytest

from repro.core.api import (
    BYTES,
    INT,
    LINK,
    LinkDestroyed,
    Operation,
    Proc,
    make_cluster,
)
from repro.sim.faults import CrashMode

ECHO = Operation("echo", (BYTES,), (BYTES,))
ADD = Operation("add", (INT, INT), (INT,))
GIVE = Operation("give", (LINK,), ())


def test_healthy_but_closed_receiver_is_not_presumed_destroyed():
    """A server that takes ages to open its queue triggers hint probes;
    the probes must confirm the hint and back off — never declare the
    link dead."""

    class Slow(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.register(ECHO)
            yield from ctx.delay(900.0)  # several probe periods
            yield from ctx.open(end)
            inc = yield from ctx.wait_request()
            yield from ctx.reply(inc, (inc.args[0],))

    class Client(Proc):
        def __init__(self):
            self.reply = None
            self.error = None

        def main(self, ctx):
            (end,) = ctx.initial_links
            try:
                self.reply = yield from ctx.connect(end, ECHO, (b"p",))
            except LinkDestroyed as e:
                self.error = e

    cluster = make_cluster("soda")
    client = Client()
    s = cluster.spawn(Slow(), "slow")
    c = cluster.spawn(client, "client")
    cluster.create_link(s, c)
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished
    assert client.error is None
    assert client.reply == (b"p",)
    m = cluster.metrics
    assert m.get("soda.hint_probes") >= 1
    assert m.get("soda.links_presumed_destroyed") == 0
    cluster.check()


def test_crash_of_old_owner_after_move_repaired_by_discover():
    """§4.2: "node crashes ... would tend to precipitate a large number
    of broadcast searches for lost links."  The old owner dies after
    moving the end; the stale-hinted user feels the crash interrupt and
    must find the new owner by discover rather than declaring death."""

    class Alice(Proc):
        def main(self, ctx):
            to_carol, to_bob = ctx.initial_links
            yield from ctx.register(GIVE)
            yield from ctx.connect(to_bob, GIVE, (to_carol,))
            yield from ctx.delay(1e9)  # killed by injection

    class Bob(Proc):
        def main(self, ctx):
            (from_alice,) = ctx.initial_links
            yield from ctx.register(GIVE, ADD)
            yield from ctx.open(from_alice)
            inc = yield from ctx.wait_request()
            moved = inc.args[0]
            yield from ctx.reply(inc, ())
            yield from ctx.open(moved)
            inc2 = yield from ctx.wait_request()
            yield from ctx.reply(inc2, (inc2.args[0] + inc2.args[1],))

    class Carol(Proc):
        def __init__(self):
            self.reply = None

        def main(self, ctx):
            (to_link,) = ctx.initial_links
            yield from ctx.delay(300.0)  # move done, Alice dead
            self.reply = yield from ctx.connect(to_link, ADD, (6, 7))

    cluster = make_cluster("soda", cache_size=0)
    carol = Carol()
    c = cluster.spawn(carol, "carol")
    a = cluster.spawn(Alice(), "alice")
    b = cluster.spawn(Bob(), "bob")
    cluster.create_link(c, a)
    cluster.create_link(a, b)
    cluster.engine.schedule(200.0, cluster.crash_process, "alice",
                            CrashMode.PROCESSOR)
    cluster.run_until_quiet(max_ms=1e6)
    assert carol.reply == (13,), cluster.unfinished()
    assert cluster.metrics.get("soda.hints_repaired_by_discover") >= 1
    cluster.check()


def test_concurrent_freeze_searches_via_counter():
    """§4.2: "The existence of the counter permits multiple concurrent
    searches."  Two seekers lose their hints simultaneously with
    broadcasts dead; both freezes run, everyone unfreezes, both RPCs
    complete."""

    class Passer(Proc):
        """Gives its two inbound link ends to the collector."""

        def main(self, ctx):
            seek_link, to_collector = ctx.initial_links
            yield from ctx.register(GIVE)
            yield from ctx.connect(to_collector, GIVE, (seek_link,))
            yield from ctx.delay(1e7)  # alive but with cache disabled

    class Collector(Proc):
        def __init__(self):
            self.served = 0

        def serve_one(self, ctx, end):
            yield from ctx.open(end)
            inc = yield from ctx.wait_request([end])
            yield from ctx.reply(inc, (inc.args[0] + inc.args[1],))
            self.served += 1

        def main(self, ctx):
            ends = ctx.initial_links
            yield from ctx.register(GIVE, ADD)
            for e in ends:
                yield from ctx.open(e)
            got = []
            for _ in range(2):
                inc = yield from ctx.wait_request(ends)
                got.append(inc.args[0])
                yield from ctx.reply(inc, ())
            for moved in got:
                yield from ctx.fork(self.serve_one(ctx, moved), "serve")
            yield from ctx.delay(1e7)

    class Seeker(Proc):
        def __init__(self):
            self.reply = None

        def main(self, ctx):
            (link,) = ctx.initial_links
            yield from ctx.delay(400.0)  # both moves settled; hints stale
            self.reply = yield from ctx.connect(link, ADD, (1, 2))

    cluster = make_cluster("soda", cache_size=0, broadcast_loss=1.0)
    seek1, seek2 = Seeker(), Seeker()
    collector = Collector()
    s1 = cluster.spawn(seek1, "seek1")
    s2 = cluster.spawn(seek2, "seek2")
    p1 = cluster.spawn(Passer(), "pass1")
    p2 = cluster.spawn(Passer(), "pass2")
    col = cluster.spawn(collector, "collector")
    cluster.create_link(s1, p1)
    cluster.create_link(s2, p2)
    cluster.create_link(p1, col)
    cluster.create_link(p2, col)
    cluster.run_until_quiet(max_ms=2e6)
    assert seek1.reply == (3,)
    assert seek2.reply == (3,)
    m = cluster.metrics
    assert m.get("soda.freeze.searches") >= 2
    assert m.get("soda.hints_repaired_by_freeze") >= 2
    # every frozen process was released (counters back to zero)
    for p in cluster.processes.values():
        assert p.runtime.frozen_count == 0
    cluster.check()


def test_redirect_chain_through_two_old_owners():
    """The end moves A -> B -> C; the observer's hint still points at
    A.  With caches on, repair is a chain of redirects."""

    class Passer(Proc):
        def __init__(self, forward: bool):
            self.forward = forward

        def main(self, ctx):
            if self.forward:
                inbound, outbound = ctx.initial_links
            else:
                (inbound,) = ctx.initial_links
            yield from ctx.register(GIVE, ADD)
            yield from ctx.open(inbound)
            inc = yield from ctx.wait_request([inbound])
            moved = inc.args[0]
            yield from ctx.reply(inc, ())
            if self.forward:
                yield from ctx.connect(outbound, GIVE, (moved,))
                yield from ctx.delay(5000.0)  # serve redirects
            else:
                yield from ctx.open(moved)
                inc2 = yield from ctx.wait_request([moved])
                yield from ctx.reply(inc2, (inc2.args[0] * inc2.args[1],))

    class Origin(Proc):
        def main(self, ctx):
            obs_link, to_b = ctx.initial_links
            yield from ctx.register(GIVE)
            yield from ctx.connect(to_b, GIVE, (obs_link,))
            yield from ctx.delay(5000.0)  # serve redirects

    class Observer(Proc):
        def __init__(self):
            self.reply = None

        def main(self, ctx):
            (link,) = ctx.initial_links
            yield from ctx.delay(600.0)
            self.reply = yield from ctx.connect(link, ADD, (6, 7))

    cluster = make_cluster("soda")
    obs = Observer()
    o = cluster.spawn(obs, "observer")
    origin = cluster.spawn(Origin(), "origin")
    b = cluster.spawn(Passer(forward=True), "b")
    c = cluster.spawn(Passer(forward=False), "c")
    cluster.create_link(origin, o)
    cluster.create_link(origin, b)
    cluster.create_link(b, c)
    cluster.run_until_quiet(max_ms=1e6)
    assert obs.reply == (42,), cluster.unfinished()
    # two redirects: origin -> b, b -> c
    assert cluster.metrics.get("soda.redirects_served") >= 2
    assert cluster.metrics.get("soda.redirects_followed") >= 2
    cluster.check()
