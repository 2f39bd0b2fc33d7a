"""SODA LYNX runtime behaviour: hints, caches, redirects, discover and
the freeze fallback (§4.2)."""

import pytest

from repro.core.api import (
    BYTES,
    INT,
    LINK,
    LinkDestroyed,
    Operation,
    Proc,
    RemoteCrash,
    RequestAborted,
    ThreadAborted,
    make_cluster,
)
from repro.core.costs import CostModel, SodaCosts
from repro.sim.faults import CrashMode

ECHO = Operation("echo", (BYTES,), (BYTES,))
ADD = Operation("add", (INT, INT), (INT,))
GIVE = Operation("give", (LINK,), ())


class EchoServer(Proc):
    def __init__(self, n=1):
        self.n = n

    def main(self, ctx):
        (end,) = ctx.initial_links
        yield from ctx.register(ECHO, ADD)
        yield from ctx.open(end)
        for _ in range(self.n):
            inc = yield from ctx.wait_request()
            if inc.op.name == "echo":
                yield from ctx.reply(inc, (inc.args[0],))
            else:
                yield from ctx.reply(inc, (inc.args[0] + inc.args[1],))


def test_rpc_small_message_speed_vs_charlotte():
    """§4.3 footnote 2: "for small messages SODA was three times as
    fast as Charlotte"."""

    class Client(Proc):
        def __init__(self):
            self.rtt = None

        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.connect(end, ECHO, (b"",))  # warm-up
            t0 = yield from ctx.now()
            yield from ctx.connect(end, ECHO, (b"",))
            self.rtt = (yield from ctx.now()) - t0

    cluster = make_cluster("soda")
    client = Client()
    s = cluster.spawn(EchoServer(2), "server")
    c = cluster.spawn(client, "client")
    cluster.create_link(s, c)
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished
    # ~3x faster than Charlotte's 57 ms (we accept 2.4x–3.6x)
    assert 57.0 / 3.6 < client.rtt < 57.0 / 2.4
    cluster.check()


def test_unwanted_requests_simply_wait_in_kernel():
    """The §3.2.1 reverse-direction scenario needs no bounce machinery
    under SODA: the unaccepted put just waits."""

    class A(Proc):
        def __init__(self):
            self.reply = None

        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.register(ECHO, ADD)
            self.reply = yield from ctx.connect(end, ECHO, (b"ping",))
            yield from ctx.open(end)
            inc = yield from ctx.wait_request()
            yield from ctx.reply(inc, (inc.args[0] + inc.args[1],))

    class B(Proc):
        def __init__(self):
            self.reverse_reply = None

        def reverse(self, ctx, end):
            self.reverse_reply = yield from ctx.connect(end, ADD, (2, 3))

        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.register(ECHO, ADD)
            yield from ctx.open(end)
            inc = yield from ctx.wait_request()
            yield from ctx.fork(self.reverse(ctx, end), "rev")
            yield from ctx.delay(1.0)
            yield from ctx.reply(inc, (inc.args[0],))

    cluster = make_cluster("soda")
    a_prog, b_prog = A(), B()
    a = cluster.spawn(a_prog, "A")
    b = cluster.spawn(b_prog, "B")
    cluster.create_link(a, b)
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished, cluster.unfinished()
    assert a_prog.reply == (b"ping",)
    assert b_prog.reverse_reply == (5,)
    assert cluster.metrics.get("runtime.unwanted") == 0
    cluster.check()


def test_move_then_stale_hint_repaired_by_cache_redirect():
    """§4.2: C's hint still points at A after A moved the end to B;
    A's cache keeps the name advertised and answers with a redirect."""

    class Carol(Proc):
        def __init__(self):
            self.reply = None

        def main(self, ctx):
            (to_link,) = ctx.initial_links
            yield from ctx.delay(200.0)  # the move has happened
            # our hint still says "alice"
            self.reply = yield from ctx.connect(to_link, ADD, (3, 4))

    class Alice(Proc):
        def main(self, ctx):
            to_carol, to_bob = ctx.initial_links
            yield from ctx.register(GIVE)
            yield from ctx.connect(to_bob, GIVE, (to_carol,))
            yield from ctx.delay(400.0)  # stay alive to serve redirects

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

    cluster = make_cluster("soda")
    carol, alice = Carol(), Alice()
    c = cluster.spawn(carol, "carol")
    a = cluster.spawn(alice, "alice")
    b = cluster.spawn(Bob(), "bob")
    cluster.create_link(c, a)
    cluster.create_link(a, b)
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished, cluster.unfinished()
    assert carol.reply == (7,)
    m = cluster.metrics
    assert m.get("soda.redirects_served") >= 1
    assert m.get("soda.redirects_followed") >= 1
    cluster.check()


def test_forgotten_cache_repaired_by_discover():
    """§4.2: "If A has forgotten, C can use the discover command" —
    force eviction with cache_size=0."""

    class Carol(Proc):
        def __init__(self):
            self.reply = None

        def main(self, ctx):
            (to_link,) = ctx.initial_links
            yield from ctx.delay(200.0)
            self.reply = yield from ctx.connect(to_link, ADD, (5, 6))

    class Alice(Proc):
        def main(self, ctx):
            to_carol, to_bob = ctx.initial_links
            yield from ctx.register(GIVE)
            yield from ctx.connect(to_bob, GIVE, (to_carol,))
            yield from ctx.delay(2000.0)

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

    cluster = make_cluster("soda", cache_size=0)
    carol = Carol()
    c = cluster.spawn(carol, "carol")
    a = cluster.spawn(Alice(), "alice")
    b = cluster.spawn(Bob(), "bob")
    cluster.create_link(c, a)
    cluster.create_link(a, b)
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished, cluster.unfinished()
    assert carol.reply == (11,)
    m = cluster.metrics
    assert m.get("soda.cache_evictions") >= 1
    assert m.get("soda.hints_repaired_by_discover") >= 1
    cluster.check()


def test_freeze_fallback_when_discover_is_dead():
    """§4.2's absolute algorithm: with broadcasts 100% lossy and the
    cache gone, only freezing the world can find the moved end."""

    class Carol(Proc):
        def __init__(self):
            self.reply = None

        def main(self, ctx):
            (to_link,) = ctx.initial_links
            yield from ctx.delay(200.0)
            self.reply = yield from ctx.connect(to_link, ADD, (8, 9))

    class Alice(Proc):
        def main(self, ctx):
            to_carol, to_bob = ctx.initial_links
            yield from ctx.register(GIVE)
            yield from ctx.connect(to_bob, GIVE, (to_carol,))
            yield from ctx.delay(10000.0)

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

    cluster = make_cluster("soda", cache_size=0, broadcast_loss=1.0)
    carol = Carol()
    c = cluster.spawn(carol, "carol")
    a = cluster.spawn(Alice(), "alice")
    b = cluster.spawn(Bob(), "bob")
    cluster.create_link(c, a)
    cluster.create_link(a, b)
    cluster.run_until_quiet(max_ms=1e6)
    assert carol.reply == (17,)
    m = cluster.metrics
    assert m.get("soda.freeze.searches") >= 1
    assert m.get("soda.hints_repaired_by_freeze") >= 1
    assert m.get("soda.freeze.frozen") >= 1
    cluster.check()


def test_crash_detected_via_signal():
    """The posted status signal turns the peer's death into a prompt
    RemoteCrash (§4.2)."""

    class Client(Proc):
        def __init__(self):
            self.error = None

        def main(self, ctx):
            (end,) = ctx.initial_links
            try:
                yield from ctx.connect(end, ECHO, (b"x",))
            except LinkDestroyed as e:
                self.error = e

    class Doomed(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.delay(1e6)

    cluster = make_cluster("soda", broadcast_loss=1.0)
    client = Client()
    d = cluster.spawn(Doomed(), "doomed")
    c = cluster.spawn(client, "client")
    cluster.create_link(d, c)
    cluster.engine.schedule(50.0, cluster.crash_process, "doomed",
                            CrashMode.PROCESSOR)
    cluster.run_until_quiet(max_ms=1e6)
    assert isinstance(client.error, LinkDestroyed)
    assert cluster.processes["client"].finished


def test_orderly_destroy_accepts_pending_with_destroyed_oob():
    class Destroyer(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.delay(50.0)
            yield from ctx.destroy(end)

    class Victim(Proc):
        def __init__(self):
            self.error = None

        def main(self, ctx):
            (end,) = ctx.initial_links
            try:
                yield from ctx.connect(end, ECHO, (b"x",))
            except LinkDestroyed as e:
                self.error = e

    cluster = make_cluster("soda")
    victim = Victim()
    d = cluster.spawn(Destroyer(), "destroyer")
    v = cluster.spawn(victim, "victim")
    cluster.create_link(d, v)
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished
    assert isinstance(victim.error, LinkDestroyed)
    cluster.check()


def test_server_feels_abort_via_zero_accept():
    """§6 item 4 for SODA: the reply put is zero-accepted with OOB
    'aborted' — no acknowledgment messages."""

    class Client(Proc):
        def __init__(self):
            self.aborted = False

        def requester(self, ctx, end):
            try:
                yield from ctx.connect(end, ECHO, (b"x",))
            except ThreadAborted:
                self.aborted = True

        def main(self, ctx):
            (end,) = ctx.initial_links
            t = yield from ctx.fork(self.requester(ctx, end), "req")
            yield from ctx.delay(60.0)  # server consumed it
            yield from ctx.abort(t)
            yield from ctx.delay(300.0)

    class SlowServer(Proc):
        def __init__(self):
            self.error = None

        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.register(ECHO)
            yield from ctx.open(end)
            inc = yield from ctx.wait_request()
            yield from ctx.delay(150.0)
            try:
                yield from ctx.reply(inc, (inc.args[0],))
            except RequestAborted as e:
                self.error = e

    cluster = make_cluster("soda")
    client, server = Client(), SlowServer()
    s = cluster.spawn(server, "server")
    c = cluster.spawn(client, "client")
    cluster.create_link(s, c)
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished
    assert client.aborted
    assert isinstance(server.error, RequestAborted)
    assert cluster.metrics.get("soda.aborted_reply_refusals") == 1
    cluster.check()


def test_abort_before_acceptance_withdraws_put():
    class Alice(Proc):
        def __init__(self):
            self.aborted = False
            self.kept = None

        def requester(self, ctx, end, enc):
            try:
                yield from ctx.connect(end, GIVE, (enc,))
            except ThreadAborted:
                self.aborted = True

        def main(self, ctx):
            (to_bob,) = ctx.initial_links
            mine, theirs = yield from ctx.new_link()
            self.kept = theirs.end_ref
            t = yield from ctx.fork(self.requester(ctx, to_bob, theirs), "req")
            yield from ctx.delay(30.0)  # delivered but never accepted
            yield from ctx.abort(t)

    class DeafBob(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.delay(200.0)

    cluster = make_cluster("soda")
    alice = Alice()
    a = cluster.spawn(alice, "alice")
    b = cluster.spawn(DeafBob(), "bob")
    cluster.create_link(a, b)
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished
    assert alice.aborted
    assert cluster.metrics.get("soda.aborts_withdrawn") == 1
    assert cluster.registry.owner_of(alice.kept) == "alice"
    cluster.check()


def test_pair_limit_deadlock_with_many_links():
    """§4.2.1: "Too small a limit on outstanding requests would leave
    the possibility of deadlock when many links connect the same pair
    of processes." — with limit 2 and 4 links each carrying a request
    plus signals, progress stops."""

    class Server(Proc):
        def __init__(self, nlinks):
            self.nlinks = nlinks
            self.served = 0

        def main(self, ctx):
            ends = ctx.initial_links
            yield from ctx.register(ADD)
            # open only the LAST link; its request is stuck behind the
            # pair limit consumed by requests on the first links
            yield from ctx.open(ends[-1])
            inc = yield from ctx.wait_request()
            self.served += 1
            yield from ctx.reply(inc, (0,))

    class Client(Proc):
        def __init__(self, nlinks):
            self.nlinks = nlinks
            self.done = 0

        def one(self, ctx, end):
            yield from ctx.connect(end, ADD, (1, 1))
            self.done += 1

        def main(self, ctx):
            ends = ctx.initial_links
            for end in ends:
                yield from ctx.fork(self.one(ctx, end), "c")
            yield from ctx.delay(1.0)

    n = 4
    cluster = make_cluster(
        "soda", costmodel=CostModel(soda=SodaCosts(pair_request_limit=2)))
    server, client = Server(n), Client(n)
    s = cluster.spawn(server, "server")
    c = cluster.spawn(client, "client")
    for _ in range(n):
        cluster.create_link(c, s)
    cluster.run_until_quiet(max_ms=3000.0)
    # the one open queue's request never got through: deadlock
    assert server.served == 0
    assert cluster.metrics.get("soda.pair_limit_queued") >= 1

    # with the paper's "half a dozen or so" the same workload completes
    cluster2 = make_cluster(
        "soda", costmodel=CostModel(soda=SodaCosts(pair_request_limit=12)))
    server2, client2 = Server(n), Client(n)
    s2 = cluster2.spawn(server2, "server")
    c2 = cluster2.spawn(client2, "client")
    for _ in range(n):
        cluster2.create_link(c2, s2)
    cluster2.run_until_quiet(max_ms=3000.0)
    assert server2.served == 1


@pytest.mark.parametrize("limit", range(1, 7))
def test_a2_workload_finishes_iff_the_pair_limit_exceeds_its_links(limit):
    """A2's cache workload meets §4.2.1's deadlock (E10) below a limit
    of ``A2_LINKS + 1``: the holder opens its ``A2_LINKS`` adopted
    ends, their status signals fill that many of the holder->observer
    pair's slots, and the holder's reply to the observer's first
    request queues behind them.  The run never goes quiet, so it ends
    at A2's budget with both processes unfinished and a request queued.
    At limits 2-4 the observer's hint probe confirms the hint and
    refires at its capped backoff (120 ms x 2**6 = 7.68 s: 1,298
    discovers by 10**7 ms, 10,636 / 10,639 / 10,642 events).  At limit
    1 every probe's discover names another process than the hint,
    which `_conclude_probe` takes for a repair: a withdraw, then a
    repost that is redirected back and queues again.  The repost keeps
    its probe count and its timer the same capped backoff, so the
    circle slows to the confirmed hint's pace (2,594 discovers, 1,296
    repairs, 1,298 redirects followed, 2,593 reposts, 38,975 events).
    When each repost started over at the base timeout, the circle ran
    every ~176 ms for the whole budget: 56,714 discovers, 110,833
    reposts and 1,229,615 events."""
    from repro.experiments.moves import (
        A2_LINKS,
        _CacheDispatcher,
        _CacheHolder,
        _CacheObserver,
    )

    costs = CostModel(soda=SodaCosts(pair_request_limit=limit))
    with make_cluster("soda", costmodel=costs) as cluster:
        d = cluster.spawn(_CacheDispatcher(), "dispatcher")
        h = cluster.spawn(_CacheHolder(), "holder")
        obs = cluster.spawn(_CacheObserver(), "observer")
        cluster.create_link(d, h)
        for _ in range(A2_LINKS):
            cluster.create_link(d, obs)
        end = cluster.run_until_quiet(max_ms=1e7)
        cluster.check()
        # a stall backs off rather than spins, at every limit
        assert cluster.engine.events_fired <= 40_000
        # a pair's deque holds only requests still in flight: one that
        # left the table while queued left its deque too (at a limit of
        # 1 the observer->holder deque once kept ~55k withdrawn rids)
        kernel = cluster.kernel
        for queue in kernel._pair_queue.values():
            assert set(queue) <= set(kernel._requests)
        if limit >= A2_LINKS + 1:
            assert cluster.all_finished
            assert len(obs.program.latencies) == A2_LINKS
        else:
            assert end == 1e7
            assert {"holder", "observer"} <= set(cluster.unfinished())
            assert cluster.metrics.get("soda.pair_limit_queued") >= 1
