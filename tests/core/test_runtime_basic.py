"""LYNX runtime-base semantics, tested over the loopback fake kernel.

These tests pin down the language behaviour of §2/§2.1 independently of
any real kernel: RPC, queue control, FIFO order, coroutines and mutual
exclusion, stop-and-wait blocking, destruction exceptions, process-exit
link destruction.
"""

import pytest

from repro.core.api import (
    BYTES,
    INT,
    LinkDestroyed,
    Operation,
    Proc,
    RemoteCrash,
    STR,
    TypeClash,
)
from repro.sim.faults import CrashMode
from tests.core.fakes import FakeCluster

ECHO = Operation("echo", (BYTES,), (BYTES,))
ADD = Operation("add", (INT, INT), (INT,))


class EchoServer(Proc):
    def __init__(self, count=1):
        self.count = count
        self.served = 0

    def main(self, ctx):
        (end,) = ctx.initial_links
        yield from ctx.register(ECHO, ADD)
        yield from ctx.open(end)
        for _ in range(self.count):
            inc = yield from ctx.wait_request()
            if inc.op.name == "echo":
                yield from ctx.reply(inc, (inc.args[0],))
            else:
                yield from ctx.reply(inc, (inc.args[0] + inc.args[1],))
            self.served += 1


class OneShotClient(Proc):
    def __init__(self, op, args):
        self.op = op
        self.args = args
        self.reply = None

    def main(self, ctx):
        (end,) = ctx.initial_links
        self.reply = yield from ctx.connect(end, self.op, self.args)


def rpc_pair(server, client):
    cluster = FakeCluster()
    s = cluster.spawn(server, "server")
    c = cluster.spawn(client, "client")
    cluster.create_link(s, c)
    cluster.run_until_quiet()
    return cluster


def test_simple_rpc_roundtrip():
    server = EchoServer()
    client = OneShotClient(ECHO, (b"hello",))
    cluster = rpc_pair(server, client)
    assert cluster.all_finished
    assert client.reply == (b"hello",)
    assert server.served == 1
    cluster.check()


def test_rpc_with_computation():
    client = OneShotClient(ADD, (20, 22))
    cluster = rpc_pair(EchoServer(), client)
    assert client.reply == (42,)
    cluster.check()


def test_sequential_rpcs_fifo_order():
    class SeqClient(Proc):
        def __init__(self):
            self.replies = []

        def main(self, ctx):
            (end,) = ctx.initial_links
            for i in range(5):
                r = yield from ctx.connect(end, ADD, (i, 100))
                self.replies.append(r[0])

    client = SeqClient()
    cluster = rpc_pair(EchoServer(count=5), client)
    assert client.replies == [100, 101, 102, 103, 104]
    cluster.check()


def test_type_clash_unknown_operation():
    UNKNOWN = Operation("mystery", (INT,), (INT,))

    class Client(Proc):
        def __init__(self):
            self.error = None

        def main(self, ctx):
            (end,) = ctx.initial_links
            try:
                yield from ctx.connect(end, UNKNOWN, (1,))
            except TypeClash as e:
                self.error = e

    client = Client()
    cluster = rpc_pair(EchoServer(), client)
    assert isinstance(client.error, TypeClash)
    cluster.check()


def test_type_clash_signature_mismatch():
    # same name as the server's "echo" but different signature
    BAD_ECHO = Operation("echo", (STR,), (STR,))

    class Client(Proc):
        def __init__(self):
            self.error = None

        def main(self, ctx):
            (end,) = ctx.initial_links
            try:
                yield from ctx.connect(end, BAD_ECHO, ("s",))
            except TypeClash as e:
                self.error = e

    client = Client()
    cluster = rpc_pair(EchoServer(), client)
    assert isinstance(client.error, TypeClash)
    cluster.check()


def test_closed_queue_delays_requests():
    """The server opens its queue only after a long delay; the client's
    connect must not complete before that."""

    class LazyServer(Proc):
        def __init__(self):
            self.opened_at = None

        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.register(ECHO)
            yield from ctx.delay(500.0)
            self.opened_at = yield from ctx.now()
            yield from ctx.open(end)
            inc = yield from ctx.wait_request()
            yield from ctx.reply(inc, (inc.args[0],))

    class TimedClient(Proc):
        def __init__(self):
            self.done_at = None

        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.connect(end, ECHO, (b"x",))
            self.done_at = yield from ctx.now()

    server, client = LazyServer(), TimedClient()
    cluster = rpc_pair(server, client)
    assert cluster.all_finished
    assert client.done_at > server.opened_at >= 500.0
    cluster.check()


def test_fork_creates_concurrent_coroutines():
    class ForkingClient(Proc):
        def __init__(self):
            self.replies = []

        def worker(self, ctx, end, i):
            r = yield from ctx.connect(end, ADD, (i, 0))
            self.replies.append(r[0])

        def main(self, ctx):
            (end,) = ctx.initial_links
            for i in range(3):
                yield from ctx.fork(self.worker(ctx, end, i), f"w{i}")

    client = ForkingClient()
    cluster = rpc_pair(EchoServer(count=3), client)
    assert sorted(client.replies) == [0, 1, 2]
    cluster.check()


def test_threads_execute_in_mutual_exclusion():
    """Two threads increment a shared counter with a read-modify-write
    around a yield-free region; mutual exclusion means no interleaving
    corrupts it, while a block point in the middle would."""

    class Racer(Proc):
        def __init__(self):
            self.counter = 0
            self.trace = []

        def bump(self, ctx, tag):
            for _ in range(5):
                v = self.counter
                self.trace.append((tag, "r", v))
                self.counter = v + 1
                self.trace.append((tag, "w", v + 1))
                yield from ctx.delay(1.0)  # block point between iterations

        def main(self, ctx):
            yield from ctx.fork(self.bump(ctx, "a"))
            yield from ctx.fork(self.bump(ctx, "b"))

    p = Racer()
    cluster = FakeCluster()
    cluster.spawn(p, "racer")
    cluster.run_until_quiet()
    assert p.counter == 10
    # within one thread's read-write pair, no other thread intervened
    for i in range(0, len(p.trace), 2):
        r, w = p.trace[i], p.trace[i + 1]
        assert r[0] == w[0] and w[2] == r[2] + 1
    cluster.check()


def test_destroy_raises_on_peer():
    class Destroyer(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.delay(10.0)
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

    victim = Victim()
    cluster = FakeCluster()
    d = cluster.spawn(Destroyer(), "destroyer")
    v = cluster.spawn(victim, "victim")
    cluster.create_link(d, v)
    cluster.run_until_quiet()
    assert isinstance(victim.error, LinkDestroyed)
    cluster.check()


def test_use_after_destroy_raises_locally():
    class P(Proc):
        def __init__(self):
            self.error = None

        def main(self, ctx):
            a, b = yield from ctx.new_link()
            yield from ctx.destroy(a)
            try:
                yield from ctx.connect(b, ECHO, (b"x",))
            except LinkDestroyed as e:
                self.error = e

    p = P()
    cluster = FakeCluster()
    cluster.spawn(p, "p")
    cluster.run_until_quiet()
    # destroying one end kills the link; using the *other* end fails too
    assert isinstance(p.error, LinkDestroyed)
    cluster.check()


def test_process_exit_destroys_its_links():
    """§2.2: termination of a process destroys all its links."""

    class ShortLived(Proc):
        def main(self, ctx):
            yield from ctx.delay(1.0)

    class Watcher(Proc):
        def __init__(self):
            self.error = None

        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.delay(50.0)  # let the peer exit first
            try:
                yield from ctx.connect(end, ECHO, (b"x",))
            except LinkDestroyed as e:
                self.error = e

    watcher = Watcher()
    cluster = FakeCluster()
    s = cluster.spawn(ShortLived(), "short")
    w = cluster.spawn(watcher, "watcher")
    cluster.create_link(s, w)
    cluster.run_until_quiet()
    assert isinstance(watcher.error, LinkDestroyed)
    cluster.check()


def test_crash_surfaces_as_remote_crash():
    class Server(EchoServer):
        pass

    class Client(Proc):
        def __init__(self):
            self.error = None

        def main(self, ctx):
            (end,) = ctx.initial_links
            try:
                yield from ctx.connect(end, ECHO, (b"x",))
            except LinkDestroyed as e:  # RemoteCrash subclasses it
                self.error = e

    class Hang(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links  # noqa: F841 - never serves
            yield from ctx.delay(1e6)

    client = Client()
    cluster = FakeCluster()
    h = cluster.spawn(Hang(), "hang")
    c = cluster.spawn(client, "client")
    cluster.create_link(h, c)
    cluster.engine.schedule(100.0, cluster.crash_process, "hang", CrashMode.PROCESSOR)
    cluster.run_until_quiet()
    assert isinstance(client.error, RemoteCrash)


def test_wait_request_filter_restricts_queues():
    class TwoLinkServer(Proc):
        def __init__(self):
            self.first_from = None

        def main(self, ctx):
            end1, end2 = ctx.initial_links
            yield from ctx.register(ADD)
            yield from ctx.open(end1)
            yield from ctx.open(end2)
            # serve only end2 first, despite end1 traffic arriving sooner
            inc = yield from ctx.wait_request([end2])
            self.first_from = inc.end.end_ref
            yield from ctx.reply(inc, (inc.args[0] + inc.args[1],))
            inc = yield from ctx.wait_request()
            yield from ctx.reply(inc, (inc.args[0] + inc.args[1],))

    class DelayedClient(Proc):
        def __init__(self, delay):
            self.delay_ms = delay
            self.reply = None

        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.delay(self.delay_ms)
            self.reply = yield from ctx.connect(end, ADD, (1, 2))

    server = TwoLinkServer()
    fast, slow = DelayedClient(0.0), DelayedClient(200.0)
    cluster = FakeCluster()
    s = cluster.spawn(server, "server")
    f = cluster.spawn(fast, "fast")
    sl = cluster.spawn(slow, "slow")
    cluster.create_link(s, f)  # end1 <-> fast
    cluster.create_link(s, sl)  # end2 <-> slow
    cluster.run_until_quiet()
    assert cluster.all_finished
    # the filtered wait served the slow client's link first
    assert server.first_from.link == 2
    assert fast.reply == (3,) and slow.reply == (3,)
    cluster.check()


def test_new_link_local_rpc():
    """Both ends of a fresh link can live in one process; the process
    can talk to itself through it (two coroutines)."""

    class SelfTalker(Proc):
        def __init__(self):
            self.reply = None

        def server_side(self, ctx, end):
            yield from ctx.open(end)
            inc = yield from ctx.wait_request()
            yield from ctx.reply(inc, (inc.args[0] + inc.args[1],))

        def main(self, ctx):
            a, b = yield from ctx.new_link()
            yield from ctx.register(ADD)
            yield from ctx.fork(self.server_side(ctx, a), "srv")
            self.reply = yield from ctx.connect(b, ADD, (2, 3))

    p = SelfTalker()
    cluster = FakeCluster()
    cluster.spawn(p, "p")
    cluster.run_until_quiet()
    assert p.reply == (5,)
    cluster.check()
