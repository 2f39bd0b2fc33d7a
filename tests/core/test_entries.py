"""Tests for the entry-style server layer (core.entries)."""

from collections.abc import Sized

import pytest

from repro.core.api import BYTES, INT, LinkDestroyed, Operation, Proc, STR
from repro.core.entries import call, serve
from tests.core.fakes import FakeCluster

GET = Operation("get", (STR,), (INT,))
PUT = Operation("put", (STR, INT), ())
SLOW = Operation("slow", (INT,), (INT,))


def run_pair(server, client, extra=()):
    cluster = FakeCluster()
    s = cluster.spawn(server, "server")
    c = cluster.spawn(client, "client")
    cluster.create_link(s, c)
    for p in extra:
        h = cluster.spawn(p, p.__class__.__name__.lower())
        cluster.create_link(s, h)
    cluster.run_until_quiet(max_ms=1e6)
    return cluster


def test_plain_callable_entries_auto_reply():
    class KV(Proc):
        def __init__(self):
            self.table = {"x": 7}
            self.served = 0

        def main(self, ctx):
            self.served = yield from serve(
                ctx,
                ctx.initial_links,
                {
                    GET: lambda key: (self.table.get(key, -1),),
                    PUT: self._put,
                },
                count=3,
            )

        def _put(self, key, value):
            self.table[key] = value
            # returning None means an empty reply

    class Client(Proc):
        def __init__(self):
            self.got = []

        def main(self, ctx):
            (end,) = ctx.initial_links
            self.got.append((yield from call(ctx, end, GET, "x")))
            yield from call(ctx, end, PUT, "y", 42)
            self.got.append((yield from call(ctx, end, GET, "y")))

    kv, client = KV(), Client()
    cluster = run_pair(kv, client)
    assert cluster.all_finished
    assert client.got == [7, 42]
    assert kv.served == 3
    cluster.check()


def test_coroutine_entries_overlap():
    """Two slow entries forked as coroutines serve concurrently: the
    second, faster request finishes first."""

    class Server(Proc):
        def __init__(self):
            self.done_order = []

        def slow_entry(self, ctx, inc):
            (ms,) = inc.args
            yield from ctx.delay(float(ms))
            self.done_order.append(ms)
            yield from ctx.reply(inc, (ms,))

        def main(self, ctx):
            yield from serve(
                ctx, ctx.initial_links, {SLOW: self.slow_entry}, count=2
            )

    class Client(Proc):
        def one(self, ctx, end, ms):
            yield from call(ctx, end, SLOW, ms)

        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.fork(self.one(ctx, end, 500))
            yield from ctx.fork(self.one(ctx, end, 50))

    server, client = Server(), Client()
    cluster = run_pair(server, client)
    assert cluster.all_finished, cluster.unfinished()
    assert server.done_order == [50, 500]
    cluster.check()


def test_serve_returns_when_links_die():
    class Server(Proc):
        def __init__(self):
            self.served = None

        def main(self, ctx):
            self.served = yield from serve(
                ctx, ctx.initial_links, {GET: lambda k: (1,)}
            )

    class Client(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from call(ctx, end, GET, "a")
            yield from call(ctx, end, GET, "b")
            # exit: our termination destroys the link, ending serve()

    server = Server()
    cluster = run_pair(server, Client())
    assert cluster.all_finished
    assert server.served == 2
    cluster.check()


def test_serve_across_multiple_links():
    class Server(Proc):
        def main(self, ctx):
            yield from serve(
                ctx, ctx.initial_links, {GET: lambda k: (len(k),)}, count=2
            )

    class ClientA(Proc):
        def __init__(self):
            self.got = None

        def main(self, ctx):
            (end,) = ctx.initial_links
            self.got = yield from call(ctx, end, GET, "aa")

    class ClientB(ClientA):
        def main(self, ctx):
            (end,) = ctx.initial_links
            self.got = yield from call(ctx, end, GET, "bbbb")

    server = Server()
    a, b = ClientA(), ClientB()
    cluster = FakeCluster()
    s = cluster.spawn(server, "server")
    ca = cluster.spawn(a, "ca")
    cb = cluster.spawn(b, "cb")
    cluster.create_link(s, ca)
    cluster.create_link(s, cb)
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished
    assert a.got == 2 and b.got == 4
    cluster.check()


def test_call_returns_tuple_for_multi_result_ops():
    PAIR = Operation("pair", (INT,), (INT, INT))

    class Server(Proc):
        def main(self, ctx):
            yield from serve(ctx, ctx.initial_links,
                             {PAIR: lambda x: (x, x * 2)}, count=1)

    class Client(Proc):
        def __init__(self):
            self.got = None

        def main(self, ctx):
            (end,) = ctx.initial_links
            self.got = yield from call(ctx, end, PAIR, 3)

    client = Client()
    cluster = run_pair(Server(), client)
    assert client.got == (3, 6)


def test_a_server_keeps_no_record_of_the_entries_it_has_served():
    """ROADMAP aim 3, "every table that can grow must have a bound":
    `serve` forks one coroutine per request, so whatever a runtime
    remembers per finished coroutine grows with every request it ever
    answered.  It remembers a count of the live ones, nothing else."""
    n = 300

    class Server(Proc):
        def entry(self, ctx, inc):
            yield from ctx.reply(inc, (inc.args[0] + 1,))

        def main(self, ctx):
            self.served = yield from serve(
                ctx, ctx.initial_links, {SLOW: self.entry}, count=n
            )

    class Client(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            for i in range(n):
                assert (yield from call(ctx, end, SLOW, i)) == i + 1

    server = Server()
    cluster = run_pair(server, Client())
    assert cluster.all_finished and server.served == n
    cluster.check()
    rt = cluster.processes["server"].runtime
    assert rt.live_threads == 0
    grew = {
        name: len(value) for name, value in vars(rt).items()
        if isinstance(value, Sized) and not isinstance(value, str)
        and len(value) >= n
    }
    assert not grew
