"""Chrysalis LYNX runtime behaviour (§5.2/§5.3 semantics)."""

import pytest

from repro.core.api import (
    BYTES,
    INT,
    LINK,
    LinkDestroyed,
    Operation,
    Proc,
    RequestAborted,
    ThreadAborted,
    make_cluster,
)
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


def test_rpc_roundtrip_and_paper_latency():
    class Client(Proc):
        def __init__(self):
            self.rtt = None

        def main(self, ctx):
            (end,) = ctx.initial_links
            # warm-up then measure (first op pays queue creation etc.)
            yield from ctx.connect(end, ECHO, (b"w",))
            t0 = yield from ctx.now()
            r = yield from ctx.connect(end, ECHO, (b"",))
            self.rtt = (yield from ctx.now()) - t0
            assert r == (b"",)

    cluster = make_cluster("chrysalis")
    client = Client()
    s = cluster.spawn(EchoServer(2), "server")
    c = cluster.spawn(client, "client")
    cluster.create_link(s, c)
    cluster.run_until_quiet(max_ms=1e5)
    assert cluster.all_finished
    # §5.3: "a simple remote operation requires about 2.4 ms"
    assert client.rtt == pytest.approx(2.4, rel=0.1)
    cluster.check()


def test_no_unwanted_message_machinery():
    """Chrysalis needs none of retry/forbid/allow/goahead — even in the
    reverse-direction scenario that forces Charlotte into forbid."""

    class A(Proc):
        def __init__(self):
            self.reply = None
            self.served = None

        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.register(ECHO, ADD)
            self.reply = yield from ctx.connect(end, ECHO, (b"ping",))
            yield from ctx.open(end)
            inc = yield from ctx.wait_request()
            self.served = inc.op.name
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
            yield from ctx.delay(0.5)
            yield from ctx.reply(inc, (inc.args[0],))

    cluster = make_cluster("chrysalis")
    a_prog, b_prog = A(), B()
    a = cluster.spawn(a_prog, "A")
    b = cluster.spawn(b_prog, "B")
    cluster.create_link(a, b)
    cluster.run_until_quiet(max_ms=1e5)
    assert cluster.all_finished, cluster.unfinished()
    assert a_prog.reply == (b"ping",)
    assert b_prog.reverse_reply == (5,)
    m = cluster.metrics
    # the whole §3.2.1 vocabulary is absent
    assert m.get("runtime.unwanted") == 0
    assert m.total("wire.messages.retry") == 0
    assert m.total("wire.messages.forbid") == 0
    assert m.total("wire.messages.goahead") == 0
    cluster.check()


def test_move_updates_dq_name_and_traffic_follows():
    """A link end moves; the next message lands at the new owner via
    the updated dual-queue-name hint."""

    class Alice(Proc):
        def __init__(self):
            self.reply = None

        def main(self, ctx):
            (to_bob,) = ctx.initial_links
            mine, theirs = yield from ctx.new_link()
            yield from ctx.connect(to_bob, GIVE, (theirs,))
            self.reply = yield from ctx.connect(mine, ADD, (10, 20))

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

    cluster = make_cluster("chrysalis")
    alice = Alice()
    a = cluster.spawn(alice, "alice")
    b = cluster.spawn(Bob(), "bob")
    cluster.create_link(a, b)
    cluster.run_until_quiet(max_ms=1e5)
    assert cluster.all_finished, cluster.unfinished()
    assert alice.reply == (30,)
    # hint machinery was exercised: objects mapped by the adopter
    assert cluster.metrics.get("chrysalis.ops.wide_write") >= 1
    cluster.check()


def test_move_with_message_waiting_inside():
    """§2.1: "A moved link may therefore (logically at least) have
    messages inside, waiting to be received at the moving end" — the
    adopter finds the set flag and serves the request."""

    class Carol(Proc):
        def __init__(self):
            self.reply = None

        def main(self, ctx):
            (to_alice,) = ctx.initial_links
            # send a request on the link while Alice still owns the far
            # end but never opens it; Alice then moves that end to Bob
            self.reply = yield from ctx.connect(to_alice, ADD, (7, 8))

    class Alice(Proc):
        def main(self, ctx):
            to_carol, to_bob = ctx.initial_links
            yield from ctx.register(GIVE)
            yield from ctx.delay(5.0)  # Carol's request is in the buffer
            yield from ctx.connect(to_bob, GIVE, (to_carol,))

    class Bob(Proc):
        def main(self, ctx):
            (from_alice,) = ctx.initial_links
            yield from ctx.register(GIVE, ADD)
            yield from ctx.open(from_alice)
            inc = yield from ctx.wait_request()
            moved = inc.args[0]
            yield from ctx.reply(inc, ())
            yield from ctx.open(moved)
            inc2 = yield from ctx.wait_request()  # Carol's parked request
            yield from ctx.reply(inc2, (inc2.args[0] + inc2.args[1],))

    cluster = make_cluster("chrysalis")
    carol, alice = Carol(), Alice()
    c = cluster.spawn(carol, "carol")
    a = cluster.spawn(alice, "alice")
    b = cluster.spawn(Bob(), "bob")
    cluster.create_link(c, a)  # to_carol/to_alice
    cluster.create_link(a, b)  # to_bob/from_alice
    cluster.run_until_quiet(max_ms=1e5)
    assert cluster.all_finished, cluster.unfinished()
    assert carol.reply == (15,)
    cluster.check()


def test_destroy_reclaims_memory_object():
    class P(Proc):
        def main(self, ctx):
            a, b = yield from ctx.new_link()
            self.oid = ctx._runtime.cends[a.end_ref].oid
            yield from ctx.destroy(a)
            yield from ctx.delay(10.0)  # let the peer-side notice land

    cluster = make_cluster("chrysalis")
    p = P()
    cluster.spawn(p, "p")
    cluster.run_until_quiet(max_ms=1e5)
    assert cluster.all_finished
    assert cluster.kernel.object_reclaimed(p.oid)
    cluster.check()


def test_server_feels_request_aborted_via_shared_memory():
    """§6 item (4): exceptional conditions detected "without any extra
    acknowledgments" — the abort flag lives in the link object."""

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
            yield from ctx.delay(20.0)  # server consumed the request
            yield from ctx.abort(t)
            yield from ctx.delay(100.0)

    class SlowServer(Proc):
        def __init__(self):
            self.error = None

        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.register(ECHO)
            yield from ctx.open(end)
            inc = yield from ctx.wait_request()
            yield from ctx.delay(50.0)
            try:
                yield from ctx.reply(inc, (inc.args[0],))
            except RequestAborted as e:
                self.error = e

    cluster = make_cluster("chrysalis")
    client, server = Client(), SlowServer()
    s = cluster.spawn(server, "server")
    c = cluster.spawn(client, "client")
    cluster.create_link(s, c)
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished
    assert client.aborted
    assert isinstance(server.error, RequestAborted)
    # and no acknowledgment messages were needed
    assert cluster.metrics.total("wire.messages.ack") == 0
    cluster.check()


def test_abort_before_consumption_withdraws_request():
    """The enclosure comes back because the flag was still set: the
    message never left the shared buffer (§6 item 3)."""

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
            yield from ctx.delay(5.0)  # written, but Bob never opens
            yield from ctx.abort(t)

    class DeafBob(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.delay(100.0)

    cluster = make_cluster("chrysalis")
    alice = Alice()
    a = cluster.spawn(alice, "alice")
    b = cluster.spawn(DeafBob(), "bob")
    cluster.create_link(a, b)
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished
    assert alice.aborted
    assert cluster.metrics.get("chrysalis.aborts_withdrawn") == 1
    assert cluster.registry.owner_of(alice.kept) == "alice"
    cluster.check()


def test_processor_failure_is_not_detected():
    """§5.2: "Processor failures are currently not detected." — a hard
    node crash leaves the peer blocked forever."""

    class Client(Proc):
        def __init__(self):
            self.got_exception = False

        def main(self, ctx):
            (end,) = ctx.initial_links
            try:
                yield from ctx.connect(end, ECHO, (b"x",))
            except LinkDestroyed:
                self.got_exception = True

    class DoomedServer(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.delay(1e6)

    cluster = make_cluster("chrysalis")
    client = Client()
    s = cluster.spawn(DoomedServer(), "server")
    c = cluster.spawn(client, "client")
    cluster.create_link(s, c)
    cluster.engine.schedule(10.0, cluster.crash_process, "server",
                            CrashMode.PROCESSOR)
    cluster.run_until_quiet(max_ms=2e6)
    # the client never learns: no exception, never finished
    assert not client.got_exception
    assert "client" in cluster.unfinished()


def test_fault_crash_still_cleans_up():
    """§5.2: "even erroneous processes can clean up their links before
    going away" — a FAULT crash destroys links and the peer learns."""

    class Client(Proc):
        def __init__(self):
            self.error = None

        def main(self, ctx):
            (end,) = ctx.initial_links
            try:
                yield from ctx.connect(end, ECHO, (b"x",))
            except LinkDestroyed as e:
                self.error = e

    class DoomedServer(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.delay(1e6)

    cluster = make_cluster("chrysalis")
    client = Client()
    s = cluster.spawn(DoomedServer(), "server")
    c = cluster.spawn(client, "client")
    cluster.create_link(s, c)
    cluster.engine.schedule(10.0, cluster.crash_process, "server",
                            CrashMode.FAULT)
    cluster.run_until_quiet(max_ms=2e6)
    assert isinstance(client.error, LinkDestroyed)
    assert cluster.processes["client"].finished
