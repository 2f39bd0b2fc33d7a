"""The Charlotte LYNX runtime's §3.2.1/§3.2.2 protocol machinery.

Each test reconstructs a scenario from the paper:

* reverse-direction request while awaiting a reply  -> forbid/allow
* open-then-close queue with a racing request       -> retry + kernel delay
* multi-enclosure request                           -> goahead + enc packets
* abort + crash                                     -> lost enclosure (the
  documented deviation from the language definition)
* reply acknowledgments ablation                    -> server-side
  RequestAborted becomes possible, at +50 % traffic
"""

import pytest

from repro.core.api import (
    BYTES,
    INT,
    LINK,
    Operation,
    Proc,
    RequestAborted,
    ThreadAborted,
    make_cluster,
)
from repro.core.registry import EndDisposition
from repro.sim.faults import CrashMode

ECHO = Operation("echo", (BYTES,), (BYTES,))
ADD = Operation("add", (INT, INT), (INT,))
GIVE = Operation("give", (LINK,), ())
GIVE3 = Operation("give3", (LINK, LINK, LINK), ())


def test_reverse_direction_request_triggers_forbid_allow():
    """§3.2.1 scenario 1: A requests on L and awaits the reply; B, before
    replying, requests on L in the reverse direction.  A must bounce the
    unwanted request with FORBID (it cannot drop its Receive — it wants
    the reply), and send ALLOW later; B's request eventually succeeds."""

    class A(Proc):
        def __init__(self):
            self.reply = None
            self.served = None

        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.register(ECHO, ADD)
            # phase 1: request with our queue closed
            self.reply = yield from ctx.connect(end, ECHO, (b"ping",))
            # phase 2: now willing to serve B's reverse request
            yield from ctx.open(end)
            inc = yield from ctx.wait_request()
            self.served = inc.op.name
            yield from ctx.reply(inc, (inc.args[0] + inc.args[1],))

    class B(Proc):
        def __init__(self):
            self.reverse_reply = None

        def reverse(self, ctx, end):
            # the coroutine mechanism "makes such a scenario entirely
            # plausible" (§3.2.1)
            self.reverse_reply = yield from ctx.connect(end, ADD, (2, 3))

        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.register(ECHO, ADD)
            yield from ctx.open(end)
            inc = yield from ctx.wait_request()
            yield from ctx.fork(self.reverse(ctx, end), "reverse")
            yield from ctx.delay(1.0)  # let the reverse request launch
            yield from ctx.reply(inc, (inc.args[0],))

    cluster = make_cluster("charlotte")
    a_prog, b_prog = A(), B()
    a = cluster.spawn(a_prog, "A")
    b = cluster.spawn(b_prog, "B")
    cluster.create_link(a, b)
    cluster.run_until_quiet(max_ms=5e5)
    assert cluster.all_finished, cluster.unfinished()
    assert a_prog.reply == (b"ping",)
    assert b_prog.reverse_reply == (5,)
    m = cluster.metrics
    assert m.get("charlotte.forbid_sent") >= 1
    assert m.get("charlotte.allow_sent") >= 1
    assert m.get("charlotte.forbid_received") >= 1
    assert m.get("runtime.unwanted") >= 1
    cluster.check()


def test_open_close_race_triggers_retry():
    """§3.2.1 scenario 2: A opens its queue (posting a Receive), closes
    it again; B requested in the meantime so the Cancel fails and the
    unwanted message is bounced with RETRY.  The resent request is
    delayed by the kernel until A re-opens."""

    class A(Proc):
        def __init__(self):
            self.served_at = None

        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.register(ADD)
            yield from ctx.delay(50.0)  # B's send is parked at the kernel
            yield from ctx.open(end)   # posts Receive -> instant match
            yield from ctx.close(end)  # Cancel fails: TOO_LATE
            yield from ctx.delay(100.0)  # unwanted arrives; retry goes out
            yield from ctx.open(end)
            inc = yield from ctx.wait_request()
            self.served_at = yield from ctx.now()
            yield from ctx.reply(inc, (inc.args[0] + inc.args[1],))

    class B(Proc):
        def __init__(self):
            self.reply = None

        def main(self, ctx):
            (end,) = ctx.initial_links
            self.reply = yield from ctx.connect(end, ADD, (4, 5))

    cluster = make_cluster("charlotte")
    a_prog, b_prog = A(), B()
    a = cluster.spawn(a_prog, "A")
    b = cluster.spawn(b_prog, "B")
    cluster.create_link(a, b)
    cluster.run_until_quiet(max_ms=5e5)
    assert cluster.all_finished, cluster.unfinished()
    assert b_prog.reply == (9,)
    m = cluster.metrics
    assert m.get("charlotte.retry_sent") >= 1
    assert m.get("charlotte.retry_received") >= 1
    assert m.get("charlotte.resends") >= 1
    assert m.get("runtime.unwanted") >= 1
    # the resend was parked until A reopened at ~150 ms
    assert a_prog.served_at > 150.0
    cluster.check()


def test_multi_enclosure_request_uses_goahead_and_enc():
    """§3.2.2 / figure 2: three enclosures -> first packet + goahead +
    two enc packets."""

    class A(Proc):
        def main(self, ctx):
            (to_b,) = ctx.initial_links
            give = []
            self.keep = []
            for _ in range(3):
                mine, theirs = yield from ctx.new_link()
                self.keep.append(mine)
                give.append(theirs)
            yield from ctx.connect(to_b, GIVE3, tuple(give))

    class B(Proc):
        def __init__(self):
            self.got = None

        def main(self, ctx):
            (from_a,) = ctx.initial_links
            yield from ctx.register(GIVE3)
            yield from ctx.open(from_a)
            inc = yield from ctx.wait_request()
            self.got = len(inc.args)
            yield from ctx.reply(inc, ())

    cluster = make_cluster("charlotte")
    a_prog, b_prog = A(), B()
    a = cluster.spawn(a_prog, "A")
    b = cluster.spawn(b_prog, "B")
    cluster.create_link(a, b)
    cluster.run_until_quiet(max_ms=5e5)
    assert cluster.all_finished, cluster.unfinished()
    assert b_prog.got == 3
    m = cluster.metrics
    assert m.get("charlotte.goahead_sent") == 1
    assert m.get("wire.messages.enc") == 2
    assert m.get("wire.messages.request") == 1
    assert m.get("wire.messages.goahead") == 1
    # every moved end ran the kernel's three-party protocol
    assert m.get("charlotte.moves_committed") == 3
    cluster.check()


def test_single_enclosure_needs_no_goahead():
    class A(Proc):
        def main(self, ctx):
            (to_b,) = ctx.initial_links
            mine, theirs = yield from ctx.new_link()
            yield from ctx.connect(to_b, GIVE, (theirs,))

    class B(Proc):
        def main(self, ctx):
            (from_a,) = ctx.initial_links
            yield from ctx.register(GIVE)
            yield from ctx.open(from_a)
            inc = yield from ctx.wait_request()
            yield from ctx.reply(inc, ())

    cluster = make_cluster("charlotte")
    a = cluster.spawn(A(), "A")
    b = cluster.spawn(B(), "B")
    cluster.create_link(a, b)
    cluster.run_until_quiet(max_ms=5e5)
    assert cluster.all_finished
    m = cluster.metrics
    assert m.get("charlotte.goahead_sent") == 0
    assert m.get("wire.messages.enc") == 0
    cluster.check()


def test_aborted_request_enclosure_lost_when_receiver_crashes():
    """§3.2.2 (a)–(d): A sends a request enclosing a link end; B
    receives it unintentionally; A aborts; B crashes before returning
    the enclosure.  "From the point of view of language semantics, the
    message to B was never sent, yet the enclosure has been lost." """

    class A(Proc):
        def __init__(self):
            self.aborted = False
            self.given_ref = None

        def requester(self, ctx, to_b, enc):
            try:
                yield from ctx.connect(to_b, GIVE, (enc,))
            except ThreadAborted:
                self.aborted = True
            except Exception:  # noqa: BLE001 - link may die later
                pass

        def main(self, ctx):
            (to_b,) = ctx.initial_links
            mine, theirs = yield from ctx.new_link()
            self.given_ref = theirs.end_ref
            t = yield from ctx.fork(self.requester(ctx, to_b, theirs), "req")
            # wait until the kernel has surely matched the request into
            # B's posted Receive (B awaits a reply on the same link)
            yield from ctx.delay(40.0)
            yield from ctx.abort(t)  # (c): too late to cancel
            yield from ctx.delay(1000.0)

    class B(Proc):
        def main(self, ctx):
            (to_a,) = ctx.initial_links
            # (b): B waits for a reply, so its Receive is posted and it
            # will receive A's request unintentionally
            yield from ctx.connect(to_a, ECHO, (b"never answered",))

    cluster = make_cluster("charlotte")
    a_prog = A()
    a = cluster.spawn(a_prog, "A")
    b = cluster.spawn(B(), "B")
    cluster.create_link(a, b)
    # (d): B crashes in the window between receiving the unwanted
    # request and its forbid reaching A
    cluster.engine.schedule(45.0, cluster.crash_process, "B", CrashMode.PROCESSOR)
    cluster.run_until_quiet(max_ms=5e5)
    assert a_prog.aborted
    # the deviation: the enclosed end is gone although the language
    # says A still has it
    assert cluster.registry.disposition_of(a_prog.given_ref) in (
        EndDisposition.LOST,
        EndDisposition.IN_TRANSIT,
    ) or cluster.registry.is_destroyed(a_prog.given_ref.link)


class _AbortClient(Proc):
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
        yield from ctx.delay(100.0)  # server has received it by now
        yield from ctx.abort(t)
        yield from ctx.delay(500.0)


class _SlowEchoServer(Proc):
    def __init__(self):
        self.reply_error = None

    def main(self, ctx):
        (end,) = ctx.initial_links
        yield from ctx.register(ECHO)
        yield from ctx.open(end)
        inc = yield from ctx.wait_request()
        yield from ctx.delay(200.0)  # client aborts meanwhile
        try:
            yield from ctx.reply(inc, (inc.args[0],))
        except RequestAborted as e:
            self.reply_error = e


def test_without_reply_acks_server_never_feels_abort():
    """§3.2: "Such exceptions are not provided under Charlotte because
    they would require a final, top-level acknowledgment for reply
    messages." """
    cluster = make_cluster("charlotte")
    client, server = _AbortClient(), _SlowEchoServer()
    s = cluster.spawn(server, "server")
    c = cluster.spawn(client, "client")
    cluster.create_link(s, c)
    cluster.run_until_quiet(max_ms=5e5)
    assert cluster.all_finished
    assert client.aborted
    assert server.reply_error is None  # the deviation
    assert cluster.metrics.get("runtime.replies_dropped_aborted") == 1


def test_with_reply_acks_server_feels_abort():
    """The ablated implementation (reply_acks=True) regains the
    exception, at the cost E7 measures."""
    cluster = make_cluster("charlotte", reply_acks=True)
    client, server = _AbortClient(), _SlowEchoServer()
    s = cluster.spawn(server, "server")
    c = cluster.spawn(client, "client")
    cluster.create_link(s, c)
    cluster.run_until_quiet(max_ms=5e5)
    assert cluster.all_finished
    assert client.aborted
    assert isinstance(server.reply_error, RequestAborted)
    assert cluster.metrics.get("charlotte.ack_sent") >= 1


def test_reply_acks_add_fifty_percent_traffic():
    class Server(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.register(ADD)
            yield from ctx.open(end)
            for _ in range(10):
                inc = yield from ctx.wait_request()
                yield from ctx.reply(inc, (inc.args[0] + inc.args[1],))

    class Client(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            for i in range(10):
                yield from ctx.connect(end, ADD, (i, i))

    def messages(reply_acks):
        cluster = make_cluster("charlotte", reply_acks=reply_acks)
        s = cluster.spawn(Server(), "server")
        c = cluster.spawn(Client(), "client")
        cluster.create_link(s, c)
        cluster.run_until_quiet(max_ms=1e6)
        assert cluster.all_finished
        return cluster.metrics.total("wire.messages.")

    base = messages(False)
    acked = messages(True)
    assert base == 20
    assert acked == 30
    assert (acked - base) / base == pytest.approx(0.5)
