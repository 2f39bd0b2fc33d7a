"""Additional cross-kernel semantics: self-links, determinism,
double destroy, internal-consistency guarantees, and a release that
leaves no trace."""

import gc
import sys
import weakref

import pytest

from repro.core.api import (
    BYTES,
    INT,
    LinkDestroyed,
    Operation,
    Proc,
    make_cluster,
)
from repro.sim.faults import CrashMode

ADD = Operation("add", (INT, INT), (INT,))
ECHO = Operation("echo", (BYTES,), (BYTES,))


def test_process_can_talk_to_itself_over_a_fresh_link(cluster):
    """Both ends of a new link in one process: two coroutines converse
    through the full kernel transport (loopback)."""

    class SelfTalker(Proc):
        def __init__(self):
            self.replies = []

        def server_side(self, ctx, end, n):
            yield from ctx.open(end)
            for _ in range(n):
                inc = yield from ctx.wait_request([end])
                yield from ctx.reply(inc, (inc.args[0] + inc.args[1],))

        def main(self, ctx):
            a, b = yield from ctx.new_link()
            yield from ctx.register(ADD)
            yield from ctx.fork(self.server_side(ctx, a, 3), "srv")
            for i in range(3):
                r = yield from ctx.connect(b, ADD, (i, 10))
                self.replies.append(r[0])

    p = SelfTalker()
    cluster.spawn(p, "selftalker")
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished, cluster.unfinished()
    assert p.replies == [10, 11, 12]
    cluster.check()


def test_double_destroy_is_benign(cluster):
    """Destroying a link twice (once from each end, back to back) must
    not corrupt anything: the second call either raises LinkDestroyed
    (a run-time exception, §2.2) or is absorbed quietly — and *using*
    the link afterwards always raises."""

    class P(Proc):
        def __init__(self):
            self.second_error = None
            self.use_error = None

        def main(self, ctx):
            a, b = yield from ctx.new_link()
            yield from ctx.register(ADD)
            yield from ctx.destroy(a)
            try:
                yield from ctx.destroy(b)
            except LinkDestroyed as e:
                self.second_error = e
            yield from ctx.delay(50.0)  # let any destroy notice land
            try:
                yield from ctx.connect(b, ADD, (1, 1))
            except LinkDestroyed as e:
                self.use_error = e

    p = P()
    cluster.spawn(p, "p")
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished
    assert isinstance(p.use_error, LinkDestroyed)
    assert cluster.registry.is_destroyed(1)
    cluster.check()


def test_simultaneous_destroy_from_both_sides(cluster):
    """Both owners destroy the same link at the same instant; both
    complete, nobody deadlocks, the link dies once."""

    class Destroyer(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.delay(10.0)
            try:
                yield from ctx.destroy(end)
            except LinkDestroyed:
                pass  # lost the race: the other side got there first

    a = cluster.spawn(Destroyer(), "a")
    b = cluster.spawn(Destroyer(), "b")
    cluster.create_link(a, b)
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished, cluster.unfinished()
    assert cluster.registry.is_destroyed(1)
    cluster.check()


def test_no_protocol_violations_under_normal_load(cluster):
    """`ProtocolViolation` exists to catch runtime-internal bugs; a
    healthy mixed workload must never count one."""

    class Server(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.register(ADD, ECHO)
            yield from ctx.open(end)
            for _ in range(6):
                inc = yield from ctx.wait_request()
                if inc.op.name == "add":
                    yield from ctx.reply(inc, (inc.args[0] + inc.args[1],))
                else:
                    yield from ctx.reply(inc, (inc.args[0],))

    class Client(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            for i in range(3):
                yield from ctx.connect(end, ADD, (i, 1))
                yield from ctx.connect(end, ECHO, (bytes([i]) * 10,))

    s = cluster.spawn(Server(), "server")
    c = cluster.spawn(Client(), "client")
    cluster.create_link(s, c)
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished
    cluster.check()  # would raise on any unexpected process failure


def test_same_seed_same_run(kernel_kind):
    """Determinism: identical seeds produce bit-identical metric
    snapshots and end times."""
    from repro.core.api import make_cluster

    def run(seed):
        cluster = make_cluster(kernel_kind, seed=seed)

        class Server(Proc):
            def main(self, ctx):
                (end,) = ctx.initial_links
                yield from ctx.register(ADD)
                yield from ctx.open(end)
                for _ in range(4):
                    inc = yield from ctx.wait_request()
                    yield from ctx.reply(inc, (inc.args[0] + inc.args[1],))

        class Client(Proc):
            def main(self, ctx):
                (end,) = ctx.initial_links
                for i in range(4):
                    yield from ctx.connect(end, ADD, (i, i))

        s = cluster.spawn(Server(), "server")
        c = cluster.spawn(Client(), "client")
        cluster.create_link(s, c)
        cluster.run_until_quiet(max_ms=1e6)
        return cluster.engine.now, cluster.metrics.snapshot()

    t1, m1 = run(42)
    t2, m2 = run(42)
    t3, m3 = run(43)
    assert t1 == t2 and m1 == m2
    # a different seed may legitimately differ (SODA backoff etc.), but
    # must still complete; equality is not required
    assert t3 > 0


def test_enclosure_in_mistyped_request_comes_home(cluster):
    """A request refused by the server's type screen (unknown op)
    returns its enclosures with the EXCEPTION reply — the end is not
    stranded at a server that never adopted it."""
    from repro.core.api import LINK, TypeClash
    from repro.core.registry import EndDisposition

    UNSERVED = Operation("unserved", (LINK,), ())

    class Sender(Proc):
        def __init__(self):
            self.error = None
            self.given_ref = None
            self.usable_after = False

        def main(self, ctx):
            (to_srv,) = ctx.initial_links
            mine, theirs = yield from ctx.new_link()
            self.given_ref = theirs.end_ref
            try:
                yield from ctx.connect(to_srv, UNSERVED, (theirs,))
            except TypeClash as e:
                self.error = e
            # the end must be ours again: enclosing it in a NEW message
            # must not raise LinkMoved
            yield from ctx.register(ADD)
            self.usable_after = True

    class Server(Proc):
        def main(self, ctx):
            ends = ctx.initial_links  # one link per client
            yield from ctx.register(ADD)  # does NOT serve 'unserved'
            for end in ends:
                yield from ctx.open(end)
            inc = yield from ctx.wait_request()  # a real request later
            yield from ctx.reply(inc, (inc.args[0] + inc.args[1],))

    class Follower(Proc):
        """Sends the server a well-typed request afterwards so the
        server's wait_request eventually returns."""

        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.delay(500.0)
            yield from ctx.connect(end, ADD, (1, 2))

    sender = Sender()
    s = cluster.spawn(Server(), "server")
    snd = cluster.spawn(sender, "sender")
    fol = cluster.spawn(Follower(), "follower")
    cluster.create_link(s, snd)
    cluster.create_link(s, fol)
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished, cluster.unfinished()
    assert isinstance(sender.error, TypeClash)
    assert sender.usable_after
    # registry: the enclosed end is owned by the sender again
    assert cluster.registry.owner_of(sender.given_ref) == "sender"
    assert (
        cluster.registry.disposition_of(sender.given_ref)
        is EndDisposition.OWNED
    )
    cluster.check()


def test_close_changes_nothing_the_run_recorded(kernel_kind, monkeypatch):
    """`ClusterBase.close` lets a cluster go by reference counting and
    leaves what a run's result keeps as it was: the trace, the engine
    and the metrics read the same after ``close``, after a second
    ``close``, and once the cluster itself is gone.  Two processes are
    still blocked at the end (each waits for a request the other never
    sends), so their generators are freed with the cluster: that runs
    only `main_generator`'s ``GeneratorExit`` branch, records nothing
    and raises nothing.  Two more were killed, one by a processor
    failure (its task keeps the kill) and one by termination (its
    runtime caught the kill and cleaned up): neither may hold the
    cluster."""

    class Server(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.register(ECHO)
            yield from ctx.open(end)
            for _ in range(3):
                inc = yield from ctx.wait_request()
                yield from ctx.reply(inc, inc.args)

    class Client(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            for i in range(3):
                yield from ctx.connect(end, ECHO, (b"%d" % i,))

    class Waiter(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.register(ECHO)
            yield from ctx.open(end)
            yield from ctx.wait_request()

    class Sleeper(Proc):
        def main(self, ctx):
            yield from ctx.delay(5.0)

    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    cluster = make_cluster(kernel_kind, seed=7)
    cluster.create_link(cluster.spawn(Server(), "server"),
                        cluster.spawn(Client(), "client"))
    cluster.create_link(cluster.spawn(Waiter(), "w1"),
                        cluster.spawn(Waiter(), "w2"))
    for name, mode in (("victim", CrashMode.PROCESSOR),
                       ("quitter", CrashMode.TERMINATE)):
        cluster.spawn(Sleeper(), name)
        cluster.engine.schedule(1.0, cluster.crash_process, name, mode)
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.unfinished() == ["w1", "w2"]
    trace, engine, metrics = cluster.trace, cluster.engine, cluster.metrics

    def recorded():
        return (trace.to_jsonl(), len(trace.events), engine.events_fired,
                metrics.snapshot())

    before = recorded()
    blocked = weakref.ref(cluster.processes["w1"].task.gen)
    cluster.close()
    assert recorded() == before
    cluster.close()
    assert recorded() == before
    assert cluster.unfinished() == ["w1", "w2"]
    cluster.check()
    gone = weakref.ref(cluster)
    gc.disable()
    try:
        del cluster
        assert gone() is None
        assert blocked() is None
    finally:
        gc.enable()
    assert recorded() == before
    assert unraisable == []
