"""The mini-Linda adapters, cross-kernel: identical semantics, very
different transports."""

from dataclasses import replace

import pytest

from repro.linda import ANY, make_linda
from repro.sim.tasks import sleep

KINDS = ("soda", "chrysalis", "charlotte")


def finish(system, max_ms=1e6):
    system.run_until_quiet(max_ms=max_ms)
    assert system.all_finished
    system.check()


@pytest.mark.parametrize("kind", KINDS)
def test_out_then_take(kind):
    system = make_linda(kind)
    got = []

    def producer(c):
        yield from c.out(("k", 42))
        yield from c.close()

    def consumer(c):
        got.append((yield from c.take(("k", ANY))))
        yield from c.close()

    system.spawn(producer(system.client("p")))
    system.spawn(consumer(system.client("c")))
    finish(system)
    assert got == [("k", 42)]


@pytest.mark.parametrize("kind", KINDS)
def test_blocking_take_wakes_on_later_out(kind):
    system = make_linda(kind)
    got = []
    times = {}

    def consumer(c):
        t0 = system.engine.now
        got.append((yield from c.take(("late", ANY))))
        times["waited"] = system.engine.now - t0
        yield from c.close()

    def producer(c):
        yield sleep(system.engine, 200.0)
        yield from c.out(("late", "now"))
        yield from c.close()

    system.spawn(consumer(system.client("c")))
    system.spawn(producer(system.client("p")))
    finish(system)
    assert got == [("late", "now")]
    assert times["waited"] >= 200.0
    assert system.metrics.get("linda.blocked_waiters") >= 1


@pytest.mark.parametrize("kind", KINDS)
def test_read_does_not_consume(kind):
    system = make_linda(kind)
    got = []

    def producer(c):
        yield from c.out(("datum", 7))
        yield from c.close()

    def reader(c):
        got.append((yield from c.read(("datum", int))))
        got.append((yield from c.read(("datum", int))))
        got.append((yield from c.take(("datum", int))))
        yield from c.close()

    system.spawn(producer(system.client("p")))
    system.spawn(reader(system.client("r")))
    finish(system)
    assert got == [("datum", 7)] * 3


@pytest.mark.parametrize("kind", KINDS)
def test_take_is_exclusive_between_competitors(kind):
    """Two blocked takers, one tuple: exactly one gets it; a second
    out releases the other."""
    system = make_linda(kind)
    got = []

    def taker(c, tag):
        tup = yield from c.take(("job", ANY))
        got.append((tag, tup))
        yield from c.close()

    def producer(c):
        yield sleep(system.engine, 100.0)
        yield from c.out(("job", 1))
        yield sleep(system.engine, 100.0)
        yield from c.out(("job", 2))
        yield from c.close()

    system.spawn(taker(system.client("t1"), "t1"))
    system.spawn(taker(system.client("t2"), "t2"))
    system.spawn(producer(system.client("p")))
    finish(system)
    assert len(got) == 2
    assert {t for _, t in got} == {("job", 1), ("job", 2)}
    assert {tag for tag, _ in got} == {"t1", "t2"}


@pytest.mark.parametrize("kind", KINDS)
def test_master_worker_bag_of_tasks(kind):
    """The canonical Linda program: a bag of tasks, workers take jobs
    and out results, the master collects."""
    system = make_linda(kind)
    N, WORKERS = 6, 2
    collected = []

    def master(c):
        for i in range(N):
            yield from c.out(("task", i))
        for _ in range(N):
            tup = yield from c.take(("result", ANY, ANY))
            collected.append(tup)
        yield from c.close()

    def worker(c, me):
        while True:
            tup = yield from c.take(("task", ANY))
            if tup[1] < 0:
                break
            yield from c.out(("result", tup[1], tup[1] ** 2))

    m = system.spawn(master(system.client("master")))
    workers = [
        system.spawn(worker(system.client(f"w{i}"), i), f"w{i}")
        for i in range(WORKERS)
    ]

    def shutdown(c):
        yield m.done
        for _ in range(WORKERS):
            yield from c.out(("task", -1))
        yield from c.close()

    system.spawn(shutdown(system.client("shutdown")))
    system.run_until_quiet(max_ms=1e6)
    assert m.finished
    assert all(w.finished for w in workers)
    assert sorted(t[1] for t in collected) == list(range(N))
    assert all(t[2] == t[1] ** 2 for t in collected)


def test_soda_blocking_take_costs_no_extra_messages():
    """The §4.1 showpiece: a take that blocks for a long time costs
    exactly the same frames as one served immediately — the pending
    request just sits in the kernel."""
    def run(delay_ms):
        system = make_linda("soda")

        def consumer(c):
            yield from c.take(("x", ANY))

        def producer(c):
            if delay_ms:
                yield sleep(system.engine, delay_ms)
            yield from c.out(("x", 1))

        system.spawn(consumer(system.client("c")))
        system.spawn(producer(system.client("p")))
        system.run_until_quiet(max_ms=1e6)
        assert system.all_finished
        return system.metrics.total("wire.frames.")

    assert run(0.0) == run(5000.0)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("block_ms", [0.0, 1000.0])
@pytest.mark.parametrize("flag_op_ms", [0.005, 0.01, 0.015, 0.02, 0.03, 0.05])
def test_chrysalis_take_never_misses_a_racing_out(flag_op_ms, block_ms, seed):
    """A5's exchange (consumer first, producer after ``block_ms``) off
    the calibrated atomic-op cost.  With match and park as two atomic
    ops, one ``flag_op_ms`` apart, an ``out`` landing between them
    stored the tuple beside no waiter, and the consumer then parked
    forever (every unblocked exchange from 0.02 ms up).  The single
    match-or-park op leaves no gap."""
    system = make_linda("chrysalis", seed=seed)
    kernel = system.cluster.kernel
    kernel.costs = replace(kernel.costs, flag_op_ms=flag_op_ms)
    got = []

    def consumer(c):
        got.append((yield from c.take(("k", ANY))))
        yield from c.close()

    def producer(c):
        if block_ms:
            yield sleep(system.engine, block_ms)
        yield from c.out(("k", 1))
        yield from c.close()

    system.spawn(consumer(system.client("c")))
    system.spawn(producer(system.client("p")))
    finish(system, max_ms=1e7)
    assert got == [("k", 1)]
