"""Unit tests for generator-driven tasks."""

import pytest

from repro.core.api import Proc, make_cluster
from repro.sim.engine import Engine
from repro.sim.futures import Future, FutureState
from repro.sim.tasks import Delay, Task, TaskKilled, sleep


@pytest.fixture
def eng():
    return Engine()


def test_task_runs_to_completion_and_returns_value(eng):
    def body():
        yield sleep(eng, 1.0)
        yield sleep(eng, 2.0)
        return "done"

    t = Task(eng, body(), "t")
    eng.run()
    assert t.finished
    assert t.done.result() == "done"
    assert eng.now == 3.0


def test_yield_none_is_cooperative_yield(eng):
    order = []

    def a():
        order.append("a1")
        yield None
        order.append("a2")

    def b():
        order.append("b1")
        yield None
        order.append("b2")

    Task(eng, a(), "a")
    Task(eng, b(), "b")
    eng.run()
    assert order == ["a1", "b1", "a2", "b2"]
    assert eng.now == 0.0


def test_failed_future_raises_inside_generator(eng):
    caught = []

    def body():
        fut = Future(eng)
        eng.defer(1.0, fut.fail, ValueError("inner"))
        try:
            yield fut
        except ValueError as e:
            caught.append(str(e))
        return "recovered"

    t = Task(eng, body(), "t")
    eng.run()
    assert caught == ["inner"]
    assert t.done.result() == "recovered"


def test_uncaught_exception_fails_done_future(eng):
    def body():
        yield sleep(eng, 1.0)
        raise RuntimeError("oops")

    t = Task(eng, body(), "t")
    eng.run()
    assert t.done.state is FutureState.FAILED
    with pytest.raises(RuntimeError):
        t.done.result()


def test_yielding_garbage_fails_task(eng):
    def body():
        yield "42"

    t = Task(eng, body(), "t")
    eng.run()
    assert t.done.state is FutureState.FAILED
    with pytest.raises(TypeError):
        t.done.result()


def test_kill_raises_taskkilled_at_yield_point(eng):
    progress = []

    def body():
        progress.append("start")
        try:
            yield sleep(eng, 100.0)
            progress.append("unreachable")
        finally:
            progress.append("cleanup")

    t = Task(eng, body(), "t")
    eng.schedule(5.0, t.kill)
    eng.run()
    assert progress == ["start", "cleanup"]
    assert t.done.state is FutureState.FAILED
    assert isinstance(t.done.error, TaskKilled)
    assert eng.now == pytest.approx(100.0)  # the sleep event still fires harmlessly


def test_kill_before_first_step(eng):
    progress = []

    def body():
        progress.append("ran")
        yield sleep(eng, 1.0)

    t = Task(eng, body(), "t")
    t.kill()
    eng.run()
    assert t.done.state is FutureState.FAILED
    # the generator never got to run its first statement
    assert progress == []


def test_kill_finished_task_is_noop(eng):
    def body():
        return "v"
        yield  # pragma: no cover

    t = Task(eng, body(), "t")
    eng.run()
    assert t.done.result() == "v"
    t.kill()
    assert t.done.result() == "v"


def test_taskkilled_not_caught_by_except_exception(eng):
    """Simulated code's `except Exception` must not swallow kills."""
    witness = []

    def body():
        try:
            yield sleep(eng, 10.0)
        except Exception:  # noqa: BLE001 - the point of the test
            witness.append("swallowed")

    t = Task(eng, body(), "t")
    eng.schedule(1.0, t.kill)
    eng.run()
    assert witness == []
    assert isinstance(t.done.error, TaskKilled)


def test_kill_can_be_caught_for_orderly_cleanup(eng):
    """A generator may catch TaskKilled and continue yielding — how
    runtimes run crash clean-up (link destruction) before exiting."""
    steps = []

    def body():
        try:
            yield sleep(eng, 100.0)
        except TaskKilled:
            steps.append("caught")
        yield sleep(eng, 3.0)  # simulated clean-up work
        steps.append("cleaned")
        return "orderly"

    t = Task(eng, body(), "t")
    eng.schedule(10.0, t.kill)
    eng.run()
    assert steps == ["caught", "cleaned"]
    assert t.done.result() == "orderly"
    # the kill was consumed: it is not re-raised during clean-up
    assert eng.now == pytest.approx(100.0)  # stray sleep still fires


def test_second_kill_during_cleanup_is_delivered(eng):
    seen = []

    def body():
        try:
            yield sleep(eng, 100.0)
        except TaskKilled:
            seen.append("first")
        try:
            yield sleep(eng, 50.0)
        except TaskKilled:
            seen.append("second")

    t = Task(eng, body(), "t")
    eng.schedule(10.0, t.kill)
    eng.schedule(20.0, t.kill)
    eng.run()
    assert seen == ["first", "second"]
    assert t.finished


def test_tasks_compose_via_done_future(eng):
    def child():
        yield sleep(eng, 3.0)
        return 7

    def parent():
        c = Task(eng, child(), "child")
        v = yield c.done
        return v * 2

    p = Task(eng, parent(), "parent")
    eng.run()
    assert p.done.result() == 14


def test_sleep_duration(eng):
    stamps = []

    def body():
        yield sleep(eng, 2.5)
        stamps.append(eng.now)
        yield sleep(eng, 0.5)
        stamps.append(eng.now)

    Task(eng, body(), "t")
    eng.run()
    assert stamps == [2.5, 3.0]


# ----------------------------------------------------------------------
# the wait semantics `perf/golden.json` rests on: every test below pins
# an event count or an order that a faster wait path must not move
# ----------------------------------------------------------------------
@pytest.mark.parametrize("settle", (
    lambda fut: fut.resolve("v"),
    lambda fut: fut.resolve_later(1.0, "v"),
))
def test_listeners_of_one_future_resume_in_registration_order(eng, settle):
    """Tasks and plain callbacks share one listener list: their
    `defer`s take consecutive sequence numbers, so the order in which
    they registered is the order of their next steps."""
    shared = Future(eng, "shared")
    order = []

    def waiter(tag):
        yield shared
        order.append(tag)

    def racer():
        index, value = yield shared, Future(eng, "never")
        order.append(("first", index, value))

    Task(eng, waiter("a"), "a")
    Task(eng, racer(), "racer")  # a tuple wait between two plain ones
    Task(eng, waiter("b"), "b")
    eng.run()
    assert order == []
    settle(shared)
    eng.run()
    assert order == ["a", ("first", 0, "v"), "b"]


def test_an_already_settled_future_resumes_through_a_deferred_event(eng):
    """Never inline: the resume queues behind everything already
    scheduled for this instant, and costs exactly one event."""
    ready = Future(eng, "ready")
    ready.resolve("now")
    order = []

    def body():
        eng.defer(0.0, order.append, "queued before the yield")
        order.append((yield ready))

    Task(eng, body(), "t")
    eng.run()
    assert order == ["queued before the yield", "now"]
    # the first step, the queued event, the resume — and nothing else
    assert eng.events_fired == 3
    assert eng.pending == 0


def test_a_wait_is_two_events(eng):
    def body():
        yield sleep(eng, 1.0)

    t = Task(eng, body(), "t")
    eng.run()
    assert t.finished
    # the first step, then the wait: its timer and its deferred resume
    assert eng.events_fired == 1 + 2
    assert eng.pending == 0


def test_a_settle_after_kill_does_not_step_the_task_again(eng):
    fut = Future(eng, "abandoned")
    steps = []

    def body():
        try:
            yield fut
        except TaskKilled:
            steps.append("killed")
        steps.append((yield sleep(eng, 10.0)))
        return "clean"

    t = Task(eng, body(), "t")
    eng.schedule(1.0, t.kill)
    eng.schedule(2.0, fut.resolve, "too late")
    eng.run()
    # the abandoned future's value never reaches the generator
    assert steps == ["killed", None]
    assert t.done.result() == "clean"
    # first step, kill, kill's step, resolve, sleep timer, its resume
    assert eng.events_fired == 6


def test_waiting_again_on_the_same_future_after_a_kill_resumes_once(eng):
    fut = Future(eng, "kept")
    got = []

    def body():
        try:
            yield fut
        except TaskKilled:
            pass
        got.append((yield fut))  # registered twice on ``fut`` now
        got.append((yield sleep(eng, 5.0)))

    t = Task(eng, body(), "t")
    eng.schedule(1.0, t.kill)
    eng.schedule(2.0, fut.resolve, "once")
    eng.run()
    # a second resume would have fed "once" to the sleep's yield
    assert got == ["once", None]
    assert t.finished
    assert eng.now == 7.0


def test_a_failed_future_raises_the_original_exception_object(eng):
    boom = ValueError("the very one")
    caught = []

    def body():
        fut = Future(eng)
        eng.defer(1.0, fut.fail, boom)
        try:
            yield fut
        except ValueError as err:
            caught.append(err)

    Task(eng, body(), "t")
    eng.run()
    assert caught == [boom]
    assert caught[0] is boom


# ----------------------------------------------------------------------
# the tuple wait: ``yield (a, b)`` resumes with the first to settle.
# Each test names the mutation of `Task._step` / `Task._on_settle` it
# catches.
# ----------------------------------------------------------------------
def test_a_tuple_wait_resumes_with_index_and_value(eng):
    """Catches: resuming with the bare value, or with the index of the
    wrong member (e.g. always 0).  Like a plain wait it costs the timer
    and one deferred resume."""
    got = []

    def body():
        got.append((yield Future(eng, "never"), sleep(eng, 2.0, "timer")))
        got.append(eng.now)

    Task(eng, body(), "t")
    eng.run()
    assert got == [(1, None), 2.0]
    # the first step, the timer, the resume
    assert eng.events_fired == 3


def test_a_tuple_wait_raises_the_first_failure_inside_the_generator(eng):
    """Catches: a failed member resuming the task with ``(index, None)``
    instead of raising, or the error of a later member winning."""
    first, second = KeyError("first"), ValueError("second")
    a, b = Future(eng, "a"), Future(eng, "b")
    caught = []

    def body():
        try:
            yield a, b
        except KeyError as err:
            caught.append(err)
        return "recovered"

    t = Task(eng, body(), "t")
    eng.schedule(1.0, a.fail, first)
    eng.schedule(2.0, b.fail, second)
    eng.run()
    assert caught == [first] and caught[0] is first
    assert t.done.result() == "recovered"


def test_an_already_settled_member_resumes_through_a_deferred_event(eng):
    """Catches: resuming inline when a member is settled at the yield
    (the generator would re-enter itself), or queuing the resume ahead
    of work already scheduled for this instant."""
    ready = Future(eng, "ready")
    ready.resolve("now")
    order = []

    def body():
        eng.defer(0.0, order.append, "queued before the yield")
        order.append((yield Future(eng, "never"), ready))

    Task(eng, body(), "t")
    eng.run()
    assert order == ["queued before the yield", (1, "now")]
    # the first step, the queued event, the resume — and nothing else
    assert eng.events_fired == 3
    assert eng.pending == 0


def test_a_later_settle_of_another_member_is_ignored(eng):
    """Catches: `_on_settle` resuming on every member's settle — the
    loser's value would be fed to the generator's next yield."""
    a, b = Future(eng, "a"), Future(eng, "b")
    got = []

    def body():
        got.append((yield a, b))
        got.append((yield sleep(eng, 10.0)))

    t = Task(eng, body(), "t")
    eng.schedule(1.0, b.resolve, "winner")
    eng.schedule(2.0, a.resolve, "loser")
    eng.run()
    assert got == [(1, "winner"), None]
    assert t.finished
    assert eng.now == 11.0


def test_a_kill_during_a_tuple_wait_resumes_once_with_taskkilled(eng):
    """Catches: `kill` leaving the tuple registered as the wait — a
    member settling in the same instant, before the kill's step runs,
    would step the task a second time."""
    a, b = Future(eng, "a"), Future(eng, "b")
    got = []

    def body():
        try:
            yield a, b
        except TaskKilled:
            got.append("killed")
        got.append((yield sleep(eng, 10.0)))
        return "clean"

    t = Task(eng, body(), "t")
    eng.schedule(1.0, t.kill)
    eng.schedule(1.0, a.resolve, "too late")  # ahead of the kill's step
    eng.run()
    assert got == ["killed", None]
    assert t.done.result() == "clean"
    # first step, kill, kill's step, resolve, sleep timer, its resume
    assert eng.events_fired == 6


def test_an_old_listener_on_a_future_waited_on_again_resumes_once(eng):
    """Charlotte's shape: the kernel Wait outlives an internal wakeup,
    so the next block point waits on it again and it carries two of
    our listeners.  Catches: `_on_settle` not clearing the wait it
    answers — both listeners would resume the task."""
    kwait = Future(eng, "Wait")
    wake1, wake2 = Future(eng, "wakeup"), Future(eng, "wakeup")
    got = []

    def body():
        got.append((yield kwait, wake1))
        got.append((yield kwait, wake2))  # registered twice on kwait now
        got.append((yield sleep(eng, 5.0)))

    t = Task(eng, body(), "t")
    eng.schedule(1.0, wake1.resolve, None)
    eng.schedule(2.0, kwait.resolve, "completion")
    eng.run()
    # a second resume would have fed (0, "completion") to the sleep
    assert got == [(1, None), (0, "completion"), None]
    assert t.finished
    assert eng.now == 7.0


@pytest.mark.parametrize("bad", ("not a future", None))
def test_a_tuple_holding_a_non_future_fails_the_task(eng, bad):
    """Catches: registering listeners before every member is checked —
    the settled first member would resume the task as well as the
    TypeError, stepping it twice."""
    settled = Future(eng, "settled")
    settled.resolve("v")
    steps = []

    def body():
        steps.append("started")
        yield settled, bad
        steps.append("resumed")  # pragma: no cover - must not happen

    t = Task(eng, body(), "t")
    eng.run()
    assert steps == ["started"]
    assert t.done.state is FutureState.FAILED
    assert isinstance(t.done.error, TypeError)
    assert eng.events_fired == 2


def test_an_empty_tuple_fails_the_task(eng):
    """Catches: accepting ``()`` as a wait nothing can ever answer."""
    def body():
        yield ()

    t = Task(eng, body(), "t")
    eng.run()
    assert isinstance(t.done.error, TypeError)


def test_a_tuple_wait_takes_its_listener_off_the_members_it_left(eng):
    """Charlotte's shape again, counted: the kernel Wait re-yielded
    across internal wakeups keeps one listener of the task, not one per
    wakeup, and the members a wait left keep none.  Catches an answered
    tuple wait that leaves its listener on the members still pending
    (at the parent every one of them ran `_on_settle` for nothing)."""
    kwait, lost = Future(eng, "Wait"), Future(eng, "lost")
    wakes = [Future(eng, "wakeup") for _ in range(3)]
    got = []

    def body():
        for wake in wakes:
            got.append((yield kwait, wake))
            got.append(len(kwait._callbacks))
        got.append((yield kwait, lost))

    Task(eng, body(), "t")
    for i, wake in enumerate(wakes):
        eng.schedule(1.0 + i, wake.resolve, i)
    eng.run()
    assert got == [(1, 0), 0, (1, 1), 0, (1, 2), 0]
    assert len(kwait._callbacks) == 1
    kwait.resolve("completion")
    eng.run()
    assert got[-1] == (0, "completion")
    assert lost._callbacks == []


def test_the_loser_of_a_tuple_wait_keeps_no_listener(eng):
    """Catches: the first member to settle answering the wait but
    leaving the task's listener on the other, which then calls it for
    nothing when it settles."""
    a, b = Future(eng, "a"), Future(eng, "b")
    got = []

    def body():
        got.append((yield a, b))

    Task(eng, body(), "t")
    eng.schedule(1.0, a.resolve, "winner")
    eng.run()
    assert got == [(0, "winner")]
    assert b._callbacks == []


# ----------------------------------------------------------------------
# the timed wait: ``yield ms`` or ``yield Delay(ms, value)`` is the
# task's own timer — the two events of a sleep future's wait, and no
# future
# ----------------------------------------------------------------------
def test_a_delay_resumes_after_its_time_with_its_value(eng):
    got = []

    def body():
        got.append((yield 1.5))
        got.append(eng.now)
        got.append((yield Delay(2.0, "result")))
        got.append(eng.now)

    t = Task(eng, body(), "t")
    eng.run()
    assert got == [None, 1.5, "result", 3.5]
    assert t.finished
    # the first step, then per wait its timer and its deferred resume
    assert eng.events_fired == 1 + 2 + 2


@pytest.mark.parametrize("delay", (100.0, Delay(100.0, "stale")))
def test_a_task_killed_during_a_timed_wait_ignores_its_timer(eng, delay):
    """Catches: a timer that outlives its wait resuming the task — at
    100 ms it would answer the clean-up's own wait with its value, and
    the kill would not be the only thing that landed."""
    got = []

    def body():
        try:
            yield delay
        except TaskKilled:
            got.append(("killed", eng.now))
        got.append((yield 200.0))
        got.append(eng.now)

    t = Task(eng, body(), "t")
    eng.schedule(10.0, t.kill)
    eng.run()
    assert got == [("killed", 10.0), None, 210.0]
    assert t.done.result() is None
    # first step, kill, kill's step, the stale timer (no resume), the
    # clean-up's timer and its resume
    assert eng.events_fired == 6


@pytest.mark.parametrize("timed", (False, True))
def test_a_delay_fires_the_events_a_sleep_future_fires(timed):
    """Three tasks whose waits collide in time step in the same
    ``(time, events fired)`` order whether they yield the delay or a
    sleep future.  Catches a timed wait that is not exactly the sleep's
    two events — the timer at now + ms, then the deferred resume."""
    def script(timed):
        eng = Engine()
        log = []

        def proc(tag, delays):
            for ms in delays:
                yield ms if timed else sleep(eng, ms)
                log.append((tag, eng.now, eng.events_fired))

        Task(eng, proc("a", (1.0, 1.0, 0.5, 0.0)), "a")
        Task(eng, proc("b", (2.0, 0.0, 0.5)), "b")
        Task(eng, proc("c", (0.0, 2.0, 0.5, 0.5)), "c")
        eng.run()
        return log

    assert script(timed) == script(False)
    assert len(script(timed)) == 11


def test_an_int_delay_is_a_delay_and_a_bool_is_not(eng):
    """`ComputeOp(5)` from user code reaches its process's task as
    ``yield 5``; ``True`` is no delay."""
    got = []

    def body():
        got.append((yield 5))
        got.append(eng.now)
        yield True

    t = Task(eng, body(), "t")
    eng.run()
    assert got == [None, 5]
    assert isinstance(t.done.error, TypeError)


def test_an_int_compute_charges_its_process_five_ms():
    cluster = make_cluster("ideal")
    stamps = []

    class Busy(Proc):
        def main(self, ctx):
            t0 = yield from ctx.now()
            yield from ctx.compute(5)
            stamps.append((yield from ctx.now()) - t0)

    cluster.spawn(Busy(), "busy")
    cluster.run_until_quiet(max_ms=1e3)
    assert stamps == [5]
