"""Unit tests for generator-driven tasks."""

import pytest

from repro.sim.engine import Engine
from repro.sim.futures import Future, FutureState, first_of
from repro.sim.tasks import Task, TaskKilled, sleep


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
        yield 42

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
        index, value = yield first_of(eng, [shared, Future(eng, "never")])
        order.append(("first_of", index, value))

    Task(eng, waiter("a"), "a")
    Task(eng, racer(), "racer")  # a plain callback between two tasks
    Task(eng, waiter("b"), "b")
    eng.run()
    assert order == []
    settle(shared)
    eng.run()
    assert order == ["a", ("first_of", 0, "v"), "b"]


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
