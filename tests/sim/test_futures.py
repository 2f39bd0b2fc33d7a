"""Unit tests for futures."""

import pytest

from repro.sim.engine import Engine
from repro.sim.futures import Future, FutureState, InvalidFutureTransition


@pytest.fixture
def eng():
    return Engine()


def test_resolve_delivers_value_to_callback(eng):
    fut = Future(eng, "t")
    seen = []
    fut.add_done_callback(lambda f: seen.append(f.value))
    fut.resolve(42)
    assert seen == [42]
    assert fut.state is FutureState.DONE
    assert fut.result() == 42


def test_callback_added_after_settle_runs_immediately(eng):
    fut = Future(eng)
    fut.resolve("x")
    seen = []
    fut.add_done_callback(lambda f: seen.append(f.value))
    assert seen == ["x"]


def test_fail_delivers_error(eng):
    fut = Future(eng)
    err = ValueError("boom")
    fut.fail(err)
    assert fut.state is FutureState.FAILED
    with pytest.raises(ValueError):
        fut.result()


def test_double_resolve_rejected(eng):
    fut = Future(eng)
    fut.resolve(1)
    with pytest.raises(InvalidFutureTransition):
        fut.resolve(2)
    with pytest.raises(InvalidFutureTransition):
        fut.fail(ValueError())


def test_result_on_pending_raises(eng):
    fut = Future(eng)
    with pytest.raises(InvalidFutureTransition):
        fut.result()


def test_resolve_later_fires_at_simulated_time(eng):
    fut = Future(eng)
    times = []
    fut.add_done_callback(lambda f: times.append(eng.now))
    fut.resolve_later(7.5, "v")
    eng.run()
    assert times == [7.5]
    assert fut.value == "v"


def test_resolve_later_is_noop_if_already_settled(eng):
    fut = Future(eng)
    fut.resolve_later(1.0, "late")
    fut.resolve("early")
    eng.run()  # the late event fires but must not raise or overwrite
    assert fut.value == "early"


@pytest.mark.parametrize("settle", (
    lambda fut: fut.resolve(None),
    lambda fut: fut.fail(KeyError("k")),
    lambda fut: fut.resolve_later(1.0),
))
def test_listeners_fire_in_registration_order(eng, settle):
    """Whichever way it settles: each path runs the listeners itself."""
    fut = Future(eng)
    order = []
    for tag in "abc":
        fut.add_done_callback(lambda f, tag=tag: order.append(tag))
    settle(fut)
    eng.run()
    assert order == ["a", "b", "c"]


def test_a_listener_added_while_firing_runs_at_once(eng):
    fut = Future(eng)
    order = []

    def first(f):
        order.append("first")
        f.add_done_callback(lambda f: order.append("nested"))

    fut.add_done_callback(first)
    fut.add_done_callback(lambda f: order.append("second"))
    fut.fail(KeyError("k"))
    assert order == ["first", "nested", "second"]


def test_resolve_later_is_one_uncancellable_event(eng):
    """Fire-and-forget: no handle comes back, and on a future settled
    in the meantime the timer still fires — as a no-op."""
    fut = Future(eng)
    seen = []
    fut.add_done_callback(lambda f: seen.append(f.value))
    assert fut.resolve_later(5.0, "late") is None
    assert eng.pending == 1
    fut.resolve("early")
    eng.run()
    assert eng.events_fired == 1
    assert eng.now == 5.0
    assert seen == ["early"]
    assert fut.result() == "early"
