"""Tasks: generator coroutines driven over the event engine.

A simulated *process* (a Charlotte process, a SODA client processor, a
Chrysalis process) is a Python generator that yields a delay when it
must let simulated time pass and a `Future` when it waits for a kernel
completion.  `Task` drives one such generator.

The yield protocol
------------------
A task generator may yield:

* a ``Future`` — the task suspends until the future settles; a resolved
  future resumes the generator with its value, a failed one raises the
  failure *inside* the generator (so simulated code can catch simulated
  exceptions);
* a ``tuple`` of futures — the task suspends until the *first* of them
  settles and resumes with ``(index, value)`` of that one, or has its
  failure raised; the task's listener then comes off every member still
  pending, so a later settle of another member finds none (how a
  runtime waits for "a kernel completion or an internal wakeup");
* a delay — a ``float`` or ``int`` number of ms, resuming with ``None``,
  or a `Delay`, resuming with its ``value`` — the task's own timer: the
  idiom simulated code uses to burn simulated CPU time
  (``yield 0.5``), and what a bounded kernel call returns, since its
  result is known when the call is made.  No future is built: the task
  schedules the timer and, when it fires, its resume — the same two
  events `sleep` makes, so either spelling fires the same event stream
  (a kill during the wait leaves the timer to fire for nothing);
* ``None`` — the task is rescheduled at the current instant, after other
  pending same-instant events (a cooperative yield).

Whatever it waits on, a task resumes through exactly one deferred event
at the instant the wait is answered — never inline, even when a future
was already settled at the yield.

The generator's ``return`` value becomes the result of ``task.done``
(itself a Future), so whole processes compose as futures.

Note the two-level coroutine structure of the reproduction: LYNX
*threads inside a process* are scheduled by the language run-time
package (in mutual exclusion, per paper §2), and are **not** Tasks; only
whole processes are.  This mirrors the paper, where coroutines "may be
managed by the language run-time package, much like the coroutines of
Modula-2".
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Union

from repro.sim.engine import Engine
from repro.sim.futures import _PENDING, Future


class TaskKilled(BaseException):
    """Thrown into a task generator when the task is killed (crash
    injection, process termination).  Derives from BaseException so that
    simulated code's ``except Exception`` clean-up blocks do not swallow
    a kill — but ``finally`` blocks still run, which is exactly what the
    Chrysalis runtime relies on to destroy its links on the way out
    (paper §5.2)."""


class Delay:
    """A timed wait that resumes with ``value``: ``yield Delay(ms, v)``
    is ``yield sleep(engine, ms)`` answered with ``v``, without the
    future.  What a kernel port's bounded call returns."""

    __slots__ = ("ms", "value")

    def __init__(self, ms: float, value: Any = None) -> None:
        self.ms = ms
        self.value = value


class _Timer:
    """A task's timed wait as `Task._on_settle` reads it when the timer
    fires: the value to resume with, and no error."""

    __slots__ = ("value",)
    error = None


class Task:
    """Drives a generator coroutine over an `Engine`.

    Parameters
    ----------
    engine : Engine
    gen : generator yielding futures (see module docstring)
    name : diagnostic label
    """

    def __init__(self, engine: Engine, gen: Generator, name: str = "task") -> None:
        self.engine = engine
        self.gen = gen
        self.name = name
        #: settles with the generator's return value (or its exception)
        self.done: Future = Future(engine, f"{name}.done")
        #: the future or tuple of futures this task waits on, or its
        #: ``_timer``; None while running, or once a kill detached it
        self._waiting_on: Union[Future, tuple, _Timer, None] = None
        self._kill_pending: Optional[TaskKilled] = None
        #: the token of every timed wait; a kill replaces it, so a timer
        #: that outlives its wait finds another token waited on
        self._timer = _Timer()
        # start on the next tick so construction order does not matter
        engine.defer(0.0, self._step, None, None)

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.done.state is not _PENDING

    def kill(self, reason: str = "killed") -> None:
        """Deliver `TaskKilled` at the task's current (or next) yield
        point.  The generator may catch it and continue — that is how
        runtimes perform orderly crash clean-up — or let it propagate,
        failing ``done``.  Idempotent; a finished task ignores kills."""
        if self.finished or self._kill_pending is not None:
            return
        self._kill_pending = TaskKilled(reason)
        # Detach from whatever it was waiting on and resume with the kill.
        self._waiting_on = None
        self._timer = _Timer()
        self.engine.defer(0.0, self._step, None, None)

    # ------------------------------------------------------------------
    def _step(self, value: Any, error: Optional[BaseException]) -> None:
        if self.done.state is not _PENDING:
            return
        if self._kill_pending is not None and error is None:
            error, self._kill_pending = self._kill_pending, None
        try:
            yielded = (
                self.gen.send(value) if error is None else self.gen.throw(error)
            )
        except StopIteration as stop:
            self.done.resolve(stop.value)
            return
        except TaskKilled as kill:
            # without its traceback: the frames it holds (this one and
            # its callers') would keep ``done`` and the caller's cluster
            # in a reference cycle
            self.done.fail(kill.with_traceback(None))
            return
        except BaseException as exc:
            self.done.fail(exc)
            return

        kind = type(yielded)
        if kind is Future:
            # one listener per wait, in the future's registration order
            # (put on directly: this is every wait's path); an
            # already-settled future still resumes us through a deferred
            # event, behind everything queued for this instant
            if yielded.state is _PENDING:
                self._waiting_on = yielded
                yielded._callbacks.append(self._on_settle)
            else:
                self.engine.defer(0.0, self._step, yielded.value, yielded.error)
            return
        if kind is tuple and yielded:
            # every member is checked (each exactly a `Future`) before
            # the first listener goes on, and the first member settled
            # at the yield answers the wait before any goes on
            for fut in yielded:
                if type(fut) is not Future:
                    break
            else:
                for fut in yielded:
                    if fut.state is not _PENDING:
                        self.engine.defer(
                            0.0, self._step,
                            (yielded.index(fut), fut.value), fut.error,
                        )
                        return
                self._waiting_on = yielded
                for fut in yielded:
                    fut._callbacks.append(self._on_settle)
                return
        if kind is Delay:
            self._timer.value, yielded = yielded.value, yielded.ms
        elif kind in (float, int):  # not `bool`
            self._timer.value = None
        else:
            # a cooperative yield (``None``), or a yield no wait accepts
            err = None if yielded is None else TypeError(
                f"task {self.name!r} yielded {kind.__name__}; only a "
                "Future, a non-empty tuple of Futures, a delay (float, "
                "int or Delay) or None may be yielded"
            )
            self.engine.defer(0.0, self._step, None, err)
            return
        # a timed wait: the task's own timer, answered by `_on_settle`
        # as a sleep future's settle would be (the engine refuses a
        # negative delay)
        self._waiting_on = timer = self._timer
        self.engine.defer(yielded, self._on_settle, timer)

    def _on_settle(self, fut: Union[Future, _Timer]) -> None:
        """The listener of every wait, and the timer of a timed one.  A
        settled future has its value or its error, so one `defer`
        carries both (`_step` ignores the value of an error); a tuple
        member resumes the task with its index and value, and takes our
        listener off the members still pending.  A settle we no longer
        wait for — the task was killed meanwhile, or an earlier wait
        left the listener on a long-lived future — is ignored."""
        waiting = self._waiting_on
        if waiting is fut:
            self._waiting_on = None
            self.engine.defer(0.0, self._step, fut.value, fut.error)
        elif type(waiting) is tuple and fut in waiting:
            self._waiting_on = None
            for other in waiting:
                if other.state is _PENDING:
                    other._callbacks.remove(self._on_settle)
            self.engine.defer(
                0.0, self._step, (waiting.index(fut), fut.value), fut.error
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "running"
        return f"<Task {self.name!r} {state}>"


def sleep(engine: Engine, delay: float, label: str = "sleep") -> Future:
    """A future that resolves ``delay`` ms from now: a timer that can be
    raced in a tuple wait or stored.  A plain wait yields the delay
    itself (``yield 0.5``), which builds no future."""
    fut = Future(engine, label)
    # `Future.resolve_later`'s one event, without its frame
    engine.defer(delay, fut._safe_resolve, None)
    return fut
