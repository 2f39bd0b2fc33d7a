"""Tasks: generator coroutines driven over the event engine.

A simulated *process* (a Charlotte process, a SODA client processor, a
Chrysalis process) is a Python generator that yields `Future` objects
when it must wait for simulated time to pass or for a kernel completion.
`Task` drives one such generator.

The yield protocol
------------------
A task generator may yield:

* a ``Future`` — the task suspends until the future settles; a resolved
  future resumes the generator with its value, a failed one raises the
  failure *inside* the generator (so simulated code can catch simulated
  exceptions);
* a ``tuple`` of futures — the task suspends until the *first* of them
  settles and resumes with ``(index, value)`` of that one, or has its
  failure raised; a later settle of another member is ignored (how a
  runtime waits for "a kernel completion or an internal wakeup");
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

from typing import Any, Generator, Optional, Tuple, Union

from repro.sim.engine import Engine
from repro.sim.futures import _PENDING, Future


class TaskKilled(BaseException):
    """Thrown into a task generator when the task is killed (crash
    injection, process termination).  Derives from BaseException so that
    simulated code's ``except Exception`` clean-up blocks do not swallow
    a kill — but ``finally`` blocks still run, which is exactly what the
    Chrysalis runtime relies on to destroy its links on the way out
    (paper §5.2)."""


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
        #: the future or tuple of futures this task waits on; None while
        #: running, or once a kill detached it
        self._waiting_on: Union[Future, Tuple[Future, ...], None] = None
        self._kill_pending: Optional[TaskKilled] = None
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

        if yielded is None:
            self.engine.defer(0.0, self._step, None, None)
            return
        if type(yielded) is Future:
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
        if type(yielded) is tuple and yielded:
            # every member is checked (each exactly a `Future`) before
            # the first listener goes on, since a settled one answers
            # the wait as it is met; the first to settle answers it, and
            # the listeners left on the others are ignored
            for fut in yielded:
                if type(fut) is not Future:
                    break
            else:
                self._waiting_on = yielded
                for fut in yielded:
                    if fut.state is _PENDING:
                        fut._callbacks.append(self._on_settle)
                    else:
                        self._on_settle(fut)
                return
        err = TypeError(
            f"task {self.name!r} yielded {type(yielded).__name__}; "
            "only a Future, a non-empty tuple of Futures, or None may "
            "be yielded"
        )
        self.engine.defer(0.0, self._step, None, err)

    def _on_settle(self, fut: Future) -> None:
        """The listener of every wait.  A settled future has its value
        or its error, so one `defer` carries both (`_step` ignores the
        value of an error); a tuple member resumes the task with its
        index and value.  A settle we no longer wait for — the task was
        killed meanwhile, this wait was already answered, or an earlier
        wait left the listener on a long-lived future — is ignored."""
        waiting = self._waiting_on
        if waiting is fut:
            self._waiting_on = None
            self.engine.defer(0.0, self._step, fut.value, fut.error)
        elif type(waiting) is tuple and fut in waiting:
            self._waiting_on = None
            self.engine.defer(
                0.0, self._step, (waiting.index(fut), fut.value), fut.error
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "running"
        return f"<Task {self.name!r} {state}>"


def sleep(engine: Engine, delay: float, label: str = "sleep") -> Future:
    """A future that resolves ``delay`` ms from now — the idiom simulated
    code uses to burn simulated CPU time: ``yield sleep(eng, 0.5)``."""
    fut = Future(engine, label)
    # `Future.resolve_later`'s one event, without its frame
    engine.defer(delay, fut._safe_resolve, None)
    return fut
