"""Futures: the completion primitive connecting kernels to tasks.

A `Future` is resolved (or failed) exactly once, at some simulated time;
callbacks registered on it run at the instant of resolution.  Tasks
(`repro.sim.tasks.Task`) suspend by yielding a Future and resume when it
settles — or by yielding a tuple of them, resuming with the first to
settle.  A label shows in errors and ``repr`` only; kernel, wakeup and
timer futures carry a constant one naming their kind (``"syscall"``,
``"wakeup"``, ``"sleep"``, …), a task's ``done`` its task's name.

Futures are the only suspension mechanism in the whole reproduction:
kernel calls, network deliveries, dual-queue waits and software
interrupts all surface as futures.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional, Sequence

from repro.sim.engine import Engine


class FutureState(enum.Enum):
    PENDING = "pending"
    DONE = "done"
    FAILED = "failed"


_PENDING = FutureState.PENDING


class InvalidFutureTransition(RuntimeError):
    """A future was resolved or failed more than once."""


class Future:
    """A single-assignment cell that settles at a simulated instant.

    Callbacks run synchronously inside ``resolve``/``fail`` — callers that
    need "run later this instant" ordering should resolve from an
    ``engine.defer(0.0, ...)`` event.
    """

    __slots__ = ("engine", "state", "value", "error", "_callbacks", "label")

    def __init__(self, engine: Engine, label: str = "") -> None:
        self.engine = engine
        self.state = _PENDING
        self.value: Any = None
        self.error: Optional[BaseException] = None
        #: listeners in registration order (a `Task` wait appends its
        #: own here directly); ``()`` once settled (a later
        #: `add_done_callback` runs its listener at once instead)
        self._callbacks: Sequence[Callable[["Future"], None]] = []
        #: free-form tag for tracing and error messages
        self.label = label

    # ------------------------------------------------------------------
    def resolve(self, value: Any = None) -> None:
        """Settle successfully with ``value``."""
        if self.state is not _PENDING:
            raise InvalidFutureTransition(
                f"future {self.label!r} already {self.state.value}"
            )
        self.state = FutureState.DONE
        self.value = value
        callbacks, self._callbacks = self._callbacks, ()
        for fn in callbacks:
            fn(self)

    def fail(self, error: BaseException) -> None:
        """Settle with an exception; the waiting task will see it raised."""
        if self.state is not _PENDING:
            raise InvalidFutureTransition(
                f"future {self.label!r} already {self.state.value}"
            )
        self.state = FutureState.FAILED
        self.error = error
        callbacks, self._callbacks = self._callbacks, ()
        for fn in callbacks:
            fn(self)

    def resolve_later(self, delay: float, value: Any = None) -> None:
        """Schedule resolution ``delay`` ms from now (a no-op if the
        future has settled by then).  Fire-and-forget: nothing to
        cancel, nothing returned."""
        self.engine.defer(delay, self._safe_resolve, value)

    def _safe_resolve(self, value: Any) -> None:
        if self.state is _PENDING:
            self.state = FutureState.DONE
            self.value = value
            callbacks, self._callbacks = self._callbacks, ()
            for fn in callbacks:
                fn(self)

    # ------------------------------------------------------------------
    def add_done_callback(self, fn: Callable[["Future"], None]) -> None:
        """Register ``fn(self)`` to run when the future settles (or
        immediately if it already has).  Listeners fire in registration
        order."""
        if self.state is not _PENDING:
            fn(self)
        else:
            self._callbacks.append(fn)

    def result(self) -> Any:
        """The settled value; raises if pending or failed."""
        if self.state is FutureState.DONE:
            return self.value
        if self.state is FutureState.FAILED:
            assert self.error is not None
            raise self.error
        raise InvalidFutureTransition(f"future {self.label!r} still pending")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Future {self.label!r} {self.state.value}>"
