"""LYNX threads (the paper's coroutines).

Paper §2: "Each process may be divided into an arbitrary number of
threads of control, but the threads execute in mutual exclusion and may
be managed by the language run-time package, much like the coroutines
of Modula-2."

A `LynxThread` wraps a user generator.  Threads are **not** simulation
tasks: the runtime's dispatcher steps them one at a time (mutual
exclusion holds by construction) and switches only when a thread blocks
on a communication operation — a *block point* in the paper's sense.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional


class ThreadState(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"


class LynxThread:
    """One coroutine of a LYNX process."""

    _counter = 0

    def __init__(self, gen: Generator, name: str = "") -> None:
        LynxThread._counter += 1
        self.tid = LynxThread._counter
        self.gen = gen
        self.name = name or f"thread-{self.tid}"
        self.state = ThreadState.READY
        #: value to send into the generator at next step
        self.pending_value: Any = None
        #: exception to throw into the generator at next step
        self.pending_error: Optional[BaseException] = None
        #: why the thread is blocked (diagnostics / tests)
        self.block_reason: str = ""
        #: set when another thread asked to abort this one
        self.abort_requested: bool = False

    # ------------------------------------------------------------------
    @property
    def live(self) -> bool:
        return self.state in (ThreadState.READY, ThreadState.BLOCKED)

    def block(self, reason: str) -> None:
        assert self.state is ThreadState.READY, self.state
        self.state = ThreadState.BLOCKED
        self.block_reason = reason

    def resume(self, value: Any = None) -> None:
        """Mark the thread runnable with ``value`` as the result of the
        operation it blocked on.  The caller (runtime) must queue it."""
        assert self.state is ThreadState.BLOCKED, self.state
        self.state = ThreadState.READY
        self.block_reason = ""
        self.pending_value = value
        self.pending_error = None

    def resume_error(self, error: BaseException) -> None:
        """Mark the thread runnable; ``error`` will be raised inside it
        at the operation it blocked on — this is how LYNX run-time
        exceptions reach user code."""
        assert self.state is ThreadState.BLOCKED, self.state
        self.state = ThreadState.READY
        self.block_reason = ""
        self.pending_value = None
        self.pending_error = error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f" ({self.block_reason})" if self.block_reason else ""
        return f"<LynxThread {self.name} {self.state.value}{extra}>"
