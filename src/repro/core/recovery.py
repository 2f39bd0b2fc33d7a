"""Runtime-side recovery policy: timeout, bounded retry, backoff.

The paper's lesson (§2.2, §4.1): a kernel that promises *absolute*
reliable delivery must hide loss forever, while a kernel that offers
*hints* lets the run-time package — which knows what the application
can tolerate — decide how long to wait, how often to retry, and what
to surface when retrying stops being worth it.  This module is that
runtime-side decision, made concrete:

* `RecoveryPolicy` — the knobs: initial ``timeout_ms``, ``max_retries``
  and ``jitter_frac``, and `RecoveryPolicy.waits`, the one statement of
  the schedule they make (the first wait, then one doubled wait per
  resend; jitter draws come from the cluster's seeded rng, so runs
  replay exactly).  The engine-timed runtime and the wall-clock load
  client (`repro.net.load`) walk that one iterator.
* `RecoveryExhausted` (re-exported from `repro.core.exceptions`) — the
  typed exception a connect raises once the retry budget is spent.
  With a policy installed, every connect on a runtime-placement
  backend either completes exactly once (duplicates are suppressed by
  `WireMessage` sequence numbers) or raises this; it never hangs and
  never silently duplicates.  The scope is one connect to one server:
  a `RecoveryExhausted` does not say the request never ran, so a
  client that fails over and re-issues the operation on a backup can
  run it on both servers — at most once per server, not once overall.
* `TimerWheel` — how the runtime *arms* those timeouts cheaply: all
  timers due at the same simulated instant share one engine event
  (one heap push per distinct deadline instead of one per timer).
  Cancellation — the overwhelmingly common case, since most RPCs
  complete long before their timeout — is an O(1) flag flip that
  never touches the engine heap unless the whole bucket empties.

Where the policy *applies* is a per-backend capability
(`KernelCapabilities.recovery_placement`): ``"runtime"`` backends
(SODA, Chrysalis, ideal) arm these timers in
`repro.core.runtime.LynxRuntimeBase`; the ``"kernel"`` backend
(Charlotte) never sees them — its kernel retransmits invisibly and
unboundedly instead (see `repro.sim.faults`).  Install a policy with
``cluster.install_recovery(RecoveryPolicy(...))`` before any process
spawns; see docs/FAULTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.core.exceptions import RecoveryExhausted

__all__ = [
    "RecoveryPolicy",
    "RecoveryExhausted",
    "TimerHandle",
    "TimerWheel",
]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Timeout/retry knobs for runtime-placement recovery.

    `waits` is the schedule: the initial timeout, then each retry waits
    twice as long as the last, and after ``max_retries``
    unacknowledged retransmissions the connect raises
    `RecoveryExhausted` — a budget of
    ``timeout_ms * (1 + 2 + ... + 2**max_retries)`` (plus jitter).
    Install it before any process spawns: each runtime reads it once,
    and `ClusterBase.install_recovery` refuses it after a spawn.
    """

    #: ms to wait for receipt/reply before the first retransmission
    timeout_ms: float = 50.0
    #: retransmissions before giving up (0 = timeout only, no retry)
    max_retries: int = 3
    #: uniform ±fraction applied to each retry's wait (decorrelates
    #: retry storms; 0 disables)
    jitter_frac: float = 0.1

    def waits(self, rng=None) -> Iterator[float]:
        """The waits of one exchange, in order: ``timeout_ms`` (never
        jittered), then ``timeout_ms * 2**attempt`` before each of the
        ``max_retries`` resends, jittered when an rng is supplied — each
        drawn only when ``next()`` asks for it.  Running dry is
        exhaustion."""
        yield self.timeout_ms
        for attempt in range(1, self.max_retries + 1):
            wait = self.timeout_ms * 2.0 ** attempt
            yield (wait if rng is None or self.jitter_frac <= 0.0
                   else rng.jitter(wait, self.jitter_frac))

    def budget_ms(self) -> float:
        """Worst-case ms a connect can spend before `RecoveryExhausted`
        (jitter excluded — callers sizing partitions want the nominal
        figure)."""
        return sum(self.waits())


class TimerHandle:
    """One armed timer in a `TimerWheel`.

    Interface-compatible with the `repro.sim.engine.Event` the runtime
    used to hold directly: callers only ever ``cancel()`` it.
    """

    __slots__ = ("fn", "args", "cancelled", "_bucket")

    def __init__(self, fn: Callable[..., Any], args: tuple,
                 bucket: "_Bucket") -> None:
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._bucket = bucket

    def cancel(self) -> None:
        """Disarm.  Idempotent, O(1); releases the underlying engine
        event once the last timer of its instant is cancelled."""
        if self.cancelled:
            return
        self.cancelled = True
        self._bucket.live -= 1
        if self._bucket.live == 0:
            self._bucket.release()


class _Bucket:
    """All timers of one wheel due at one exact simulated deadline.

    A bucket's engine event holds the bucket (``Event.args``) and its
    handles point back at it, so both back-links are cut the moment
    the bucket ends — fired or released: a spent bucket holds no cycle,
    and reference counting frees each timer's arguments at once rather
    than leaving them to the collector."""

    __slots__ = ("wheel", "deadline", "event", "handles", "live")

    def __init__(self, wheel: "TimerWheel", deadline: float) -> None:
        self.wheel = wheel
        self.deadline = deadline
        self.event: Any = None  # the single shared engine Event
        self.handles: Optional[List[TimerHandle]] = []
        self.live = 0

    def release(self) -> None:
        self.wheel._buckets.pop(self.deadline, None)
        self.event.cancel()
        self.event = self.handles = None


class TimerWheel:
    """Batches same-deadline timers behind one engine event each.

    Recovery timeouts are armed in droves and cancelled almost always
    (an RPC that completes cancels its timer); scheduling each one as
    its own engine event made the heap — and every subsequent push and
    pop — pay for timers that would never fire.  The wheel keeps an
    insertion-ordered bucket per *exact* deadline, so firing order
    among wheel timers is identical to the engine's (time, insertion)
    order and simulated timings are bit-for-bit unchanged (the
    equivalence test in ``tests/core/test_timer_wheel.py`` holds a
    seeded chaos run to that, with the engine itself in the wheel's
    place: ``schedule`` and the handle's ``cancel`` are the engine's
    own surface).  A bucket that has fired or been released is acyclic
    (see `_Bucket`), so a finished timer's objects never wait for the
    garbage collector.
    """

    __slots__ = ("engine", "_buckets")

    def __init__(self, engine: Any) -> None:
        self.engine = engine
        self._buckets: Dict[float, _Bucket] = {}

    def schedule(self, delay_ms: float, fn: Callable[..., Any],
                 *args: Any) -> Any:
        """Arm ``fn(*args)`` to fire ``delay_ms`` from now; returns a
        `TimerHandle`, whose ``.cancel()`` disarms it."""
        if delay_ms < 0:
            # surface the same error the engine would
            return self.engine.schedule(delay_ms, fn, *args)
        deadline = self.engine.now + delay_ms
        bucket = self._buckets.get(deadline)
        if bucket is None:
            bucket = _Bucket(self, deadline)
            self._buckets[deadline] = bucket
            bucket.event = self.engine.schedule_at(
                deadline, self._fire, bucket
            )
        handle = TimerHandle(fn, args, bucket)
        bucket.handles.append(handle)
        bucket.live += 1
        return handle

    def _fire(self, bucket: _Bucket) -> None:
        self._buckets.pop(bucket.deadline, None)
        for handle in bucket.handles:
            if not handle.cancelled:
                handle.cancelled = True  # fired == spent
                handle.fn(*handle.args)
        bucket.event = bucket.handles = None  # spent: no cycle left
