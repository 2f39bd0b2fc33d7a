"""The discrete-event engine: a deterministic clock and event heap.

Every component of the reproduction — kernels, runtimes, networks,
failure injectors — schedules work through one `Engine`.  Determinism is
a hard requirement (the conformance suite and the benchmark tables must
be exactly reproducible), so:

* events fire in (time, sequence-number) order: ties are broken by
  insertion order, never by identity hash;
* there is no wall-clock anywhere; `Engine.now` is the only clock;
* all randomness used by simulated hardware flows through
  `repro.sim.rng.SimRandom`, seeded per run.

Time is a float in **milliseconds** throughout the project, matching the
units of the paper's tables (57 ms, 2.4 ms, ...).
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
# dispatch profiling prices callbacks in real host time on purpose;
# it never feeds back into simulated state (see DispatchProfile)
from time import perf_counter  # repro: allow[DET001]
from typing import Any, Callable, Dict, List, Optional, Tuple


class EngineError(RuntimeError):
    """Raised for misuse of the engine (e.g. scheduling in the past)."""


def _callback_key(fn: Callable[..., Any]) -> str:
    """A stable aggregation key for an event callback: the qualified
    name for functions and bound methods, the type name otherwise
    (partials, callables)."""
    key = getattr(fn, "__qualname__", None)
    if key is None:
        key = type(fn).__name__
    return key


class DispatchProfile:
    """Per-callback dispatch counts and wall-clock cost.

    Populated by `Engine.step` only when the engine was built with
    ``profile=True`` — the default hot path never touches it.  Keys are
    callback qualified names (``CharlotteKernel._deliver``, ...); wall
    time is real seconds spent *inside* the callback, which for a
    simulator measures the cost of simulating, not simulated time.
    """

    __slots__ = ("counts", "wall_s")

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.wall_s: Dict[str, float] = {}

    def record(self, key: str, seconds: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1
        self.wall_s[key] = self.wall_s.get(key, 0.0) + seconds

    def rows(self) -> List[Tuple[str, int, float]]:
        """``(key, count, wall_ms)`` rows, most expensive first."""
        return sorted(
            ((k, self.counts[k], self.wall_s[k] * 1e3) for k in self.counts),
            key=lambda row: row[2],
            reverse=True,
        )

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            k: {"count": self.counts[k], "wall_ms": self.wall_s[k] * 1e3}
            for k in sorted(self.counts)
        }

    def render(self, limit: int = 20) -> str:
        lines = [f"{'callback':<44} {'count':>8} {'wall ms':>10}"]
        for key, count, wall_ms in self.rows()[:limit]:
            lines.append(f"{key:<44} {count:>8} {wall_ms:>10.3f}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DispatchProfile kinds={len(self.counts)}>"


class Event:
    """The cancellation handle `Engine.schedule` returns.

    The heap itself holds ``(time, seq, fn, args, handle)`` tuples —
    ordered by ``(time, seq)`` alone, sequence numbers being unique, so
    pushes and pops compare floats and ints in C — with ``handle`` an
    `Event`, or ``None`` on the fire-and-forget paths (`Engine.defer`,
    ``defer_on``, ``post``), which allocate nothing beyond the entry.
    Cancellation is O(1): the entry is tombstoned through its handle
    rather than removed, and skipped when it reaches the heap head.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {state} {self.fn!r}>"


def _skip_cancelled(h: list, pop=heappop) -> None:
    """Pop tombstoned entries off the head of heap ``h``."""
    while h and h[0][4] is not None and h[0][4].cancelled:
        pop(h)


class Engine:
    """A deterministic discrete-event scheduler.

    Usage::

        eng = Engine()
        eng.schedule(5.0, callback, arg1)
        eng.run()            # runs until the heap is empty
        eng.run(until=100.0) # or until simulated time passes 100 ms

    The engine deliberately has no notion of processes; see
    `repro.sim.tasks.Task` for coroutine driving.

    Construction note: layers above ``repro.sim`` obtain engines through
    the `repro.sim.backends` registry (``make_engine``), never by
    calling ``Engine(...)`` directly — the SIM002 lint rule enforces
    this so every workload can run on the sharded backends unchanged.
    """

    #: shard count — the global engine is always a single shard; the
    #: sharded backends (`repro.sim.backends`) override this
    shards: int = 1
    #: conservative-synchronization lookahead (ms); adopted from the
    #: interconnect's latency floor (`note_link_floor`) unless set
    #: explicitly via the backend registry
    lookahead_ms: float = 0.0
    #: smallest guaranteed per-link transit time any network model has
    #: registered; 0.0 until a model reports one
    link_floor_ms: float = 0.0
    #: whether `lookahead_ms` tracks `link_floor_ms` automatically
    _lookahead_auto: bool = True

    def __init__(self, profile: bool = False) -> None:
        self.now: float = 0.0
        #: ``(time, seq, fn, args, handle)`` entries; see `Event`
        self._heap: List[tuple] = []
        #: every queue of this engine — the sharded backends install
        #: one heap per shard here; the introspection below reads it
        self._heaps: List[list] = [self._heap]
        self._seq: int = 0
        self._events_fired: int = 0
        self._running: bool = False
        #: per-shard cross-shard message receivers (`bind_receiver`)
        self._receivers: Dict[int, Callable[..., Any]] = {}
        #: per-shard result extractors (`bind_harvest`)
        self._harvest: Dict[int, Callable[[], Any]] = {}
        #: optional hook called as trace(engine, event) before each
        #: event; entries pushed without a handle get a fresh `Event`
        self.trace_hook: Optional[Callable[["Engine", Event], None]] = None
        #: per-callback dispatch statistics; None unless ``profile=True``
        self.profile: Optional[DispatchProfile] = (
            DispatchProfile() if profile else None
        )

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ms from now.

        ``delay`` must be >= 0 (NaN is rejected: it would poison the
        heap order); a zero delay runs after all events already
        scheduled for the current instant (FIFO at equal timestamps).
        """
        if not delay >= 0:
            raise EngineError(f"cannot schedule {delay} ms in the past")
        # the hottest call in the simulator (every message hop
        # schedules at least one event): nothing is delegated
        t = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        ev = Event(t, seq, fn, args)
        heappush(self._heap, (t, seq, fn, args, ev))
        return ev

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulated time."""
        if not time >= self.now:
            raise EngineError(
                f"cannot schedule at t={time} before current t={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, args)
        heappush(self._heap, (time, seq, fn, args, ev))
        return ev

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current instant (after pending
        same-instant events)."""
        return self.schedule(0.0, fn, *args)

    def defer(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget `schedule`: same sequence number, same
        firing order, but no cancellation handle is allocated or
        returned — on every backend.  Use it wherever `schedule`'s
        return value would be discarded."""
        if not delay >= 0:
            raise EngineError(f"cannot schedule {delay} ms in the past")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay, seq, fn, args, None))

    # ------------------------------------------------------------------
    # shard-tagged scheduling
    #
    # The global engine is a single shard, so these are degenerate
    # forms of the API the sharded backends (`repro.sim.backends`)
    # implement with real per-shard queues.  Workloads written against
    # this surface run bit-identically on every registered backend.
    # ------------------------------------------------------------------
    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.shards:
            raise EngineError(
                f"shard {shard} out of range for {self.shards}-shard engine"
            )

    def schedule_on(
        self, shard: int, delay: float, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """`schedule` onto an explicit shard's queue (here: the only
        queue)."""
        self._check_shard(shard)
        return self.schedule(delay, fn, *args)

    def defer_on(
        self, shard: int, delay: float, fn: Callable[..., Any], *args: Any
    ) -> None:
        """`defer` onto an explicit shard's queue."""
        self._check_shard(shard)
        self.defer(delay, fn, *args)

    def shard_now(self, shard: int) -> float:
        """The shard-local clock — on the global engine, `now`."""
        self._check_shard(shard)
        return self.now

    def bind_receiver(self, shard: int, fn: Callable[..., Any]) -> None:
        """Register ``fn`` as the cross-shard message receiver for
        ``shard``: `post` targets it by shard id, so messages stay
        addressable when shards live in other worker processes."""
        self._check_shard(shard)
        self._receivers[shard] = fn

    def post(self, shard: int, delay: float, key: str, *args: Any) -> None:
        """Deliver a cross-shard message: ``receiver(key, *args)`` on
        ``shard``, ``delay`` ms from now.

        ``delay`` must be at least `lookahead_ms` — on the sharded
        backends that bound is what makes conservative windows safe;
        the global engine enforces the same contract (trivially, at
        0.0) so a workload cannot pass here and fail there.
        """
        self._check_shard(shard)
        if not delay >= self.lookahead_ms:
            raise EngineError(
                f"cross-shard post delay {delay} ms is below the "
                f"lookahead bound {self.lookahead_ms} ms"
            )
        fn = self._receivers.get(shard)
        if fn is None:
            raise EngineError(f"no receiver bound on shard {shard}")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay, seq, fn, (key, *args), None))

    def note_link_floor(self, floor_ms: float) -> None:
        """A `repro.sim.network` model reports its guaranteed minimum
        transit time.  The smallest reported floor becomes the
        conservative-synchronization lookahead (unless one was pinned
        explicitly through the backend registry): no frame can arrive
        sooner, so windows of that width are safe on every backend."""
        if floor_ms <= 0.0:
            return
        if self.link_floor_ms <= 0.0 or floor_ms < self.link_floor_ms:
            self.link_floor_ms = floor_ms
            if self._lookahead_auto:
                self.lookahead_ms = floor_ms

    def bind_harvest(self, shard: int, fn: Callable[[], Any]) -> None:
        """Register the callable that extracts ``shard``'s final
        results.  `harvest` runs them after the simulation; on the
        multiprocess backend they run *inside* the worker owning the
        shard, so this is the only way to get per-shard state back."""
        self._check_shard(shard)
        self._harvest[shard] = fn

    def harvest(self) -> List[Any]:
        """Collect per-shard results, in shard order."""
        return [self._harvest[s]() for s in sorted(self._harvest)]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next non-cancelled event.

        Returns False when the heap is exhausted.  `run` steps only
        when a `trace_hook` or dispatch profile is installed.
        """
        heap = self._heap
        _skip_cancelled(heap)
        if not heap:
            return False
        t, seq, fn, args, ev = heappop(heap)
        if t < self.now:  # pragma: no cover - defensive
            raise EngineError("event heap corrupted: time went backwards")
        self.now = t
        self._dispatch(t, seq, fn, args, ev)
        return True

    def _dispatch(self, t, seq, fn, args, ev: Optional[Event]) -> None:
        """Trace, count and (optionally) profile one popped entry."""
        if self.trace_hook is not None:
            self.trace_hook(self, ev if ev is not None else Event(t, seq, fn, args))
        self._events_fired += 1
        if self.profile is None:
            fn(*args)
        else:
            t0 = perf_counter()
            fn(*args)
            self.profile.record(_callback_key(fn), perf_counter() - t0)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the heap empties, ``until`` is passed, or
        ``max_events`` have fired.  Returns the number of events fired by
        this call.

        ``until`` is inclusive: events scheduled exactly at ``until`` run.
        When the run stops because a *pending* event lies beyond
        ``until``, the clock advances to ``until``; when the heap simply
        empties, the clock stays at the last event fired (so it reads as
        the workload's true duration).
        """
        if self.trace_hook is not None or self.profile is not None:
            return self._run_stepped(until, max_events)
        return self._drain(until, max_events)

    def _drain(self, until: Optional[float], max_events: Optional[int]) -> int:
        """`run` with no hook installed — every cluster run
        (`run_until_quiet` passes both bounds) and every bare `run()`:
        the heap and `heappop` live in locals and nothing is called
        per event but the callback."""
        heap = self._heap
        pop = heappop
        limit = math.inf if until is None else until
        # ints only: `fired != budget` stays an int comparison
        budget = -1 if max_events is None else max(max_events, 0)
        fired = 0
        self._running = True
        try:
            while heap and fired != budget:
                entry = heap[0]
                ev = entry[4]
                if ev is not None and ev.cancelled:
                    pop(heap)
                    continue
                t = entry[0]
                if t > limit:
                    self.now = max(self.now, limit)
                    break
                if t < self.now:  # pragma: no cover - defensive
                    raise EngineError("event heap corrupted: time went backwards")
                pop(heap)
                self.now = t
                # count first: an event counts even when its callback
                # raises, and the finally below flushes the total
                fired += 1
                entry[2](*entry[3])
        finally:
            self._running = False
            self._events_fired += fired
        return fired

    def _run_stepped(
        self, until: Optional[float], max_events: Optional[int]
    ) -> int:
        """`run` through `_peek_time` / `step`: the traced / profiled
        path, and the bounded path of backends with their own queue
        layout (the sharded-serial oracle)."""
        fired = 0
        self._running = True
        try:
            while max_events is None or fired < max_events:
                nxt = self._peek_time()
                if nxt is None:
                    break
                if until is not None and nxt > until:
                    self.now = max(self.now, until)
                    break
                self.step()
                fired += 1
        finally:
            self._running = False
        return fired

    def _peek_time(self) -> Optional[float]:
        """The earliest live entry's time, dropping tombstoned heads."""
        nxt = None
        for h in self._heaps:
            _skip_cancelled(h)
            if h and (nxt is None or h[0][0] < nxt):
                nxt = h[0][0]
        return nxt

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of non-cancelled events still scheduled."""
        return sum(
            1
            for h in self._heaps
            for entry in h
            if entry[4] is None or not entry[4].cancelled
        )

    @property
    def events_fired(self) -> int:
        return self._events_fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self.now:.6f} pending={self.pending}>"
