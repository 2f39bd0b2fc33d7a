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
from typing import Any, Callable, Dict, List, Optional


class EngineError(RuntimeError):
    """Raised for misuse of the engine (e.g. scheduling in the past)."""


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

        eng = make_engine()  # repro.sim.backends
        eng.schedule(5.0, callback, arg1)
        eng.run()            # runs until the queues are empty
        eng.run(until=100.0) # or until simulated time passes 100 ms

    The engine deliberately has no notion of processes; see
    `repro.sim.tasks.Task` for coroutine driving.

    One class serves every backend in `repro.sim.backends`; the three
    registered names choose only how many queues there are and how
    `run` drains them:

    * ``global`` — one queue, exact ``(time, seq)`` order: the
      reference semantics;
    * ``sharded-serial`` — one queue per shard under one clock and one
      sequence counter; every step fires the globally minimal
      ``(time, seq)`` head (a k-way merge), which is *exactly* the
      ``global`` order, so it is the oracle the parallel policy is
      checked against;
    * ``sharded-parallel`` — one queue, clock and sequence counter per
      shard, drained in conservative lookahead windows by
      `repro.sim.backends.sharded`, in-process or in forked workers.

    ``_heap`` / ``now`` / ``_seq`` are always the *current shard's*
    queue, clock and counter — the shard whose event is dispatching,
    shard 0 outside a run — swapped in by `_enter` when a shard starts
    dispatching, never per event, so the scheduling methods are written
    once against plain attributes.  Untagged `schedule` calls therefore
    stay on the shard that made them: workloads that never tag shards
    run entirely on shard 0, in exact global order, on every backend.

    Construction note: layers above ``repro.sim`` obtain engines through
    the `repro.sim.backends` table (``make_engine``), never by
    calling ``Engine(...)`` directly, so every workload can run on
    every backend unchanged.  The keyword arguments below are set by
    ``make_engine`` from a row of ``BACKENDS`` and nowhere else.
    """

    def __init__(
        self,
        *,
        shards: int = 1,
        sharded: bool = False,
        windows: Optional[Callable[..., int]] = None,
        workers: Optional[int] = None,
    ) -> None:
        if shards < 1:
            raise EngineError(f"shard count must be >= 1, got {shards}")
        if workers is not None and workers < 1:
            raise EngineError(f"worker count must be >= 1, got {workers}")
        #: logical shard count; ``sharded`` gives each its own queue
        self.shards = shards
        #: conservative-synchronization lookahead (ms); adopted from the
        #: interconnect's latency floor (`note_link_floor`) unless the
        #: caller of ``make_engine`` pinned one
        self.lookahead_ms = 0.0
        #: smallest guaranteed per-link transit time any network model
        #: has registered; 0.0 until a model reports one
        self.link_floor_ms = 0.0
        #: whether `lookahead_ms` tracks `link_floor_ms` automatically
        self._lookahead_auto = True
        #: forked worker processes for the window policy (None: in-process)
        self.workers = workers
        #: the window drain policy, ``windows(engine, until, max_events)``
        #: (`repro.sim.backends.sharded.run_windows`); it implies
        #: per-shard queues *and* per-shard clocks and counters
        self._windows = windows
        per_shard = windows is not None
        #: every queue, each holding ``(time, seq, fn, args, handle)``
        #: entries (see `Event`): one, or one per shard
        self._heaps: List[list] = [
            [] for _ in range(shards if sharded or per_shard else 1)
        ]
        #: each shard's queue — the same one ``shards`` times over when
        #: the shards are only logical
        self._queue_of: List[list] = (
            self._heaps if len(self._heaps) > 1 else self._heaps * shards
        )
        #: the current shard, and its queue, clock and sequence counter
        self._cur = 0
        self._heap: list = self._heaps[0]
        self.now: float = 0.0
        self._seq: int = 0
        #: clocks and counters of the shards not current (window policy)
        self._nows: Optional[List[float]] = [0.0] * shards if per_shard else None
        self._seqs: Optional[List[int]] = [0] * shards if per_shard else None
        #: cross-shard posts buffered during a window and flushed at its
        #: barrier: ``(origin shard, target shard, time, key, args)``
        self._outbox: Optional[List[tuple]] = [] if per_shard else None
        self._events_fired: int = 0
        self._running: bool = False
        #: per-shard cross-shard message receivers (`bind_receiver`)
        self._receivers: Dict[int, Callable[..., Any]] = {}
        #: per-shard result extractors (`bind_harvest`)
        self._harvest: Dict[int, Callable[[], Any]] = {}

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

    def defer(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget `schedule`: same sequence number, same
        firing order, but no cancellation handle is allocated or
        returned.  Use it wherever `schedule`'s return value would be
        discarded."""
        if not delay >= 0:
            raise EngineError(f"cannot schedule {delay} ms in the past")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay, seq, fn, args, None))

    # ------------------------------------------------------------------
    # shard-tagged scheduling
    #
    # Sharded workloads place work with `schedule_on` / `defer_on`
    # during setup and talk across shards with `post` while running.
    # With one queue (``global``) the tags are range-checked and
    # otherwise ignored, so a workload written against this surface
    # runs bit-identically on every registered backend.
    # ------------------------------------------------------------------
    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.shards:
            raise EngineError(
                f"shard {shard} out of range for {self.shards}-shard engine"
            )

    def _enter(self, shard: int) -> None:
        """Make ``shard`` the current shard: swap its queue (and, under
        the window policy, its clock and sequence counter) into `_heap`
        / `now` / `_seq`, parking those of the shard it replaces."""
        prev = self._cur
        if shard != prev:
            nows = self._nows
            if nows is not None:
                seqs = self._seqs
                nows[prev] = self.now
                seqs[prev] = self._seq
                self.now = nows[shard]
                self._seq = seqs[shard]
            self._heap = self._heaps[shard]
            self._cur = shard

    def _put(
        self, shard: int, delay: float, fn: Callable[..., Any], args: tuple,
        handle: bool,
    ) -> Optional[Event]:
        """`schedule_on` / `defer_on`: `schedule` / `defer` against
        ``shard``'s queue, clock and counter, without swapping it in —
        populating a sharded workload is one tagged call per client."""
        self._check_shard(shard)
        parked = self._nows is not None and shard != self._cur
        if parked and self._running:
            raise EngineError(
                "cross-shard scheduling during a run must use post() "
                "(lookahead-bounded); schedule_on/defer_on may only "
                "target other shards before the run starts"
            )
        if not delay >= 0:
            raise EngineError(f"cannot schedule {delay} ms in the past")
        if parked:
            t = self._nows[shard] + delay
            seq = self._seqs[shard]
            self._seqs[shard] = seq + 1
        else:
            t = self.now + delay
            seq = self._seq
            self._seq = seq + 1
        ev = Event(t, seq, fn, args) if handle else None
        heappush(self._queue_of[shard], (t, seq, fn, args, ev))
        return ev

    def schedule_on(
        self, shard: int, delay: float, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """`schedule` onto an explicit shard's queue."""
        return self._put(shard, delay, fn, args, True)

    def defer_on(
        self, shard: int, delay: float, fn: Callable[..., Any], *args: Any
    ) -> None:
        """`defer` onto an explicit shard's queue."""
        self._put(shard, delay, fn, args, False)

    def shard_now(self, shard: int) -> float:
        """The shard-local clock (`now`, unless the window policy gives
        every shard its own)."""
        self._check_shard(shard)
        if self._nows is None or shard == self._cur:
            return self.now
        return self._nows[shard]

    def bind_receiver(self, shard: int, fn: Callable[..., Any]) -> None:
        """Register ``fn`` as the cross-shard message receiver for
        ``shard``: `post` targets it by shard id, so messages stay
        addressable when shards live in other worker processes."""
        self._check_shard(shard)
        self._receivers[shard] = fn

    def post(self, shard: int, delay: float, key: str, *args: Any) -> None:
        """Deliver a cross-shard message: ``receiver(key, *args)`` on
        ``shard``, ``delay`` ms from now.

        ``delay`` must be at least `lookahead_ms` — under the window
        policy that bound is what makes conservative windows safe;
        every backend enforces the same contract so a workload cannot
        pass on one and fail on another.  Inside a window a post to
        another shard waits in the outbox for the barrier, so sequence
        numbers are assigned identically in-process and across forked
        workers.
        """
        self._check_shard(shard)
        if not delay >= self.lookahead_ms:
            raise EngineError(
                f"cross-shard post delay {delay} ms is below the "
                f"lookahead bound {self.lookahead_ms} ms"
            )
        t = self.now + delay
        if self._running and self._outbox is not None and shard != self._cur:
            self._outbox.append((self._cur, shard, t, key, args))
        else:
            self._deliver(shard, t, key, args)

    def _deliver(self, shard: int, t: float, key: str, args: tuple) -> None:
        """Push a posted message onto ``shard``'s queue at time ``t``,
        under ``shard``'s sequence counter."""
        fn = self._receivers.get(shard)
        if fn is None:
            raise EngineError(f"no receiver bound on shard {shard}")
        if self._seqs is not None and shard != self._cur:
            seq = self._seqs[shard]
            self._seqs[shard] = seq + 1
        else:
            seq = self._seq
            self._seq = seq + 1
        heappush(self._queue_of[shard], (t, seq, fn, (key, *args), None))

    def note_link_floor(self, floor_ms: float) -> None:
        """A `repro.sim.network` model reports its guaranteed minimum
        transit time.  The smallest reported floor becomes the
        conservative-synchronization lookahead (unless one was pinned
        explicitly through ``make_engine``): no frame can arrive
        sooner, so windows of that width are safe on every backend."""
        if floor_ms <= 0.0:
            return
        if self.link_floor_ms <= 0.0 or floor_ms < self.link_floor_ms:
            self.link_floor_ms = floor_ms
            if self._lookahead_auto:
                self.lookahead_ms = floor_ms

    def bind_harvest(self, shard: int, fn: Callable[[], Any]) -> None:
        """Register the callable that extracts ``shard``'s final
        results.  `harvest` runs them after the simulation; with forked
        workers they run *inside* the worker owning the shard, so this
        is the only way to get per-shard state back."""
        self._check_shard(shard)
        self._harvest[shard] = fn

    def harvest(self) -> List[Any]:
        """Collect per-shard results, in shard order."""
        return [self._harvest[s]() for s in sorted(self._harvest)]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next non-cancelled event: the minimal
        ``(time, seq)`` head over every queue.

        Returns False when the queues are exhausted.  `run` never
        steps; every run form fires the sequence `step` does.
        """
        if self._windows is not None:
            raise EngineError(
                "sharded-parallel advances in lookahead windows; use run() "
                "(or the sharded-serial oracle for single-step debugging)"
            )
        best = None
        shard = 0
        for i, h in enumerate(self._heaps):
            _skip_cancelled(h)
            if h and (best is None or h[0] < best):
                best = h[0]
                shard = i
        if best is None:
            return False
        t, _seq, fn, args, _ev = heappop(self._heaps[shard])
        if t < self.now:  # pragma: no cover - defensive
            raise EngineError("event heap corrupted: time went backwards")
        self._enter(shard)
        self.now = t
        self._events_fired += 1
        fn(*args)
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queues empty, ``until`` is passed, or
        ``max_events`` have fired.  Returns the number of events fired by
        this call.

        ``until`` is inclusive: events scheduled exactly at ``until`` run.
        When the run stops because a *pending* event lies beyond
        ``until``, the clock (every shard's) advances to ``until``; when
        the queues simply empty, clocks stay at the last event fired (so
        they read as the workload's true duration).
        """
        self._running = True
        try:
            if self._windows is not None:
                return self._windows(self, until, max_events)
            if len(self._heaps) == 1:
                return self._drain(until, max_events)
            return self._merge(until, max_events)
        finally:
            self._running = False
            # untagged scheduling outside a run lands on shard 0
            self._enter(0)

    def _drain(self, until: Optional[float], max_events: Optional[int]) -> int:
        """One queue — every cluster run (`run_until_quiet` passes both
        bounds) and every bare `run()`: the heap and `heappop` live in
        locals and nothing is called per event but the callback."""
        heap = self._heap
        pop = heappop
        limit = math.inf if until is None else until
        # ints only: `fired != budget` stays an int comparison
        budget = -1 if max_events is None else max(max_events, 0)
        fired = 0
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
            self._events_fired += fired
        return fired

    def _merge(self, until: Optional[float], max_events: Optional[int]) -> int:
        """The k-way merge over per-shard queues: `step`'s head scan
        under `_drain`'s bounds, nothing else called per event."""
        heaps = self._heaps
        pop = heappop
        limit = math.inf if until is None else until
        budget = -1 if max_events is None else max(max_events, 0)
        fired = 0
        try:
            while fired != budget:
                best = None
                shard = 0
                for i, h in enumerate(heaps):
                    _skip_cancelled(h)
                    if h and (best is None or h[0] < best):
                        best = h[0]
                        shard = i
                if best is None:
                    break
                t = best[0]
                if t > limit:
                    self.now = max(self.now, limit)
                    break
                pop(heaps[shard])
                self._cur = shard
                self._heap = heaps[shard]
                self.now = t
                fired += 1
                best[2](*best[3])
        finally:
            self._events_fired += fired
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
        return (
            f"<Engine t={self.now:.6f} shards={self.shards} "
            f"queues={len(self._heaps)} pending={self.pending}>"
        )
