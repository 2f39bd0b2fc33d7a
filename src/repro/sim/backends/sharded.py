"""Per-shard event queues: the serial oracle and the parallel windows.

Both engines here hold one binary heap **per shard**, in the reference
engine's representation: ``(time, seq, fn, args, handle)`` entries
ordered by ``(time, seq)`` alone, ``handle`` an `Event` or — on the
fire-and-forget paths — ``None`` (see `repro.sim.engine.Event`; the
layout and its tombstone skipping are imported from there, not
redefined).

`ShardedSerialEngine` — the determinism oracle.  One global sequence
counter, one clock; every step scans the k heap heads and fires the
globally minimal ``(time, seq)`` entry.  That is *exactly* the global
engine's order for every workload, so digests must match bit for bit;
per event it costs what the global heap costs plus the head scan.

`ShardedParallelEngine` — conservative synchronization
(Chandy–Misra–Bryant lookahead).  Per-shard clocks and sequence
counters.  Each round computes ``horizon = min(head times) +
lookahead_ms`` and lets every shard drain its own heap, in exact local
``(time, seq)`` order, up to (but excluding) the horizon.  Safety: a
cross-shard `post` sent at time *t* arrives no earlier than ``t +
lookahead_ms >= horizon``, i.e. always outside the current window, so
no shard ever receives work in its past.  Cross-shard posts buffer in
an outbox flushed at the window barrier, keeping sequence assignment
identical whether shards run in-process or in forked workers.

With ``workers > 1`` the shards are partitioned round-robin over
forked OS processes (`multiprocessing`, fork start method).  The
parent coordinates windows over pipes: each round it sends every
worker the horizon plus its inbox of routed posts, and receives the
fired count, the new head times, and the outbox.  Workers harvest
per-shard results (`Engine.bind_harvest`) before exiting — the only
state that returns to the parent.  The window sequence, post routing
order and per-shard sequence numbers are identical to the in-process
loop, so same-seed digests are bit-identical across ``workers``
settings (test-pinned).
"""

from __future__ import annotations

import heapq
import math
# dispatch profiling prices callbacks in real host time on purpose;
# it never feeds back into simulated state (see DispatchProfile)
from time import perf_counter  # repro: allow[DET001]
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.backends import DEFAULT_LOOKAHEAD_MS
from repro.sim.engine import (
    Engine, EngineError, Event, _callback_key, _skip_cancelled,
)


class ShardedSerialEngine(Engine):
    """Per-shard heaps, one thread, exact global ``(time, seq)`` order.

    Bit-identical to the ``global`` backend for every workload (the
    registry marks it ``oracle=True``); used to validate the parallel
    backend.
    """

    def __init__(
        self,
        shards: int = 1,
        lookahead_ms: Optional[float] = None,
        profile: bool = False,
    ) -> None:
        if shards < 1:
            raise EngineError(f"shard count must be >= 1, got {shards}")
        super().__init__(profile=profile)
        self.shards = shards
        self._heaps: List[list] = [[] for _ in range(shards)]
        #: shard receiving untagged `schedule` calls: the shard whose
        #: event is currently dispatching (0 outside dispatch), so
        #: callback chains stay on their shard
        self._cur = 0
        self._lookahead_auto = lookahead_ms is None
        self.lookahead_ms = (
            DEFAULT_LOOKAHEAD_MS if lookahead_ms is None else lookahead_ms
        )

    # -- scheduling ----------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        if not delay >= 0:
            raise EngineError(f"cannot schedule {delay} ms in the past")
        t = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        ev = Event(t, seq, fn, args)
        heapq.heappush(self._heaps[self._cur], (t, seq, fn, args, ev))
        return ev

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        if not time >= self.now:
            raise EngineError(
                f"cannot schedule at t={time} before current t={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, args)
        heapq.heappush(self._heaps[self._cur], (time, seq, fn, args, ev))
        return ev

    def defer(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        if not delay >= 0:
            raise EngineError(f"cannot schedule {delay} ms in the past")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(
            self._heaps[self._cur], (self.now + delay, seq, fn, args, None)
        )

    def schedule_on(
        self, shard: int, delay: float, fn: Callable[..., Any], *args: Any
    ) -> Event:
        self._check_shard(shard)
        if not delay >= 0:
            raise EngineError(f"cannot schedule {delay} ms in the past")
        t = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        ev = Event(t, seq, fn, args)
        heapq.heappush(self._heaps[shard], (t, seq, fn, args, ev))
        return ev

    def defer_on(
        self, shard: int, delay: float, fn: Callable[..., Any], *args: Any
    ) -> None:
        self._check_shard(shard)
        if not delay >= 0:
            raise EngineError(f"cannot schedule {delay} ms in the past")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(
            self._heaps[shard], (self.now + delay, seq, fn, args, None)
        )

    def post(self, shard: int, delay: float, key: str, *args: Any) -> None:
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
        heapq.heappush(
            self._heaps[shard],
            (self.now + delay, seq, fn, (key, *args), None),
        )

    # -- execution -----------------------------------------------------
    def step(self) -> bool:
        heaps = self._heaps
        best = None
        bi = -1
        for i, h in enumerate(heaps):
            _skip_cancelled(h)
            if h and (best is None or h[0] < best):
                best = h[0]
                bi = i
        if best is None:
            return False
        heapq.heappop(heaps[bi])
        t, seq, fn, args, ev = best
        self.now = t
        self._cur = bi
        self._dispatch(t, seq, fn, args, ev)
        return True

    def _drain(self, until: Optional[float], max_events: Optional[int]) -> int:
        if until is not None or max_events is not None:
            return self._run_stepped(until, max_events)
        heaps = self._heaps
        pop = heapq.heappop
        fired = 0
        self._running = True
        try:
            if len(heaps) == 1:
                h = heaps[0]
                while h:
                    entry = pop(h)
                    ev = entry[4]
                    if ev is not None and ev.cancelled:
                        continue
                    self.now = entry[0]
                    fired += 1
                    entry[2](*entry[3])
            else:
                while True:
                    best = None
                    bi = -1
                    for i, h in enumerate(heaps):
                        _skip_cancelled(h)
                        if h and (best is None or h[0] < best):
                            best = h[0]
                            bi = i
                    if best is None:
                        break
                    pop(heaps[bi])
                    self.now = best[0]
                    self._cur = bi
                    fired += 1
                    best[2](*best[3])
        finally:
            self._running = False
            self._events_fired += fired
        return fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedSerialEngine t={self.now:.6f} shards={self.shards} "
            f"pending={self.pending}>"
        )


class ShardedParallelEngine(Engine):
    """Per-shard heaps and clocks, conservative lookahead windows.

    Untagged `schedule` calls land on the shard whose event is
    currently dispatching (shard 0 outside dispatch), so legacy
    workloads — which never tag shards — run entirely on shard 0 in
    exact global order and stay bit-identical to the ``global``
    backend.  Sharded workloads place work with ``schedule_on`` /
    ``defer_on`` during setup and communicate across shards with
    `post` while running.
    """

    def __init__(
        self,
        shards: int = 1,
        lookahead_ms: Optional[float] = None,
        profile: bool = False,
        workers: Optional[int] = None,
    ) -> None:
        if shards < 1:
            raise EngineError(f"shard count must be >= 1, got {shards}")
        if workers is not None and workers < 1:
            raise EngineError(f"worker count must be >= 1, got {workers}")
        # per-shard clocks must exist before Engine.__init__ assigns
        # self.now through the property setter below
        self._nows: List[float] = [0.0] * shards
        self._cur = 0
        super().__init__(profile=profile)
        self.shards = shards
        self._heaps: List[list] = [[] for _ in range(shards)]
        self._seqs: List[int] = [0] * shards
        self._lookahead_auto = lookahead_ms is None
        self.lookahead_ms = (
            DEFAULT_LOOKAHEAD_MS if lookahead_ms is None else lookahead_ms
        )
        self.workers = workers
        #: cross-shard posts buffered during a window, flushed at the
        #: barrier: (origin_shard, target_shard, time, key, args)
        self._outbox: List[Tuple[int, int, float, str, tuple]] = []
        #: harvest payloads returned by forked workers, by shard
        self._worker_payloads: Optional[dict] = None

    # the "current" clock: reads/writes go to the dispatching shard's
    # clock, which is what callbacks mean by "now"
    @property
    def now(self) -> float:
        return self._nows[self._cur]

    @now.setter
    def now(self, value: float) -> None:
        self._nows[self._cur] = value

    # -- scheduling ----------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        if not delay >= 0:
            raise EngineError(f"cannot schedule {delay} ms in the past")
        si = self._cur
        t = self._nows[si] + delay
        seq = self._seqs[si]
        self._seqs[si] = seq + 1
        ev = Event(t, seq, fn, args)
        heapq.heappush(self._heaps[si], (t, seq, fn, args, ev))
        return ev

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        si = self._cur
        if not time >= self._nows[si]:
            raise EngineError(
                f"cannot schedule at t={time} before current t={self._nows[si]}"
            )
        seq = self._seqs[si]
        self._seqs[si] = seq + 1
        ev = Event(time, seq, fn, args)
        heapq.heappush(self._heaps[si], (time, seq, fn, args, ev))
        return ev

    def defer(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        if not delay >= 0:
            raise EngineError(f"cannot schedule {delay} ms in the past")
        si = self._cur
        seq = self._seqs[si]
        self._seqs[si] = seq + 1
        heapq.heappush(
            self._heaps[si], (self._nows[si] + delay, seq, fn, args, None)
        )

    def _guard_cross_shard(self, shard: int) -> None:
        if self._running and shard != self._cur:
            raise EngineError(
                "cross-shard scheduling during a run must use post() "
                "(lookahead-bounded); schedule_on/defer_on may only "
                "target other shards before the run starts"
            )

    def schedule_on(
        self, shard: int, delay: float, fn: Callable[..., Any], *args: Any
    ) -> Event:
        self._check_shard(shard)
        self._guard_cross_shard(shard)
        if not delay >= 0:
            raise EngineError(f"cannot schedule {delay} ms in the past")
        t = self._nows[shard] + delay
        seq = self._seqs[shard]
        self._seqs[shard] = seq + 1
        ev = Event(t, seq, fn, args)
        heapq.heappush(self._heaps[shard], (t, seq, fn, args, ev))
        return ev

    def defer_on(
        self, shard: int, delay: float, fn: Callable[..., Any], *args: Any
    ) -> None:
        self._check_shard(shard)
        self._guard_cross_shard(shard)
        if not delay >= 0:
            raise EngineError(f"cannot schedule {delay} ms in the past")
        seq = self._seqs[shard]
        self._seqs[shard] = seq + 1
        heapq.heappush(
            self._heaps[shard],
            (self._nows[shard] + delay, seq, fn, args, None),
        )

    def shard_now(self, shard: int) -> float:
        self._check_shard(shard)
        return self._nows[shard]

    def post(self, shard: int, delay: float, key: str, *args: Any) -> None:
        self._check_shard(shard)
        if not delay >= self.lookahead_ms:
            raise EngineError(
                f"cross-shard post delay {delay} ms is below the "
                f"lookahead bound {self.lookahead_ms} ms"
            )
        si = self._cur
        t = self._nows[si] + delay
        if self._running and shard != si:
            # buffered to the window barrier so sequence assignment is
            # identical in-process and across forked workers
            self._outbox.append((si, shard, t, key, args))
        else:
            self._deliver_post(shard, t, key, args)

    def _deliver_post(self, shard: int, t: float, key: str, args: tuple) -> None:
        fn = self._receivers.get(shard)
        if fn is None:
            raise EngineError(f"no receiver bound on shard {shard}")
        seq = self._seqs[shard]
        self._seqs[shard] = seq + 1
        heapq.heappush(self._heaps[shard], (t, seq, fn, (key, *args), None))

    def _flush_outbox(self) -> None:
        out = self._outbox
        self._outbox = []
        for _origin, shard, t, key, args in out:
            self._deliver_post(shard, t, key, args)

    # -- execution -----------------------------------------------------
    def step(self) -> bool:
        raise EngineError(
            "sharded-parallel advances in lookahead windows; use run() "
            "(or the sharded-serial oracle for single-step debugging)"
        )

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        if self.shards > 1 and self.lookahead_ms <= 0.0:
            raise EngineError(
                "sharded-parallel with more than one shard needs a "
                "positive lookahead_ms (no network model registered a "
                "latency floor?)"
            )
        if self.workers is not None and self.workers > 1 and self.shards > 1:
            return self._run_forked(until, max_events)
        if (
            until is None
            and max_events is None
            and self.trace_hook is None
            and self.profile is None
        ):
            return self._run_fast()
        return self._run_general(until, max_events)

    def _run_fast(self) -> int:
        heaps = self._heaps
        k = len(heaps)
        nows = self._nows
        pop = heapq.heappop
        fired = 0
        self._running = True
        try:
            if k == 1:
                # one shard has no barriers: exact global order
                h = heaps[0]
                self._cur = 0
                while h:
                    entry = pop(h)
                    ev = entry[4]
                    if ev is not None and ev.cancelled:
                        continue
                    nows[0] = entry[0]
                    fired += 1
                    entry[2](*entry[3])
                return fired
            la = self.lookahead_ms
            while True:
                if self._outbox:
                    self._flush_outbox()
                nxt = None
                for h in heaps:
                    _skip_cancelled(h)
                    if h and (nxt is None or h[0][0] < nxt):
                        nxt = h[0][0]
                if nxt is None:
                    break
                horizon = nxt + la
                for si in range(k):
                    h = heaps[si]
                    if not h or h[0][0] >= horizon:
                        continue
                    self._cur = si
                    while h:
                        head = h[0]
                        t = head[0]
                        if t >= horizon:
                            break
                        pop(h)
                        ev = head[4]
                        if ev is not None and ev.cancelled:
                            continue
                        nows[si] = t
                        fired += 1
                        head[2](*head[3])
            return fired
        finally:
            self._running = False
            self._events_fired += fired
            if self._outbox:
                self._flush_outbox()

    def _run_general(
        self, until: Optional[float], max_events: Optional[int]
    ) -> int:
        heaps = self._heaps
        k = len(heaps)
        nows = self._nows
        pop = heapq.heappop
        la = self.lookahead_ms if k > 1 else math.inf
        fired = 0
        stop = max_events is not None and max_events <= 0
        self._running = True
        try:
            while not stop:
                if self._outbox:
                    self._flush_outbox()
                nxt = None
                for h in heaps:
                    _skip_cancelled(h)
                    if h and (nxt is None or h[0][0] < nxt):
                        nxt = h[0][0]
                if nxt is None:
                    break
                if until is not None and nxt > until:
                    for i in range(k):
                        if nows[i] < until:
                            nows[i] = until
                    break
                horizon = nxt + la
                for si in range(k):
                    h = heaps[si]
                    if not h or h[0][0] >= horizon:
                        continue
                    self._cur = si
                    while h:
                        head = h[0]
                        t = head[0]
                        if t >= horizon or (until is not None and t > until):
                            break
                        pop(h)
                        ev = head[4]
                        if ev is not None and ev.cancelled:
                            continue
                        nows[si] = t
                        if self.trace_hook is not None:
                            self.trace_hook(
                                self,
                                ev if ev is not None
                                else Event(t, head[1], head[2], head[3]),
                            )
                        fired += 1
                        self._events_fired += 1
                        if self.profile is None:
                            head[2](*head[3])
                        else:
                            t0 = perf_counter()
                            head[2](*head[3])
                            self.profile.record(
                                _callback_key(head[2]), perf_counter() - t0
                            )
                        if max_events is not None and fired >= max_events:
                            stop = True
                            break
                    if stop:
                        break
        finally:
            self._running = False
            if self._outbox:
                self._flush_outbox()
        return fired

    # -- forked workers ------------------------------------------------
    def _run_forked(
        self, until: Optional[float], max_events: Optional[int]
    ) -> int:
        if max_events is not None:
            raise EngineError("max_events is not supported with forked workers")
        if self.trace_hook is not None or self.profile is not None:
            raise EngineError(
                "tracing/profiling are in-process features; run with "
                "workers=None"
            )
        import multiprocessing as multiproc

        if "fork" not in multiproc.get_all_start_methods():
            # no fork on this platform: the in-process loop computes
            # the identical window sequence (digest parity is pinned)
            return self._run_general(until, None)
        ctx = multiproc.get_context("fork")
        k = self.shards
        w_count = min(self.workers, k)
        owner = [s % w_count for s in range(k)]
        conns = []
        procs = []
        try:
            for w in range(w_count):
                parent_conn, child_conn = ctx.Pipe()
                owned = [s for s in range(k) if owner[s] == w]
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, self, owned, until),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                conns.append(parent_conn)
                procs.append(proc)
            heads: List[List[float]] = []
            for conn in conns:
                msg = conn.recv()
                if msg[0] != "hello":
                    raise EngineError(f"worker failed at startup: {msg[1]}")
                heads.append(msg[1])
            fired_total = 0
            pending: List[Tuple[int, int, float, str, tuple]] = []
            la = self.lookahead_ms
            while True:
                nxt = None
                for worker_heads in heads:
                    for t in worker_heads:
                        if nxt is None or t < nxt:
                            nxt = t
                for entry in pending:
                    if nxt is None or entry[2] < nxt:
                        nxt = entry[2]
                if nxt is None or (until is not None and nxt > until):
                    break
                horizon = nxt + la
                # route pending posts: global order is (origin shard,
                # send order) — identical to the in-process flush
                pending.sort(key=lambda entry: entry[0])
                inboxes: List[list] = [[] for _ in range(w_count)]
                for _origin, shard, t, key, args in pending:
                    inboxes[owner[shard]].append((shard, t, key, args))
                pending = []
                for w, conn in enumerate(conns):
                    conn.send(("win", horizon, inboxes[w]))
                for w, conn in enumerate(conns):
                    msg = conn.recv()
                    if msg[0] != "ok":
                        raise EngineError(f"worker {w} failed: {msg[1]}")
                    _tag, fired, worker_heads, out = msg
                    fired_total += fired
                    heads[w] = worker_heads
                    pending.extend(out)
            payloads: dict = {}
            for w, conn in enumerate(conns):
                conn.send(("fin",))
                msg = conn.recv()
                if msg[0] != "res":
                    raise EngineError(f"worker {w} failed at harvest: {msg[1]}")
                _tag, worker_payloads, worker_nows = msg
                for shard, payload in worker_payloads:
                    payloads[shard] = payload
                for shard, t in worker_nows:
                    self._nows[shard] = t
            self._worker_payloads = payloads
            # the parent's heaps are stale copies of work the workers
            # consumed; drop them so the engine reads as quiescent
            self._heaps = [[] for _ in range(k)]
            self._events_fired += fired_total
            return fired_total
        finally:
            for conn in conns:
                conn.close()
            for proc in procs:
                proc.join(timeout=30)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()

    def harvest(self) -> List[Any]:
        if self._worker_payloads is not None:
            return [
                self._worker_payloads[s]
                for s in sorted(self._worker_payloads)
            ]
        return super().harvest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedParallelEngine shards={self.shards} "
            f"lookahead={self.lookahead_ms} pending={self.pending}>"
        )


def _worker_main(conn, engine: ShardedParallelEngine, owned: List[int],
                 until: Optional[float]) -> None:
    """A forked shard worker: drain owned shards window by window.

    Runs in the child process on a fork-inherited copy of the engine
    and all workload state; only pipe messages and harvest payloads
    cross the process boundary.
    """
    try:
        heaps = engine._heaps
        nows = engine._nows
        pop = heapq.heappop

        def _heads() -> List[float]:
            out = []
            for si in owned:
                h = heaps[si]
                _skip_cancelled(h)
                if h:
                    out.append(h[0][0])
            return out

        conn.send(("hello", _heads()))
        while True:
            msg = conn.recv()
            if msg[0] == "fin":
                if until is not None:
                    for si in owned:
                        if nows[si] < until:
                            nows[si] = until
                payloads = []
                for si in sorted(engine._harvest):
                    if si in owned:
                        payloads.append((si, engine._harvest[si]()))
                conn.send(
                    ("res", payloads, [(si, nows[si]) for si in owned])
                )
                return
            _tag, horizon, inbox = msg
            for shard, t, key, args in inbox:
                engine._deliver_post(shard, t, key, args)
            fired = 0
            engine._running = True
            try:
                for si in owned:
                    h = heaps[si]
                    if not h or h[0][0] >= horizon:
                        continue
                    engine._cur = si
                    while h:
                        head = h[0]
                        t = head[0]
                        if t >= horizon or (until is not None and t > until):
                            break
                        pop(h)
                        ev = head[4]
                        if ev is not None and ev.cancelled:
                            continue
                        nows[si] = t
                        fired += 1
                        head[2](*head[3])
            finally:
                engine._running = False
            out = engine._outbox
            engine._outbox = []
            conn.send(("ok", fired, _heads(), out))
    except BaseException:  # pragma: no cover - transported to parent
        import traceback

        try:
            conn.send(("err", traceback.format_exc()))
        except Exception:
            pass
