"""The ``sharded-parallel`` drain policy: conservative lookahead windows.

`repro.sim.engine.Engine` holds the queues — one ``(time, seq, fn,
args, handle)`` heap, clock and sequence counter per shard under this
policy — and every scheduling method; this module is only *how those
queues drain* (Chandy–Misra–Bryant conservative synchronization) and
the protocol that drains them in forked workers.

Each round computes ``horizon = min(head times) + lookahead_ms`` and
lets every shard fire its own entries, in exact local ``(time, seq)``
order, up to (but excluding) the horizon.  Safety: a cross-shard `post`
sent at time *t* arrives no earlier than ``t + lookahead_ms >=
horizon``, i.e. always outside the current window, so no shard ever
receives work in its past.  Cross-shard posts wait in the engine's
outbox and are flushed at the window barrier in ``(origin shard, send
order)``, keeping sequence assignment identical whether shards run
in-process or in forked workers.

`run_windows` is the policy `Engine.run` calls; `drain_window` is the
one loop that fires events — for every in-process run, bounded or not,
and inside every forked worker.

With ``workers > 1`` the shards are partitioned round-robin over
forked OS processes (`multiprocessing`, fork start method).  The
parent coordinates windows over pipes: each round it sends every
worker the horizon plus its inbox of routed posts, and receives the
fired count, the new head times, and the outbox.  Workers harvest
per-shard results (`Engine.bind_harvest`) before exiting — the only
state that returns to the parent besides the shard clocks.  The window
sequence, post routing order and per-shard sequence numbers are
identical to the in-process loop, so same-seed digests, event counts
and clocks are bit-identical across ``workers`` settings (test-pinned).
When the workers landed, ``workers=2`` ran the 50k-client, 8-shard
scale workload ≈1.6× faster than in-process on a 2-core host
(docs/PERFORMANCE.md §3.2).  Nothing has re-measured that since — a
later scratch run read ×0.70–0.88 — and ROADMAP item 5 prices it.
"""

from __future__ import annotations

import math
from heapq import heappop
from typing import Iterable, List, Optional, Tuple

from repro.sim.engine import Engine, EngineError, _skip_cancelled


def run_windows(
    eng: Engine, until: Optional[float], max_events: Optional[int]
) -> int:
    """`Engine.run` under the window policy."""
    k = eng.shards
    if k > 1 and eng.lookahead_ms <= 0.0:
        raise EngineError(
            "sharded-parallel with more than one shard needs a "
            "positive lookahead_ms (no network model registered a "
            "latency floor?)"
        )
    if eng.workers is not None and eng.workers > 1 and k > 1:
        if max_events is not None:
            raise EngineError("max_events is not supported with forked workers")
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            return _run_forked(eng, multiprocessing.get_context("fork"), until)
        # no fork on this platform: the loop below computes the
        # identical window sequence (digest parity is pinned)
    # one shard has no barriers: a single window reaches the bound
    lookahead = eng.lookahead_ms if k > 1 else math.inf
    budget = -1 if max_events is None else max(max_events, 0)
    fired = 0
    try:
        while fired != budget:
            _flush_outbox(eng)
            nxt = eng._peek_time()
            if nxt is None:
                break
            if until is not None and nxt > until:
                _stop_at(eng, until)
                break
            fired += drain_window(
                eng, range(k), nxt + lookahead, until, budget - fired
            )
    finally:
        _flush_outbox(eng)
    return fired


def drain_window(
    eng: Engine,
    shards: Iterable[int],
    horizon: float,
    until: Optional[float],
    budget: int,
) -> int:
    """Fire, shard by shard in exact local ``(time, seq)`` order, every
    entry of ``shards`` that lies before ``horizon`` and not beyond
    ``until`` — at most ``budget`` of them (negative: no limit).
    Returns the number fired; `Engine.events_fired` is kept even when a
    callback raises."""
    heaps = eng._heaps
    pop = heappop
    # `until` is inclusive, the horizon is not: one exclusive bound
    limit = horizon
    if until is not None:
        limit = min(horizon, math.nextafter(until, math.inf))
    fired = 0
    try:
        for shard in shards:
            h = heaps[shard]
            if not h or h[0][0] >= limit:
                continue
            eng._enter(shard)
            while h and fired != budget:
                head = h[0]
                t = head[0]
                if t >= limit:
                    break
                pop(h)
                ev = head[4]
                if ev is not None and ev.cancelled:
                    continue
                eng.now = t
                fired += 1
                head[2](*head[3])
    finally:
        eng._events_fired += fired
    return fired


def _flush_outbox(eng: Engine) -> None:
    """The window barrier: deliver the posts buffered since the last
    one, in ``(origin shard, send order)``."""
    out = eng._outbox
    if out:
        eng._outbox = []
        for _origin, shard, t, key, args in out:
            eng._deliver(shard, t, key, args)


def _stop_at(eng: Engine, until: float) -> None:
    """A pending event lies beyond ``until``: every shard's clock
    advances to it (`Engine.run`'s rule)."""
    eng.now = max(eng.now, until)
    eng._nows = [max(t, until) for t in eng._nows]


# ----------------------------------------------------------------------
# forked workers
# ----------------------------------------------------------------------
def _run_forked(eng: Engine, ctx, until: Optional[float]) -> int:
    """`run_windows` with the shards dealt round-robin over forked
    workers: the parent computes each horizon and routes the posts,
    the workers call `drain_window`."""
    k = eng.shards
    w_count = min(eng.workers, k)
    owner = [s % w_count for s in range(k)]
    conns = []
    procs = []
    try:
        for w in range(w_count):
            parent_conn, child_conn = ctx.Pipe()
            owned = [s for s in range(k) if owner[s] == w]
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, eng, owned, until),
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
        while True:
            nxt = min(
                [t for worker_heads in heads for t in worker_heads]
                + [entry[2] for entry in pending],
                default=None,
            )
            # a stop on a pending event beyond `until` moves the clocks
            beyond = until is not None and nxt is not None and nxt > until
            if nxt is None or beyond:
                break
            # route pending posts: global order is (origin shard,
            # send order) — identical to the in-process flush
            pending.sort(key=lambda entry: entry[0])
            inboxes: List[list] = [[] for _ in range(w_count)]
            for _origin, shard, t, key, args in pending:
                inboxes[owner[shard]].append((shard, t, key, args))
            pending = []
            for w, conn in enumerate(conns):
                conn.send(("win", nxt + eng.lookahead_ms, inboxes[w]))
            for w, conn in enumerate(conns):
                msg = conn.recv()
                if msg[0] != "ok":
                    raise EngineError(f"worker {w} failed: {msg[1]}")
                _tag, fired, worker_heads, out = msg
                fired_total += fired
                heads[w] = worker_heads
                pending.extend(out)
        for w, conn in enumerate(conns):
            conn.send(("fin", beyond))
            msg = conn.recv()
            if msg[0] != "res":
                raise EngineError(f"worker {w} failed at harvest: {msg[1]}")
            _tag, payloads, clocks = msg
            for shard, payload in payloads:
                # the extractor already ran, in the worker
                eng._harvest[shard] = lambda payload=payload: payload
            for shard, t in clocks:
                eng._nows[shard] = t
        eng.now = eng._nows[eng._cur]
        # the parent's queues are stale copies of work the workers
        # consumed; empty them so the engine reads as quiescent
        for h in eng._heaps:
            h.clear()
        eng._events_fired += fired_total
        return fired_total
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()


def _heads(eng: Engine, owned: List[int]) -> List[float]:
    """Head times of the non-empty queues among ``owned``."""
    out = []
    for shard in owned:
        h = eng._heaps[shard]
        _skip_cancelled(h)
        if h:
            out.append(h[0][0])
    return out


def _worker_main(conn, eng: Engine, owned: List[int],
                 until: Optional[float]) -> None:
    """A forked shard worker: drain owned shards window by window.

    Runs in the child process on a fork-inherited copy of the engine
    (mid-`Engine.run`, so posts to other shards buffer in its outbox)
    and all workload state; only pipe messages and harvest payloads
    cross the process boundary.
    """
    try:
        conn.send(("hello", _heads(eng, owned)))
        while True:
            msg = conn.recv()
            if msg[0] == "fin":
                if msg[1]:
                    _stop_at(eng, until)
                payloads = [
                    (shard, eng._harvest[shard]())
                    for shard in owned if shard in eng._harvest
                ]
                clocks = [(shard, eng.shard_now(shard)) for shard in owned]
                conn.send(("res", payloads, clocks))
                return
            _tag, horizon, inbox = msg
            for shard, t, key, args in inbox:
                eng._deliver(shard, t, key, args)
            fired = drain_window(eng, owned, horizon, until, -1)
            out = eng._outbox
            eng._outbox = []
            conn.send(("ok", fired, _heads(eng, owned), out))
    except BaseException:  # pragma: no cover - transported to parent
        import traceback

        try:
            conn.send(("err", traceback.format_exc()))
        except Exception:
            pass
