"""The `SimBackend` port: a backend is a row of one table.

PR 3 reified the kernel/runtime interface behind `repro.core.ports`;
this package does the same for the simulation core.  A *backend* is a
way of executing one logical discrete-event simulation.  There is one
engine class, `repro.sim.engine.Engine`, holding every scheduling
method and one ``(time, seq, fn, args, handle)`` entry layout; a
backend name selects only how many queues it has and how `Engine.run`
drains them — the distributed forms are conservative extensions of the
one-queue machine, not siblings of it.  `BACKENDS` maps each name to
the `Engine` keywords of its drain policy, and `make_engine` is the
one constructor:

* ``global`` — one queue, exact ``(time, seq)`` order.  The reference
  semantics; everything else is measured against it.
* ``sharded-serial`` — one queue per shard under one clock and one
  sequence counter, advanced by a k-way merge that always fires the
  globally minimal ``(time, seq)`` head.  By construction this is
  **bit-identical to `global` for every workload** — it is the
  determinism oracle the parallel backend is checked against — while
  already paying per-shard data structures.
* ``sharded-parallel`` — one queue, clock and sequence counter per
  shard, advanced under conservative synchronization
  (`repro.sim.backends.sharded`): all shards whose next event lies
  inside the window ``[min_head, min_head + lookahead)`` drain it
  independently, then a barrier re-computes the window.  Cross-shard
  messages (`Engine.post`) must travel at least ``lookahead_ms`` — the
  per-link latency lower bound exposed by `repro.sim.network` models as
  ``min_latency_ms`` — which is exactly what makes the windows safe
  (Chandy–Misra–Bryant conservative lookahead).  With ``workers > 1``
  the shards execute in forked OS processes exchanging messages at the
  window barriers.  The ≈1.6× on two cores in docs/PERFORMANCE.md §3.2
  is the one measurement taken when the workers landed, not re-run
  since; ROADMAP item 5 prices it.

Workloads never construct engines; they call `make_engine` (or pass
``sim_backend=`` to `repro.core.api.make_cluster`) and speak the
shard-tagged `Engine` surface (``schedule_on`` / ``defer_on`` /
``post`` / ``bind_receiver`` / ``bind_harvest``).  A direct
``Engine(...)`` would ignore the backend a caller names, and
`tests/sim/test_backends.py` fails when a cluster or the scale
workload runs on any engine but the one its ``sim_backend`` names.

Determinism contract (machine-checked by `tests/sim/test_backends.py`
and the E16 bench).  ``global`` and ``sharded-serial`` are the
*oracles*: bit-identical to the reference at any shard count.
``sharded-parallel`` is the one *parallel* backend, whose shards
advance concurrently in windows, so it promises less:

* ``sharded-serial`` is bit-identical to ``global`` at any shard count;
* ``sharded-parallel`` is bit-identical to ``global`` at ``shards=1``,
  and bit-identical across repeats (and across ``workers`` values) at
  any shard count;
* at ``shards > 1`` the parallel backend preserves exact ``(time,
  seq)`` order *within* each shard, and cross-shard arrivals are
  totally ordered by ``(arrival time, origin shard, send order)``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.sim.backends.sharded import run_windows
from repro.sim.engine import Engine

__all__ = [
    "BACKENDS",
    "registered_sim_backends",
    "make_engine",
    "DEFAULT_LOOKAHEAD_MS",
]

#: lookahead used when no `repro.sim.network` model has registered its
#: latency floor yet (the token-ring access delay, the tightest bound
#: among the paper's three interconnects)
DEFAULT_LOOKAHEAD_MS = 0.05

#: backend name -> the `Engine` keywords of its drain policy: one queue
#: in exact global ``(time, seq)`` order (shard-tagged calls are
#: accepted, the reference the others are digest-checked against), a
#: k-way min-head merge over per-shard queues, or lookahead windows
BACKENDS = {
    "global": {},
    "sharded-serial": {"sharded": True},
    "sharded-parallel": {"windows": run_windows},
}


def registered_sim_backends() -> Tuple[str, ...]:
    """Backend names, in table order."""
    return tuple(BACKENDS)


def make_engine(
    backend: str = "global",
    *,
    shards: int = 1,
    lookahead_ms: Optional[float] = None,
    workers: Optional[int] = None,
) -> Engine:
    """Build an engine of the named backend.

    ``lookahead_ms=None`` means *auto*: start from
    `DEFAULT_LOOKAHEAD_MS` and adopt the smallest latency floor any
    `repro.sim.network` model subsequently registers via
    ``note_link_floor`` — every backend starts from the same lookahead,
    so a ``post()`` that passes on one cannot fail on another.
    ``workers`` only matters to the windowed backend (``None`` →
    in-process execution).
    """
    try:
        policy = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown sim backend {backend!r}; registered backends: "
            f"{', '.join(BACKENDS)}"
        ) from None
    eng = Engine(shards=shards, workers=workers, **policy)
    eng._lookahead_auto = lookahead_ms is None
    eng.lookahead_ms = (
        DEFAULT_LOOKAHEAD_MS if lookahead_ms is None else lookahead_ms
    )
    return eng
