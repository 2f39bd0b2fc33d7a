"""The `SimBackend` port: engines behind a registry.

PR 3 reified the kernel/runtime interface behind `repro.core.ports`;
this package does the same for the simulation core.  A *backend* is a
way of executing one logical discrete-event simulation.  There is one
engine class, `repro.sim.engine.Engine`, holding every scheduling
method and one ``(time, seq, fn, args, handle)`` entry layout; a
backend name selects only how many queues it has and how `Engine.run`
drains them — the distributed forms are conservative extensions of the
one-queue machine, not siblings of it:

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
and the E16 bench):

* ``sharded-serial`` is bit-identical to ``global`` at any shard count;
* ``sharded-parallel`` is bit-identical to ``global`` at ``shards=1``,
  and bit-identical across repeats (and across ``workers`` values) at
  any shard count;
* at ``shards > 1`` the parallel backend preserves exact ``(time,
  seq)`` order *within* each shard, and cross-shard arrivals are
  totally ordered by ``(arrival time, origin shard, send order)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

__all__ = [
    "SimBackendProfile",
    "register_sim_backend",
    "registered_sim_backends",
    "sim_backend_profile",
    "sim_backend_profiles",
    "make_engine",
    "DEFAULT_LOOKAHEAD_MS",
]

#: lookahead used when no `repro.sim.network` model has registered its
#: latency floor yet (the token-ring access delay, the tightest bound
#: among the paper's three interconnects)
DEFAULT_LOOKAHEAD_MS = 0.05


@dataclass(frozen=True)
class SimBackendProfile:
    """A registered way of executing the simulation.

    ``factory(shards, lookahead_ms, workers)`` returns a
    `repro.sim.engine.Engine` with this backend's queues and policy.
    ``parallel`` declares whether shards advance concurrently (windowed
    execution); ``oracle`` declares the bit-identical-to-``global``
    guarantee at any shard count.
    """

    name: str
    title: str
    parallel: bool
    oracle: bool
    factory: Callable[..., Any] = field(repr=False)
    summary: str = ""


_REGISTRY: dict[str, SimBackendProfile] = {}


def register_sim_backend(profile: SimBackendProfile) -> SimBackendProfile:
    """Register a backend; duplicate names are a programming error."""
    if profile.name in _REGISTRY:
        raise ValueError(f"sim backend {profile.name!r} already registered")
    _REGISTRY[profile.name] = profile
    return profile


def registered_sim_backends() -> Tuple[str, ...]:
    """Backend names, in registration order."""
    return tuple(_REGISTRY)


def sim_backend_profile(name: str) -> SimBackendProfile:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown sim backend {name!r}; registered backends: "
            f"{', '.join(registered_sim_backends())}"
        ) from None


def sim_backend_profiles() -> Tuple[SimBackendProfile, ...]:
    return tuple(_REGISTRY.values())


def make_engine(
    backend: str = "global",
    *,
    shards: int = 1,
    lookahead_ms: Optional[float] = None,
    workers: Optional[int] = None,
):
    """Build an engine through the registry.

    ``lookahead_ms=None`` means *auto*: start from
    `DEFAULT_LOOKAHEAD_MS` and adopt the smallest latency floor any
    `repro.sim.network` model subsequently registers via
    ``note_link_floor``.  ``workers`` only matters to parallel
    backends (``None`` → in-process execution).
    """
    return sim_backend_profile(backend).factory(
        shards=shards, lookahead_ms=lookahead_ms, workers=workers,
    )


# ----------------------------------------------------------------------
# the three shipped backends: one engine class, three ways to drain it
# ----------------------------------------------------------------------
def _engine(shards, lookahead_ms, **policy):
    from repro.sim.engine import Engine

    eng = Engine(shards=shards, **policy)
    # None is *auto*: every backend starts from the same lookahead, so
    # a post() that passes on one cannot fail on another, and adopts
    # the link floor from there
    eng._lookahead_auto = lookahead_ms is None
    eng.lookahead_ms = (
        DEFAULT_LOOKAHEAD_MS if lookahead_ms is None else lookahead_ms
    )
    return eng


def _global_factory(shards=1, lookahead_ms=None, workers=None):
    # logical shards on one queue: shard-tagged calls are accepted and
    # executed in exact global (time, seq) order — the reference
    # semantics the sharded backends are digest-checked against
    return _engine(shards, lookahead_ms)


def _serial_factory(shards=1, lookahead_ms=None, workers=None):
    return _engine(shards, lookahead_ms, sharded=True)


def _parallel_factory(shards=1, lookahead_ms=None, workers=None):
    from repro.sim.backends.sharded import run_windows

    return _engine(
        shards, lookahead_ms, windows=run_windows, workers=workers
    )


register_sim_backend(SimBackendProfile(
    name="global",
    title="single global event heap",
    parallel=False,
    oracle=True,
    factory=_global_factory,
    summary="the reference engine: one heap, exact (time, seq) order",
))

register_sim_backend(SimBackendProfile(
    name="sharded-serial",
    title="per-shard queues, serial global-order merge",
    parallel=False,
    oracle=True,
    factory=_serial_factory,
    summary="k-way min-head merge over per-shard queues; the "
            "determinism oracle, bit-identical to global",
))

register_sim_backend(SimBackendProfile(
    name="sharded-parallel",
    title="per-shard queues, conservative lookahead windows",
    parallel=True,
    oracle=False,
    factory=_parallel_factory,
    summary="shards drain lookahead windows independently; optional "
            "forked workers exchange cross-shard posts at barriers",
))
