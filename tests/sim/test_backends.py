"""The `SimBackend` port contract (`repro.sim.backends`).

Three families of checks:

* **table** — names resolve, unknown names fail with the table's
  names in the message;
* **determinism** — the oracle chain: `sharded-serial` is bit-identical
  to `global` for every workload at any shard count, `sharded-parallel`
  matches at one shard, repeats and worker counts never change a
  digest;
* **conservative-window safety** — cross-shard work must travel
  through lookahead-bounded `post`, and the engine refuses the calls
  that would break the windows.
"""

import pytest

from repro.sim.backends import (
    DEFAULT_LOOKAHEAD_MS,
    make_engine,
    registered_sim_backends,
)
from repro.sim.engine import EngineError

ALL = ("global", "sharded-serial", "sharded-parallel")
SHARDED = ("sharded-serial", "sharded-parallel")


# ----------------------------------------------------------------------
# table
# ----------------------------------------------------------------------
def test_registry_lists_the_three_backends_in_order():
    assert registered_sim_backends() == ALL


def test_unknown_backend_error_names_the_registered_ones():
    with pytest.raises(ValueError) as exc:
        make_engine("turbo")
    msg = str(exc.value)
    assert "turbo" in msg
    for name in ALL:
        assert name in msg


@pytest.mark.parametrize("backend", ALL)
def test_shard_count_must_be_positive(backend):
    with pytest.raises(EngineError):
        make_engine(backend, shards=0)


@pytest.mark.parametrize("backend", ALL)
def test_engines_report_their_shard_count(backend):
    eng = make_engine(backend, shards=4)
    assert eng.shards == 4
    assert eng.shard_now(3) == 0.0
    with pytest.raises(EngineError):
        eng.shard_now(4)


# ----------------------------------------------------------------------
# determinism: the oracle chain
# ----------------------------------------------------------------------
def _legacy_workload(eng):
    """An untagged workload: schedule chains, cancellations, zero
    delays — everything a cluster does, no shard tags anywhere."""
    log = []

    def tick(i):
        log.append((round(eng.now, 9), "tick", i))
        if i < 8:
            eng.schedule(0.7 * ((i * 5) % 3 + 1), tick, i + 1)
        if i == 2:
            doomed = eng.schedule(50.0, log.append, "never")
            eng.schedule(0.0, doomed.cancel)
        if i == 4:
            eng.defer(0.0, log.append, (round(eng.now, 9), "deferred"))

    for j in range(5):
        eng.schedule((j * 3) % 7 + 0.5, tick, 0)
    fired = eng.run()
    return fired, log


@pytest.mark.parametrize("backend", SHARDED)
@pytest.mark.parametrize("shards", (1, 4))
def test_legacy_untagged_workloads_match_global_exactly(backend, shards):
    ref_fired, ref_log = _legacy_workload(make_engine("global"))
    fired, log = _legacy_workload(make_engine(backend, shards=shards))
    assert (fired, log) == (ref_fired, ref_log)


@pytest.mark.parametrize("shards", (1, 2, 3, 8))
def test_serial_oracle_matches_global_at_any_shard_count(shards):
    from repro.workloads.scale import run_scale

    ref = run_scale("global", shards, clients=48, requests=2, seed=3)
    got = run_scale("sharded-serial", shards, clients=48, requests=2, seed=3)
    assert got.digest == ref.digest
    assert got.events == ref.events


def test_parallel_matches_global_at_one_shard():
    from repro.workloads.scale import run_scale

    ref = run_scale("global", 1, clients=48, requests=2, seed=3)
    got = run_scale("sharded-parallel", 1, clients=48, requests=2, seed=3)
    assert got.digest == ref.digest
    assert got.events == ref.events


def test_parallel_repeats_are_bit_identical():
    from repro.workloads.scale import run_scale

    runs = [
        run_scale("sharded-parallel", 8, clients=64, requests=2, seed=5)
        for _ in range(2)
    ]
    assert runs[0].digest == runs[1].digest
    assert runs[0].events == runs[1].events


def test_forked_workers_match_the_in_process_loop():
    from repro.workloads.scale import run_scale

    inproc = run_scale("sharded-parallel", 4, clients=48, requests=2, seed=7)
    forked = run_scale("sharded-parallel", 4, clients=48, requests=2, seed=7,
                       workers=2)
    assert forked.digest == inproc.digest
    assert forked.events == inproc.events
    # harvest payloads made it back across the process boundary
    assert forked.completed == inproc.completed
    assert forked.sim_ms == inproc.sim_ms

    def clocks(workers, until):
        eng = make_engine("sharded-parallel", shards=4, lookahead_ms=0.5,
                          workers=workers)
        for s in range(4):
            eng.defer_on(s, s + 1.0, int)
        eng.run(until=until)
        return [eng.shard_now(s) for s in range(4)]

    # the queues emptied inside the bound: every clock stays at its
    # shard's last event — in the workers too
    assert clocks(2, 100.0) == clocks(None, 100.0) == [1.0, 2.0, 3.0, 4.0]
    # a pending event lies beyond it: every clock advances to the bound
    assert clocks(2, 2.5) == clocks(None, 2.5) == [2.5] * 4


# ----------------------------------------------------------------------
# conservative-window safety
# ----------------------------------------------------------------------
def test_parallel_rejects_cross_shard_scheduling_mid_run():
    eng = make_engine("sharded-parallel", shards=2, lookahead_ms=0.5)
    errors = []

    def hop():
        try:
            eng.schedule_on(1, 0.1, lambda: None)
        except EngineError as exc:
            errors.append(str(exc))

    eng.schedule_on(0, 1.0, hop)
    eng.run()
    assert errors and "post()" in errors[0]


@pytest.mark.parametrize("backend", ALL)
def test_post_enforces_the_lookahead_bound(backend):
    eng = make_engine(backend, shards=2, lookahead_ms=0.5)
    eng.bind_receiver(1, lambda key: None)
    with pytest.raises(EngineError):
        eng.post(1, 0.25, "too-fast")
    eng.post(1, 0.5, "ok")
    assert eng.run() == 1


def test_post_without_receiver_is_an_error():
    eng = make_engine("sharded-serial", shards=2)
    with pytest.raises(EngineError):
        eng.post(1, 1.0, "nobody-home")


def test_parallel_step_is_refused():
    eng = make_engine("sharded-parallel", shards=2, lookahead_ms=0.5)
    with pytest.raises(EngineError):
        eng.step()


def test_parallel_with_zero_lookahead_refuses_to_run():
    eng = make_engine("sharded-parallel", shards=2, lookahead_ms=0.0)
    eng.schedule_on(0, 1.0, lambda: None)
    with pytest.raises(EngineError):
        eng.run()


def test_clusters_and_the_scale_workload_run_on_the_backend_they_name():
    """``sim_backend=`` builds the engine it names: every kernel's
    cluster on the parallel backend refuses `step` as that backend
    does, and the scale workload on it refuses a zero lookahead."""
    from repro.core.api import make_cluster, registered_kernels
    from repro.workloads.scale import run_scale

    for kind in registered_kernels():
        cluster = make_cluster(kind, sim_backend="sharded-parallel", shards=2)
        with pytest.raises(EngineError, match="lookahead windows"):
            cluster.engine.step()
    with pytest.raises(EngineError, match="positive lookahead_ms"):
        run_scale("sharded-parallel", 4, clients=8, requests=1,
                  lookahead_ms=0.0)


# ----------------------------------------------------------------------
# lookahead adoption from the network layer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ALL)
def test_note_link_floor_adopts_the_smallest_floor(backend):
    eng = make_engine(backend, shards=2)
    assert eng.lookahead_ms == DEFAULT_LOOKAHEAD_MS
    eng.note_link_floor(0.2)
    assert eng.lookahead_ms == 0.2
    eng.note_link_floor(0.04)
    assert eng.lookahead_ms == 0.04
    eng.note_link_floor(1.0)  # larger: ignored
    assert eng.lookahead_ms == 0.04
    eng.note_link_floor(0.0)  # non-positive: ignored
    assert eng.lookahead_ms == 0.04


@pytest.mark.parametrize("backend", ALL)
def test_explicit_lookahead_is_never_overridden(backend):
    eng = make_engine(backend, shards=2, lookahead_ms=0.5)
    eng.note_link_floor(0.05)
    assert eng.lookahead_ms == 0.5


def test_network_models_register_their_floors():
    from repro.sim.metrics import MetricSet
    from repro.sim.network import TokenRing
    from repro.sim.rng import SimRandom

    eng = make_engine("sharded-serial", shards=2)
    TokenRing(eng, metrics=MetricSet(), rng=SimRandom(0, "ring"))
    assert eng.link_floor_ms > 0.0
    assert eng.lookahead_ms == eng.link_floor_ms


# ----------------------------------------------------------------------
# run() stop conditions on the sharded queues (regression: the general
# engine loop used to read the global heap directly, so until= /
# max_events= runs — run_until_quiet — fired nothing on the oracle)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ALL)
def test_run_until_stops_the_clock_at_the_bound(backend):
    eng = make_engine(backend, shards=1)
    log = []
    for t in (1.0, 2.0, 7.0):
        eng.schedule(t, log.append, t)
    fired = eng.run(until=3.0)
    assert fired == 2
    assert log == [1.0, 2.0]
    assert eng.now == 3.0
    assert eng.run() == 1


def test_serial_run_honors_max_events():
    eng = make_engine("sharded-serial", shards=2)
    log = []
    for i in range(6):
        eng.schedule_on(i % 2, float(i + 1), log.append, i)
    assert eng.run(max_events=4) == 4
    assert log == [0, 1, 2, 3]
    assert eng.run() == 2


@pytest.mark.parametrize("backend", SHARDED)
def test_cancellation_works_on_sharded_queues(backend):
    eng = make_engine(backend, shards=2, lookahead_ms=0.5)
    log = []
    keep = eng.schedule_on(0, 1.0, log.append, "keep")
    drop = eng.schedule_on(1, 1.0, log.append, "drop")
    drop.cancel()
    assert keep is not drop
    fired = eng.run()
    assert log == ["keep"]
    assert fired == 1
    assert eng.pending == 0


@pytest.mark.parametrize("backend", SHARDED)
def test_untagged_scheduling_is_back_on_shard_zero_after_a_run(backend):
    eng = make_engine(backend, shards=3, lookahead_ms=0.5)
    eng.defer_on(0, 1.0, int)
    eng.defer_on(2, 2.0, int)
    assert eng.run() == 2
    # the last shard to dispatch was 2; outside a run it is 0 again
    assert eng.now == eng.shard_now(0)
    seen = []
    eng.defer(1.0, lambda: seen.append(eng.now))
    assert [len(h) for h in eng._heaps] == [1, 0, 0]
    assert eng.run() == 1
    assert seen == [eng.shard_now(0)]


def test_harvest_returns_payloads_in_shard_order():
    eng = make_engine("sharded-serial", shards=3)
    for s in (2, 0, 1):
        eng.bind_harvest(s, lambda s=s: {"shard": s})
    assert [p["shard"] for p in eng.harvest()] == [0, 1, 2]
