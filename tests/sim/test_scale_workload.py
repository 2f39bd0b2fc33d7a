"""The E16 scale workload and its cross-shard edge cases.

The determinism contract under test: `repro.workloads.scale.run_scale`
produces the same digest on every registered backend for the same
parameters — including the three scenarios most likely to break a
conservatively synchronized engine:

* a fault-plan partition window that **spans a lookahead barrier**
  (drops + retries straddling the window boundary);
* `TimerWheel` deadlines landing **exactly on a barrier** (the horizon
  comparison is strict, so a deadline at ``k * lookahead`` must fall
  in the window after the barrier, on every backend);
* link migration (``moves``) pointing one shard's remote clients at a
  server **on a different shard** mid-run.
"""

import pytest

from repro.core.recovery import TimerWheel
from repro.sim.backends import make_engine, registered_sim_backends
from repro.workloads.scale import ScaleResult, run_scale

SHARDED = ("sharded-serial", "sharded-parallel")
BASE = dict(clients=64, requests=3, seed=11)


# ----------------------------------------------------------------------
# the clean digest matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", (1, 4))
def test_clean_digest_matrix_across_all_backends(shards):
    runs = {
        backend: run_scale(backend, shards, **BASE)
        for backend in registered_sim_backends()
    }
    ref = runs["global"]
    assert isinstance(ref, ScaleResult)
    assert ref.completed == BASE["clients"] * BASE["requests"]
    for backend, r in runs.items():
        assert r.digest == ref.digest, backend
        assert r.events == ref.events, backend
        assert r.metrics.snapshot() == ref.metrics.snapshot(), backend


def test_merged_timeseries_is_identical_across_backends():
    """Per-shard windowed series, merged (`TimeSeries.merged`), render
    the same on every backend — what `repro top --scenario scale`
    shows cannot depend on the engine."""
    snaps = {}
    for backend in registered_sim_backends():
        r = run_scale(backend, 4, window_ms=1.0, **BASE)
        assert r.timeseries is not None
        assert len(r.timeseries) > 1
        snaps[backend] = r.timeseries.snapshot()
    ref = snaps["global"]
    for backend, snap in snaps.items():
        assert snap == ref, backend


def test_rtt_metrics_are_exact_across_backends():
    ref = run_scale("global", 4, **BASE)
    rtt_ref = ref.metrics.latency("scale.rtt")
    for backend in SHARDED:
        rtt = run_scale(backend, 4, **BASE).metrics.latency("scale.rtt")
        assert rtt.count == rtt_ref.count
        assert rtt.mean == rtt_ref.mean
        assert rtt.percentile(99.0) == rtt_ref.percentile(99.0)


# ----------------------------------------------------------------------
# edge case 1: a partition window spanning a lookahead barrier
# ----------------------------------------------------------------------
def test_partition_window_spanning_a_barrier_stays_bit_identical():
    # lookahead is 0.25 ms, so barriers fall roughly every 0.25 ms of
    # simulated time; the window (0.9, 1.6) straddles several of them
    # and the 1.0 ms retry timeout re-issues *inside* the window too
    kw = dict(partition=(0.9, 1.6), retry_timeout_ms=1.0)
    ref = run_scale("global", 4, **BASE, **kw)
    assert ref.metrics.get("scale.dropped") > 0
    assert ref.metrics.get("scale.retries") > 0
    # dropped requests were retried to completion after the window
    assert ref.completed == BASE["clients"] * BASE["requests"]
    for backend in SHARDED:
        got = run_scale(backend, 4, **BASE, **kw)
        assert got.digest == ref.digest, backend
        assert got.events == ref.events, backend


# ----------------------------------------------------------------------
# edge case 2: TimerWheel deadlines exactly on a barrier
# ----------------------------------------------------------------------
def _wheel_on_barrier(backend):
    """Per-shard timer wheels with deadlines at exact multiples of the
    lookahead — the retry-timeout pattern, pinned to the barrier grid."""
    lookahead = 0.5
    eng = make_engine(backend, shards=2, lookahead_ms=lookahead)
    log = []

    def setup(shard):
        wheel = TimerWheel(eng)
        for k in (1, 2, 3):
            # deadline exactly on barrier k: now is 0, delay = k * la
            wheel.schedule(k * lookahead, log.append,
                           (shard, round(eng.shard_now(shard), 9), k))
        # the k=2 timer is cancelled just before its deadline, like a
        # retry timer whose reply arrived in the nick of time
        doomed = wheel.schedule(2 * lookahead, log.append, (shard, "never"))
        eng.defer(2 * lookahead - 0.1, doomed.cancel)

    for shard in (0, 1):
        eng.defer_on(shard, 0.0, setup, shard)
    fired = eng.run()
    return fired, sorted(log)


def test_timer_wheel_deadline_exactly_on_a_barrier():
    ref = _wheel_on_barrier("global")
    assert ref[1], "wheel timers must actually fire"
    assert all(entry[1] != "never" for entry in ref[1])
    for backend in SHARDED:
        assert _wheel_on_barrier(backend) == ref, backend


def test_retry_deadline_on_barrier_inside_the_scale_workload():
    # retry_timeout_ms equal to a multiple of the 0.25 ms lookahead
    # puts every retry deadline exactly on the barrier grid
    kw = dict(partition=(0.5, 1.0), retry_timeout_ms=0.75)
    ref = run_scale("global", 4, **BASE, **kw)
    assert ref.metrics.get("scale.retries") > 0
    for backend in SHARDED:
        got = run_scale(backend, 4, **BASE, **kw)
        assert got.digest == ref.digest, backend


# ----------------------------------------------------------------------
# edge case 3: link migration across shards
# ----------------------------------------------------------------------
def test_cross_shard_moves_stay_bit_identical():
    # shard 0's remote clients migrate to a server on shard 2 at 2 ms,
    # shard 1's to shard 3 at 3 ms — both endpoints change shards
    kw = dict(moves=[(2.0, 0, 2), (3.0, 1, 3)])
    ref = run_scale("global", 4, **BASE, **kw)
    assert ref.metrics.get("scale.moves") == 2
    assert ref.metrics.get("scale.served_remote") > 0
    for backend in SHARDED:
        got = run_scale(backend, 4, **BASE, **kw)
        assert got.digest == ref.digest, backend
        assert got.metrics.get("scale.moves") == 2, backend


def test_all_three_faults_together_stay_bit_identical():
    kw = dict(partition=(0.9, 1.6), retry_timeout_ms=0.75,
              moves=[(2.0, 0, 2)])
    ref = run_scale("global", 4, **BASE, **kw)
    assert ref.metrics.get("scale.dropped") > 0
    assert ref.metrics.get("scale.moves") == 1
    # and in forked workers, where module state one shard's worker
    # writes is invisible to the others' (the digest shows it)
    for backend, workers in [(b, None) for b in SHARDED] + [
        ("sharded-parallel", 2)
    ]:
        got = run_scale(backend, 4, workers=workers, **BASE, **kw)
        assert got.digest == ref.digest, (backend, workers)
