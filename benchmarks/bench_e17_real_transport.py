"""E17 — the real-transport backend, held to the simulator's contracts.

The repo's other benches measure a simulated kernel; this one puts
real OS sockets under the same contracts.  It drives the machine
check the ``python -m repro bench`` E17 entry gates on —
`repro.obs.bench.bench_e17` — and renders both halves as a table:

  - **simulated**: the RPC workload on the registered ``real-asyncio``
    backend (the ideal kernel delivering each message's copy out of
    the node processes' frame codec; no socket); its shape must be
    bit-identical to the ``ideal`` backend's.
  - **real**: real node processes under `repro.net.supervisor`,
    driven by the `repro.net.load` generator with wall-clock
    `RecoveryPolicy` retry/backoff; forced retries must be absorbed
    as server-side duplicates (exactly-once), and a hard-killed
    primary must turn into one failover per client.

Every reported value is exact: the ``net_sim_*`` half is simulated,
and each ``net_meas_*`` count is fixed by the checks above.  Real-socket
RTT and throughput are the repo benchmark's ``net.load.*`` rows
(perf/README.md).  On hosts that cannot run node processes the whole
suite skips with the reason.
"""

import pytest

from repro.analysis.report import Table
from repro.obs.bench import bench_e17

SEED = 0


@pytest.mark.benchmark(group="e17")
def test_e17_real_transport_contracts(benchmark, save_table):
    result = {}

    def run():
        # bench_e17 raises AssertionError itself when exactly-once,
        # failover accounting, or the report contract breaks
        result.update(bench_e17(seed=SEED, quick=False))
        return result

    benchmark.pedantic(run, rounds=1, iterations=1)
    if result["net_available"] != 1.0:
        pytest.skip("this host forbids sockets/subprocesses")

    t = Table(
        f"E17: real transport under the simulator's contracts "
        f"({result['net_meas_clients']:.0f} clients, seed {SEED})",
        ["metric", "value"],
    )
    for key in sorted(result):
        t.add(key, result[key])
    save_table("e17_real_transport", t)

    # the gates bench_e17 enforces, restated for the bench log
    assert result["net_exactly_once"] == 1.0
    assert result["net_sim_rtt_ms"] == result["net_sim_ideal_rtt_ms"]
    assert result["net_meas_clients"] >= 1000
    assert result["net_meas_completed"] == result["net_meas_ops"]
    assert result["net_meas_failovers"] == result["net_meas_clients"]


@pytest.mark.benchmark(group="e17")
def test_e17_is_seed_deterministic(benchmark):
    """Retry counts and RTTs vary with the host and are not reported;
    what is reported may not."""
    runs = []

    def run():
        runs.append(bench_e17(seed=SEED, quick=True))
        return runs

    benchmark.pedantic(run, rounds=1, iterations=1)
    if runs[0]["net_available"] != 1.0:
        pytest.skip("this host forbids sockets/subprocesses")
    assert bench_e17(seed=SEED, quick=True) == runs[0]
