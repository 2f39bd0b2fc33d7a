"""Regenerate every saved experiment table from a full-size run.

One case per experiment registered in `repro.experiments`:
`repro.obs.bench.run_benches` measures it at the committed baseline's
seed and holds it to its claims, then ``table(metrics)`` is written to
``benchmarks/out/<table_name>.{txt,json}``.  On an unchanged tree this
rewrites every file byte for byte (``git diff benchmarks/out`` stays
empty) — the tables are views of the same values
``python -m repro bench`` writes, and tier-1 holds each committed table
equal to ``table(<committed baseline's block>)`` without running
anything (tests/obs/test_experiments.py).
"""

import pytest

from repro.experiments import experiment, registered_experiments
from repro.obs.bench import run_benches


@pytest.mark.parametrize("bench_id", registered_experiments())
def test_table_regenerates(bench_id, save_table):
    metrics = run_benches([bench_id])[bench_id]
    if metrics.get("net_available") == 0.0:
        pytest.skip("this host forbids sockets/subprocesses")
    exp = experiment(bench_id)
    save_table(exp.table_name, exp.table(metrics))
