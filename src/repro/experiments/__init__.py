"""The paper's evaluation, declared once.

Scott's paper *is* its evaluation: the measurement tables of §3.3,
§4.3 and §5.3, figures 1–2, and the quantified protocol claims of
§3.2 / §4.2 / §2.1.  This package restates them as E1–E17 plus the
ablations A1–A5 (DESIGN.md §3), each as one frozen `Experiment` in one
registry — the style of `repro.core.ports` and `repro.sim.backends`:

* ``measure(seed, quick)`` runs the workload and returns the flat dict
  of **exact** values `python -m repro bench` writes: simulated
  quantities, counts fixed by the workload, and 0/1 flags for
  categorical outcomes (A3's safe/LOST, E16's digest matches).
  Capability-conditional counters are *absent* on kernels without the
  machinery, never zero.  Sanity checks on the workload itself
  ("every process finished") raise here.
* ``claims(metrics)`` asserts what the paper says about those values;
  it is plain ``assert`` statements over the dict, so it runs as well
  on a committed ``BENCH_*.json`` block as on a fresh measurement.
* ``table(metrics)`` is a pure view of the same dict — the
  paper-vs-measured table saved under ``benchmarks/out/``.

A figure the paper reports is stated once, in `PAPER`, and every claim
and table that compares against it reads it there.

Three consumers, no other: `repro.obs.bench.run_benches` (measure,
then claims, so a document that breaks a claim is never written),
``benchmarks/bench_tables.py`` (writes every table from a full-size
run) and tier-1's drift test (every committed table equals
``table(<committed baseline's metrics>)``).  ``quick_sized`` marks the
experiments whose population ``--quick`` shrinks; every other one has
one size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

from repro.obs.report import Table

__all__ = [
    "PAPER",
    "Experiment",
    "Metrics",
    "register_experiment",
    "registered_experiments",
    "experiment",
    "near",
    "metric_table",
    "table_text",
]

Metrics = Mapping[str, Optional[float]]

#: The paper's own figures, each stated once: the claims and tables of
#: E1, E2, E4, E5 and E7 read them here, as does
#: tests/analysis/test_calibration.py.  The two package sizes are
#: ``int``s, which a `Table` prints as ``4200``, not ``4.2e+03``.
PAPER = {
    "charlotte.raw.rpc0": 55.0,
    "charlotte.raw.rpc1000": 60.0,
    "charlotte.lynx.rpc0": 57.0,
    "charlotte.lynx.rpc1000": 65.0,
    "chrysalis.lynx.rpc0": 2.4,
    "chrysalis.lynx.rpc1000": 4.6,
    "soda.small_msg_speedup_vs_charlotte": 3.0,
    "soda.breakeven_bytes.low": 1024,
    "soda.breakeven_bytes.high": 2048,
    "charlotte.runtime.loc": 4200,  # 4000 C + 200 asm
    "chrysalis.runtime.loc": 3800,  # 3600 C + 200 asm
    "reply_ack_traffic_increase": 0.5,
    "chrysalis.tuning_improvement.low": 0.30,
    "chrysalis.tuning_improvement.high": 0.40,
}


@dataclass(frozen=True)
class Experiment:
    """One registered paper experiment (see the module docstring)."""

    id: str
    table_name: str
    paper_section: str
    measure: Callable[[int, bool], Dict[str, Optional[float]]] = field(
        repr=False)
    claims: Callable[[Metrics], None] = field(repr=False)
    table: Callable[[Metrics], Union[Table, str]] = field(repr=False)
    quick_sized: bool = False


_REGISTRY: Dict[str, Experiment] = {}


def register_experiment(exp: Experiment) -> Experiment:
    """Register an experiment; duplicate ids are a programming error."""
    if exp.id in _REGISTRY:
        raise ValueError(f"experiment {exp.id!r} already registered")
    _REGISTRY[exp.id] = exp
    return exp


def registered_experiments() -> Tuple[str, ...]:
    """Experiment ids in the paper's order: E1..E17, then A1..A5."""
    return tuple(sorted(_REGISTRY, key=lambda i: (i[0] != "E", int(i[1:]))))


def experiment(exp_id: str) -> Experiment:
    """The registered experiment; an unknown id lists the valid ones."""
    try:
        return _REGISTRY[exp_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {exp_id!r}; registered experiments: "
            f"{', '.join(registered_experiments())}"
        ) from None


def near(value: float, expected: float, rel: float) -> bool:
    """``value == pytest.approx(expected, rel=rel)`` without pytest."""
    return abs(value - expected) <= rel * abs(expected)


def metric_table(title: str, metrics: Metrics) -> Table:
    """The two-column view of an experiment whose values are contracts
    rather than a paper table (E15–E17)."""
    t = Table(title, ["metric", "value"])
    for key in sorted(metrics):
        t.add(key, metrics[key])
    return t


def table_text(table: Union[Table, str]) -> str:
    """The content of one saved ``benchmarks/out/<table_name>.txt``:
    the one rendering both the writer (``benchmarks/conftest.py``) and
    the drift test use."""
    return (table if isinstance(table, str) else table.render()) + "\n"


# registration happens on import; the order here is only the order in
# which the modules load (ids sort themselves, see above)
from repro.experiments import (  # noqa: E402,F401
    contracts,
    latency,
    moves,
    packages,
    protocol,
    queues,
)
