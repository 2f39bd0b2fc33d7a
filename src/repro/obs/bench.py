"""The unified benchmark runner behind ``python -m repro bench``.

Runs every experiment registered in `repro.experiments` — the paper's
E1–E12 and ablations A1–A5, plus E13–E17 (critical-path attribution,
fault recovery, and the telemetry / engine / real-transport contracts)
— and writes one machine-readable ``BENCH_*.json`` so the trajectory of
the repository is tracked across PRs.  This module is only the runner
and the envelope: what an experiment measures, what the paper claims
about it and how its table looks are declared once, in the registry.
For each selected id the runner calls ``measure`` and then ``claims``,
so a document that breaks a paper claim cannot be written::

    {"schema": "repro.bench", "schema_version": 9,
     "seed": 0, "git_rev": "<rev|unknown>",
     "timestamp": "<UTC ISO-8601>", "quick": false,
     "benches": {bench_id: {metric: value}}}

Every value in ``benches`` is **exact**: a simulated quantity, a count
fixed by the workload, or a machine-checked contract flag — two runs
of one commit with one seed write identical ``benches``, which is what
lets ``bench --compare`` (`repro.obs.compare`) gate on equality.  Host
time is not measured here; it belongs to the repo benchmark
(``perf/``, BENCHMARK.json), which repeats every wall number in fresh
pinned processes and reports its spread.

``schema_version`` history: 3 = the ``ideal`` backend joined
every per-kernel metric family; 4 = the E14 fault-recovery bench
joined ``benches``; 5 = the E15 observability bench joined
``benches`` and latency percentiles became streaming-histogram
derived (`repro.obs.hist`); 6 = the E16 sharded-engine scaling bench
joined ``benches``; 7 = the E17 real-transport bench joined
``benches`` and the ``real-asyncio`` backend joined the per-kernel
metric families (E17's keys are ``None`` on hosts that cannot run
node processes, so the document schema never varies); 8 = every
wall-clock metric left the document (the S1 bench whole, E15's and
E16's events/sec and overhead ratios, E17's measured RTTs,
throughput and retry counts) and E1/E4/E5/E13/E14 run at one size;
9 = the fourteen experiments that had only a pytest module (E2, E3,
E6–E12, A1–A5) joined ``benches``, and every block is held to its
registered claims before it is written.

``--quick`` sizes only the benches in `QUICK_SIZED` (the E16 and E17
populations); every other bench runs at its one size either way.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import traceback
# the export is stamped with real UTC time (metadata, not a
# simulation input)
from datetime import datetime, timezone
from typing import Dict, Iterable, Optional, Tuple

from repro.experiments import experiment, registered_experiments
from repro.obs.jsonl import json_safe

BENCH_SCHEMA_VERSION = 9
DEFAULT_BENCH_FILENAME = "BENCH_PR48.json"

BENCH_IDS: Tuple[str, ...] = registered_experiments()

#: the benches ``quick`` sizes (their populations); every other bench
#: runs at one size.  `repro.obs.compare` skips exactly these when two
#: documents' ``quick`` flags differ.
QUICK_SIZED = frozenset(
    bid for bid in BENCH_IDS if experiment(bid).quick_sized)


def run_benches(
    bench_ids: Optional[Iterable[str]] = None,
    seed: int = 0,
    quick: bool = False,
) -> Dict[str, Dict[str, Optional[float]]]:
    """Measure the selected experiments (all of them by default), hold
    each to its claims, and return ``{bench_id: {metric: value}}``.
    An unknown id raises `ValueError`; a broken claim raises
    `AssertionError` naming the experiment and its paper section."""
    results = {}
    for bid in bench_ids or BENCH_IDS:
        exp = experiment(bid.upper())
        metrics = exp.measure(seed, quick)
        try:
            exp.claims(metrics)
        except AssertionError as exc:
            failed = traceback.extract_tb(exc.__traceback__)[-1].line
            raise AssertionError(
                f"{exp.id} breaks a claim of {exp.paper_section}: "
                f"{failed}  {exc}".rstrip()
            ) from exc
        results[exp.id] = metrics
    return results


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        rev = out.stdout.strip()
        return rev if out.returncode == 0 and rev else "unknown"
    except OSError:  # no git binary
        return "unknown"


def repo_root() -> str:
    """The repository root (nearest ancestor of this file holding a
    pyproject.toml), falling back to the current directory when the
    package is installed outside its checkout."""
    path = os.path.dirname(os.path.abspath(__file__))
    while True:
        if os.path.exists(os.path.join(path, "pyproject.toml")):
            return path
        parent = os.path.dirname(path)
        if parent == path:
            return os.getcwd()
        path = parent


def write_bench_json(
    results: Dict[str, Dict[str, float]],
    path: Optional[str] = None,
    seed: int = 0,
    quick: bool = False,
) -> Tuple[Dict[str, object], str]:
    """Wrap ``results`` in the versioned envelope and write it (default:
    `DEFAULT_BENCH_FILENAME` at the repo root; ``"-"`` writes to stdout).
    Returns (document, path)."""
    if path is None:
        path = os.path.join(repo_root(), DEFAULT_BENCH_FILENAME)
    doc = {
        "schema": "repro.bench",
        "schema_version": BENCH_SCHEMA_VERSION,
        "seed": seed,
        "git_rev": _git_rev(),
        # export metadata, not simulation input
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "quick": quick,
        "benches": json_safe(results),
    }
    if path == "-":
        json.dump(doc, sys.stdout, indent=2, sort_keys=True, allow_nan=False)
        sys.stdout.write("\n")
        return doc, path
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return doc, path
