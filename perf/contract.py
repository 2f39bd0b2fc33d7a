"""The benchmark's contract: names, units, directions and bounds.

`BENCHMARK.json` at the repository root is the single statement of
them; everything here is read from it, so `run.py`, `compare.py` and
the tests cannot drift from what the driver checks.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: simulated results and failure share: a change meant to speed the
#: host must leave them bit-identical, so they are compared exactly and
#: enforced by every run's output check rather than by a relative bound
#: (they are 0 or undefined on some workloads, which a bound cannot be a
#: share of).  They are listed among the per-layer metrics for that
#: reason and reported with the end-to-end ones.
EXACT = ("sim_ms_per_op", "wire_msgs_per_op", "failed_frac")

#: `setup_s` may also worsen by this many seconds before it counts
SETUP_FLOOR_S = 0.25


def load() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end() -> List[dict]:
    """The bounded metrics, then the exact ones (bound 0)."""
    doc = load()
    units = {m["name"]: m["unit"] for m in doc["per_layer"]}
    return doc["end_to_end"] + [
        {"name": name, "unit": units[name], "better": "lower", "bound": 0.0}
        for name in EXACT
    ]


def per_layer_units() -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in load()["per_layer"]}


def workloads() -> List[str]:
    return [w["name"] for w in load()["workloads"]]
