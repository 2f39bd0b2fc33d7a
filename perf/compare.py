#!/usr/bin/env python3
"""Compare two result files of `perf/run.py`: one row per (end-to-end
metric, workload) with both medians, quartiles, the bound and a verdict.

    python3 perf/compare.py OLD.json NEW.json [--same-code]

Verdicts, by the rule the benchmark fixes (README, "Reading a
comparison"):

* ``regressed``  — NEW's median is worse than OLD's by more than the
  bound, and the passes do not merely overlap inside a spread wider
  than the bound;
* ``improved``   — better by more than the bound and by more than OLD's
  own interquartile distance;
* ``unresolved`` — the pass-to-pass spread exceeds the bound and the two
  sets of passes overlap: the host, not the code, may be the difference;
* ``unchanged``  — everything else.

The exact metrics (simulated time, message counts, failures) have bound
0: any difference is ``regressed``.  Exit status is 1 when any row
regressed.  ``--same-code`` is the agreement check for two sets of the
same commit: a row is ``agree`` when the medians lie within the bound
either way (identical, for an exact metric) and ``disagree`` otherwise,
and any disagreement exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import contract
from stats import fmt, spread


def allowance(metric: dict, old_median: float) -> float:
    """How far the median may worsen, in the metric's own unit."""
    allowed = metric["bound"] * abs(old_median)
    if metric["name"] == "setup_s":
        allowed = max(allowed, contract.SETUP_FLOOR_S)
    return allowed


def verdict(metric: dict, old: dict, new: dict, same_code: bool) -> str:
    a, b = old["median"], new["median"]
    if a is None or b is None:  # undefined here, or the workload skipped
        same = ("agree", "disagree") if same_code else ("unchanged", "regressed")
        return same[a is not b]
    worse = (a - b) if metric["better"] == "higher" else (b - a)
    allowed = allowance(metric, a)
    if same_code:
        return "agree" if abs(worse) <= allowed else "disagree"
    if metric["bound"] == 0.0:
        return "unchanged" if worse == 0 else "regressed"
    overlap = old["min"] <= new["max"] and new["min"] <= old["max"]
    noisy = max(spread(old), spread(new)) > metric["bound"]
    if noisy and overlap:
        return "unresolved"
    if worse > allowed:
        return "regressed"
    if -worse > allowed and -worse > old["q3"] - old["q1"]:
        return "improved"
    return "unchanged"


def compare(old: dict, new: dict, same_code: bool) -> List[dict]:
    rows = []
    for metric in contract.end_to_end():
        for workload, old_row in old["workloads"].items():
            new_row = new["workloads"].get(workload)
            if new_row is None:
                continue
            o = old_row["metrics"][metric["name"]]
            n = new_row["metrics"][metric["name"]]
            rows.append({
                "metric": metric["name"], "workload": workload,
                "unit": metric["unit"], "bound": metric["bound"],
                "old": o, "new": n,
                "verdict": verdict(metric, o, n, same_code),
            })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--same-code", action="store_true",
                    help="two sets of one commit: any disagreement fails")
    args = ap.parse_args(argv)
    docs = []
    for path in (args.old, args.new):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
        if "workloads" not in docs[-1]:
            sys.exit(f"{path}: not an end-to-end result of perf/run.py")
    rows = compare(docs[0], docs[1], args.same_code)
    print(f"{'metric':<18}{'workload':<15}{'unit':<7}"
          + "".join(f"{side + ' median':>12}{side + ' q1..q3':>25}"
                    for side in ("old", "new"))
          + f"{'bound':>7}  verdict")
    for r in rows:
        print(f"{r['metric']:<18}{r['workload']:<15}{r['unit']:<7}"
              + "".join(f"{fmt(m['median'], 5):>12}"
                        f"{fmt(m['q1'], 5) + '..' + fmt(m['q3'], 5):>25}"
                        for m in (r["old"], r["new"]))
              + f"{r['bound']:>7.2f}  {r['verdict']}")
    bad = [r for r in rows if r["verdict"] in ("regressed", "disagree")]
    if bad:
        print(f"\n{len(bad)} row(s) {bad[0]['verdict']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
