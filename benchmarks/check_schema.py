"""Baseline and flight-dump gate: the committed artifacts tier-1 does
not already hold.

    PYTHONPATH=src python benchmarks/check_schema.py

Validates

  - the current baseline (`repro.obs.bench.DEFAULT_BENCH_FILENAME` at
    the repo root): schema "repro.bench", ``schema_version`` equal to
    the code's ``BENCH_SCHEMA_VERSION``, the envelope keys recorded in
    ``tests/obs/golden_bench_schema.json``, and every value a JSON
    number or null.  (Which metrics each bench block carries, and that
    the block satisfies the paper's claims, is held by tier-1 against
    the registry: tests/obs/test_bench.py, tests/obs/test_experiments.py);
  - every older ``BENCH_*.json`` at the repo root: history, written
    under earlier schemas and never edited again — each must only
    still load as a "repro.bench" document;
  - ``benchmarks/out/flight/*.jsonl``: flight-recorder black boxes
    (schema "repro.flight" at the code's ``FLIGHT_SCHEMA_VERSION``) —
    each must round-trip through `repro.obs.flight.load_flight_dump`
    with a complete header and an event count matching the header's.

What tier-1 already holds is not repeated here: the experiment tables
``benchmarks/out/*.txt`` (tests/obs/test_experiments.py compares each
byte for byte with its render from the baseline) and the ``bench
--compare`` report (tests/obs/test_compare.py holds it to
``tests/obs/golden_compare_schema.json``).  Exits non-zero on the
first violation, printing every violation it found.
"""

from __future__ import annotations

import glob
import json
import os
import sys
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "obs", "golden_bench_schema.json")
OUT_DIR = os.path.join(ROOT, "benchmarks", "out")


def check_bench_doc(path: str, golden: dict, errors: List[str]) -> None:
    from repro.obs.bench import BENCH_SCHEMA_VERSION

    with open(path) as fh:
        doc = json.load(fh)
    name = os.path.relpath(path, ROOT)
    if doc.get("schema") != golden["schema"]:
        errors.append(f"{name}: schema {doc.get('schema')!r} != "
                      f"{golden['schema']!r}")
        return
    if doc.get("schema_version") != BENCH_SCHEMA_VERSION:
        errors.append(
            f"{name}: schema_version {doc.get('schema_version')} != "
            f"code's BENCH_SCHEMA_VERSION {BENCH_SCHEMA_VERSION} — "
            f"regenerate with `python -m repro bench`"
        )
    if golden["schema_version"] != BENCH_SCHEMA_VERSION:
        errors.append(
            f"{os.path.relpath(GOLDEN, ROOT)}: golden schema_version "
            f"{golden['schema_version']} != code's "
            f"{BENCH_SCHEMA_VERSION} — update the golden file"
        )
    if sorted(doc) != golden["top_level"]:
        errors.append(f"{name}: top-level keys {sorted(doc)} != "
                      f"{golden['top_level']}")
        return
    for bid, metrics in doc["benches"].items():
        for metric, value in metrics.items():
            if value is not None and not isinstance(value, (int, float)):
                errors.append(f"{name}: {bid}.{metric} is "
                              f"{type(value).__name__}, not a JSON number")


FLIGHT_HEADER_KEYS = ["capacity", "events", "kind", "reason", "schema",
                      "seed", "t", "version"]


def check_flight_dump(path: str, errors: List[str]) -> None:
    from repro.obs.flight import load_flight_dump

    name = os.path.relpath(path, ROOT)
    try:
        header, metrics, events = load_flight_dump(path)
    except (ValueError, KeyError) as exc:
        errors.append(f"{name}: {exc}")
        return
    if sorted(header) != FLIGHT_HEADER_KEYS:
        errors.append(f"{name}: header keys {sorted(header)} != "
                      f"{FLIGHT_HEADER_KEYS}")
    if header.get("events") != len(events):
        errors.append(f"{name}: header says {header.get('events')} "
                      f"events, dump carries {len(events)}")
    if not isinstance(metrics, dict) or "counters" not in metrics:
        errors.append(f"{name}: no metric snapshot line "
                      "(expected {\"metrics\": ...} on line 2)")


def main() -> int:
    errors: List[str] = []
    with open(GOLDEN) as fh:
        golden = json.load(fh)

    from repro.obs.bench import DEFAULT_BENCH_FILENAME
    from repro.obs.compare import CompareError, load_bench_doc

    baseline = os.path.join(ROOT, DEFAULT_BENCH_FILENAME)
    bench_docs = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    if baseline not in bench_docs:
        errors.append(f"no {DEFAULT_BENCH_FILENAME} baseline found at the "
                      f"repo root")
    else:
        check_bench_doc(baseline, golden, errors)
    for path in bench_docs:
        if path != baseline:
            try:
                load_bench_doc(path)
            except CompareError as exc:
                errors.append(str(exc))

    flight_docs = sorted(glob.glob(os.path.join(OUT_DIR, "flight",
                                                "*.jsonl")))
    if not flight_docs:
        errors.append("no benchmarks/out/flight/*.jsonl black box found "
                      "(regenerate: python -m repro flight --demo "
                      "--out benchmarks/out/flight)")
    for path in flight_docs:
        check_flight_dump(path, errors)

    if errors:
        for e in errors:
            print(f"check_schema: {e}", file=sys.stderr)
        return 1
    print(f"check_schema: ok ({len(bench_docs)} bench document(s), "
          f"{len(flight_docs)} flight dump(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
