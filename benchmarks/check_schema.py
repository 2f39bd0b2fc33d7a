"""Schema drift gate for every machine-readable artifact in the repo:

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
  - ``benchmarks/out/*.json``: schema "repro.table" version 1, the
    ``name`` field matching the file name, and rows shaped like the
    header;
  - ``benchmarks/out/flight/*.jsonl``: flight-recorder black boxes
    (schema "repro.flight" at the code's ``FLIGHT_SCHEMA_VERSION``) —
    each must round-trip through `repro.obs.flight.load_flight_dump`
    with a complete header and an event count matching the header's;
  - the ``bench --compare`` report: the first ``BENCH_*.json`` is
    diffed against the current baseline with
    `repro.obs.compare.compare_files` and the resulting report must
    match ``tests/obs/golden_compare_schema.json`` — the compare
    format cannot drift without a golden update either;
  - the ``lint`` JSON report: generated in-process over the shipped
    tree and held to ``tests/analysis/golden_lint_schema.json``
    (version 5: every registered rule ran, and the golden's
    ``rule_ids`` are exactly the registry).

An envelope that changes without a golden-file update (and a schema-
version bump) fails here — this is the CI job that makes "the baseline
format drifted silently" impossible.  Exits non-zero on the first
violation, printing every violation it found.
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

TABLE_SCHEMA_VERSION = 1


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


def check_table_doc(path: str, errors: List[str]) -> None:
    name = os.path.relpath(path, ROOT)
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != "repro.table":
        errors.append(f"{name}: schema {doc.get('schema')!r} != "
                      f"'repro.table'")
        return
    if doc.get("schema_version") != TABLE_SCHEMA_VERSION:
        errors.append(f"{name}: schema_version "
                      f"{doc.get('schema_version')} != "
                      f"{TABLE_SCHEMA_VERSION}")
    stem = os.path.splitext(os.path.basename(path))[0]
    if doc.get("name") != stem:
        errors.append(f"{name}: name {doc.get('name')!r} != file stem "
                      f"{stem!r}")
    if "columns" in doc or "rows" in doc:
        cols = doc.get("columns")
        rows = doc.get("rows")
        if not isinstance(cols, list) or not cols:
            errors.append(f"{name}: 'columns' missing or empty")
            return
        if not isinstance(rows, list):
            errors.append(f"{name}: 'rows' missing")
            return
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != len(cols):
                errors.append(f"{name}: row {i} does not match the "
                              f"{len(cols)}-column header")


def check_compare_report(old_path: str, baseline: str,
                         errors: List[str]) -> None:
    """Diff ``old_path`` against the current baseline and hold the
    report to the compare golden file."""
    from repro.obs.compare import (
        COMPARE_SCHEMA,
        COMPARE_SCHEMA_VERSION,
        CompareError,
        compare_files,
    )

    golden_path = os.path.join(ROOT, "tests", "obs",
                               "golden_compare_schema.json")
    with open(golden_path) as fh:
        golden = json.load(fh)
    golden_name = os.path.relpath(golden_path, ROOT)
    name = "bench --compare report"
    if golden["schema"] != COMPARE_SCHEMA:
        errors.append(f"{golden_name}: golden schema {golden['schema']!r} "
                      f"!= code's {COMPARE_SCHEMA!r}")
    if golden["schema_version"] != COMPARE_SCHEMA_VERSION:
        errors.append(
            f"{golden_name}: golden schema_version "
            f"{golden['schema_version']} != code's "
            f"{COMPARE_SCHEMA_VERSION} — update the golden file"
        )
    try:
        report = compare_files(old_path, baseline)
    except CompareError as exc:
        errors.append(f"{name}: {exc}")
        return
    if sorted(report) != golden["top_level"]:
        errors.append(f"{name}: top-level keys {sorted(report)} != "
                      f"{golden['top_level']}")
        return
    if report["status"] not in golden["verdicts"]:
        errors.append(f"{name}: verdict {report['status']!r} unknown")
    for side in ("old", "new"):
        if sorted(report[side]) != golden["meta_keys"]:
            errors.append(f"{name}: {side} meta keys "
                          f"{sorted(report[side])} != {golden['meta_keys']}")
    for bid, rows in report["benches"].items():
        for metric, row in rows.items():
            if sorted(row) != golden["row_keys"]:
                errors.append(f"{name}: {bid}.{metric} row keys "
                              f"{sorted(row)} != {golden['row_keys']}")
                return
            if row["status"] not in golden["statuses"]:
                errors.append(f"{name}: {bid}.{metric} status "
                              f"{row['status']!r} unknown")


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


def check_lint_report(errors: List[str]) -> None:
    """Generate the ``lint`` report over the shipped tree and hold it
    to the v5 golden."""
    from repro.analysis.lint import registered_rules, run_lint
    from repro.analysis.lint.report import LINT_SCHEMA_VERSION, lint_json_doc

    golden_path = os.path.join(ROOT, "tests", "analysis",
                               "golden_lint_schema.json")
    name = "lint report"
    if not os.path.exists(golden_path) or not os.path.isdir(
        os.path.join(ROOT, "src", "repro")
    ):
        # a stripped checkout (no tests/ or no src/) has nothing to
        # hold the report to; the bench/table gates above still apply
        print(f"check_schema: {name} skipped (stripped checkout)")
        return
    with open(golden_path) as fh:
        golden = json.load(fh)
    if golden["schema_version"] != LINT_SCHEMA_VERSION:
        errors.append(
            f"{os.path.relpath(golden_path, ROOT)}: golden "
            f"schema_version {golden['schema_version']} != code's "
            f"{LINT_SCHEMA_VERSION} — update the golden file"
        )
    doc = lint_json_doc(run_lint(root=ROOT))
    if sorted(doc) != golden["top_level"]:
        errors.append(f"{name}: top-level keys {sorted(doc)} != "
                      f"{golden['top_level']}")
        return
    registered = sorted(r.id for r in registered_rules())
    if registered != golden["rule_ids"]:
        errors.append(f"{name}: registered rules {registered} != "
                      f"golden rule_ids {golden['rule_ids']}")
    if sorted(doc["rules"]) != registered:
        errors.append(f"{name}: rules that ran {sorted(doc['rules'])} != "
                      f"the registry {registered}")
    if doc["exit_code"] != 0:
        errors.append(f"{name}: the shipped tree is not lint-clean "
                      f"(exit_code {doc['exit_code']})")


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
        check_compare_report(bench_docs[0], baseline, errors)
    for path in bench_docs:
        if path != baseline:
            try:
                load_bench_doc(path)
            except CompareError as exc:
                errors.append(str(exc))

    table_docs = sorted(glob.glob(os.path.join(OUT_DIR, "*.json")))
    if not table_docs:
        errors.append("no benchmarks/out/*.json tables found")
    for path in table_docs:
        check_table_doc(path, errors)

    flight_docs = sorted(glob.glob(os.path.join(OUT_DIR, "flight",
                                                "*.jsonl")))
    if not flight_docs:
        errors.append("no benchmarks/out/flight/*.jsonl black box found "
                      "(regenerate: python -m repro flight --demo "
                      "--out benchmarks/out/flight)")
    for path in flight_docs:
        check_flight_dump(path, errors)

    check_lint_report(errors)

    if errors:
        for e in errors:
            print(f"check_schema: {e}", file=sys.stderr)
        return 1
    print(f"check_schema: ok ({len(bench_docs)} bench document(s), "
          f"{len(table_docs)} tables, {len(flight_docs)} flight "
          f"dump(s), lint report)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
