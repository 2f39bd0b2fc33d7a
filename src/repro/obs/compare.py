"""repro.obs.compare — the BENCH_*.json equality diff.

``python -m repro bench --compare OLD.json NEW.json`` turns two bench
documents (the `repro.bench` envelope written by
`repro.obs.bench.write_bench_json`) into one schema-versioned report:
one row per metric plus an overall verdict.  Every value ``bench``
writes is exact — simulated, or a count a machine check fixes — so
the gate is equality, not a threshold: the CI ``perf`` job runs
exactly this against the committed baseline, and a PR that moves any
value, in either direction, fails until the baseline is regenerated
on purpose (docs/PERFORMANCE.md §3.1).

Row status:

* ``equal`` / ``changed`` — the key is on both sides; ``changed``
  (``0 -> 5`` and ``null -> 1.0`` included) is what exits 1.
* ``new`` / ``gone`` — the key is on one side only.  Never fails, so
  documents written before a metric existed (or after one was
  retired) stay comparable as committed.
* ``skipped`` — the bench is one ``--quick`` sizes
  (`repro.obs.bench.QUICK_SIZED`) and the two documents' ``quick``
  flags differ, so its values describe different populations.  This
  is what lets CI compare its quick run against the committed
  full-mode baseline.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.obs.bench import QUICK_SIZED

COMPARE_SCHEMA = "repro.bench-compare"
COMPARE_SCHEMA_VERSION = 2

_BENCH_SCHEMA = "repro.bench"


class CompareError(ValueError):
    """A document could not be loaded or is not a repro.bench export."""


def load_bench_doc(path: str) -> Dict[str, Any]:
    """Read and structurally validate one BENCH_*.json document."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CompareError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CompareError(f"{path} is not JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != _BENCH_SCHEMA:
        raise CompareError(
            f"{path} is not a {_BENCH_SCHEMA} document "
            f"(schema={doc.get('schema') if isinstance(doc, dict) else None!r})"
        )
    if not isinstance(doc.get("benches"), dict):
        raise CompareError(f"{path} has no 'benches' mapping")
    return doc


def _meta(doc: Dict[str, Any], path: str) -> Dict[str, Any]:
    return {
        "path": path,
        "git_rev": doc.get("git_rev"),
        "schema_version": doc.get("schema_version"),
        "quick": bool(doc.get("quick")),
        "timestamp": doc.get("timestamp"),
        "seed": doc.get("seed"),
    }


def compare_docs(
    old_doc: Dict[str, Any],
    new_doc: Dict[str, Any],
    old_path: str = "<old>",
    new_path: str = "<new>",
) -> Dict[str, Any]:
    """Diff two loaded bench documents into a compare report dict."""
    sizes_differ = bool(old_doc.get("quick")) != bool(new_doc.get("quick"))
    benches: Dict[str, Dict[str, Any]] = {}
    changed: List[str] = []

    for bid in sorted(set(old_doc["benches"]) | set(new_doc["benches"])):
        old_metrics = old_doc["benches"].get(bid, {})
        new_metrics = new_doc["benches"].get(bid, {})
        rows: Dict[str, Any] = {}
        for name in sorted(set(old_metrics) | set(new_metrics)):
            if sizes_differ and bid in QUICK_SIZED:
                status = "skipped"
            elif name not in old_metrics:
                status = "new"
            elif name not in new_metrics:
                status = "gone"
            elif old_metrics[name] == new_metrics[name]:
                status = "equal"
            else:
                status = "changed"
                changed.append(f"{bid}.{name}")
            rows[name] = {
                "old": old_metrics.get(name),
                "new": new_metrics.get(name),
                "status": status,
            }
        benches[bid] = rows

    return {
        "schema": COMPARE_SCHEMA,
        "schema_version": COMPARE_SCHEMA_VERSION,
        "old": _meta(old_doc, old_path),
        "new": _meta(new_doc, new_path),
        "benches": benches,
        "changed": changed,
        "status": "changed" if changed else "equal",
    }


def compare_files(old_path: str, new_path: str) -> Dict[str, Any]:
    """`load_bench_doc` both paths and `compare_docs` them."""
    return compare_docs(
        load_bench_doc(old_path),
        load_bench_doc(new_path),
        old_path=old_path,
        new_path=new_path,
    )


def _fmt(v: Any) -> str:
    # repr: a last-ulp move is `changed` and must read as one
    return "-" if v is None else repr(v)


def render_report(report: Dict[str, Any]) -> str:
    """The human-readable report: one line per ``changed`` / ``new`` /
    ``gone`` row, a per-status tally, then the verdict."""
    lines = [
        f"bench compare: {report['old']['path']} "
        f"(rev {str(report['old']['git_rev'])[:8]}, "
        f"{'quick' if report['old']['quick'] else 'full'}) -> "
        f"{report['new']['path']} "
        f"(rev {str(report['new']['git_rev'])[:8]}, "
        f"{'quick' if report['new']['quick'] else 'full'})",
        f"{'bench':<6}{'metric':<34}{'old':>22}{'new':>22}  status",
    ]
    tally: Dict[str, int] = {}
    for bid, rows in report["benches"].items():
        for name, row in rows.items():
            tally[row["status"]] = tally.get(row["status"], 0) + 1
            if row["status"] not in ("equal", "skipped"):
                lines.append(
                    f"{bid:<6}{name:<34}{_fmt(row['old']):>22}"
                    f"{_fmt(row['new']):>22}  {row['status']}"
                )
    lines.append(
        f"result: {report['status'].upper()} — "
        + ", ".join(f"{n} {status}" for status, n in sorted(tally.items()))
    )
    return "\n".join(lines)
