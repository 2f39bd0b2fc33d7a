"""Median, quartiles and spread — the only statistics the benchmark uses."""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, q3) as `statistics.quantiles(values, n=4)` gives them; a
    single value is its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q1, q3)


def summarize(values: Sequence[Optional[float]]) -> Dict[str, object]:
    """Median, quartiles, range and n of the non-null values — all null
    when there are none: a skipped or undefined metric."""
    xs: List[float] = [v for v in values if v is not None]
    if not xs:
        return {"median": None, "q1": None, "q3": None, "min": None,
                "max": None, "n": 0, "values": []}
    q1, q3 = quartiles(xs)
    return {"median": statistics.median(xs), "q1": q1, "q3": q3,
            "min": min(xs), "max": max(xs), "n": len(xs), "values": xs}


def spread(summary: Dict[str, object]) -> float:
    """Interquartile distance as a share of the median (0 for a zero
    median, which only the exact metrics have)."""
    med = summary["median"]
    if not med:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(med)


def fmt(value: Optional[float], digits: int = 6) -> str:
    """A metric for a table: ``-`` when it is undefined here."""
    return "-" if value is None else f"{value:.{digits}g}"
