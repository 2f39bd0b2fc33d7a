"""Counters and latency statistics.

Every cluster owns one `MetricSet`; kernels count syscalls, wire
messages and bytes into it, runtimes count protocol messages
(request / reply / retry / forbid / allow / goahead / enc — the §3.2.1
vocabulary), and benchmarks read it back to print the paper's tables.

Counter names are plain dotted strings, e.g.::

    kernel.calls.Send          Charlotte syscall count
    wire.messages.request      LYNX-level requests put on the wire
    wire.bytes                 total payload+header bytes transmitted
    runtime.unwanted           messages received and bounced (§3.2.1)
    charlotte.move_msgs        inter-kernel messages for link moves

Latency recorders are constant-memory: exact running count / total /
min / max (so benchmark means are exact) plus a log-bucketed
`repro.obs.hist.StreamingHistogram` for percentiles (≤1% relative
error, O(occupied buckets) memory, mergeable across shards).  Raw
samples are never retained: a recorder that kept them would grow with
every op, which the table census (`tests/core/test_table_census.py`)
and the alive-bytes ceilings (`tests/core/test_host_cost.py`) fail.

The full vocabulary is documented in docs/OBSERVABILITY.md;
`MetricSet.snapshot` is the one export of a set.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.obs.hist import StreamingHistogram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.timeseries import TimeSeries


class LatencyRecorder:
    """Accumulates latency samples (ms) into streaming statistics.

    Means, minima and maxima are exact (running scalars accumulated in
    recording order, so values are bit-identical to summing a raw list);
    percentiles come from the embedded `StreamingHistogram` and carry
    its ≤1% quantisation bound.  `merge` folds another recorder in for
    cross-shard aggregation.
    """

    __slots__ = ("name", "hist", "sink")

    def __init__(self, name: str = "",
                 sink: Optional[Callable[[str, float], None]] = None) -> None:
        self.name = name
        self.hist = StreamingHistogram()
        #: optional per-sample forward (the windowed TimeSeries hook)
        self.sink = sink

    def record(self, value: float) -> None:
        self.hist.record(value)
        if self.sink is not None:
            self.sink(self.name, value)

    @property
    def count(self) -> int:
        return self.hist.count

    @property
    def mean(self) -> float:
        """Exact ``total / count``, so bench tables match raw-sample
        summation bit-for-bit."""
        n = self.hist.count
        return self.hist.total / n if n else math.nan

    @property
    def minimum(self) -> float:
        return self.hist.minimum

    @property
    def maximum(self) -> float:
        return self.hist.maximum

    def percentile(self, p: float) -> float:
        """Interpolated percentile, p in [0, 100]; ≤1% relative error."""
        return self.hist.percentile(p)

    def merge(self, other: "LatencyRecorder") -> "LatencyRecorder":
        """Fold ``other`` in (bucket sums)."""
        self.hist.merge(other.hist)
        return self

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.minimum,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "max": self.maximum,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LatencyRecorder {self.name!r} n={self.count} mean={self.mean:.3f}>"


def ordered_mean(samples, empty: float = math.nan) -> float:
    """``total / count`` with the total accumulated left to right, as
    `LatencyRecorder` does.  Builtin ``sum`` is compensated from
    Python 3.12 on, which moves the last ulp of a float mean; every
    mean that reaches a `repro bench` document goes through here so the
    document is the same on every interpreter."""
    if not samples:
        return empty
    total = 0.0
    for x in samples:
        total += x
    return total / len(samples)


class MetricSet:
    """A namespace of counters and latency recorders."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = defaultdict(float)
        self._latencies: Dict[str, LatencyRecorder] = {}
        self._ts: Optional["TimeSeries"] = None

    # counters ----------------------------------------------------------
    def count(self, name: str, n: float = 1.0) -> None:
        self._counters[name] += n
        if self._ts is not None:
            self._ts.record_count(name, n)

    def get(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def counters(self, prefix: str = "") -> Dict[str, float]:
        """All counters whose names start with ``prefix``."""
        return {
            k: v for k, v in sorted(self._counters.items()) if k.startswith(prefix)
        }

    def total(self, prefix: str) -> float:
        """Sum of all counters under ``prefix``."""
        return sum(v for k, v in self._counters.items() if k.startswith(prefix))

    # latency recorders ---------------------------------------------------
    def latency(self, name: str) -> LatencyRecorder:
        rec = self._latencies.get(name)
        if rec is None:
            sink = getattr(self._ts, "record_latency", None)
            rec = self._latencies[name] = LatencyRecorder(name, sink=sink)
        return rec

    # windowed time-series ------------------------------------------------
    def bind_timeseries(self, ts: Optional["TimeSeries"]) -> None:
        """Forward every counter increment and latency sample to ``ts``
        (windowed on simulated time) from now on; ``None`` detaches."""
        self._ts = ts
        sink = getattr(ts, "record_latency", None)
        for rec in self._latencies.values():
            rec.sink = sink

    # utilities -----------------------------------------------------------
    def merge(self, other: "MetricSet") -> "MetricSet":
        """Fold another set in: counters sum, recorders `merge` — the
        cross-shard aggregation path for the sharded-engine roadmap."""
        for name, value in other._counters.items():
            self._counters[name] += value
        for name, rec in other._latencies.items():
            self.latency(name).merge(rec)
        return self

    def snapshot(self) -> Dict[str, object]:
        """A nested point-in-time view of the whole set::

            {"counters":  {dotted-name: value, ...},        # sorted
             "latencies": {name: {count, mean, min,
                                  p50, p99, max}, ...}}     # sorted

        The shape is stable (it is what `repro.obs` serialises) and
        equality-comparable across same-seed runs.
        """
        return {
            "counters": dict(sorted(self._counters.items())),
            "latencies": {
                name: rec.summary()
                for name, rec in sorted(self._latencies.items())
            },
        }
