"""Log-bucketed streaming histograms (HdrHistogram-style).

`LatencyRecorder` used to keep every raw sample so it could answer
percentile queries exactly; at the scales the ROADMAP aims for
(100k–1M simulated clients) that is O(n) memory and O(n log n) per
query, and the telemetry plane would dominate the measurement.
`StreamingHistogram` replaces raw retention with geometric buckets:

* ``record`` is O(1): a log to find the bucket, a dict increment;
* memory is O(occupied buckets), independent of sample count —
  a bucket per ~2% of dynamic range, so ~1.2k buckets cover
  nanoseconds to hours;
* ``percentile`` interpolates between bucket representatives
  (geometric bucket centres clamped to the exact observed
  ``[min, max]``), so the relative error is bounded by
  ``sqrt(growth) - 1`` — under 1% at the default growth of 1.02;
* ``merge`` sums bucket counts, so per-shard histograms aggregate
  into exactly the histogram a single stream would have produced:
  percentile output after a merge is bit-for-bit identical to
  single-stream recording (the E15 bench machine-checks this).

Values may be negative (bucket indices mirror around a small
``[-base, base)`` zero bucket); exact ``count``/``total``/``min``/
``max`` are kept alongside, so means stay exact — only the shape
between min and max is quantised.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

#: geometric bucket growth factor; the percentile error bound is
#: ``sqrt(GROWTH) - 1`` (~0.995% — the "≤1% by construction" contract)
DEFAULT_GROWTH = 1.02

#: values with ``|v| < DEFAULT_BASE`` (ms) share the zero bucket
DEFAULT_BASE = 1e-6


class StreamingHistogram:
    """Fixed-precision streaming histogram over sparse log buckets."""

    __slots__ = ("growth", "base", "_log_growth", "buckets",
                 "count", "total", "_min", "_max")

    def __init__(self, growth: float = DEFAULT_GROWTH,
                 base: float = DEFAULT_BASE) -> None:
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        if base <= 0.0:
            raise ValueError(f"base must be > 0, got {base}")
        self.growth = growth
        self.base = base
        self._log_growth = math.log(growth)
        #: bucket index -> sample count; index 0 is ``(-base, base)``,
        #: positive index i is ``[base*g^(i-1), base*g^i)`` and negative
        #: indices mirror it below zero
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    # recording ---------------------------------------------------------
    def _index(self, value: float) -> int:
        mag = abs(value)
        if mag < self.base:
            return 0
        i = int(math.log(mag / self.base) / self._log_growth) + 1
        # float error in the log can land one bucket off; correct so
        # base*g^(i-1) <= mag < base*g^i holds exactly
        while mag >= self.base * self.growth ** i:
            i += 1
        while mag < self.base * self.growth ** (i - 1):
            i -= 1
        return i if value >= 0 else -i

    def record(self, value: float, n: int = 1) -> None:
        idx = self._index(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + n
        self.count += n
        self.total += value * n
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    # queries -----------------------------------------------------------
    @property
    def minimum(self) -> float:
        return self._min if self.count else math.nan

    @property
    def maximum(self) -> float:
        return self._max if self.count else math.nan

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    @property
    def bucket_count(self) -> int:
        """Occupied buckets — the memory footprint, O(1) per ~2% of range."""
        return len(self.buckets)

    @property
    def relative_error(self) -> float:
        """Worst-case relative quantisation error: ``sqrt(growth) - 1``."""
        return math.sqrt(self.growth) - 1.0

    def _representative(self, idx: int) -> float:
        """Geometric centre of bucket ``idx``, clamped into the exact
        observed range so min/max/single-sample queries stay exact."""
        if idx == 0:
            rep = 0.0
        elif idx > 0:
            rep = self.base * self.growth ** (idx - 0.5)
        else:
            rep = -(self.base * self.growth ** (-idx - 0.5))
        if rep < self._min:
            rep = self._min
        if rep > self._max:
            rep = self._max
        return rep

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile over bucket representatives,
        ``p`` in [0, 100]; same rank convention as sorted raw samples."""
        if not self.count:
            return math.nan
        if self.count == 1 or p <= 0.0:
            return self._min
        if p >= 100.0:
            return self._max
        rank = (p / 100.0) * (self.count - 1)
        lo = int(math.floor(rank))
        hi = int(math.ceil(rank))
        if lo < 0:
            lo = hi = 0
        if hi > self.count - 1:
            lo = hi = self.count - 1
        items = sorted(self.buckets.items())
        v_lo = self._value_at(items, lo)
        if hi == lo:
            return v_lo
        v_hi = self._value_at(items, hi)
        frac = rank - lo
        return v_lo * (1 - frac) + v_hi * frac

    def _value_at(self, items: List[Tuple[int, int]], k: int) -> float:
        seen = 0
        for idx, n in items:
            seen += n
            if k < seen:
                return self._representative(idx)
        return self._representative(items[-1][0])

    # aggregation -------------------------------------------------------
    def merge(self, other: "StreamingHistogram") -> "StreamingHistogram":
        """Fold ``other`` into this histogram (cross-shard aggregation).

        Buckets are summed, so the merged percentile output is
        bit-for-bit what a single stream recording all samples would
        return — the property that makes per-shard telemetry viable.
        """
        if (other.growth, other.base) != (self.growth, self.base):
            raise ValueError(
                f"cannot merge histograms with different geometry: "
                f"({self.growth}, {self.base}) vs ({other.growth}, {other.base})"
            )
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        self.count += other.count
        self.total += other.total
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        return self

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<StreamingHistogram n={self.count} "
                f"buckets={len(self.buckets)} growth={self.growth}>")
