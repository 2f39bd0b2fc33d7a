"""StreamingHistogram: accuracy bound, merge fidelity, geometry."""

import math

import pytest

from repro.obs.hist import StreamingHistogram
from repro.sim.rng import SimRandom


def _exact_pct(xs, p):
    xs = sorted(xs)
    rank = (p / 100.0) * (len(xs) - 1)
    lo, hi = int(math.floor(rank)), int(math.ceil(rank))
    if lo == hi:
        return xs[lo]
    frac = rank - lo
    return xs[lo] * (1 - frac) + xs[hi] * frac


def test_empty_histogram_is_nan():
    h = StreamingHistogram()
    assert math.isnan(h.percentile(50))
    assert math.isnan(h.mean)
    assert math.isnan(h.minimum)
    assert len(h) == 0


def test_single_sample_is_exact_everywhere():
    h = StreamingHistogram()
    h.record(3.25)
    for p in (0, 1, 50, 99, 100):
        assert h.percentile(p) == 3.25
    assert h.mean == 3.25
    assert h.minimum == h.maximum == 3.25


def test_endpoints_are_exact():
    h = StreamingHistogram()
    for v in (1.0, 2.0, 3.0, 4.0):
        h.record(v)
    assert h.percentile(0) == 1.0
    assert h.percentile(100) == 4.0


def test_percentile_error_is_bounded_by_construction():
    rng = SimRandom(7, "test/hist")
    xs = [math.exp(rng.uniform(0.0, 10.0)) for _ in range(20_000)]
    h = StreamingHistogram()
    for v in xs:
        h.record(v)
    bound = h.relative_error  # sqrt(growth) - 1, < 1%
    assert bound < 0.01
    for p in (10, 25, 50, 75, 90, 99, 99.9):
        truth = _exact_pct(xs, p)
        assert abs(h.percentile(p) - truth) / truth <= bound + 1e-12


def test_memory_is_o_buckets_not_o_samples():
    rng = SimRandom(1, "test/hist-mem")
    h = StreamingHistogram()
    for _ in range(50_000):
        h.record(math.exp(rng.uniform(0.0, 8.0)))
    # ~2% geometric buckets over e^0..e^8 is a few hundred buckets
    assert h.bucket_count < 500
    assert h.count == 50_000


def test_negative_and_zero_values():
    h = StreamingHistogram()
    for v in (-5.0, -1.0, 0.0, 1.0, 5.0):
        h.record(v)
    assert h.percentile(0) == -5.0
    assert h.percentile(100) == 5.0
    assert h.mean == 0.0
    assert h.percentile(50) == pytest.approx(0.0, abs=1e-6)


def test_merge_is_bit_identical_to_single_stream():
    rng = SimRandom(3, "test/hist-merge")
    xs = [math.exp(rng.uniform(0.0, 6.0)) for _ in range(5_000)]
    single = StreamingHistogram()
    shards = [StreamingHistogram() for _ in range(4)]
    for i, v in enumerate(xs):
        single.record(v)
        shards[i % 4].record(v)
    merged = shards[0]
    for sh in shards[1:]:
        merged.merge(sh)
    assert merged.count == single.count
    assert merged.buckets == single.buckets
    for p in (0.0, 1.0, 25.0, 50.0, 75.0, 99.0, 99.9, 100.0):
        assert merged.percentile(p) == single.percentile(p)


def test_merge_rejects_mismatched_geometry():
    a = StreamingHistogram(growth=1.02)
    b = StreamingHistogram(growth=1.05)
    with pytest.raises(ValueError):
        a.merge(b)


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        StreamingHistogram(growth=1.0)
    with pytest.raises(ValueError):
        StreamingHistogram(base=0.0)


def test_weighted_record():
    h = StreamingHistogram()
    h.record(2.0, n=10)
    assert h.count == 10
    assert h.total == 20.0
    assert h.percentile(50) == 2.0
