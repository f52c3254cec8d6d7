"""Unit tests for metric primitives and the stats registry."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.stats import (
    Counter,
    Histogram,
    IntervalRate,
    LatencySampler,
    StatsRegistry,
    TimeWeightedGauge,
)


# ---------------------------------------------------------------------------
# Counter
# ---------------------------------------------------------------------------

def test_counter_accumulates():
    counter = Counter("reads")
    counter.add(100)
    counter.add(200)
    assert counter.count == 2
    assert counter.total_bytes == 300


def test_counter_throughput_and_rate():
    counter = Counter()
    counter.add(1000)
    assert counter.throughput(2.0) == pytest.approx(500.0)
    assert counter.rate(2.0) == pytest.approx(0.5)
    assert counter.throughput(0.0) == 0.0


def test_counter_merge():
    a, b = Counter(), Counter()
    a.add(10)
    b.add(20)
    b.add(30)
    a.merge(b)
    assert a.count == 3
    assert a.total_bytes == 60


# ---------------------------------------------------------------------------
# TimeWeightedGauge
# ---------------------------------------------------------------------------

def test_gauge_time_weighted_mean():
    gauge = TimeWeightedGauge()
    gauge.set(0.0, 0.0)
    gauge.set(1.0, 10.0)   # level 0 for [0,1)
    gauge.set(3.0, 0.0)    # level 10 for [1,3)
    assert gauge.mean(now=4.0) == pytest.approx((0 * 1 + 10 * 2 + 0 * 1) / 4)


def test_gauge_adjust_and_extremes():
    gauge = TimeWeightedGauge()
    gauge.adjust(1.0, +5)
    gauge.adjust(2.0, -3)
    assert gauge.level == 2
    assert gauge.max_level == 5
    assert gauge.min_level == 0


def test_gauge_rejects_time_travel():
    gauge = TimeWeightedGauge()
    gauge.set(5.0, 1.0)
    with pytest.raises(ValueError):
        gauge.set(4.0, 2.0)


# ---------------------------------------------------------------------------
# LatencySampler
# ---------------------------------------------------------------------------

def test_latency_sampler_moments():
    sampler = LatencySampler()
    for value in (1.0, 2.0, 3.0, 4.0):
        sampler.observe(value)
    assert sampler.count == 4
    assert sampler.mean == pytest.approx(2.5)
    assert sampler.min == 1.0
    assert sampler.max == 4.0
    assert sampler.variance == pytest.approx(1.25)


def test_latency_sampler_empty():
    sampler = LatencySampler()
    assert sampler.mean == 0.0
    assert sampler.variance == 0.0
    assert sampler.percentile(0.5) == 0.0


def test_latency_percentile_tracks_distribution():
    sampler = LatencySampler(reservoir=1000)
    for i in range(1000):
        sampler.observe(float(i))
    assert sampler.percentile(0.5) == pytest.approx(500, abs=20)
    assert sampler.percentile(0.0) == 0.0


def test_latency_percentile_range_check():
    sampler = LatencySampler()
    with pytest.raises(ValueError):
        sampler.percentile(1.5)


def test_latency_reservoir_bounded():
    sampler = LatencySampler(reservoir=64)
    for i in range(10_000):
        sampler.observe(float(i % 100))
    assert len(sampler._reservoir) <= 64
    assert sampler.count == 10_000


def test_latency_percentile_exact_below_capacity():
    """With n < reservoir, percentiles are exact order statistics."""
    sampler = LatencySampler(reservoir=4096)
    values = [5.0, 1.0, 3.0, 2.0, 4.0]  # out of order on purpose
    for value in values:
        sampler.observe(value)
    # index = int(q * n) over the sorted reservoir [1..5]
    assert sampler.percentile(0.0) == 1.0
    assert sampler.percentile(0.2) == 2.0
    assert sampler.percentile(0.5) == 3.0
    assert sampler.percentile(0.8) == 5.0
    assert sampler.percentile(1.0) == 5.0  # clamped to last element


def test_latency_single_sample_statistics():
    sampler = LatencySampler()
    sampler.observe(0.125)
    assert sampler.mean == 0.125
    assert sampler.variance == 0.0
    assert sampler.stddev == 0.0
    assert sampler.min == sampler.max == 0.125
    for q in (0.0, 0.5, 0.99, 1.0):
        assert sampler.percentile(q) == 0.125


def test_latency_reservoir_overflow_is_deterministic():
    """Thinning is systematic, not random: identical input streams must
    yield identical reservoirs (and hence identical percentiles), which
    is what keeps the sweep cache / parallel-vs-serial equality exact."""
    def feed(sampler):
        for i in range(50_000):
            sampler.observe(((i * 2654435761) % 10_000) / 1000.0)
        return sampler

    a = feed(LatencySampler(reservoir=256))
    b = feed(LatencySampler(reservoir=256))
    assert a._reservoir == b._reservoir
    for q in (0.1, 0.5, 0.9, 0.99):
        assert a.percentile(q) == b.percentile(q)


def test_latency_overflow_keeps_moments_exact_and_percentiles_sane():
    """Moments are streaming (unaffected by thinning); reservoir
    percentiles stay within the observed range and roughly ordered."""
    sampler = LatencySampler(reservoir=128)
    n = 20_000
    for i in range(n):
        sampler.observe(float(i))
    assert sampler.count == n
    assert sampler.mean == pytest.approx((n - 1) / 2, rel=1e-9)
    assert sampler.min == 0.0
    assert sampler.max == float(n - 1)
    assert len(sampler._reservoir) == 128
    p10, p50, p90 = (sampler.percentile(q) for q in (0.1, 0.5, 0.9))
    assert 0.0 <= p10 <= p50 <= p90 <= float(n - 1)


def test_latency_stride_growth_bounded():
    """The thinning stride doubles but is capped, so late samples are
    still admitted (the reservoir never freezes permanently)."""
    sampler = LatencySampler(reservoir=4)
    for i in range(10_000):
        sampler.observe(float(i))
    assert sampler._stride <= 1 << 20
    assert any(value >= 4.0 for value in sampler._reservoir), \
        "reservoir froze on the first four samples"


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=200))
def test_latency_mean_matches_numpy_style_mean(values):
    sampler = LatencySampler()
    for value in values:
        sampler.observe(value)
    assert sampler.mean == pytest.approx(sum(values) / len(values), rel=1e-9,
                                         abs=1e-9)
    assert sampler.min == min(values)
    assert sampler.max == max(values)


# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------

def test_histogram_buckets_and_overflow():
    hist = Histogram(bounds=[1.0, 2.0, 4.0])
    for value in (0.5, 1.5, 3.0, 10.0):
        hist.observe(value)
    assert hist.counts == [1, 1, 1]
    assert hist.overflow == 1
    assert hist.total == 4


def test_histogram_boundary_inclusive():
    hist = Histogram(bounds=[1.0, 2.0])
    hist.observe(1.0)  # inclusive upper of first bucket
    assert hist.counts == [1, 0]


def test_histogram_rows_include_overflow():
    hist = Histogram(bounds=[1.0])
    hist.observe(5.0)
    rows = hist.as_rows()
    assert rows[-1][0] == math.inf
    assert rows[-1][1] == 1


def test_histogram_requires_bounds():
    with pytest.raises(ValueError):
        Histogram(bounds=[])


# ---------------------------------------------------------------------------
# IntervalRate
# ---------------------------------------------------------------------------

def test_interval_rate_windows():
    rate = IntervalRate(interval=1.0)
    rate.record(0.5, 100)
    rate.record(0.9, 100)
    rate.record(1.5, 300)
    rows = dict(rate.rates())
    assert rows[0.0] == pytest.approx(200.0)
    assert rows[1.0] == pytest.approx(300.0)


def test_interval_rate_steady_skips_warmup():
    rate = IntervalRate(interval=1.0)
    rate.record(0.5, 1000)   # warm-up window
    rate.record(1.5, 100)
    rate.record(2.5, 100)
    assert rate.steady_rate(skip_windows=1) == pytest.approx(100.0)


def test_interval_rate_validation():
    with pytest.raises(ValueError):
        IntervalRate(interval=0)


# ---------------------------------------------------------------------------
# StatsRegistry
# ---------------------------------------------------------------------------

def test_registry_reuses_named_metrics():
    registry = StatsRegistry()
    assert registry.counter("x") is registry.counter("x")
    assert registry.gauge("g") is registry.gauge("g")


def test_registry_snapshot_shape():
    registry = StatsRegistry()
    registry.counter("io").add(512)
    registry.gauge("queue").set(1.0, 3)
    snap = registry.snapshot()
    assert snap["io.count"] == 1
    assert snap["io.bytes"] == 512
    assert snap["queue.level"] == 3
