"""Unit tests for metric primitives and the stats registry."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.stats import (
    STRAGGLER_ALPHA,
    STRAGGLER_WINDOW,
    Counter,
    LatencySampler,
    StatsRegistry,
    StragglerTracker,
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
# StatsRegistry
# ---------------------------------------------------------------------------

def test_registry_reuses_named_metrics():
    registry = StatsRegistry()
    assert registry.counter("x") is registry.counter("x")


def test_registry_snapshot_shape():
    registry = StatsRegistry()
    registry.counter("io").add(512)
    snap = registry.snapshot()
    assert snap == {"io.count": 1, "io.bytes": 512}


# ---------------------------------------------------------------------------
# StragglerTracker
# ---------------------------------------------------------------------------

def test_straggler_first_sample_seeds_ewma():
    tracker = StragglerTracker()
    assert tracker.ewma("a") == 0.0
    tracker.observe("a", 0.125)
    assert tracker.ewma("a") == 0.125
    assert tracker.ewma("b") == 0.0


def test_straggler_ewma_bit_equal_to_reference_blend():
    rng = random.Random(1805)
    tracker = StragglerTracker()
    expected = None
    for _ in range(500):
        sample = rng.expovariate(50.0)
        tracker.observe(7, sample)
        expected = sample if expected is None else \
            (1.0 - 0.3) * expected + 0.3 * sample
        assert tracker.ewma(7) == expected
    assert STRAGGLER_ALPHA == 0.3


def test_straggler_window_holds_at_most_64_samples():
    tracker = StragglerTracker()
    assert STRAGGLER_WINDOW == 64
    for index in range(200):
        tracker.observe(index % 3, float(index))
    assert len(tracker._window) == 64
    # Only the newest 64 samples (136..199) count: median 167.5.
    assert tracker.threshold(1.0, 0.0) == 167.5


def test_straggler_threshold():
    tracker = StragglerTracker()
    assert tracker.threshold(3.0, 1.0) == 1.0  # empty window: min_s
    for sample in (0.1, 0.2, 0.9):
        tracker.observe(0, sample)
    assert tracker.threshold(3.0, 0.0) == pytest.approx(0.6)
    assert tracker.threshold(3.0, 1.0) == 1.0


def test_straggler_ranks_by_ewma_then_id():
    tracker = StragglerTracker()
    assert tracker.rank([3, 1, 2]) == [1, 2, 3]  # all unproven: by id
    tracker.observe(1, 0.5)
    tracker.observe(3, 0.5)
    tracker.observe(2, 0.2)
    assert tracker.rank([3, 1, 2, 4]) == [4, 2, 1, 3]
    assert tracker.fastest([3, 1]) == 1
    assert tracker.fastest([]) is None
