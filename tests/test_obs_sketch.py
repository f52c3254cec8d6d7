"""Quantile-sketch correctness properties (DESIGN.md §10).

The observability plane's percentile engine carries a *guaranteed*
relative-error bound and must compose: per-worker sketches merge into
fleet aggregates associatively and commutatively, and sketches survive
the fabric wire (pickle / ``to_dict``) losslessly. These properties are
load-bearing — ``ext-fleet``'s published percentiles and every SLO
``latency`` objective read through this code — so they are pinned
against exact nearest-rank quantiles over adversarial distributions:
point masses, heavy tails, mixed signs, zeros.
"""

import math
import pickle
import random

import pytest

from repro.obs.sketch import (DEFAULT_ACCURACY, QuantileSketch, sketch_of)

QS = (0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0)


def assert_within_bound(sketch, values, alpha, qs=QS):
    ordered = sorted(values)
    for q in qs:
        got = sketch.quantile(q)
        # The estimate must be within alpha relative error of *some*
        # value adjacent to the exact rank (nearest-rank ties mean the
        # exact answer itself is ambiguous by one position).
        rank = q * (len(ordered) - 1)
        lo = ordered[math.floor(rank)]
        hi = ordered[min(len(ordered) - 1, math.ceil(rank))]
        tolerance = alpha * max(abs(lo), abs(hi)) + 1e-12
        assert lo - tolerance <= got <= hi + tolerance, \
            (q, got, lo, hi, tolerance)


# ---------------------------------------------------------------------------
# relative-error bound across adversarial distributions
# ---------------------------------------------------------------------------

def test_bound_uniform():
    rng = random.Random(1)
    values = [rng.uniform(1e-4, 10.0) for _ in range(20000)]
    assert_within_bound(sketch_of(values), values, DEFAULT_ACCURACY)


def test_bound_heavy_tail():
    rng = random.Random(2)
    values = [rng.lognormvariate(0.0, 2.5) for _ in range(20000)]
    assert_within_bound(sketch_of(values), values, DEFAULT_ACCURACY)


def test_bound_point_masses():
    values = [0.001] * 5000 + [1.0] * 5000 + [1000.0] * 10
    sketch = sketch_of(values)
    assert_within_bound(sketch, values, DEFAULT_ACCURACY)
    # The p999 must see the tiny point mass at the top.
    assert sketch.quantile(0.9999) == pytest.approx(1000.0, rel=0.01)


def test_bound_mixed_signs_and_zeros():
    rng = random.Random(3)
    values = ([rng.uniform(-5.0, -1e-3) for _ in range(5000)]
              + [0.0] * 3000
              + [rng.uniform(1e-3, 5.0) for _ in range(5000)])
    rng.shuffle(values)
    assert_within_bound(sketch_of(values), values, DEFAULT_ACCURACY)


def test_bound_subnormal_magnitudes_collapse_to_zero():
    values = [1e-15, -1e-30, 0.0, 2.0]
    sketch = sketch_of(values)
    assert sketch.zeros == 3
    assert sketch.quantile(0.25) == 0.0
    assert sketch.quantile(1.0) == 2.0


def test_extremes_are_exact():
    rng = random.Random(4)
    values = [rng.expovariate(1.0) for _ in range(5000)]
    sketch = sketch_of(values)
    assert sketch.quantile(0.0) == min(values)
    assert sketch.quantile(1.0) == max(values)


def test_coarse_accuracy_still_bounded():
    rng = random.Random(5)
    values = [rng.lognormvariate(0.0, 1.0) for _ in range(10000)]
    alpha = 0.1
    assert_within_bound(sketch_of(values, relative_accuracy=alpha),
                        values, alpha)


# ---------------------------------------------------------------------------
# merge algebra
# ---------------------------------------------------------------------------

def _shards(seed, n=4, per=4000):
    rng = random.Random(seed)
    return [[rng.lognormvariate(0.0, 1.5) for _ in range(per)]
            for _ in range(n)]


def _merged(parts):
    total = QuantileSketch()
    for part in parts:
        total.merge(part)
    return total


def test_merge_commutative():
    a, b = (sketch_of(shard) for shard in _shards(10, n=2))
    ab = a.copy()
    ab.merge(b)
    ba = b.copy()
    ba.merge(a)
    assert ab.to_dict() == ba.to_dict()
    assert ab.quantiles(QS) == ba.quantiles(QS)


def test_merge_associative():
    a, b, c = (sketch_of(shard) for shard in _shards(11, n=3))
    left = a.copy()
    left.merge(b)
    left.merge(c)
    bc = b.copy()
    bc.merge(c)
    right = a.copy()
    right.merge(bc)
    assert left.to_dict()["pos"] == right.to_dict()["pos"]
    assert left.to_dict()["neg"] == right.to_dict()["neg"]
    assert left.count == right.count
    assert left.quantiles(QS) == right.quantiles(QS)


def test_merge_equals_single_sketch_within_bound():
    shards = _shards(12)
    flat = [value for shard in shards for value in shard]
    merged = _merged([sketch_of(shard) for shard in shards])
    assert merged.count == len(flat)
    assert_within_bound(merged, flat, DEFAULT_ACCURACY)
    # Bucket contents are identical to one sketch fed everything.
    one = sketch_of(flat)
    assert merged.to_dict()["pos"] == one.to_dict()["pos"]


def test_merge_grid_mismatch_raises():
    with pytest.raises(ValueError):
        QuantileSketch(relative_accuracy=0.01).merge(
            QuantileSketch(relative_accuracy=0.02))
    with pytest.raises(ValueError):
        QuantileSketch(min_value=1e-9).merge(QuantileSketch(min_value=1e-6))


def test_merge_does_not_mutate_source():
    a, b = (sketch_of(shard) for shard in _shards(13, n=2))
    before = b.to_dict()
    a.merge(b)
    assert b.to_dict() == before


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_pickle_round_trip_identity():
    sketch = sketch_of(_shards(20, n=1)[0])
    clone = pickle.loads(pickle.dumps(sketch))
    assert clone.to_dict() == sketch.to_dict()
    assert clone.quantiles(QS) == sketch.quantiles(QS)


def test_dict_round_trip_identity():
    values = [-3.0, -1e-12, 0.0, 0.25, 0.25, 7.5]
    sketch = sketch_of(values)
    state = sketch.to_dict()
    import json
    clone = QuantileSketch.from_dict(json.loads(json.dumps(state)))
    assert clone.to_dict() == state
    assert clone.quantiles(QS) == sketch.quantiles(QS)


def test_empty_sketch_round_trip_and_reads():
    sketch = QuantileSketch()
    assert sketch.quantile(0.5) == 0.0
    assert sketch.mean == 0.0
    assert len(sketch) == 0
    clone = QuantileSketch.from_dict(sketch.to_dict())
    assert clone.count == 0
    assert clone.quantile(0.99) == 0.0


# ---------------------------------------------------------------------------
# determinism, validation, backstops
# ---------------------------------------------------------------------------

def test_ingest_order_invariant():
    values = _shards(30, n=1, per=5000)[0]
    forward = sketch_of(values)
    backward = sketch_of(list(reversed(values)))
    fwd, bwd = forward.to_dict(), backward.to_dict()
    # The running float sum is order-sensitive in its last bits; every
    # structural field (buckets, counts, extrema) must match exactly.
    assert fwd.pop("sum") == pytest.approx(bwd.pop("sum"))
    assert fwd == bwd
    assert forward.quantiles(QS) == backward.quantiles(QS)


def test_weighted_add_equals_repetition():
    sketch = QuantileSketch()
    sketch.add(0.5, count=1000)
    repeated = sketch_of([0.5] * 1000)
    assert sketch.to_dict() == repeated.to_dict()


def test_invalid_inputs_raise():
    sketch = QuantileSketch()
    with pytest.raises(ValueError):
        sketch.add(float("nan"))
    with pytest.raises(ValueError):
        sketch.add(1.0, count=0)
    with pytest.raises(ValueError):
        sketch.quantile(1.5)
    with pytest.raises(ValueError):
        QuantileSketch(relative_accuracy=1.0)
    with pytest.raises(ValueError):
        QuantileSketch(min_value=0.0)


def test_max_bins_collapse_preserves_tail():
    # Enough dynamic range to overflow a tiny bucket budget: collapse
    # must fold the *low* end and keep tail quantiles in bound.
    values = [10.0 ** (i % 12) * (1 + (i % 7) / 10.0)
              for i in range(4000)]
    sketch = QuantileSketch(max_bins=16)
    sketch.extend(values)
    ordered = sorted(values)
    exact99 = ordered[min(len(ordered) - 1,
                          math.ceil(0.99 * (len(ordered) - 1)))]
    assert sketch.quantile(0.99) == pytest.approx(exact99, rel=0.05)
    assert sketch.count == len(values)


def test_mean_and_count_exact():
    values = _shards(40, n=1, per=2000)[0]
    sketch = sketch_of(values)
    assert sketch.count == len(values)
    assert sketch.mean == pytest.approx(sum(values) / len(values))


# ---------------------------------------------------------------------------
# experiment integration: ext-fleet's percentile path
# ---------------------------------------------------------------------------

def test_ext_fleet_percentiles_within_stated_bound():
    """The sweep percentiles (p50/p99/p999) computed the way ext-fleet
    and ext-fleet-openloop compute them stay within the experiments'
    documented ``PERCENTILE_ACCURACY`` of the exact sorted-list values
    the raw implementation used to report."""
    from repro.experiments.ext_fleet import PERCENTILE_ACCURACY
    from repro.experiments import ext_fleet_openloop
    assert ext_fleet_openloop.PERCENTILE_ACCURACY == PERCENTILE_ACCURACY
    rng = random.Random(99)
    # Latency-shaped: a fast mode, a queueing tail, stragglers.
    durations = ([rng.gauss(0.02, 0.004) for _ in range(30000)]
                 + [rng.lognormvariate(-2.0, 1.0) for _ in range(3000)]
                 + [rng.uniform(1.0, 8.0) for _ in range(30)])
    durations = [abs(value) for value in durations]
    sketch = QuantileSketch(relative_accuracy=PERCENTILE_ACCURACY)
    sketch.extend(durations)
    assert_within_bound(sketch, durations, PERCENTILE_ACCURACY,
                        qs=(0.50, 0.99, 0.999))


# ---------------------------------------------------------------------------
# LatencySampler keeps reservoir percentiles; sketches live in repro.obs
# ---------------------------------------------------------------------------

def test_latency_sampler_default_unchanged():
    from repro.sim.stats import LatencySampler
    sampler = LatencySampler()
    for value in (0.4, 0.2, 0.9):
        sampler.observe(value)
    assert sampler.percentile(0.5) == 0.4
