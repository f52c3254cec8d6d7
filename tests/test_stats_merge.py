"""Shard-merge parity and pickle round-trips for the stats primitives.

The sweep executor pickles per-point stats back from worker processes
and folds shards together; these tests pin that (a) every primitive
merges to exactly what a single unsharded instance would have recorded,
and (b) merging an unpickled shard behaves identically to merging a
locally built one.
"""

import pickle
import random

import pytest

from repro.sim.stats import Counter, LatencySampler, StatsRegistry


def _samples(seed, n=500):
    rng = random.Random(seed)
    return [rng.expovariate(100.0) for _ in range(n)]


# ---------------------------------------------------------------------------
# per-primitive merge parity
# ---------------------------------------------------------------------------

def test_counter_merge():
    left, right = Counter("c"), Counter("c")
    left.add(10)
    right.add(20)
    right.add(30)
    left.merge(right)
    assert left.count == 3
    assert left.total_bytes == 60


def test_latency_merge_matches_single_sampler():
    whole = LatencySampler("all")
    left, right = LatencySampler("a"), LatencySampler("b")
    first, second = _samples(1), _samples(2)
    for value in first + second:
        whole.observe(value)
    for value in first:
        left.observe(value)
    for value in second:
        right.observe(value)
    left.merge(right)
    assert left.count == whole.count
    assert left.mean == pytest.approx(whole.mean, rel=1e-12)
    assert left.variance == pytest.approx(whole.variance, rel=1e-9)
    assert left.min == whole.min
    assert left.max == whole.max
    # Percentiles are reservoir estimates; they must stay in range and
    # close to the unsharded estimate for a smooth distribution.
    assert left.percentile(0.5) == pytest.approx(whole.percentile(0.5),
                                                 rel=0.25)


def test_latency_merge_empty_cases():
    empty, full = LatencySampler(), LatencySampler()
    for value in _samples(3):
        full.observe(value)
    count, mean = full.count, full.mean
    full.merge(empty)          # no-op
    assert (full.count, full.mean) == (count, mean)
    empty.merge(full)          # copy
    assert empty.count == count
    assert empty.mean == pytest.approx(mean)
    assert empty.percentile(0.9) == full.percentile(0.9)


def test_latency_merge_thins_reservoir_deterministically():
    left, right = LatencySampler(reservoir=64), LatencySampler(reservoir=64)
    for value in _samples(4, 200):
        left.observe(value)
    for value in _samples(5, 200):
        right.observe(value)
    twin_left = pickle.loads(pickle.dumps(left))
    left.merge(right)
    twin_left.merge(pickle.loads(pickle.dumps(right)))
    assert len(left._reservoir) == 64
    assert left._reservoir == twin_left._reservoir  # no randomness


# ---------------------------------------------------------------------------
# registry-level merge + the executor's pickle boundary
# ---------------------------------------------------------------------------

def _shard(seed):
    registry = StatsRegistry()
    rng = random.Random(seed)
    for _ in range(100):
        registry.counter("completed").add(64 * 1024)
        registry.counter("readahead").add(rng.randrange(1, 8) * 4096)
    return registry


def test_registry_merge_onto_fresh_equals_copy():
    shard = _shard(7)
    fresh = StatsRegistry()
    fresh.merge(shard)
    assert fresh.snapshot() == pytest.approx(shard.snapshot())


def test_registry_merge_accumulates():
    merged = StatsRegistry()
    merged.merge(_shard(1))
    merged.merge(_shard(2))
    assert merged.counter("completed").count == 200
    assert merged.counter("readahead").count == 200


@pytest.mark.parametrize("make", [
    lambda: _shard(11),
    lambda: _shard(12),
])
def test_pickled_shard_merges_identically(make):
    """Merging an unpickled shard == merging the original object."""
    shard = make()
    local, remote = StatsRegistry(), StatsRegistry()
    local.merge(shard)
    remote.merge(pickle.loads(pickle.dumps(shard)))
    assert local.snapshot() == remote.snapshot()
    # And the merged registry itself still round-trips.
    again = pickle.loads(pickle.dumps(remote))
    assert again.snapshot() == remote.snapshot()


def test_primitives_pickle_round_trip():
    for primitive in (Counter("c"), LatencySampler("l")):
        clone = pickle.loads(pickle.dumps(primitive))
        assert type(clone) is type(primitive)
    sampler = LatencySampler("l")
    for value in _samples(9):
        sampler.observe(value)
    clone = pickle.loads(pickle.dumps(sampler))
    assert clone.count == sampler.count
    assert clone.mean == sampler.mean
    assert clone.percentile(0.99) == sampler.percentile(0.99)
