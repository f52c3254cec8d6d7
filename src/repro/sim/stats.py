"""Metric collection for simulations.

All metrics are pull-based and cheap to update: experiments run millions of
events, so per-sample work is a couple of float ops. Aggregation happens at
report time.
"""

from __future__ import annotations

import math
import statistics
from collections import deque
from typing import Deque, Dict, Hashable, Iterable, List, Optional

__all__ = [
    "Counter",
    "LatencySampler",
    "STRAGGLER_ALPHA",
    "STRAGGLER_WINDOW",
    "StatsRegistry",
    "StragglerTracker",
    "sorted_quantile",
]

#: Weight of the newest sample in a :class:`StragglerTracker` EWMA.
STRAGGLER_ALPHA = 0.3
#: Recent latencies a :class:`StragglerTracker` keeps for its median.
STRAGGLER_WINDOW = 64


def sorted_quantile(ordered: List[float], q: float) -> float:
    """Nearest-rank q-quantile of an ascending sample (0.0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Counter:
    """A monotonically increasing count with an optional byte payload."""

    __slots__ = ("name", "count", "total_bytes")

    def __init__(self, name: str = ""):
        self.name = name
        self.count = 0
        self.total_bytes = 0

    def add(self, nbytes: int = 0) -> None:
        """Record one occurrence carrying ``nbytes`` bytes."""
        self.count += 1
        self.total_bytes += nbytes

    def merge(self, other: "Counter") -> None:
        """Fold another counter into this one."""
        self.count += other.count
        self.total_bytes += other.total_bytes

    def throughput(self, elapsed: float) -> float:
        """Bytes per second over ``elapsed`` seconds."""
        return self.total_bytes / elapsed if elapsed > 0 else 0.0

    def rate(self, elapsed: float) -> float:
        """Occurrences per second over ``elapsed`` seconds."""
        return self.count / elapsed if elapsed > 0 else 0.0

    def __repr__(self) -> str:
        return f"<Counter {self.name!r} n={self.count} bytes={self.total_bytes}>"


class LatencySampler:
    """Streaming latency statistics: count/mean/variance/min/max + reservoir.

    Keeps a bounded reservoir for percentile estimates so memory stays flat
    even over millions of samples (simple systematic thinning: once full,
    every k-th sample replaces a slot round-robin — adequate for the smooth
    latency distributions here and fully deterministic). Percentiles
    with a guaranteed error bound come from
    :class:`repro.obs.sketch.QuantileSketch` instead.
    """

    __slots__ = ("name", "count", "_mean", "_m2", "min", "max",
                 "_reservoir", "_capacity", "_stride", "_cursor")

    def __init__(self, name: str = "", reservoir: int = 4096):
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._reservoir: List[float] = []
        self._capacity = reservoir
        self._stride = 1
        self._cursor = 0

    def observe(self, value: float) -> None:
        """Record one latency sample (seconds).

        Runs once or twice per simulated request; the locals avoid
        re-loading each slot between the Welford updates.
        """
        self.count = count = self.count + 1
        delta = value - self._mean
        self._mean = mean = self._mean + delta / count
        self._m2 += delta * (value - mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        reservoir = self._reservoir
        if len(reservoir) < self._capacity:
            reservoir.append(value)
        else:
            if self.count % self._stride == 0:
                self._reservoir[self._cursor] = value
                self._cursor += 1
                if self._cursor >= self._capacity:
                    self._cursor = 0
                    self._stride = min(self._stride * 2, 1 << 20)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance of all samples."""
        return self._m2 / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def percentile(self, q: float) -> float:
        """Approximate q-quantile (q in [0, 1]), from the reservoir."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        return sorted_quantile(sorted(self._reservoir), q)

    def merge(self, other: "LatencySampler") -> None:
        """Fold another sampler into this one (parallel-shard reduce).

        Count/mean/variance combine exactly (Chan et al.'s parallel
        Welford update); the reservoirs concatenate and, when over
        capacity, thin by deterministic even-spaced selection — no
        randomness, so sweep-executor merges are reproducible regardless
        of shard arrival order being pinned upstream.
        """
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            self._reservoir = list(other._reservoir)
            self._cursor = 0
            self._stride = other._stride
            return
        n1, n2 = self.count, other.count
        total = n1 + n2
        delta = other._mean - self._mean
        self._mean += delta * n2 / total
        self._m2 += other._m2 + delta * delta * n1 * n2 / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        combined = self._reservoir + other._reservoir
        if len(combined) > self._capacity:
            step = len(combined) / self._capacity
            combined = [combined[int(i * step)]
                        for i in range(self._capacity)]
        self._reservoir = combined
        self._cursor = 0
        self._stride = max(self._stride, other._stride)

    def __repr__(self) -> str:
        return (f"<LatencySampler {self.name!r} n={self.count} "
                f"mean={self.mean * 1e3:.3f}ms>")


class StragglerTracker:
    """Straggler estimator after arXiv 1805.06156, shared by every user.

    Holds a latency EWMA per member (a worker, a mirror disk) and one
    bounded window of recent latencies across all members. Members are
    ranked by ``(ewma, id)``: an unproven member reads 0.0, so it looks
    fast and gets work first, and ties go to the lower id so a ranking
    is reproducible. :meth:`threshold` is the age past which an
    operation counts as a straggler: ``max(min_s, k × window median)``.
    """

    __slots__ = ("_ewma", "_window")

    def __init__(self):
        self._ewma: Dict[Hashable, float] = {}
        self._window: Deque[float] = deque(maxlen=STRAGGLER_WINDOW)

    def ewma(self, member: Hashable) -> float:
        """The member's latency EWMA (0.0 until its first sample)."""
        return self._ewma.get(member, 0.0)

    def observe(self, member: Hashable, elapsed: float) -> None:
        """Fold one completed latency into the member's EWMA and the window.

        The first sample seeds the EWMA; later ones blend in with
        weight :data:`STRAGGLER_ALPHA`.
        """
        prev = self._ewma.get(member, 0.0)
        self._ewma[member] = elapsed if prev == 0.0 else \
            (1.0 - STRAGGLER_ALPHA) * prev + STRAGGLER_ALPHA * elapsed
        self._window.append(elapsed)

    def threshold(self, k: float, min_s: float) -> float:
        """``max(min_s, k × median)`` of the window (median 0 when empty)."""
        median = statistics.median(self._window) if self._window else 0.0
        return max(min_s, k * median)

    def rank(self, members: Iterable[Hashable]) -> List[Hashable]:
        """``members`` fastest first: by ``(ewma, id)``."""
        ewma = self._ewma
        return sorted(members, key=lambda m: (ewma.get(m, 0.0), m))

    def fastest(self, members: Iterable[Hashable]) -> Optional[Hashable]:
        """The first member of :meth:`rank`, or None when there is none."""
        ewma = self._ewma
        return min(members, key=lambda m: (ewma.get(m, 0.0), m),
                   default=None)


class StatsRegistry:
    """A named bag of metrics so components can expose them uniformly."""

    def __init__(self):
        self.counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def merge(self, other: "StatsRegistry") -> None:
        """Fold another registry into this one, by metric name.

        The shard-reduce path for parallel sweeps: every primitive knows
        how to merge itself, and names absent on this side are created
        empty first — so merging onto a fresh registry equals a copy.
        Registries round-trip through pickle (the executor boundary), so
        ``merge`` works identically on locally built and unpickled
        shards (pinned by ``tests/test_stats_merge.py``).
        """
        for name, counter in other.counters.items():
            self.counter(name).merge(counter)

    def snapshot(self) -> Dict[str, float]:
        """Flat name→value view for quick assertions and reports."""
        out: Dict[str, float] = {}
        for name, counter in self.counters.items():
            out[f"{name}.count"] = counter.count
            out[f"{name}.bytes"] = counter.total_bytes
        return out
