"""Metric collection for simulations.

All metrics are pull-based and cheap to update: experiments run millions of
events, so per-sample work is a couple of float ops. Aggregation happens at
report time.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Histogram",
    "IntervalRate",
    "LatencySampler",
    "StatsRegistry",
    "TimeWeightedGauge",
    "sorted_quantile",
]


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


class TimeWeightedGauge:
    """Tracks a level over time and reports its time-weighted mean.

    Used for queue depths, memory in use, dispatch-set occupancy.
    """

    __slots__ = ("name", "_level", "_last_time", "_area", "_start",
                 "max_level", "min_level")

    def __init__(self, name: str = "", start_time: float = 0.0,
                 level: float = 0.0):
        self.name = name
        self._level = level
        self._last_time = start_time
        self._start = start_time
        self._area = 0.0
        self.max_level = level
        self.min_level = level

    @property
    def level(self) -> float:
        """Current instantaneous level."""
        return self._level

    def set(self, now: float, level: float) -> None:
        """Move the gauge to ``level`` at simulated time ``now``."""
        if now < self._last_time:
            raise ValueError(
                f"gauge time going backwards: {now} < {self._last_time}")
        self._area += self._level * (now - self._last_time)
        self._last_time = now
        self._level = level
        self.max_level = max(self.max_level, level)
        self.min_level = min(self.min_level, level)

    def adjust(self, now: float, delta: float) -> None:
        """Add ``delta`` to the level at time ``now``."""
        self.set(now, self._level + delta)

    def mean(self, now: Optional[float] = None) -> float:
        """Time-weighted mean level from start to ``now`` (default: last)."""
        end = self._last_time if now is None else now
        span = end - self._start
        if span <= 0:
            return self._level
        area = self._area + self._level * (end - self._last_time)
        return area / span

    def merge(self, other: "TimeWeightedGauge") -> None:
        """Fold another gauge's observation window into this one.

        Shards observe independent windows, so the merged gauge reports
        the duration-weighted mean of the two windows, the summed
        instantaneous level (shards track disjoint populations), and the
        combined extrema. Internally the windows are laid end to end —
        ``mean()`` stays exact without keeping per-window history.
        """
        span_self = self._last_time - self._start
        span_other = other._last_time - other._start
        area_self = self.mean() * span_self
        area_other = other.mean() * span_other
        self._start = 0.0
        self._last_time = span_self + span_other
        self._area = area_self + area_other
        self._level += other._level
        self.max_level = max(self.max_level, other.max_level)
        self.min_level = min(self.min_level, other.min_level)

    def __repr__(self) -> str:
        return f"<Gauge {self.name!r} level={self._level:g}>"


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


class Histogram:
    """Fixed-bucket histogram with explicit upper bounds."""

    __slots__ = ("name", "bounds", "counts", "overflow")

    def __init__(self, bounds: Iterable[float], name: str = ""):
        self.name = name
        self.bounds = sorted(bounds)
        if not self.bounds:
            raise ValueError("histogram needs at least one bound")
        self.counts = [0] * len(self.bounds)
        self.overflow = 0

    def observe(self, value: float) -> None:
        """Count ``value`` into its bucket (bounds are inclusive uppers)."""
        index = bisect_left(self.bounds, value)
        if index >= len(self.bounds):
            self.overflow += 1
        else:
            self.counts[index] += 1

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram into this one (bounds must match)."""
        if self.bounds != other.bounds:
            raise ValueError(
                f"histogram bounds differ: {self.bounds} vs {other.bounds}")
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.overflow += other.overflow

    @property
    def total(self) -> int:
        """Total observations including overflow."""
        return sum(self.counts) + self.overflow

    def as_rows(self) -> List[Tuple[float, int]]:
        """(upper_bound, count) rows, plus (inf, overflow) if nonzero."""
        rows = list(zip(self.bounds, self.counts))
        if self.overflow:
            rows.append((math.inf, self.overflow))
        return rows


class IntervalRate:
    """Windowed throughput: bytes recorded per fixed interval.

    Used to drop warm-up intervals and to check steady state.
    """

    __slots__ = ("interval", "_windows", "_current_start")

    def __init__(self, interval: float = 1.0):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self._windows: Dict[int, int] = {}
        self._current_start = 0.0

    def record(self, now: float, nbytes: int) -> None:
        """Attribute ``nbytes`` to the window containing ``now``."""
        window = int(now / self.interval)
        self._windows[window] = self._windows.get(window, 0) + nbytes

    def rates(self) -> List[Tuple[float, float]]:
        """(window_start_time, bytes_per_second) for every touched window."""
        return [(w * self.interval, b / self.interval)
                for w, b in sorted(self._windows.items())]

    def steady_rate(self, skip_windows: int = 1) -> float:
        """Mean rate after dropping the first ``skip_windows`` windows."""
        rows = self.rates()[skip_windows:]
        if not rows:
            return 0.0
        return sum(rate for _start, rate in rows) / len(rows)

    def merge(self, other: "IntervalRate") -> None:
        """Fold another tracker into this one (intervals must match)."""
        if self.interval != other.interval:
            raise ValueError(
                f"intervals differ: {self.interval} vs {other.interval}")
        for window, nbytes in other._windows.items():
            self._windows[window] = self._windows.get(window, 0) + nbytes


class StatsRegistry:
    """A named bag of metrics so components can expose them uniformly."""

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, TimeWeightedGauge] = {}
        self.latencies: Dict[str, LatencySampler] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def gauge(self, name: str, start_time: float = 0.0) -> TimeWeightedGauge:
        """Get or create the named gauge."""
        if name not in self.gauges:
            self.gauges[name] = TimeWeightedGauge(name, start_time=start_time)
        return self.gauges[name]

    def latency(self, name: str) -> LatencySampler:
        """Get or create the named latency sampler."""
        if name not in self.latencies:
            self.latencies[name] = LatencySampler(name)
        return self.latencies[name]

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
        for name, gauge in other.gauges.items():
            self.gauge(name).merge(gauge)
        for name, sampler in other.latencies.items():
            self.latency(name).merge(sampler)

    def snapshot(self) -> Dict[str, float]:
        """Flat name→value view for quick assertions and reports."""
        out: Dict[str, float] = {}
        for name, counter in self.counters.items():
            out[f"{name}.count"] = counter.count
            out[f"{name}.bytes"] = counter.total_bytes
        for name, gauge in self.gauges.items():
            out[f"{name}.level"] = gauge.level
            out[f"{name}.mean"] = gauge.mean()
        for name, sampler in self.latencies.items():
            out[f"{name}.n"] = sampler.count
            out[f"{name}.mean"] = sampler.mean
        return out
