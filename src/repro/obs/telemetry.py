"""Scheduler-driven time-series telemetry.

A :class:`Telemetry` instance is bound to one simulator. Components (or
the convenience ``watch_*`` helpers) register named **gauges** (callables
returning an instantaneous level) and **counters** (callables returning a
monotonic total); a sampler process snapshots every registered metric
into a bounded :class:`TimeSeries` ring buffer at a fixed simulated-time
interval.

The sampler self-terminates like the server's GC loop: when it wakes and
finds the event heap otherwise empty the workload is over, so it stops
rescheduling itself instead of ticking an idle simulation forever.
Sampling reads state but never mutates it, so a telemetry-on run's
simulated *results* equal a telemetry-off run's (the sampler's timeouts
do enter the event heap, which is why telemetry — unlike span recording —
is not part of the bit-identical-trace guarantee; see
``tests/test_obs_overhead.py`` for both pins).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

__all__ = ["Telemetry", "TimeSeries", "max_windowed_rate"]


def max_windowed_rate(samples: List[Tuple[float, float]],
                      window: float) -> float:
    """Worst-case burn rate of a counter over any sliding window.

    ``samples`` are ``(time, monotonic_total)`` rows (a counter
    :meth:`TimeSeries.samples` list, or the same shape read back from a
    JSONL export). For every sample the increase over the trailing
    ``window`` seconds is divided by the actual elapsed span, and the
    maximum such rate is returned — the number an SLO burn-rate ceiling
    compares against (DESIGN.md §10). Returns 0.0 with fewer than two
    samples.
    """
    if window <= 0:
        raise ValueError(f"window must be positive: {window}")
    worst = 0.0
    left = 0
    for right in range(1, len(samples)):
        now, total = samples[right]
        while left < right - 1 and samples[left + 1][0] <= now - window:
            left += 1
        then, base = samples[left]
        elapsed = now - then
        if elapsed > 0:
            rate = (total - base) / elapsed
            if rate > worst:
                worst = rate
    return worst


class TimeSeries:
    """Bounded ring buffer of ``(sim_time, value)`` samples."""

    __slots__ = ("name", "kind", "_samples")

    def __init__(self, name: str, kind: str = "gauge",
                 capacity: Optional[int] = 4096):
        self.name = name
        #: "gauge" (instantaneous level) or "counter" (monotonic total).
        self.kind = kind
        self._samples: Deque[Tuple[float, float]] = deque(maxlen=capacity)

    def record(self, now: float, value: float) -> None:
        """Append one sample (oldest evicted once full)."""
        self._samples.append((now, value))

    def samples(self) -> List[Tuple[float, float]]:
        """Retained ``(time, value)`` samples, oldest first."""
        return list(self._samples)

    @property
    def last(self) -> Optional[Tuple[float, float]]:
        """Most recent sample, or ``None``."""
        return self._samples[-1] if self._samples else None

    def mean(self) -> float:
        """Arithmetic mean of retained sample values (0.0 when empty)."""
        if not self._samples:
            return 0.0
        return sum(v for _t, v in self._samples) / len(self._samples)

    def max(self) -> float:
        """Largest retained sample value (0.0 when empty)."""
        return max((v for _t, v in self._samples), default=0.0)

    def rates(self) -> List[Tuple[float, float]]:
        """Per-interval derivative for counter series.

        Returns ``(interval_end_time, delta/second)`` rows — the reclaim
        or retry *rate* the obs report renders for counters.
        """
        rows: List[Tuple[float, float]] = []
        previous: Optional[Tuple[float, float]] = None
        for now, value in self._samples:
            if previous is not None and now > previous[0]:
                rows.append((now, (value - previous[1])
                             / (now - previous[0])))
            previous = (now, value)
        return rows

    def window_rate(self, window: float) -> float:
        """Worst-case sliding-window rate (see :func:`max_windowed_rate`)."""
        return max_windowed_rate(list(self._samples), window)

    def __len__(self) -> int:
        return len(self._samples)

    def __repr__(self) -> str:
        return (f"<TimeSeries {self.name!r} {self.kind} "
                f"n={len(self._samples)}>")


class Telemetry:
    """Periodic sampler of registered metrics on one simulator.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.Simulator`.
    interval:
        Simulated seconds between samples.
    capacity:
        Ring-buffer length per metric.
    """

    def __init__(self, sim: Any, interval: float = 0.05,
                 capacity: Optional[int] = 4096, name: str = "telemetry"):
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        self.sim = sim
        self.interval = interval
        self.capacity = capacity
        self.name = name
        self.series: Dict[str, TimeSeries] = {}
        self._probes: List[Tuple[str, Callable[[], float]]] = []
        self.samples_taken = 0
        self.running = False

    # -- registration -------------------------------------------------------
    def _register(self, name: str, probe: Callable[[], float],
                  kind: str) -> TimeSeries:
        if name in self.series:
            raise ValueError(f"metric already registered: {name}")
        series = TimeSeries(name, kind=kind, capacity=self.capacity)
        self.series[name] = series
        self._probes.append((name, probe))
        return series

    def add_gauge(self, name: str,
                  probe: Callable[[], float]) -> TimeSeries:
        """Register an instantaneous-level metric."""
        return self._register(name, probe, "gauge")

    def add_counter(self, name: str,
                    probe: Callable[[], float]) -> TimeSeries:
        """Register a monotonic-total metric (report renders its rate)."""
        return self._register(name, probe, "counter")

    # -- convenience wiring -------------------------------------------------
    def watch_server(self, server: Any, prefix: str = "server") -> None:
        """Register the stream server's paper-relevant metrics.

        Dispatch-set occupancy and admission backlog, buffered-set bytes,
        mean per-stream read-ahead staging depth, GC reclaim totals, and
        the §6 fault-policy counters (retries, deadline timeouts,
        quarantines, device errors).
        """
        dispatch = server.dispatch
        buffered = server.buffered
        classifier = server.classifier
        stats = server.stats
        self.add_gauge(f"{prefix}.dispatch_occupancy",
                       lambda: dispatch.occupancy)
        self.add_gauge(f"{prefix}.dispatch_waiting",
                       lambda: dispatch.waiting_count)
        self.add_gauge(f"{prefix}.buffered_bytes",
                       lambda: buffered.in_use)
        self.add_gauge(f"{prefix}.live_streams",
                       lambda: classifier.live_streams)
        self.add_gauge(
            f"{prefix}.readahead_depth",
            lambda: (buffered.in_use / classifier.live_streams
                     if classifier.live_streams else 0.0))
        self.add_counter(f"{prefix}.gc_reclaimed_bytes",
                         lambda: server.gc.buffers_reclaimed_bytes)
        self.add_counter(f"{prefix}.gc_cycles", lambda: server.gc.cycles)
        for counter_name in ("retries", "quarantined_streams",
                             "device_errors", "staged_hits", "direct",
                             "completed"):
            counter = stats.counter(counter_name)
            self.add_counter(f"{prefix}.{counter_name}",
                             lambda c=counter: c.count)

    def watch_drive(self, drive: Any, prefix: Optional[str] = None) -> None:
        """Register a drive's queue depth and busy-time accumulation."""
        label = prefix or f"disk.{drive.name}"
        self.add_gauge(f"{label}.queue_length",
                       lambda: drive.queue_length)
        self.add_counter(f"{label}.busy_time", lambda: drive.busy_time)
        self.add_counter(f"{label}.seeks",
                         lambda: drive.stats.counter("seeks").count)

    def watch_faults(self, device: Any,
                     prefix: Optional[str] = None) -> None:
        """Register a FaultyDevice wrapper's injection counters."""
        label = prefix or f"faults.{device.name}"
        stats = device.stats
        self.add_counter(f"{label}.injected",
                         lambda: stats.counter("injected").count)
        self.add_counter(
            f"{label}.injected_transient",
            lambda: stats.counter("injected_transient").count)
        self.add_counter(f"{label}.straggled",
                         lambda: stats.counter("straggled").count)

    # -- sampling -----------------------------------------------------------
    def sample(self, now: Optional[float] = None) -> None:
        """Snapshot every registered metric immediately."""
        when = self.sim.now if now is None else now
        for name, probe in self._probes:
            self.series[name].record(when, float(probe()))
        self.samples_taken += 1

    def start(self) -> None:
        """Start the sampler process (idempotent)."""
        if self.running:
            return
        self.running = True
        self.sim.process(self._loop(), name=self.name)

    def _loop(self):
        sim = self.sim
        while True:
            self.sample(sim.now)
            if sim.queue_length == 0:
                # Nothing else scheduled: the workload has drained, so
                # stop instead of keeping an idle simulation alive.
                break
            yield sim.timeout(self.interval)
        self.running = False

    def __repr__(self) -> str:
        return (f"<Telemetry {self.name!r} interval={self.interval:g}s "
                f"metrics={len(self.series)} "
                f"samples={self.samples_taken}>")
