"""xdd-style micro-benchmark through the OS stack (Figure 2's workload).

Readers issue fixed-size (default 4 KB) synchronous sequential reads
through a :class:`~repro.host.BufferCache` backed by a scheduler-driven
block layer — the whole Linux path the paper measures with xdd on ext3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.host.buffer_cache import BufferCache
from repro.sim import SimulationError, Simulator
from repro.sim.events import Event
from repro.sim.stats import LatencySampler
from repro.units import KiB

__all__ = ["XddReport", "run_xdd"]


class _Reader:
    """One xdd reader, as callbacks: read a block, record it, think,
    repeat until ``end``.

    :func:`run_xdd` starts it with one zero-delay timeout, the push a
    Process bootstrap would make (DESIGN.md §4, "Hops that wait"). A
    failed read stops the run.
    """

    __slots__ = ("sim", "cache", "disk_id", "block_size", "think_time",
                 "progress", "latency", "stream", "offset", "end",
                 "started", "_next", "_done")

    def __init__(self, sim: Simulator, cache: BufferCache, disk_id: int,
                 block_size: int, think_time: float, progress: List[int],
                 latency: LatencySampler, stream: int, offset: int,
                 end: int):
        self.sim = sim
        self.cache = cache
        self.disk_id = disk_id
        self.block_size = block_size
        self.think_time = think_time
        self.progress = progress
        self.latency = latency
        self.stream = stream
        self.offset = offset
        self.end = end
        # Bound once: every read registers both.
        self._next = self.next
        self._done = self.done

    def next(self, _event: Optional[Event] = None) -> None:
        if self.offset + self.block_size > self.end:
            # Break the bound-method cycle: a finished run is then freed
            # by reference counting, not left to the cyclic collector.
            self._next = self._done = None
            return
        self.started = self.sim.now
        self.cache.read(self.stream, self.disk_id, self.offset,
                        self.block_size).callbacks.append(self._done)

    def done(self, read: Event) -> None:
        if not read._ok:
            raise SimulationError(
                f"xdd reader {self.stream}: read at {self.offset} failed"
            ) from read._value
        sim = self.sim
        self.latency.observe(sim.now - self.started)
        self.progress[self.stream] += self.block_size
        self.offset += self.block_size
        if self.think_time > 0:
            sim.after(self.think_time, self._next)
        else:
            self.next()


@dataclass
class XddReport:
    """Results of one xdd run."""

    elapsed: float
    total_bytes: int
    num_streams: int
    mean_latency: float

    @property
    def throughput(self) -> float:
        """Aggregate bytes per second."""
        return self.total_bytes / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def throughput_mb(self) -> float:
        """Aggregate MBytes/s."""
        return self.throughput / (1024 * 1024)


def run_xdd(sim: Simulator, cache: BufferCache, num_streams: int,
            disk_id: int = 0, block_size: int = 4 * KiB,
            per_stream_bytes: int = 1024 * KiB,
            spacing: Optional[int] = None,
            duration: Optional[float] = None,
            think_time: float = 0.0,
            settle_blocks: int = 0,
            settle_cap: float = 60.0) -> XddReport:
    """Run ``num_streams`` sequential readers through the buffer cache.

    Streams are spaced ``spacing`` bytes apart (default: device capacity
    divided by stream count, the paper's layout; Figure 5 uses fixed
    1 GByte intervals). ``think_time`` is the client-side turnaround
    between a completed read and the next issue — on a real box this is
    syscall + copy + scheduler wake-up latency, and it grows with the
    number of runnable reader processes; it is the knob that breaks
    anticipation at high stream counts (see fig02's model note).
    """
    if num_streams < 1:
        raise ValueError(f"num_streams must be >= 1: {num_streams}")
    if per_stream_bytes < block_size:
        raise ValueError("per_stream_bytes below one block")
    capacity = cache.device.capacity_bytes
    if spacing is None:
        spacing = capacity // num_streams
        spacing -= spacing % block_size
    if spacing < per_stream_bytes and duration is None:
        raise ValueError(
            f"streams would overlap: spacing {spacing} < "
            f"{per_stream_bytes} bytes per stream")
    progress: List[int] = [0] * num_streams
    latency = LatencySampler("xdd")

    for stream in range(num_streams):
        offset = stream * spacing
        reader = _Reader(sim, cache, disk_id, block_size, think_time,
                         progress, latency, stream, offset,
                         min(offset + per_stream_bytes, capacity))
        sim.after(0.0, reader._next)
    if settle_blocks > 0:
        # Warm up past the readahead-window ramp: measure only after
        # every stream has pulled enough blocks for its window to reach
        # steady size.
        target = settle_blocks * block_size
        deadline = sim.now + settle_cap
        while (sim.now < deadline and sim.peek() != float("inf")
               and min(progress) < target):
            sim.run(until=min(sim.now + 0.25, deadline))
    baseline = list(progress)
    start = sim.now
    if duration is not None:
        sim.run(until=start + duration)
    else:
        sim.run()
    elapsed = sim.now - start
    measured = sum(p - b for p, b in zip(progress, baseline))
    return XddReport(elapsed=elapsed, total_bytes=measured,
                     num_streams=num_streams, mean_latency=latency.mean)
