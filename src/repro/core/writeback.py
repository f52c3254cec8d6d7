"""Write coalescing: the paper's read design applied to write streams.

The paper is read-focused ("read-only and write-once type applications");
this extension (DESIGN.md §5) closes the write-once half. Sequential
*write* streams are detected with the same region-bitmap classifier and
their small writes are accumulated in per-stream gather buffers; a buffer
flushes to disk as one large write when it reaches the coalesce size, the
stream goes quiet, or total write-back memory runs short.

Semantics: a client write completes once it is absorbed into a gather
buffer (write-behind). ``flush_all`` provides the barrier the durability-
minded caller needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.io import BlockDevice, IOKind, IORequest, stamp_submit
from repro.sim import Simulator
from repro.sim.events import Event
from repro.sim.stats import StatsRegistry
from repro.units import MiB, SECTOR_BYTES

__all__ = ["WriteCoalescer", "WriteCoalescerParams"]


@dataclass(frozen=True)
class WriteCoalescerParams:
    """Tuning for the write-behind path.

    Attributes
    ----------
    coalesce_bytes:
        Target size of one flushed disk write (the write-side ``R``).
    memory_budget:
        Total bytes of dirty data held across all gather buffers.
    flush_timeout:
        Idle time after which a partial gather buffer flushes anyway.
    ack_cost_s:
        CPU time to absorb one client write into a buffer.
    """

    coalesce_bytes: int = 1 * MiB
    memory_budget: int = 64 * MiB
    flush_timeout: float = 0.5
    ack_cost_s: float = 5e-6

    def __post_init__(self):
        if self.coalesce_bytes < SECTOR_BYTES or \
                self.coalesce_bytes % SECTOR_BYTES:
            raise ValueError(
                f"coalesce_bytes must be sector-aligned: "
                f"{self.coalesce_bytes}")
        if self.memory_budget < self.coalesce_bytes:
            raise ValueError("memory_budget below one gather buffer")
        if self.flush_timeout <= 0:
            raise ValueError("flush_timeout must be positive")


class _GatherBuffer:
    """One stream's pending contiguous dirty range."""

    __slots__ = ("disk_id", "offset", "size", "last_write")

    def __init__(self, disk_id: int, offset: int, now: float):
        self.disk_id = disk_id
        self.offset = offset
        self.size = 0
        self.last_write = now

    @property
    def end(self) -> int:
        return self.offset + self.size


class WriteCoalescer:
    """Gathers sequential small writes into large disk writes.

    Keyed by ``(disk_id, stream_id)``: a write extends its stream's
    buffer when exactly contiguous; anything else (first write, seek,
    overlap) flushes the old buffer and starts a new one — random writes
    therefore degenerate to pass-through with one extra buffer hop.
    """

    def __init__(self, sim: Simulator, device: BlockDevice,
                 params: Optional[WriteCoalescerParams] = None,
                 name: str = "wback"):
        self.sim = sim
        self.device = device
        self.params = params or WriteCoalescerParams()
        self.name = name
        self._buffers: Dict[Tuple[int, Optional[int]], _GatherBuffer] = {}
        self.dirty_bytes = 0
        self.stats = StatsRegistry()
        self._flusher_running = False

    # -- client API -----------------------------------------------------------
    def write(self, request: IORequest) -> Event:
        """Absorb a write; completes at ack (write-behind semantics)."""
        if request.kind is not IOKind.WRITE:
            raise ValueError(f"write() got {request!r}")
        stamp_submit(request, self.sim.now)
        event = self.sim.event(name=f"wb{request.request_id}")
        self.sim.process(self._absorb(request, event),
                         name=f"{self.name}.absorb")
        return event

    def _absorb(self, request: IORequest, event: Event):
        params = self.params
        key = (request.disk_id, request.stream_id)
        buffer = self._buffers.get(key)
        if buffer is not None and request.offset != buffer.end:
            # Non-contiguous: flush the old run before starting anew.
            yield from self._flush(key)
        while self.dirty_bytes + request.size > params.memory_budget:
            yield from self._flush_oldest()
        # Look the buffer up again: the budget wait may have flushed it,
        # and a write added to a flushed buffer is acknowledged but never
        # written.
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = _GatherBuffer(request.disk_id, request.offset,
                                   self.sim.now)
            self._buffers[key] = buffer
        buffer.size += request.size
        buffer.last_write = self.sim.now
        self.dirty_bytes += request.size
        self.stats.counter("absorbed").add(request.size)
        yield self.sim.timeout(params.ack_cost_s)
        request.complete_time = self.sim.now
        self.stats.latency("ack_latency").observe(request.latency)
        event.succeed(request)
        if buffer.size >= params.coalesce_bytes:
            yield from self._flush(key)
        self._ensure_flusher()

    # -- flushing -----------------------------------------------------------------
    def _flush(self, key) -> "object":
        buffer = self._buffers.pop(key, None)
        if buffer is None or buffer.size == 0:
            return
        self.dirty_bytes -= buffer.size
        flush = IORequest(kind=IOKind.WRITE, disk_id=buffer.disk_id,
                          offset=buffer.offset, size=buffer.size,
                          stream_id=key[1])
        flush.annotations["core.writeback"] = True
        self.stats.counter("flushes").add(buffer.size)
        yield self.device.submit(flush)

    def _flush_oldest(self):
        if not self._buffers:
            return
        key = min(self._buffers,
                  key=lambda k: self._buffers[k].last_write)
        yield from self._flush(key)

    def flush_all(self) -> Event:
        """Barrier: returns an event firing once all dirty data is on
        disk."""
        done = self.sim.event(name=f"{self.name}.barrier")

        def drain(sim):
            for key in list(self._buffers):
                yield from self._flush(key)
            done.succeed()

        self.sim.process(drain(self.sim), name=f"{self.name}.drain")
        return done

    def _ensure_flusher(self) -> None:
        if self._flusher_running:
            return
        self._flusher_running = True
        self.sim.process(self._flusher(), name=f"{self.name}.flusher")

    def _flusher(self):
        """Background timeout flusher: no gather buffer sits dirty
        forever."""
        period = self.params.flush_timeout / 2
        while self._buffers:
            yield self.sim.timeout(period)
            now = self.sim.now
            stale = [key for key, buffer in self._buffers.items()
                     if now - buffer.last_write >= self.params.flush_timeout]
            for key in stale:
                yield from self._flush(key)
        self._flusher_running = False

    def __repr__(self) -> str:
        return (f"<WriteCoalescer buffers={len(self._buffers)} "
                f"dirty={self.dirty_bytes}>")
