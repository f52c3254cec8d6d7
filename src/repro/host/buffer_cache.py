"""OS buffer (page) cache with per-stream readahead windows.

Models the Linux 2.6-era on-demand readahead: a stream's window starts
small, doubles on sequential access up to ``max_bytes`` (128 KB default in
2.6.11), and collapses back when readahead thrash is detected (pages the
window fetched were evicted before the stream read them). Reads that hit
cached pages complete without device I/O; a miss fetches one readahead
window as a single device request tagged with the stream id — which is
what the I/O schedulers below actually see.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.io import BlockDevice, IOKind, IORequest
from repro.sim import Simulator
from repro.sim.events import Event
from repro.sim.stats import StatsRegistry
from repro.units import KiB

__all__ = ["BufferCache", "ReadaheadParams"]


@dataclass(frozen=True)
class ReadaheadParams:
    """Readahead window tuning.

    ``initial_bytes``/``max_bytes`` bound the per-stream window
    (Linux 2.6.11: 16 KB initial, 128 KB max); ``page_bytes`` is the
    cache granule. ``dirty_ratio``/``writeback_period`` govern the write
    path: buffered writes throttle synchronously once dirty pages exceed
    the ratio, and a background flusher (pdflush-style) writes dirty
    runs back every period.
    """

    initial_bytes: int = 16 * KiB
    max_bytes: int = 128 * KiB
    page_bytes: int = 4 * KiB
    dirty_ratio: float = 0.4
    writeback_period: float = 1.0

    def __post_init__(self):
        if self.page_bytes <= 0 or self.page_bytes % 512:
            raise ValueError(f"bad page size: {self.page_bytes}")
        if self.initial_bytes < self.page_bytes:
            raise ValueError("initial window below one page")
        if self.max_bytes < self.initial_bytes:
            raise ValueError("max window below initial window")
        if not 0.0 < self.dirty_ratio < 1.0:
            raise ValueError(f"dirty_ratio must be in (0,1): "
                             f"{self.dirty_ratio}")
        if self.writeback_period <= 0:
            raise ValueError("writeback_period must be positive")


@dataclass
class _StreamState:
    """Per-stream readahead bookkeeping."""

    #: Name of this stream's miss-path Process (formatted once).
    process_name: str = ""
    next_expected: int = -1
    window_bytes: int = 0
    issued_until: int = -1  # end offset of the last issued readahead


class BufferCache:
    """A bounded page cache over a block device.

    Parameters
    ----------
    sim:
        Owning simulator.
    device:
        Downstream device (usually a :class:`~repro.host.BlockLayer`).
    capacity_bytes:
        Total cache memory; pages evict LRU.
    readahead:
        Window parameters.
    """

    def __init__(self, sim: Simulator, device: BlockDevice,
                 capacity_bytes: int,
                 readahead: Optional[ReadaheadParams] = None,
                 name: str = "bcache"):
        self.sim = sim
        self.device = device
        self.readahead = readahead or ReadaheadParams()
        if capacity_bytes < self.readahead.page_bytes:
            raise ValueError(
                f"capacity {capacity_bytes} below one page")
        self.capacity_pages = capacity_bytes // self.readahead.page_bytes
        self.name = name
        #: (disk_id, page_index) -> True, in LRU order (oldest first).
        self._pages: "OrderedDict[Tuple[int, int], bool]" = OrderedDict()
        self._streams: Dict[int, _StreamState] = {}
        #: Dirty pages, in dirtying order (oldest first).
        self._dirty: "OrderedDict[Tuple[int, int], bool]" = OrderedDict()
        self._flusher_running = False
        self.stats = StatsRegistry()
        # Precomputed event name + hit counter: read() runs once per
        # client request, and the f-string + registry probe per call
        # were measurable (the drive and controller do the same).
        self._read_name = f"{name}.read"
        self._c_hits = self.stats.counter("hits")

    # -- public API ----------------------------------------------------------
    def read(self, stream_id: int, disk_id: int, offset: int,
             size: int) -> Event:
        """Read ``[offset, offset+size)``; fires when data is cached.

        Synchronous semantics: the event fires once every page of the
        range is resident (fetching a readahead window on miss).

        A full hit never waits, so it is served here with no Process
        (DESIGN.md §4, "No Process for a hop that never waits"): the
        event succeeds in this call, at the current instant. Only a
        miss or partial hit spawns :meth:`_read`.
        """
        if size <= 0:
            raise ValueError(f"non-positive read size: {size}")
        event = self.sim.event(self._read_name)
        state = self._streams.get(stream_id)
        if state is None:
            state = self._streams[stream_id] = _StreamState(
                process_name=f"{self.name}.s{stream_id}")
        page = self.readahead.page_bytes
        first = offset // page
        last = (offset + size - 1) // page
        pages = self._pages
        for index in range(first, last + 1):
            if (disk_id, index) not in pages:
                self.sim.process(
                    self._read(stream_id, state, disk_id, offset, size,
                               event),
                    name=state.process_name)
                return event
        move_to_end = pages.move_to_end
        for index in range(first, last + 1):
            move_to_end((disk_id, index))
        self._hit(state, offset, size, event)
        return event

    def write(self, stream_id: int, disk_id: int, offset: int,
              size: int) -> Event:
        """Buffered write: dirties pages, throttles at the dirty ratio.

        Completes once the pages are dirtied (and, when over the dirty
        limit, after enough old dirty data has been written back —
        Linux's synchronous dirty throttling).
        """
        if size <= 0:
            raise ValueError(f"non-positive write size: {size}")
        event = self.sim.event(name=f"{self.name}.write")
        self.sim.process(self._write(stream_id, disk_id, offset, size,
                                     event),
                         name=f"{self.name}.w{stream_id}")
        return event

    def _write(self, stream_id: int, disk_id: int, offset: int,
               size: int, event: Event):
        page = self.readahead.page_bytes
        first = offset // page
        last = (offset + size - 1) // page
        for index in range(first, last + 1):
            key = (disk_id, index)
            self._insert(disk_id, index)
            self._dirty.pop(key, None)   # re-dirty moves to the tail
            self._dirty[key] = True
        self.stats.counter("dirtied").add(size)
        limit = int(self.capacity_pages * self.readahead.dirty_ratio)
        while len(self._dirty) > limit:
            yield from self._writeback_oldest_run()
        self._ensure_flusher()
        event.succeed(None)

    def sync(self) -> Event:
        """Barrier: fires once every dirty page has been written back."""
        done = self.sim.event(name=f"{self.name}.sync")

        def drain(sim):
            while self._dirty:
                yield from self._writeback_oldest_run()
            done.succeed(None)

        self.sim.process(drain(self.sim), name=f"{self.name}.sync")
        return done

    @property
    def dirty_pages(self) -> int:
        """Pages awaiting writeback."""
        return len(self._dirty)

    def _writeback_oldest_run(self):
        """Write back the oldest dirty page plus its contiguous run."""
        if not self._dirty:
            return
        (disk_id, start_index), _ = next(iter(self._dirty.items()))
        run = [start_index]
        while (disk_id, run[-1] + 1) in self._dirty:
            run.append(run[-1] + 1)
        while (disk_id, run[0] - 1) in self._dirty:
            run.insert(0, run[0] - 1)
        page = self.readahead.page_bytes
        for index in run:
            del self._dirty[(disk_id, index)]
        request = IORequest(kind=IOKind.WRITE, disk_id=disk_id,
                            offset=run[0] * page,
                            size=len(run) * page)
        self.stats.counter("writeback_io").add(request.size)
        yield self.device.submit(request)

    def _ensure_flusher(self) -> None:
        if self._flusher_running:
            return
        self._flusher_running = True
        self.sim.process(self._flusher(), name=f"{self.name}.flusher")

    def _flusher(self):
        """Background writeback: no page stays dirty past ~a period."""
        while self._dirty:
            yield self.sim.timeout(self.readahead.writeback_period)
            # Flush everything currently dirty (runs coalesce).
            target = len(self._dirty)
            while self._dirty and target > 0:
                before = len(self._dirty)
                yield from self._writeback_oldest_run()
                target -= before - len(self._dirty)
        self._flusher_running = False

    def cached_fraction(self, disk_id: int, offset: int, size: int) -> float:
        """Fraction of the byte range currently resident (no LRU touch)."""
        page = self.readahead.page_bytes
        first = offset // page
        last = (offset + size - 1) // page
        resident = sum((disk_id, index) in self._pages
                       for index in range(first, last + 1))
        return resident / (last - first + 1)

    # -- internals -------------------------------------------------------------
    def _hit(self, state: _StreamState, offset: int, size: int,
             event: Event) -> None:
        """Complete a read whose pages are all resident (and touched)."""
        self._c_hits.add(size)
        state.next_expected = offset + size
        event.succeed(None)

    def _read(self, stream_id: int, state: _StreamState, disk_id: int,
              offset: int, size: int, event: Event):
        page = self.readahead.page_bytes
        first = offset // page
        last = (offset + size - 1) // page
        # Re-check residency: a fill can land between read() and this
        # bootstrap at the same instant, turning the miss into a hit.
        missing = [index for index in range(first, last + 1)
                   if not self._touch(disk_id, index)]
        if not missing:
            self._hit(state, offset, size, event)
            return
        self.stats.counter("misses").add(size)
        sequential = offset == state.next_expected
        start = missing[0] * page
        if start < state.issued_until and sequential:
            # These pages were readahead-fetched and already evicted:
            # thrash — collapse the window (Linux does the same).
            self.stats.counter("thrash").add()
            state.window_bytes = self.readahead.initial_bytes
        elif sequential:
            state.window_bytes = min(
                max(state.window_bytes * 2, self.readahead.initial_bytes),
                self.readahead.max_bytes)
        else:
            state.window_bytes = self.readahead.initial_bytes
        demand_end = (last + 1) * page
        fetch_end = max(demand_end, start + state.window_bytes)
        fetch_end = min(fetch_end, self.device.capacity_bytes)
        fetch_bytes = fetch_end - start
        request = IORequest(kind=IOKind.READ, disk_id=disk_id, offset=start,
                            size=fetch_bytes, stream_id=stream_id)
        self.stats.counter("readahead_io").add(fetch_bytes)
        yield self.device.submit(request)
        for index in range(start // page, fetch_end // page):
            self._insert(disk_id, index)
        state.next_expected = offset + size
        state.issued_until = fetch_end
        event.succeed(None)

    def _touch(self, disk_id: int, index: int) -> bool:
        key = (disk_id, index)
        if key in self._pages:
            self._pages.move_to_end(key)
            return True
        return False

    def _insert(self, disk_id: int, index: int) -> None:
        key = (disk_id, index)
        if key in self._pages:
            self._pages.move_to_end(key)
            return
        if len(self._pages) >= self.capacity_pages:
            # Evict the oldest *clean* page; dirty pages are pinned until
            # writeback (the dirty ratio guarantees clean pages exist).
            victim = next((k for k in self._pages
                           if k not in self._dirty), None)
            if victim is None:
                victim = next(iter(self._pages))
                self._dirty.pop(victim, None)
                self.stats.counter("dirty_evictions").add()
            del self._pages[victim]
            self.stats.counter("evictions").add()
        self._pages[key] = True

    def __repr__(self) -> str:
        return (f"<BufferCache {len(self._pages)}/{self.capacity_pages} "
                f"pages, {len(self._streams)} streams>")
