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
from dataclasses import dataclass
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


@dataclass(slots=True)
class _StreamState:
    """Per-stream readahead bookkeeping."""

    next_expected: int = -1
    window_bytes: int = 0
    issued_until: int = -1  # end offset of the last issued readahead


class _Miss:
    """One read miss or partial hit, as callbacks: re-check residency,
    fetch a readahead window, insert it, then complete the read.

    :meth:`BufferCache.read` starts it with one zero-delay timeout, the
    push a Process bootstrap would make (DESIGN.md §4, "Hops that
    wait"). A failed fetch fails the read's event with the same
    exception.
    """

    __slots__ = ("cache", "stream_id", "state", "disk_id", "offset", "size",
                 "event", "fetch_start", "fetch_end")

    def __init__(self, cache: "BufferCache", stream_id: int,
                 state: _StreamState, disk_id: int, offset: int, size: int,
                 event: Event):
        self.cache = cache
        self.stream_id = stream_id
        self.state = state
        self.disk_id = disk_id
        self.offset = offset
        self.size = size
        self.event = event

    def start(self, _event: Event) -> None:
        cache = self.cache
        state = self.state
        disk_id = self.disk_id
        offset = self.offset
        size = self.size
        page = cache._page
        last = (offset + size - 1) // page
        # Re-check residency: a fill can land between read() and this
        # step at the same instant, turning the miss into a hit. Every
        # resident page of the range is touched.
        pages = cache._pages
        first_missing = None
        for index in range(offset // page, last + 1):
            key = (disk_id, index)
            if key in pages:
                pages.move_to_end(key)
            elif first_missing is None:
                first_missing = index
        if first_missing is None:
            cache._hit(state, offset, size, self.event)
            return
        cache.stats.counter("misses").add(size)
        readahead = cache.readahead
        sequential = offset == state.next_expected
        start = first_missing * page
        if start < state.issued_until and sequential:
            # These pages were readahead-fetched and already evicted:
            # thrash — collapse the window (Linux does the same).
            cache.stats.counter("thrash").add()
            state.window_bytes = readahead.initial_bytes
        elif sequential:
            state.window_bytes = min(
                max(state.window_bytes * 2, readahead.initial_bytes),
                readahead.max_bytes)
        else:
            state.window_bytes = readahead.initial_bytes
        demand_end = (last + 1) * page
        fetch_end = max(demand_end, start + state.window_bytes)
        fetch_end = min(fetch_end, cache.device.capacity_bytes)
        fetch_bytes = fetch_end - start
        self.fetch_start = start
        self.fetch_end = fetch_end
        request = IORequest(kind=IOKind.READ, disk_id=disk_id, offset=start,
                            size=fetch_bytes, stream_id=self.stream_id)
        cache.stats.counter("readahead_io").add(fetch_bytes)
        cache.device.submit(request).callbacks.append(self.fetched)

    def fetched(self, done: Event) -> None:
        if not done._ok:
            self.event.fail(done._value)
            return
        cache = self.cache
        page = cache._page
        cache._insert_run(self.disk_id, self.fetch_start // page,
                          self.fetch_end // page)
        state = self.state
        state.next_expected = self.offset + self.size
        state.issued_until = self.fetch_end
        self.event.succeed(None)


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
        self._page = self.readahead.page_bytes

    # -- public API ----------------------------------------------------------
    def read(self, stream_id: int, disk_id: int, offset: int,
             size: int) -> Event:
        """Read ``[offset, offset+size)``; fires when data is cached.

        Synchronous semantics: the event fires once every page of the
        range is resident (fetching a readahead window on miss).

        A full hit never waits, so it is served here (DESIGN.md §4, "No
        Process for a hop that never waits"): the event succeeds in this
        call, at the current instant. A miss or partial hit starts a
        :class:`_Miss` chain; ``read()`` touches nothing on that path.
        """
        if size <= 0:
            raise ValueError(f"non-positive read size: {size}")
        sim = self.sim
        event = sim.event(self._read_name)
        state = self._streams.get(stream_id)
        if state is None:
            state = self._streams[stream_id] = _StreamState()
        page = self._page
        first = offset // page
        last = (offset + size - 1) // page
        pages = self._pages
        if first == last:
            # One page (every Figure 2 read): one probe, and it touches.
            try:
                pages.move_to_end((disk_id, first))
            except KeyError:
                sim.after(0.0, _Miss(self, stream_id, state, disk_id,
                                     offset, size, event).start)
                return event
        else:
            for index in range(first, last + 1):
                if (disk_id, index) not in pages:
                    sim.after(0.0, _Miss(self, stream_id, state, disk_id,
                                         offset, size, event).start)
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

    def _insert(self, disk_id: int, index: int) -> None:
        """Make one page resident (most recently used)."""
        self._insert_run(disk_id, index, index + 1)

    def _insert_run(self, disk_id: int, first: int, end: int) -> None:
        """Make pages ``[first, end)`` resident, in order, each most
        recently used, evicting LRU pages as needed."""
        pages = self._pages
        dirty = self._dirty
        capacity = self.capacity_pages
        evictions = None
        for index in range(first, end):
            key = (disk_id, index)
            if key in pages:
                pages.move_to_end(key)
                continue
            if len(pages) >= capacity:
                if not dirty:
                    victim = next(iter(pages))
                else:
                    # Evict the oldest *clean* page; dirty pages are
                    # pinned until writeback (the dirty ratio
                    # guarantees clean pages exist).
                    victim = next((k for k in pages if k not in dirty),
                                  None)
                    if victim is None:
                        victim = next(iter(pages))
                        dirty.pop(victim, None)
                        self.stats.counter("dirty_evictions").add()
                del pages[victim]
                if evictions is None:
                    evictions = self.stats.counter("evictions")
                evictions.add()
            pages[key] = True

    def __repr__(self) -> str:
        return (f"<BufferCache {len(self._pages)}/{self.capacity_pages} "
                f"pages, {len(self._streams)} streams>")
