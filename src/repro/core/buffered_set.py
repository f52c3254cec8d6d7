"""The buffered set: staged read-ahead data awaiting consumption.

Each dispatched read-ahead request owns a :class:`StreamBuffer` covering
its byte range. Client requests complete from filled buffers; requests
arriving while the fetch is in flight attach to the buffer and complete
when it fills. Total buffer memory is bounded by ``M``; the garbage
collector reclaims buffers nobody read (a stream that stopped, a region
misclassified as sequential).

Lookup and reclamation are index-accelerated (DESIGN.md "data-plane
indexes"): a per-stream start-sorted span index makes
:meth:`BufferedSet.find_in_stream` O(log buffers), a per-stream head
map makes the sequential hit (:meth:`BufferedSet.consume_head`) O(1),
and an idle heap with one entry per filled buffer, re-keyed lazily,
makes :meth:`BufferedSet.collect` touch only expired buffers. All are pure
accelerations — observable behaviour (results, tie-breaks, release
order, callback order) is bit-identical to the reference linear scans,
which ``tests/test_core_differential.py`` pins.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from heapq import heappop, heappush, heapreplace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.io import IORequest
from repro.sim.events import Event

__all__ = ["BufferedSet", "StreamBuffer"]

_buffer_ids = itertools.count(1)


class StreamBuffer:
    """One staged extent of a stream.

    ``filled`` flips when the disk read completes; ``consumed_until`` is
    the high-water byte the client has read (buffers are consumed in
    order because streams are sequential). ``end`` is one past the last
    byte staged.
    """

    __slots__ = ("buffer_id", "stream_id", "disk_id", "offset", "size",
                 "end", "filled", "consumed_until", "created_at",
                 "last_access", "waiters")

    def __init__(self, stream_id: int, disk_id: int, offset: int,
                 size: int, now: float):
        if size <= 0:
            raise ValueError(f"buffer size must be positive: {size}")
        self.buffer_id = next(_buffer_ids)
        self.stream_id = stream_id
        self.disk_id = disk_id
        self.offset = offset
        self.size = size
        self.end = offset + size
        self.filled = False
        self.consumed_until = offset
        self.created_at = now
        self.last_access = now
        #: (request, event) pairs to complete when the buffer fills.
        self.waiters: List[Tuple[IORequest, Event]] = []

    @property
    def fully_consumed(self) -> bool:
        """True once the client has read everything staged here."""
        return self.filled and self.consumed_until >= self.end

    def contains(self, offset: int, size: int) -> bool:
        """Whole byte range inside this buffer?"""
        return self.offset <= offset and offset + size <= self.end

    def __repr__(self) -> str:
        state = "filled" if self.filled else "in-flight"
        return (f"<Buffer#{self.buffer_id} s{self.stream_id} "
                f"[{self.offset},{self.end}) {state}>")


class _SpanIndex:
    """Start-sorted byte-span index over a group of buffers.

    Same shape as ``BitmapTable``'s per-disk index: a plain-int start
    list for cheap bisects plus a parallel ``(buffer_id, end)`` list,
    mutated in lock-step. ``find`` bisects to the rightmost start at or
    below the query offset and walks left no further than the widest
    span ever inserted — any containing buffer must start within that
    window. Buffer ids are globally monotonic, so equal starts stay in
    allocation order and the min-id tie-break below reproduces "first
    match in insertion order" exactly.
    """

    __slots__ = ("starts", "items", "max_span")

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.items: List[Tuple[int, int]] = []
        self.max_span = 0

    def __len__(self) -> int:
        return len(self.starts)

    def insert(self, buffer: StreamBuffer) -> None:
        position = bisect_right(self.starts, buffer.offset)
        self.starts.insert(position, buffer.offset)
        self.items.insert(position, (buffer.buffer_id, buffer.end))
        if buffer.size > self.max_span:
            self.max_span = buffer.size

    def remove(self, buffer: StreamBuffer) -> None:
        position = bisect_right(self.starts, buffer.offset)
        buffer_id = buffer.buffer_id
        while position > 0 and self.starts[position - 1] == buffer.offset:
            if self.items[position - 1][0] == buffer_id:
                del self.starts[position - 1]
                del self.items[position - 1]
                return
            position -= 1
        raise ValueError(f"{buffer!r} not indexed")

    def find(self, offset: int, size: int) -> Optional[int]:
        """Lowest buffer id whose span contains the range, or None."""
        starts = self.starts
        position = bisect_right(starts, offset)
        max_span = self.max_span
        target_end = offset + size
        best: Optional[int] = None
        while position > 0:
            start = starts[position - 1]
            if offset - start >= max_span:
                break
            buffer_id, end = self.items[position - 1]
            # start <= offset is implied by the bisect.
            if target_end <= end and (best is None or buffer_id < best):
                best = buffer_id
            position -= 1
        return best


class BufferedSet:
    """All staged buffers, bounded by the memory budget ``M``."""

    def __init__(self, memory_budget: int, on_change=None):
        if memory_budget < 0:
            raise ValueError(f"negative memory budget: {memory_budget}")
        self.memory_budget = memory_budget
        #: Optional callback(delta_buffers) invoked on allocate/release,
        #: used to mirror buffer counts into the host cost model and to
        #: wake memory waiters.
        self.on_change = on_change
        self.in_use = 0
        self._buffers: Dict[int, StreamBuffer] = {}
        #: stream_id -> {buffer_id: buffer}, oldest first (streams
        #: consume in order; dicts preserve allocation order and give
        #: O(1) removal from the middle).
        self._by_stream: Dict[int, Dict[int, StreamBuffer]] = {}
        #: stream_id -> the stream's oldest live buffer (the first entry
        #: of its ``_by_stream`` dict), for consume_head.
        self._heads: Dict[int, StreamBuffer] = {}
        #: stream_id -> span index behind find_in_stream.
        self._stream_index: Dict[int, _SpanIndex] = {}
        #: (key, buffer_id) min-heap over *filled* buffers. mark_filled
        #: pushes the one entry a buffer gets; consume only moves
        #: ``last_access``, and collect() re-keys an entry it finds
        #: older than its buffer's ``last_access``. Invariant: every
        #: live filled buffer has an entry whose key is at most its
        #: ``last_access``; entries of released buffers are dropped
        #: when they reach the top.
        self._idle_heap: List[Tuple[float, int]] = []
        self.peak_in_use = 0
        self.allocated_total = 0
        self.reclaimed_unread = 0

    def __len__(self) -> int:
        return len(self._buffers)

    @property
    def available(self) -> int:
        """Bytes of budget not currently staged."""
        return self.memory_budget - self.in_use

    def can_allocate(self, size: int) -> bool:
        """Would ``size`` more staged bytes fit in the budget?"""
        return self.in_use + size <= self.memory_budget

    def allocate(self, stream_id: int, disk_id: int, offset: int,
                 size: int, now: float) -> StreamBuffer:
        """Reserve a buffer for an in-flight read-ahead request."""
        if not self.can_allocate(size):
            raise MemoryError(
                f"buffered set over budget: {self.in_use} + {size} > "
                f"{self.memory_budget}")
        buffer = StreamBuffer(stream_id, disk_id, offset, size, now)
        self._buffers[buffer.buffer_id] = buffer
        siblings = self._by_stream.get(stream_id)
        if siblings is None:
            siblings = self._by_stream[stream_id] = {}
            self._heads[stream_id] = buffer
        siblings[buffer.buffer_id] = buffer
        stream_index = self._stream_index.get(stream_id)
        if stream_index is None:
            stream_index = self._stream_index[stream_id] = _SpanIndex()
        stream_index.insert(buffer)
        self.in_use += size
        self.allocated_total += 1
        self.peak_in_use = max(self.peak_in_use, self.in_use)
        if self.on_change is not None:
            self.on_change(+1)
        return buffer

    def mark_filled(self, buffer: StreamBuffer,
                    now: float) -> List[Tuple[IORequest, Event]]:
        """Record fill completion; returns waiters to complete."""
        buffer.filled = True
        buffer.last_access = now
        heappush(self._idle_heap, (now, buffer.buffer_id))
        waiters, buffer.waiters = buffer.waiters, []
        return waiters

    # -- lookup ---------------------------------------------------------------
    def find_in_stream(self, stream_id: int, offset: int,
                       size: int) -> Optional[StreamBuffer]:
        """The stream's oldest buffer containing the byte range, if any.

        One bisect in the stream's span index plus a walk bounded by
        the widest buffer of the stream (buffers are read-ahead sized,
        so the walk sees at most a couple of overlapping spans).
        """
        index = self._stream_index.get(stream_id)
        if index is None:
            return None
        buffer_id = index.find(offset, size)
        if buffer_id is None:
            return None
        return self._buffers[buffer_id]

    def consume_head(self, stream_id: int, end: int,
                     now: float) -> Optional[StreamBuffer]:
        """Serve a sequential read ending at ``end`` from the stream's
        oldest live buffer; returns that buffer, or None if it can't.

        It can when the head is filled and holds byte ``end - 1``. The
        head then is what ``find_in_stream(stream_id, end - 1, 1)``
        returns (the lowest id wins). The server allocates a stream's
        buffers disjoint and in offset order, so the head is also the
        only buffer starting below ``end``: consuming it up to ``end``
        is all that walking the stream's buffers with :meth:`consume`
        would do. On None nothing changed; the caller falls back to
        that lookup and walk.
        """
        buffer = self._heads.get(stream_id)
        if buffer is None or not buffer.filled \
                or not buffer.offset < end <= buffer.end:
            return None
        buffer.last_access = now
        if end > buffer.consumed_until:
            buffer.consumed_until = end
        if buffer.consumed_until >= buffer.end:
            self._release(buffer)
        return buffer

    def consume(self, buffer: StreamBuffer, offset: int, size: int,
                now: float) -> bool:
        """Advance the consumption high-water; free if fully consumed.

        Returns True when the buffer was released. The idle heap is not
        touched: collect() re-keys the buffer's entry when it gets there.
        """
        buffer.last_access = now
        buffer.consumed_until = max(buffer.consumed_until, offset + size)
        if buffer.fully_consumed:
            self._release(buffer)
            return True
        return False

    # -- reclamation -----------------------------------------------------------
    def _release(self, buffer: StreamBuffer) -> None:
        removed = self._buffers.pop(buffer.buffer_id, None)
        if removed is None:
            return
        self.in_use -= buffer.size
        stream_id = buffer.stream_id
        siblings = self._by_stream.get(stream_id)
        if siblings is not None:
            siblings.pop(buffer.buffer_id, None)
            if not siblings:
                del self._by_stream[stream_id]
                del self._heads[stream_id]
            elif self._heads[stream_id] is buffer:
                self._heads[stream_id] = next(iter(siblings.values()))
        stream_index = self._stream_index.get(buffer.stream_id)
        if stream_index is not None:
            stream_index.remove(buffer)
            if not stream_index:
                del self._stream_index[buffer.stream_id]
        if self.on_change is not None:
            self.on_change(-1)

    def discard(self, buffer: StreamBuffer) -> List[Tuple[IORequest, Event]]:
        """Drop a buffer regardless of state (fetch-failure path).

        Returns its unserved waiters so the caller can fail them.
        """
        waiters, buffer.waiters = buffer.waiters, []
        self._release(buffer)
        return waiters

    def release_stream(self, stream_id: int) -> int:
        """Drop all buffers of one stream; returns bytes reclaimed."""
        reclaimed = 0
        for buffer in list(self._by_stream.get(stream_id, {}).values()):
            if not buffer.fully_consumed:
                self.reclaimed_unread += 1
            reclaimed += buffer.size
            self._release(buffer)
        return reclaimed

    def collect(self, now: float, timeout: float) -> int:
        """Reclaim filled buffers idle for longer than ``timeout``.

        In-flight buffers are never collected (the completion path still
        owns them). Returns bytes reclaimed.

        Cost is O(expired + released + re-keyed entries), not
        O(live buffers): no entry's key exceeds its buffer's
        ``last_access``, so one non-expired top entry proves nothing
        else qualifies. An expired-looking entry whose buffer was read
        since is re-keyed to the newer ``last_access`` (at most once per
        buffer per call) and compared again. Expired buffers release in
        ascending buffer-id order — the same order the reference full
        scan produced (dict insertion order is allocation order).
        """
        heap = self._idle_heap
        buffers = self._buffers
        expired: Dict[int, StreamBuffer] = {}
        while heap:
            key, buffer_id = heap[0]
            if now - key < timeout:
                break
            buffer = buffers.get(buffer_id)
            if buffer is None:
                heappop(heap)  # released since it filled
            elif buffer.last_access != key:
                heapreplace(heap, (buffer.last_access, buffer_id))
            else:
                heappop(heap)
                expired[buffer_id] = buffer
        reclaimed = 0
        for buffer_id in sorted(expired):
            buffer = expired[buffer_id]
            if not buffer.fully_consumed:
                self.reclaimed_unread += 1
            reclaimed += buffer.size
            self._release(buffer)
        return reclaimed

    def stream_buffers(self, stream_id: int) -> Iterable[StreamBuffer]:
        """This stream's live buffers, oldest first."""
        return list(self._by_stream.get(stream_id, {}).values())

    def __repr__(self) -> str:
        return (f"<BufferedSet {len(self._buffers)} buffers "
                f"{self.in_use}/{self.memory_budget} bytes>")
