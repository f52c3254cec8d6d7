"""Request classification: detecting sequential streams.

Two-level routing, mirroring the paper's Section 4.1:

1. **Known streams** — a request continuing an existing stream (exact
   next offset, or within the near-sequential gap tolerance) routes to
   that stream's queue in O(1).
2. **Unknown requests** — the region bitmap around the request's block is
   updated; when its popcount crosses the threshold a new stream is
   created and read-ahead enabled for it. Until then the caller issues
   the request directly to the disk.

Out-of-order requests and re-reads simply fail to match and go direct —
"this mechanism ignores out of order requests [and] multiple requests to
the same block" (the paper, verbatim).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.core.bitmap import BitmapTable
from repro.core.params import ServerParams
from repro.core.stream import StreamQueue
from repro.io import IOKind, IORequest

__all__ = ["SequentialClassifier"]


class SequentialClassifier:
    """Stateful request → stream routing and stream detection."""

    __slots__ = ("params", "bitmaps", "_by_next", "streams", "_activity",
                 "_parked", "_gap_width", "_gap_buckets", "detected",
                 "routed", "direct")

    def __init__(self, params: ServerParams):
        self.params = params
        self.bitmaps = BitmapTable(
            window_blocks=params.classifier_window_blocks,
            interval=params.classifier_interval)
        #: (disk_id, client_next_offset) -> stream: the O(1) hot path.
        self._by_next: Dict[Tuple[int, int], StreamQueue] = {}
        #: All live streams by id.
        self.streams: Dict[int, StreamQueue] = {}
        #: Streams in last-activity order (every route() match moves the
        #: stream to the end; simulated time is monotone, so iteration
        #: order == ascending ``last_activity``). The GC walks this from
        #: the front and stops at the first non-idle stream instead of
        #: scanning every live stream each period.
        self._activity: "OrderedDict[int, StreamQueue]" = OrderedDict()
        #: Streams the GC found idle while clients still wait on them
        #: (:meth:`park`). They stay out of the activity walk until
        #: their demand drains (:meth:`unpark`) or a request routes to
        #: them again.
        self._parked: Dict[int, StreamQueue] = {}
        #: Near-sequential matching index, only maintained when the gap
        #: tolerance is on (the default 0 keeps the hot path free of
        #: it): (disk_id, client_next // gap) -> {stream_id: stream}.
        #: A request's match window [offset - gap, offset] covers at
        #: most two buckets.
        self._gap_width = max(1, params.gap_tolerance)
        self._gap_buckets: Dict[Tuple[int, int],
                                Dict[int, StreamQueue]] = {}
        self.detected = 0
        self.routed = 0
        self.direct = 0

    # -- routing ---------------------------------------------------------------
    def route(self, request: IORequest,
              now: float) -> Optional[StreamQueue]:
        """Return the stream this read continues, or None (go direct).

        A matching stream's expected-next index is advanced to the
        request's end.
        """
        if request.kind is not IOKind.READ:
            self.direct += 1
            return None
        offset = request.offset
        key = (request.disk_id, offset)
        by_next = self._by_next
        stream = by_next.get(key)
        if self.params.gap_tolerance:
            if stream is None:
                stream = self._match_with_gap(request)
            if stream is not None:
                self._advance(stream, offset + request.size)
        elif stream is not None:
            # _advance, inlined: the entry found under ``key`` is the
            # stream's own (disk_id, client_next) entry.
            del by_next[key]
            stream.client_next = end = offset + request.size
            by_next[(request.disk_id, end)] = stream
        if stream is not None:
            stream.last_activity = now
            try:
                self._activity.move_to_end(stream.stream_id)
            except KeyError:
                self._activity[stream.stream_id] = \
                    self._parked.pop(stream.stream_id)
            self.routed += 1
            return stream
        detected = self._observe_unknown(request, now)
        if detected is not None:
            self.detected += 1
            self.routed += 1
            return detected
        self.direct += 1
        return None

    def _match_with_gap(self, request: IORequest) -> Optional[StreamQueue]:
        """Oldest stream the request near-continues (bounded skip).

        Candidates come from the two gap-width buckets covering
        ``[offset - gap, offset]``; the lowest stream id wins, which is
        the stream the reference insertion-order scan found first
        (streams are created with monotonically increasing ids and
        never re-inserted).
        """
        gap = self.params.gap_tolerance
        width = self._gap_width
        buckets = self._gap_buckets
        disk_id = request.disk_id
        offset = request.offset
        best: Optional[StreamQueue] = None
        for bucket in range((offset - gap) // width, offset // width + 1):
            candidates = buckets.get((disk_id, bucket))
            if not candidates:
                continue
            for stream in candidates.values():
                if stream.matches(request, gap) \
                        and stream.client_next != offset \
                        and (best is None
                             or stream.stream_id < best.stream_id):
                    best = stream
        return best

    def _advance(self, stream: StreamQueue, new_next: int) -> None:
        # fetch_next is owned by the dispatcher's pump — only the client
        # expectation moves here.
        self._by_next.pop((stream.disk_id, stream.client_next), None)
        if self.params.gap_tolerance:
            self._gap_unindex(stream)
            stream.client_next = new_next
            self._gap_index(stream)
        else:
            stream.client_next = new_next
        self._by_next[(stream.disk_id, new_next)] = stream

    def _gap_index(self, stream: StreamQueue) -> None:
        key = (stream.disk_id, stream.client_next // self._gap_width)
        bucket = self._gap_buckets.get(key)
        if bucket is None:
            bucket = self._gap_buckets[key] = {}
        bucket[stream.stream_id] = stream

    def _gap_unindex(self, stream: StreamQueue) -> None:
        key = (stream.disk_id, stream.client_next // self._gap_width)
        bucket = self._gap_buckets.get(key)
        if bucket is not None:
            bucket.pop(stream.stream_id, None)
            if not bucket:
                del self._gap_buckets[key]

    # -- detection ----------------------------------------------------------------
    def _observe_unknown(self, request: IORequest,
                         now: float) -> Optional[StreamQueue]:
        """Update the region bitmap; create a stream on threshold.

        The newly created stream starts at the request's *end*: the
        request itself is serviced directly while read-ahead takes over
        from there.
        """
        block_size = self.params.classifier_block
        first_block = request.offset // block_size
        span = (request.end - 1) // block_size - first_block + 1
        bitmap = self.bitmaps.find(request.disk_id, first_block)
        if bitmap is None:
            bitmap = self.bitmaps.allocate(request.disk_id, first_block, now)
        popcount = bitmap.set_range(first_block, span, now)
        if popcount < self.params.classifier_threshold:
            return None
        stream = StreamQueue(request.disk_id, request.end, now,
                             client_id=request.stream_id)
        self._register_stream(stream)
        self.bitmaps.remove(request.disk_id, bitmap)
        return stream

    def _register_stream(self, stream: StreamQueue) -> None:
        """Install a newly detected stream in every routing index.

        Subclasses with their own detection (``CoarseBitmapClassifier``)
        must create streams through this so the activity and gap
        indexes stay consistent."""
        self.streams[stream.stream_id] = stream
        self._by_next[(stream.disk_id, stream.client_next)] = stream
        self._activity[stream.stream_id] = stream
        if self.params.gap_tolerance:
            self._gap_index(stream)

    # -- maintenance ----------------------------------------------------------------
    def drop_stream(self, stream: StreamQueue) -> None:
        """Forget a stream (GC of inactive streams)."""
        self.streams.pop(stream.stream_id, None)
        self._by_next.pop((stream.disk_id, stream.client_next), None)
        self._activity.pop(stream.stream_id, None)
        self._parked.pop(stream.stream_id, None)
        if self.params.gap_tolerance:
            self._gap_unindex(stream)

    def idle_candidates(self, now: float,
                        timeout: float) -> List[StreamQueue]:
        """Unparked streams idle for at least ``timeout``, by id.

        Cost is O(idle streams), not O(live streams): the activity list
        is walked front-to-back and the first non-idle stream ends the
        scan (everything behind it is more recent). The id sort
        reproduces the drop order of the reference full scan over the
        ``streams`` dict (insertion order == creation order).
        """
        idle: List[StreamQueue] = []
        for stream in self._activity.values():
            if now - stream.last_activity < timeout:
                break
            idle.append(stream)
        idle.sort(key=lambda stream: stream.stream_id)
        return idle

    def park(self, stream: StreamQueue) -> None:
        """Take an idle stream that still has demand out of the walk.

        The GC cannot drop such a stream, so walking and sorting it
        every cycle until its clients are served is wasted work.
        """
        del self._activity[stream.stream_id]
        self._parked[stream.stream_id] = stream

    def unpark(self, stream: StreamQueue) -> None:
        """Return a parked stream to the walk once its demand drains.

        It goes to the front. It has been idle since before the GC
        cycle that parked it, and that cycle dropped or parked every
        stream that was idle then, so every stream left in the activity
        order was active more recently. The next cycle therefore finds
        it idle, exactly as the full scan would.
        """
        if self._parked.pop(stream.stream_id, None) is not None:
            self._activity[stream.stream_id] = stream
            self._activity.move_to_end(stream.stream_id, last=False)

    def expire_bitmaps(self, now: float) -> int:
        """Recycle stale region bitmaps; returns count dropped."""
        return self.bitmaps.expire(now)

    @property
    def live_streams(self) -> int:
        """Number of currently tracked streams."""
        return len(self.streams)

    def __repr__(self) -> str:
        return (f"<SequentialClassifier streams={len(self.streams)} "
                f"bitmaps={self.bitmaps.live_count} "
                f"detected={self.detected}>")
