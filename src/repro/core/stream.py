"""Per-stream state for the storage server."""

from __future__ import annotations

import enum
import itertools
from collections import deque
from typing import Deque, Optional, Tuple

from repro.io import IORequest
from repro.sim.events import Event

__all__ = ["StreamQueue", "StreamState"]

_stream_ids = itertools.count(1)


class StreamState(enum.Enum):
    """Lifecycle of a classified stream."""

    #: Classified; waiting for a dispatch-set slot.
    WAITING = "waiting"
    #: In the dispatch set, issuing read-ahead requests.
    DISPATCHED = "dispatched"
    #: Out of the dispatch set with staged data still being consumed.
    BUFFERED = "buffered"


class StreamQueue:
    """One detected sequential stream.

    Tracks where the client has read up to (``client_next``), where
    read-ahead has fetched up to (``fetch_next``), the private queue of
    client requests awaiting data, and dispatch accounting.
    """

    __slots__ = ("stream_id", "disk_id", "client_id", "state",
                 "client_next", "fetch_next", "filled_until", "pending",
                 "issued_in_residency", "total_issued", "created_at",
                 "last_activity", "initial_offset", "fetch_failures")

    def __init__(self, disk_id: int, start_offset: int, now: float,
                 client_id: Optional[int] = None):
        self.stream_id = next(_stream_ids)
        self.disk_id = disk_id
        self.client_id = client_id
        self.state = StreamState.WAITING
        #: Next client byte the stream expects (strictly increasing).
        self.client_next = start_offset
        #: Next byte read-ahead will fetch.
        self.fetch_next = start_offset
        #: Contiguously staged-and-filled frontier (requests ending at or
        #: below it complete from memory).
        self.filled_until = start_offset
        #: (request, completion_event) pairs awaiting staged data.
        self.pending: Deque[Tuple[IORequest, Event]] = deque()
        self.issued_in_residency = 0
        self.total_issued = 0
        self.created_at = now
        #: Time the classifier last routed a request here (GC idleness).
        self.last_activity = now
        self.initial_offset = start_offset
        #: Consecutive failed read-ahead fetches (reset on success);
        #: the server's quarantine policy trips on this.
        self.fetch_failures = 0

    @property
    def has_demand(self) -> bool:
        """True when client requests are waiting on unfetched data."""
        return bool(self.pending)

    @property
    def backlog_bytes(self) -> int:
        """Bytes between the client position and the fetch frontier."""
        return max(0, self.fetch_next - self.client_next)

    def matches(self, request: IORequest, gap_tolerance: int) -> bool:
        """Does ``request`` continue this stream?

        Strict continuation (``offset == client_next``) or a bounded
        forward skip when ``gap_tolerance`` allows near-sequential
        streams.
        """
        if request.disk_id != self.disk_id:
            return False
        return (self.client_next <= request.offset
                <= self.client_next + gap_tolerance)

    def __repr__(self) -> str:
        return (f"<Stream#{self.stream_id} d{self.disk_id} "
                f"{self.state.value} client@{self.client_next} "
                f"fetch@{self.fetch_next} pending={len(self.pending)}>")
