"""Periodic garbage collection for the storage server.

The paper's Section 4.3: "a periodic thread garbage collects I/O buffers
allocated to streams that are inactive, as well as hash entries and stream
queues that, although classified as sequential, have not received a large
number of sequential requests."
"""

from __future__ import annotations

import typing

from repro import obs

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.server import StreamServer

__all__ = ["GarbageCollector"]


class GarbageCollector:
    """Drives periodic reclamation; self-terminates when nothing lives.

    The collector process runs only while the server holds state (live
    streams, staged buffers, region bitmaps) so an idle simulation can
    drain its event heap instead of ticking forever.
    """

    def __init__(self, server: "StreamServer"):
        self.server = server
        self.running = False
        self.cycles = 0
        self.buffers_reclaimed_bytes = 0
        self.streams_dropped = 0
        self._obs = obs.current()
        self._obs_on = self._obs.enabled

    def ensure_running(self) -> None:
        """Start the collector loop if it is not already alive."""
        if self.running:
            return
        self.running = True
        self.server.sim.process(self._loop(), name="server.gc")

    def _has_work(self) -> bool:
        server = self.server
        return bool(server.classifier.streams
                    or len(server.buffered)
                    or server.classifier.bitmaps.live_count)

    def _loop(self):
        server = self.server
        params = server.params
        classifier = server.classifier
        while self._has_work():
            yield server.sim.timeout(params.gc_period)
            now = server.sim.now
            self.cycles += 1
            reclaimed = server.buffered.collect(now, params.buffer_timeout)
            self.buffers_reclaimed_bytes += reclaimed
            if self._obs_on:
                self._obs.spans.instant(
                    "gc.cycle", "mark", now,
                    args={"reclaimed": reclaimed,
                          "in_use": server.buffered.in_use})
            classifier.expire_bitmaps(now)
            for stream in classifier.idle_candidates(
                    now, params.stream_timeout):
                if stream.has_demand:
                    # Clients still wait on it: it cannot be dropped
                    # until they are served, so keep it out of the next
                    # cycles' walks (the server unparks it on drain).
                    classifier.park(stream)
                    continue
                # Quiet stream: reclaim everything it holds.
                server.buffered.release_stream(stream.stream_id)
                server.dispatch.rotate_out(stream)
                server.dispatch.drop_waiting(stream)
                classifier.drop_stream(stream)
                self.streams_dropped += 1
        self.running = False
