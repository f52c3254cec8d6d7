"""Client emulation: synchronous stream readers and fleet orchestration.

Mirrors the paper's measurement methodology (Section 5): each client
emulates streams with a bounded number of outstanding requests, issuing
the next request as soon as a response arrives; throughput is the sum of
per-stream throughputs and response time is measured client-side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro import obs
from repro.io import BlockDevice, IORequest
from repro.sim import Simulator
from repro.sim.events import Event
from repro.sim.stats import LatencySampler
from repro.workload.generators import StreamSpec

__all__ = ["ClientFleet", "FleetReport", "StreamClient"]


class StreamClient:
    """One emulated stream against a block device.

    ``tolerate_errors`` makes the client behave like a media player
    skipping a bad block: a failed request is counted in ``errors`` and
    the stream moves on to its next offset instead of crashing the
    emulation. In the default (intolerant) client, a failed request
    ends its slot and fails the event :meth:`start` returned with the
    request's error.
    """

    def __init__(self, sim: Simulator, device: BlockDevice,
                 spec: StreamSpec, tolerate_errors: bool = False):
        self.sim = sim
        self.device = device
        self.spec = spec
        self.tolerate_errors = tolerate_errors
        self.errors = 0
        self.completed_bytes = 0
        self.completed_requests = 0
        self.latency = LatencySampler(f"stream{spec.stream_id}")
        self.finished_at: Optional[float] = None
        self._position = spec.start_offset
        self._issued_bytes = 0
        self._bytes_baseline = 0
        # Ambient observability, captured once (zero overhead when off:
        # the hot loop tests one pre-computed boolean).
        self._obs = obs.current()
        self._obs_on = self._obs.enabled

    def reset_stats(self) -> None:
        """Restart latency sampling and the per-stream byte baseline
        (called at the warm-up/measurement boundary)."""
        self.latency = LatencySampler(f"stream{self.spec.stream_id}")
        self._bytes_baseline = self.completed_bytes

    @property
    def measured_bytes(self) -> int:
        """Bytes completed since the last stats reset."""
        return self.completed_bytes - self._bytes_baseline

    def start(self):
        """Start the client's slots (one per outstanding request); the
        returned event fires once every slot has finished."""
        sim = self.sim
        slots = []
        for slot in range(self.spec.outstanding):
            done = sim.event(f"client{self.spec.stream_id}.{slot}")
            sim.after(0.0, _Slot(self, done)._next)
            slots.append(done)
        done = sim.all_of(slots)
        done.callbacks.append(self._record_finish)
        return done

    def _record_finish(self, _event) -> None:
        self.finished_at = self.sim.now

    def _next_request(self) -> Optional[IORequest]:
        spec = self.spec
        if spec.total_bytes is not None \
                and self._issued_bytes >= spec.total_bytes:
            return None
        if self._position + spec.request_size > self.device.capacity_bytes:
            return None  # ran off the end of the disk
        request = IORequest(kind=spec.kind, disk_id=spec.disk_id,
                            offset=self._position, size=spec.request_size,
                            stream_id=spec.stream_id)
        self._position += spec.request_size
        self._issued_bytes += spec.request_size
        return request


class _Slot:
    """One outstanding-request slot of a :class:`StreamClient`, as
    callbacks: issue the next request, wait for it, record it, think,
    repeat. ``done`` succeeds when the stream has no more requests, or
    fails with the error of a failed request unless the client
    tolerates errors.

    :meth:`StreamClient.start` starts it with one zero-delay timeout,
    the push a Process bootstrap would make (DESIGN.md §4, "Hops that
    wait").
    """

    __slots__ = ("client", "done", "request", "issued_at", "span", "_next",
                 "_completed")

    def __init__(self, client: StreamClient, done: Event):
        self.client = client
        self.done = done
        # Bound once: every request registers one or both.
        self._next = self.next
        self._completed = self.completed

    def next(self, _event: Optional[Event] = None) -> None:
        client = self.client
        request = client._next_request()
        if request is None:
            # Break the bound-method cycle: a finished run is then freed
            # by reference counting, not left to the cyclic collector.
            self._next = self._completed = None
            self.done.succeed()
            return
        self.request = request
        self.issued_at = issued_at = client.sim.now
        if client._obs_on:
            # Root a fresh trace per request; every instrumented
            # layer below hangs its phase spans off this one.
            self.span = client._obs.spans.begin(
                "request", "client", issued_at,
                args={"stream": client.spec.stream_id,
                      "offset": request.offset,
                      "size": request.size})
            client._obs.link(request, self.span)
        client.device.submit(request).callbacks.append(self._completed)

    def completed(self, event: Event) -> None:
        client = self.client
        now = client.sim.now
        span = self.span if client._obs_on else None
        if not event._ok:
            exc = event._value
            if span is not None:
                span.set_arg("error", type(exc).__name__)
                client._obs.spans.end(span, now)
            if not client.tolerate_errors:
                self._next = self._completed = None
                self.done.fail(exc)
                return
            # Skip the bad block: _next_request already advanced
            # the position, so the stream stays sequential.
            client.errors += 1
            self.next()
            return
        if span is not None:
            client._obs.spans.end(span, now)
        request = self.request
        client.completed_bytes += request.size
        client.completed_requests += 1
        # Client-side response time (what the paper measures):
        # independent of any layer's stamping.
        client.latency.observe(now - self.issued_at)
        think_time = client.spec.think_time
        if think_time > 0:
            client.sim.after(think_time, self._next)
        else:
            self.next()


@dataclass
class FleetReport:
    """Aggregate results of a fleet run."""

    elapsed: float
    total_bytes: int
    num_streams: int
    mean_latency: float
    p99_latency: float
    per_stream_bytes: List[int]
    #: Client-visible failed requests (only non-zero for tolerant
    #: fleets running under fault injection).
    total_errors: int = 0

    @property
    def throughput(self) -> float:
        """Aggregate bytes per second."""
        return self.total_bytes / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def throughput_mb(self) -> float:
        """Aggregate MBytes per second (the paper's unit)."""
        return self.throughput / (1024 * 1024)

    @property
    def min_stream_bytes(self) -> int:
        """Progress of the slowest stream (fairness check)."""
        return min(self.per_stream_bytes) if self.per_stream_bytes else 0


class ClientFleet:
    """Run a set of stream specs against a device and report."""

    def __init__(self, sim: Simulator, device: BlockDevice,
                 specs: Sequence[StreamSpec], tolerate_errors: bool = False):
        if not specs:
            raise ValueError("fleet needs at least one stream")
        self.sim = sim
        self.device = device
        self.clients = [
            StreamClient(sim, device, spec, tolerate_errors=tolerate_errors)
            for spec in specs
        ]

    def run(self, duration: Optional[float] = None,
            warmup: float = 0.0, settle_requests: int = 0,
            settle_cap: float = 120.0) -> FleetReport:
        """Run the fleet; returns aggregate metrics.

        With ``duration`` the clock stops there (open-ended streams);
        without it the simulation runs until every stream finishes its
        ``total_bytes``. ``warmup`` excludes an initial window from the
        measurements. ``settle_requests`` extends the warm-up until every
        stream has completed at least that many requests (bounded by
        ``settle_cap`` simulated seconds) — that covers configuration-
        dependent cold-start transients: big-segment initial fill rounds,
        the stream server's three-request detection phase. Latency
        statistics are reset at the measurement boundary.

        In an intolerant fleet a failed request ends its stream; after
        the run, the error of the first failed stream (in stream order)
        is raised.
        """
        finished = [client.start() for client in self.clients]
        if warmup > 0:
            self.sim.run(until=self.sim.now + warmup)
        if settle_requests > 0:
            deadline = self.sim.now + settle_cap
            while (self.sim.now < deadline
                   and self.sim.peek() != float("inf")
                   and min(c.completed_requests
                           for c in self.clients) < settle_requests):
                self.sim.run(until=min(self.sim.now + 0.25, deadline))
        warmup_bytes = sum(c.completed_bytes for c in self.clients)
        for client in self.clients:
            client.reset_stats()
        start = self.sim.now
        if duration is not None:
            self.sim.run(until=start + duration)
            elapsed = duration
        else:
            self.sim.run()
            # Measure to the last stream's finish, not to heap drain:
            # background housekeeping (server GC countdowns) may keep the
            # clock moving long after the workload completed.
            finishes = [c.finished_at for c in self.clients
                        if c.finished_at is not None]
            end = max(finishes) if finishes else self.sim.now
            elapsed = end - start
        for done in finished:
            if done.triggered and not done.ok:
                raise done.value
        total = sum(c.completed_bytes for c in self.clients) - warmup_bytes
        merged = LatencySampler("fleet")
        for client in self.clients:
            for sample in client.latency._reservoir:
                merged.observe(sample)
        return FleetReport(
            elapsed=elapsed,
            total_bytes=total,
            num_streams=len(self.clients),
            mean_latency=self._mean_latency(),
            p99_latency=merged.percentile(0.99),
            per_stream_bytes=[c.measured_bytes for c in self.clients],
            total_errors=sum(c.errors for c in self.clients))

    def _mean_latency(self) -> float:
        total_samples = sum(c.latency.count for c in self.clients)
        if not total_samples:
            return 0.0
        weighted = sum(c.latency.mean * c.latency.count
                       for c in self.clients)
        return weighted / total_samples
