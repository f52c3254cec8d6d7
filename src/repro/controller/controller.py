"""The disk controller: queue, optional prefetch cache, bandwidth ceiling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro import obs
from repro.controller.bus import HostBus, SataPort
from repro.controller.cache import PrefetchCache
from repro.disk.drive import DiskDrive
from repro.io import IOKind, IORequest
from repro.sim import Resource, Simulator
from repro.sim.events import Event
from repro.sim.stats import StatsRegistry
from repro.units import MiB, US

__all__ = ["ControllerSpec", "DiskController"]


@dataclass(frozen=True)
class ControllerSpec:
    """Static controller description.

    Defaults model the paper's Broadcom BC4810: 8-port entry-level SATA
    RAID controller sustaining ~450 MB/s, with a command queue in the
    128-entry range and (configurably) a prefetching cache — Figure 8
    studies a 128 MB cache with prefetch sizes from 64 KB to 4 MB.
    """

    name: str = "bc4810"
    num_ports: int = 8
    queue_depth: int = 128
    cache_bytes: int = 0
    prefetch_bytes: int = 0
    aggregate_bandwidth: float = 450.0 * MiB
    port_bandwidth: float = 150.0 * MiB
    request_overhead_s: float = 20 * US
    #: Commands the firmware processes concurrently per port. Entry-level
    #: controllers (the BC4810 class) handle one command per disk at a
    #: time — cache hits for a disk queue FIFO behind an in-progress
    #: prefetch fetch for that disk, which is what lets large controller
    #: prefetch sizes thrash (Figure 8's 4 MB cliff). Ports are
    #: independent, so multi-disk aggregate bandwidth is unaffected.
    port_concurrency: int = 1

    def with_prefetch(self, cache_bytes: int,
                      prefetch_bytes: int) -> "ControllerSpec":
        """Copy with the prefetching cache configured."""
        from dataclasses import replace
        return replace(self, cache_bytes=cache_bytes,
                       prefetch_bytes=prefetch_bytes)


class _ControllerRequest:
    """One request's hop through the controller, as callbacks.

    Admission (bounded queue) → controller CPU → reads: port command
    slot → cache hit, coalesced extent fetch(es) or a direct disk read
    → slot release → host bus; writes: cache invalidation → host bus →
    port slot → disk. Then the completion event fires and the admission
    entry is released, in that order.

    A failed disk event releases the port slot and the admission entry,
    then fails the controller's event with the same exception.
    """

    __slots__ = ("ctl", "request", "event", "span", "since", "slot",
                 "extent_offset", "extent_size", "fetch_size", "fetch_span")

    def __init__(self, ctl: "DiskController", request: IORequest,
                 event: Event):
        self.ctl = ctl
        self.request = request
        self.event = event
        self.span = None

    def start(self, _event: Event) -> None:
        ctl = self.ctl
        request = self.request
        if ctl._obs_on:
            self.span = ctl._obs.begin_child(request, "ctl.request", "ctl",
                                             ctl.sim.now,
                                             args={"disk": request.disk_id})
            ctl._obs.link(request, self.span)
        self.since = ctl.sim.now
        ctl._admission.request_then(self.admitted)

    def admitted(self, _grant: Event) -> None:
        ctl = self.ctl
        if ctl._obs_on:
            ctl._record_wait(self.request, self.since, "admission")
        ctl._cpu.request_then(self.cpu_granted)

    def cpu_granted(self, _grant: Event) -> None:
        ctl = self.ctl
        ctl.sim.after(ctl.spec.request_overhead_s, self.cpu_done)

    def cpu_done(self, _timeout: Event) -> None:
        ctl = self.ctl
        request = self.request
        ctl._cpu.release()
        if request.kind is IOKind.READ:
            # One firmware command slot per port: a cache-hit check for
            # a disk waits behind an in-progress fetch for that disk.
            self._wait_slot(self.read_slot_granted)
        else:
            ctl.cache.invalidate(request.disk_id, request.offset,
                                 request.size)
            ctl.bus.pipe.transfer_then(request.size, self.write_bused)

    def _wait_slot(self, then) -> None:
        ctl = self.ctl
        self.slot = slot = ctl._port_slots[self.request.disk_id]
        self.since = ctl.sim.now
        slot.request_then(then)

    # -- read path -------------------------------------------------------
    def read_slot_granted(self, _grant: Event) -> None:
        ctl = self.ctl
        request = self.request
        if ctl._obs_on:
            ctl._record_wait(request, self.since, "port")
        cache = ctl.cache
        if cache.covers(request.disk_id, request.offset, request.size):
            ctl._c_cache_hits.add(request.size)
            if ctl._obs_on:
                ctl._obs.instant_for(request, "ctl.cachehit", "mark",
                                     ctl.sim.now)
            self.read_done()
        elif cache.enabled:
            self.extent_offset, self.extent_size = \
                cache.extent_of(request.offset)
            self.next_extent()
        else:
            ctl.disks[request.disk_id].submit(request).callbacks.append(
                self.disk_read_done)

    def disk_read_done(self, done: Event) -> None:
        if not done._ok:
            self.fail(done._value)
            return
        self.read_done()

    def next_extent(self) -> None:
        """Fetch, in order, each aligned extent of the request that the
        cache lacks, joining identical in-flight fetches from other
        streams; then finish the read."""
        ctl = self.ctl
        request = self.request
        cache = ctl.cache
        end = request.offset + request.size
        extent_offset = self.extent_offset
        while extent_offset < end:
            size = min(self.extent_size, ctl.capacity_bytes - extent_offset)
            if size <= 0:
                break
            if not cache.peek(request.disk_id, extent_offset, size):
                self.extent_offset = extent_offset
                self._fetch_extent(extent_offset, size)
                return
            extent_offset += self.extent_size
        self.read_done()

    def extent_done(self, _joined: Event = None) -> None:
        self.extent_offset += self.extent_size
        self.next_extent()

    def _fetch_extent(self, extent_offset: int, size: int) -> None:
        ctl = self.ctl
        request = self.request
        in_flight = ctl.cache.in_flight
        key = (request.disk_id, extent_offset)
        pending = in_flight.get(key)
        if pending is not None:
            pending.callbacks.append(self.extent_done)
            return
        in_flight[key] = ctl.sim.event(name=ctl._extent_name)
        self.fetch_size = size
        self.fetch_span = None
        extent = request.derive(extent_offset, size)
        extent.stream_id = None
        if ctl._obs_on:
            # A prefetch extent serves every stream that coalesces onto
            # it, so it roots its own trace (like the server's
            # read-ahead fetches).
            self.fetch_span = ctl._obs.spans.begin(
                "ctl.fetch", "readahead", ctl.sim.now,
                args={"disk": request.disk_id,
                      "offset": extent_offset, "size": size})
            ctl._obs.link(extent, self.fetch_span)
        # Wire time is charged by the drive: hits cross its interface
        # pipe, misses overlap the (slower) media read.
        ctl.disks[request.disk_id].submit(extent).callbacks.append(
            self.extent_fetched)

    def extent_fetched(self, done: Event) -> None:
        ctl = self.ctl
        disk_id = self.request.disk_id
        if done._ok:
            ctl.cache.insert_extent(disk_id, self.extent_offset,
                                    self.fetch_size)
            ctl._c_prefetched.add(self.fetch_size)
        if self.fetch_span is not None:
            ctl._obs.spans.end(self.fetch_span, ctl.sim.now)
        # Joiners resume whether or not the fetch succeeded.
        ctl.cache.in_flight.pop((disk_id, self.extent_offset)).succeed()
        if not done._ok:
            self.fail(done._value)
            return
        self.extent_done()

    def read_done(self) -> None:
        self.slot.release()
        self.ctl.bus.pipe.transfer_then(self.request.size, self.complete)

    # -- write path ------------------------------------------------------
    def write_bused(self) -> None:
        self._wait_slot(self.write_slot_granted)

    def write_slot_granted(self, _grant: Event) -> None:
        ctl = self.ctl
        request = self.request
        if ctl._obs_on:
            ctl._record_wait(request, self.since, "port")
        ctl.disks[request.disk_id].submit(request).callbacks.append(
            self.write_done)

    def write_done(self, done: Event) -> None:
        if not done._ok:
            self.fail(done._value)
            return
        self.slot.release()
        self.complete()

    # -- completion --------------------------------------------------------
    def complete(self) -> None:
        ctl = self.ctl
        request = self.request
        now = ctl.sim.now
        request.complete_time = now
        ctl._c_completed.add(request.size)
        if self.span is not None:
            ctl._obs.spans.end(self.span, now)
        self.event.succeed(request)
        ctl._admission.release()

    def fail(self, exc: BaseException) -> None:
        """Release the port slot and admission entry, then fail."""
        ctl = self.ctl
        self.slot.release()
        ctl._admission.release()
        if self.span is not None:
            ctl._obs.spans.end(self.span, ctl.sim.now)
        self.event.fail(exc)


class DiskController:
    """A controller hosting up to ``spec.num_ports`` disks.

    Implements :class:`repro.io.BlockDevice` over the union of its disks:
    ``submit`` routes by ``request.disk_id`` (global ids; the controller
    is built with an explicit id→drive mapping).

    Read path: admission (bounded queue) → command processing → cache
    lookup → either serve from cache, join an in-flight extent fetch, or
    fetch (an extent when prefetching, else the request itself) from the
    disk — then cross the shared host bus and complete.
    """

    def __init__(self, sim: Simulator, spec: ControllerSpec,
                 disks: Dict[int, DiskDrive], name: str = ""):
        if not disks:
            raise ValueError("controller needs at least one disk")
        if len(disks) > spec.num_ports:
            raise ValueError(
                f"{len(disks)} disks exceed {spec.num_ports} ports")
        self.sim = sim
        self.spec = spec
        self.name = name or spec.name
        self.disks = dict(disks)
        self.ports = {disk_id: SataPort(sim, bandwidth=spec.port_bandwidth,
                                        name=f"{self.name}.port{disk_id}",
                                        pipe=drive.interface)
                      for disk_id, drive in disks.items()}
        self.cache = PrefetchCache(cache_bytes=spec.cache_bytes,
                                   prefetch_bytes=spec.prefetch_bytes)
        self.bus = HostBus(sim, bandwidth=spec.aggregate_bandwidth,
                           name=f"{self.name}.bus")
        self._admission = Resource(sim, capacity=spec.queue_depth,
                                   name=f"{self.name}.queue")
        self._cpu = Resource(sim, capacity=1, name=f"{self.name}.cpu")
        if spec.port_concurrency < 1:
            raise ValueError(
                f"port_concurrency must be >= 1: {spec.port_concurrency}")
        self._port_slots = {
            disk_id: Resource(sim, capacity=spec.port_concurrency,
                              name=f"{self.name}.slot{disk_id}")
            for disk_id in disks
        }
        self.stats = StatsRegistry()
        # Per-request metrics, resolved once (a registry probe each).
        self._c_completed = self.stats.counter("completed")
        self._c_cache_hits = self.stats.counter("cache_hits")
        self._c_prefetched = self.stats.counter("prefetched")
        # Precomputed extent-fetch event name (one per fetch).
        self._extent_name = f"{self.name}.extent"
        # Ambient observability, captured once (boolean-guarded hooks).
        self._obs = obs.current()
        self._obs_on = self._obs.enabled
        capacities = {d.capacity_bytes for d in self.disks.values()}
        if len(capacities) != 1:
            raise ValueError("controller disks must be homogeneous")
        #: Per-disk addressable bytes (BlockDevice protocol).
        self.capacity_bytes = capacities.pop()

    # -- BlockDevice protocol -------------------------------------------------
    def submit(self, request: IORequest) -> Event:
        """Route ``request`` to its disk; returns the completion event.

        The request's hop is a callback chain
        (:class:`_ControllerRequest`) started by one zero-delay event
        pushed here.
        """
        if request.disk_id not in self.disks:
            raise ValueError(
                f"{request!r}: disk {request.disk_id} not on {self.name}")
        sim = self.sim
        if request.submit_time == 0.0:  # inlined stamp_submit()
            request.submit_time = sim.now
        event = sim.event(name="ctl")
        sim.after(0.0, _ControllerRequest(self, request, event).start)
        return event

    @property
    def queue_in_use(self) -> int:
        """Occupied queue entries (admitted, not yet completed)."""
        return self._admission.in_use

    def _record_wait(self, request: IORequest, since: float,
                     stage: str) -> None:
        """Record time queued for a controller resource as ``ctl.port``.

        Recorded after the fact (begin stamped at ``since``) and only
        when the wait had non-zero duration, so the uncontended fast
        path emits nothing. Without this span, time spent waiting for
        the admission queue or a port command slot fell to ``other`` in
        the latency breakdown. Callers guard on ``_obs_on``.
        """
        if self.sim.now > since:
            span = self._obs.begin_child(
                request, "ctl.port", "ctl", since,
                args={"disk": request.disk_id, "stage": stage})
            self._obs.spans.end(span, self.sim.now)

    # -- reporting -----------------------------------------------------------------
    def throughput(self, elapsed: float) -> float:
        """Completed bytes per second over ``elapsed``."""
        return self._c_completed.throughput(elapsed)

    def __repr__(self) -> str:
        return (f"<DiskController {self.name!r} disks={sorted(self.disks)} "
                f"queue={self._admission.in_use}/{self.spec.queue_depth}>")
