"""The disk drive: queue + mechanics + segmented cache + interface.

Timing model (see DESIGN.md §4):

* A **cache hit** bypasses the mechanics entirely: the request pays command
  overhead plus an interface transfer (shared SATA pipe).
* A **miss** holds the head (one mechanical timeline per drive): seek to the
  missing range's cylinder, rotational latency (zero when the media position
  is already contiguous), media transfer at the zone's rate, then the drive
  keeps reading into the allocated cache segment (read-ahead) *while still
  holding the head* — the demand portion completes to the host in parallel.

That last point is what lets a single sequential stream run at full media
rate with synchronous requests, while many interleaved streams pay a seek
per segment fill — the phenomenon the paper studies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional

from repro import obs
from repro.disk.cache import SegmentedCache
from repro.disk.geometry import DiskGeometry
from repro.disk.mechanics import Mechanics, RotationMode, SeekModel
from repro.disk.queue import QueuePolicy, make_policy
from repro.disk.specs import DiskSpec
from repro.io import IOKind, IORequest
from repro.sim import Pipe, Simulator
from repro.sim.events import Event
from repro.sim.stats import StatsRegistry
from repro.units import SECTOR_BYTES

__all__ = ["DiskDrive", "DriveConfig"]

_NEVER = float("inf")


@dataclass
class DriveConfig:
    """Runtime configuration for a :class:`DiskDrive`.

    Attributes
    ----------
    scheduler:
        Internal queue policy name: 'fcfs', 'sstf' or 'look'.
    rotation_mode:
        Deterministic (EXPECTED) or sampled (UNIFORM) rotational latency.
    seed:
        RNG seed for sampled rotational latency.
    trace:
        Optional :class:`repro.sim.trace.Tracer`.
    """

    scheduler: str = "look"
    rotation_mode: RotationMode = RotationMode.UNIFORM
    seed: Optional[int] = 0
    trace: object = None


class _Queued:
    """A pending command: request + completion event + cached geometry.

    ``cylinder``, ``start_lba`` and ``nsectors`` are computed once at
    submit time — the policy select reads ``cylinder`` on every service
    iteration and ``_service`` consumes the LBA range, so neither pays
    the byte→sector conversion or cylinder mapping again.
    """

    __slots__ = ("request", "event", "cylinder", "start_lba", "nsectors")

    def __init__(self, request: IORequest, event: Event, cylinder: int,
                 start_lba: int, nsectors: int):
        self.request = request
        self.event = event
        self.cylinder = cylinder
        self.start_lba = start_lba
        self.nsectors = nsectors


class _Completion:
    """One request's completion hop through the drive, as callbacks:
    command overhead, the interface transfer (hits and writes), then
    the completion event."""

    __slots__ = ("drive", "request", "event", "charge_interface", "phase")

    def __init__(self, drive: "DiskDrive", request: IORequest, event: Event,
                 charge_interface: bool):
        self.drive = drive
        self.request = request
        self.event = event
        self.charge_interface = charge_interface
        self.phase = None

    def start(self, _event: Event) -> None:
        drive = self.drive
        sim = drive.sim
        if drive._obs_on:
            annotations = self.request.annotations
            if "disk.hit" in annotations:
                name = "disk.cachehit"
            elif "disk.wce" in annotations:
                name = "disk.wce"
            else:
                name = "disk.complete"
            self.phase = drive._obs.begin_child(self.request, name, "disk",
                                                sim.now)
        sim.after(drive._cmd_overhead,
                  self.overhead_done if self.charge_interface
                  else self.finish)

    def overhead_done(self, _timeout: Event) -> None:
        self.drive.interface.transfer_then(self.request.size, self.finish)

    def finish(self, _timeout: Optional[Event] = None) -> None:
        drive = self.drive
        request = self.request
        now = drive.sim.now
        request.complete_time = now
        drive._c_completed.add(request.size)
        if self.phase is not None:
            drive._obs.spans.end(self.phase, now)
            span = request.annotations.pop("obs.disk", None)
            if span is not None:
                drive._obs.spans.end(span, now)
        trace = drive.config.trace
        if trace is not None:
            trace.emit(now, drive.name, "complete",
                       (request.request_id, request.offset, request.size))
        self.event.succeed(request)


class _Worker:
    """One busy period of the drive's mechanical timeline, as callbacks.

    :meth:`DiskDrive._kick_worker` starts one with one zero-delay
    timeout, the push a Process bootstrap would make (DESIGN.md §4,
    "Hops that wait"). :meth:`run` is the service loop: it picks the
    next job and returns when the job waits on a timeout. The job's last
    step calls :meth:`served` or :meth:`worked`, and the loop goes on
    from there. The busy period ends when there is no job. The drive
    keeps no reference to its worker, so a drive never sits in a
    reference cycle with it.

    The firmware only reorders within its small internal queue
    (``spec.queue_depth`` commands); the backlog drains into it FIFO.
    This bounded reorder window is what makes cache segments mortal
    under many streams — with an unbounded window the head would always
    favour the freshly prefetched stream and segments would never
    thrash.

    Jobs, in priority order: a queued command; destaging the oldest
    dirty write run; an idle read-ahead run (:class:`_IdleRun`). Reads,
    writes and destages all reach the media through :meth:`move`.
    """

    __slots__ = ("drive", "started", "queued", "request", "lba", "nsectors",
                 "then", "span", "segment")

    def __init__(self, drive: "DiskDrive"):
        self.drive = drive
        self.span = None

    def run(self, _event: Optional[Event] = None) -> None:
        drive = self.drive
        sim = drive.sim
        waiting = drive._waiting
        active = drive._active
        queue_depth = drive.spec.queue_depth
        policy = drive._policy
        while True:
            if waiting or active:
                while waiting and len(active) < queue_depth:
                    active.append(waiting.popleft())
                if len(active) == 1:
                    # Sole candidate: every policy picks index 0; only
                    # its selection side effects (LOOK's sweep
                    # direction) still need to run.
                    queued = active.pop()
                    policy.select_one(queued.cylinder, drive._head_cylinder)
                else:
                    index = policy.select([q.cylinder for q in active],
                                          drive._head_cylinder)
                    queued = active.pop(index)
                self.started = sim.now
                if self.service(queued):
                    return
                drive._idle_credit = 1
            elif drive._dirty:
                # Destage dirty write data at lower priority than reads.
                self.started = sim.now
                self.destage()
                return
            elif drive._idle_credit > 0 and drive._can_idle_prefetch():
                self.started = sim.now
                if self.idle_prefetch():
                    return
            else:
                drive._worker_running = False
                return

    def served(self) -> None:
        """A command's service ended: book it, then loop."""
        drive = self.drive
        drive.busy_time += drive.sim.now - self.started
        drive._idle_credit = 1
        self.run()

    def worked(self) -> None:
        """A destage or idle read-ahead run ended: book it, then loop."""
        drive = self.drive
        drive.busy_time += drive.sim.now - self.started
        self.run()

    def end_span(self) -> None:
        """Close the open phase span (tracing only)."""
        span, self.span = self.span, None
        self.drive._obs.spans.end(span, self.drive.sim.now)

    # -- commands ----------------------------------------------------------
    def service(self, queued: _Queued) -> bool:
        """Start servicing ``queued``; False when it finished at once."""
        drive = self.drive
        request = queued.request
        if drive._obs_on:
            span = request.annotations.pop("obs.diskq", None)
            if span is not None:
                drive._obs.spans.end(span, drive.sim.now)
        start_lba = queued.start_lba
        nsectors = queued.nsectors
        self.queued = queued
        if request.kind is IOKind.READ:
            covered = drive.cache.lookup(start_lba, nsectors)
            if covered == nsectors:
                # Filled (e.g. by read-ahead) while waiting in the queue.
                request.annotations["disk.hit"] = "queue"
                drive._complete(request, queued.event)
                return False
            self.move(request, start_lba + covered, nsectors - covered,
                      self.read_done)
        else:
            drive.cache.invalidate(start_lba, nsectors)
            self.move(request, start_lba, nsectors, self.write_done)
        return True

    def read_done(self) -> None:
        drive = self.drive
        queued = self.queued
        segment = drive._insert_demand(self.lba, self.nsectors)
        drive._tail_segment = segment
        drive._c_media_read.add(self.nsectors * SECTOR_BYTES)
        # Demand satisfied: complete to the host while read-ahead
        # continues. The interface transfer overlapped the (slower)
        # media read.
        drive._complete(queued.request, queued.event,
                        charge_interface=False)
        if not self.read_ahead(segment):
            self.served()

    def write_done(self) -> None:
        drive = self.drive
        queued = self.queued
        drive._c_media_write.add(self.nsectors * SECTOR_BYTES)
        drive._complete(queued.request, queued.event)
        self.served()

    def read_ahead(self, segment) -> bool:
        """Continue reading into ``segment`` while holding the head;
        False when there is nothing to read."""
        drive = self.drive
        start = drive._media_end_lba
        if start is None:
            return False
        space = drive.cache.space_left(segment)
        target = drive.spec.read_ahead_bytes
        if target is not None:
            space = min(space, target // SECTOR_BYTES)
        space = min(space, drive.geometry.total_sectors - start)
        if space <= 0:
            return False
        if segment.end != start:
            # Demand was tail-inserted from a multi-segment read and the
            # segment is full, or positions diverged: nothing to extend.
            return False
        sim = drive.sim
        transfer = drive.mechanics.transfer_time(start, space)
        if drive._obs_on:
            # Overlaps the demand completion (the head keeps reading
            # while the host is answered), so attribution ignores it —
            # it exists for the timeline view.
            self.span = drive._obs.begin_child(
                self.queued.request, "disk.readahead", "disk", sim.now,
                args={"sectors": space})
        self.segment = segment
        self.lba = start
        self.nsectors = space
        sim.after(transfer, self.read_ahead_done)
        return True

    def read_ahead_done(self, _timeout: Event) -> None:
        if self.span is not None:
            self.end_span()
        drive = self.drive
        drive._advance_media(self.lba, self.nsectors)
        if drive.cache.is_live(self.segment):
            drive.cache.fill(self.segment, self.nsectors, prefetch=True)
        drive._c_readahead.add(self.nsectors * SECTOR_BYTES)
        self.served()

    # -- background work -----------------------------------------------------
    def destage(self) -> None:
        """Write the oldest dirty run to media and release its budget."""
        start_lba, nsectors = self.drive._dirty.popleft()
        self.move(None, start_lba, nsectors, self.destaged)

    def destaged(self) -> None:
        drive = self.drive
        nbytes = self.nsectors * SECTOR_BYTES
        drive._dirty_sectors -= self.nsectors
        drive.stats.counter("media_write").add(nbytes)
        drive.stats.counter("destaged").add(nbytes)
        # Not ``_dirty``: destage() pops a run when it starts, so the
        # list is empty while its last run is still being written.
        if not drive._dirty_sectors and drive._flush_waiters:
            waiters, drive._flush_waiters = drive._flush_waiters, []
            for waiter in waiters:
                waiter.succeed()
        self.worked()

    def idle_prefetch(self) -> bool:
        """Read one further segment while the queue is idle, as one
        :class:`_IdleRun`; False when there is nothing to read."""
        drive = self.drive
        drive._idle_credit = 0
        start = drive._media_end_lba
        remaining = min(drive.cache.segment_sectors,
                        drive.geometry.total_sectors - start)
        if remaining <= 0:
            return False
        segment = drive._tail_segment = drive.cache.allocate(start)
        drive._idle_run = _IdleRun(self, segment, start, remaining)
        return True

    # -- media access ----------------------------------------------------------
    def move(self, request: Optional[IORequest], lba: int, nsectors: int,
             then) -> None:
        """Seek to ``lba``, wait out the rotational latency, transfer
        ``nsectors``, then call ``then()``.

        No seek and no rotation when the head is already streaming at
        ``lba``. In POSITIONED rotation mode the rotational wait is
        computed *after* the seek completes — the platter kept spinning
        while the arm moved. ``request`` (when tracing) gets the
        seek/rotate/transfer phase spans; destage has none.
        """
        drive = self.drive
        self.request = request
        self.lba = lba
        self.nsectors = nsectors
        self.then = then
        if drive._media_end_lba == lba:
            self.transfer()
            return
        distance = abs(drive._cylinder_of_lba(lba) - drive._head_cylinder)
        seek = drive.mechanics.seek_model.seek_time(distance)
        drive._c_seeks.add()
        if seek > 0:
            sim = drive.sim
            if drive._obs_on and request is not None:
                self.span = drive._obs.begin_child(
                    request, "disk.seek", "disk", sim.now,
                    args={"cylinders": distance})
            sim.after(seek, self.rotate)
        else:
            self.rotate()

    def rotate(self, _seek: Optional[Event] = None) -> None:
        if self.span is not None:
            self.end_span()
        drive = self.drive
        sim = drive.sim
        if drive.config.rotation_mode is RotationMode.POSITIONED:
            rotation = drive.mechanics.rotational_latency(
                now=sim.now, target_lba=self.lba)
        else:
            rotation = drive.mechanics.rotational_latency()
        if rotation > 0:
            if drive._obs_on and self.request is not None:
                self.span = drive._obs.begin_child(
                    self.request, "disk.rotate", "disk", sim.now)
            sim.after(rotation, self.transfer)
        else:
            self.transfer()

    def transfer(self, _rotation: Optional[Event] = None) -> None:
        if self.span is not None:
            self.end_span()
        drive = self.drive
        sim = drive.sim
        transfer = drive.mechanics.transfer_time(self.lba, self.nsectors)
        if drive._obs_on and self.request is not None:
            self.span = drive._obs.begin_child(
                self.request, "disk.transfer", "disk", sim.now,
                args={"sectors": self.nsectors})
        sim.after(transfer, self.transferred)

    def transferred(self, _timeout: Event) -> None:
        if self.span is not None:
            self.end_span()
        self.drive._advance_media(self.lba, self.nsectors)
        # Drop the bound method: a finished worker must not keep itself
        # (and its drive) alive in a reference cycle.
        then, self.then = self.then, None
        then()


class _IdleRun:
    """One idle read-ahead run: a segment read in chunks, one timer.

    The firmware reads the segment in ``_idle_chunk_sectors`` chunks so
    that a command arriving mid-run stops it at the next chunk boundary,
    as real drives abort read-ahead for new work. Only the drive looks
    at the chunks, so the run books them when it must, not as each one
    ends. It computes every chunk's end time up front, adding each
    chunk's transfer time to the previous end in chunk order, and
    pushes one timer at the end of the ``stop`` chunk, initially the
    last one:

    * :meth:`fill` books the chunks that ended by a given time: cache
      fill, media position, one read-ahead count per chunk.
      ``DiskDrive.submit`` calls it first whenever ``next_end`` has
      passed, so a command sees exactly the chunks that ended by its
      arrival; a chunk that ends at that very instant counts as filled.
    * :meth:`cut` moves ``stop`` to the chunk in progress and pushes a
      timer at its end. ``submit`` calls it when a command is queued,
      and when an absorbed write invalidates the run's segment; a dead
      segment takes no more fills, so the run then ends at that
      boundary with the chunk unfilled.
    * :meth:`end` runs at the stop chunk's end: it fills, ends the run
      and hands the head back to the worker. The first timer of a run
      that was cut finds ``worker`` cleared and does nothing, so a
      worker that starts a second run is never ended by the first
      run's timer.

    Timers are pushed at their absolute end times with ``sim._push``:
    ``timeout(end - now)`` could round to a different instant. A run
    makes at most two pushes. DESIGN.md §4 ("Hops that wait") gives the
    order argument.
    """

    __slots__ = ("worker", "segment", "ends", "sizes", "filled", "stop",
                 "next_end")

    def __init__(self, worker: _Worker, segment, start: int, remaining: int):
        drive = worker.drive
        transfer_time = drive.mechanics.transfer_time
        chunk_sectors = drive._idle_chunk_sectors
        when = drive.sim.now
        ends = []
        sizes = []
        lba = start
        while remaining > 0:
            chunk = min(chunk_sectors, remaining)
            when += transfer_time(lba, chunk)
            ends.append(when)
            sizes.append(chunk)
            lba += chunk
            remaining -= chunk
        self.worker: Optional[_Worker] = worker
        self.segment = segment
        self.ends = ends
        self.sizes = sizes
        #: chunks booked so far
        self.filled = 0
        #: index of the chunk the run ends with
        self.stop = len(ends) - 1
        #: end of the next chunk to book (inf: nothing left to book)
        self.next_end = ends[0]
        drive._at(when, self.end)

    def fill(self, now: float) -> None:
        """Book every chunk up to ``stop`` that ended by ``now``."""
        drive = self.worker.drive
        ends = self.ends
        sizes = self.sizes
        stop = self.stop
        first = index = self.filled
        sectors = 0
        while index <= stop and ends[index] <= now:
            sectors += sizes[index]
            index += 1
        if not sectors:
            return
        cache = drive.cache
        segment = self.segment
        if not cache.is_live(segment):
            self.next_end = _NEVER
            return
        # Nothing runs between these chunks' ends but this run, so one
        # fill and one head move book them all; the read-ahead counter
        # still counts each chunk.
        cache.fill(segment, sectors, prefetch=True)
        drive._advance_media(drive._media_end_lba, sectors)
        readahead = drive._c_readahead
        readahead.count += index - first
        readahead.total_bytes += sectors * SECTOR_BYTES
        self.filled = index
        self.next_end = ends[index] if index <= stop else _NEVER

    def cut(self) -> None:
        """End the run with the chunk in progress (after :meth:`fill`)."""
        if self.filled < self.stop:
            self.stop = self.filled
            self.worker.drive._at(self.ends[self.filled], self.end)

    def end(self, _timer: Event) -> None:
        worker = self.worker
        if worker is None:
            return  # the run ended at an earlier cut
        drive = worker.drive
        self.fill(drive.sim.now)
        self.worker = drive._idle_run = None
        worker.worked()


class DiskDrive:
    """A single disk drive implementing :class:`repro.io.BlockDevice`.

    Parameters
    ----------
    sim:
        Owning simulator.
    spec:
        Static drive description (geometry, seek curve, cache layout...).
    config:
        Runtime knobs; defaults are sensible.
    name:
        Label for stats/tracing (default: spec name).
    """

    __slots__ = (
        "sim", "spec", "config", "name", "geometry", "mechanics", "cache",
        "interface", "stats", "_active", "_waiting", "_policy",
        "_head_cylinder", "_media_end_lba", "_worker_running", "busy_time",
        "_tail_segment", "_idle_credit", "_idle_chunk_sectors", "_idle_run",
        "_dirty", "_dirty_sectors", "_flush_waiters", "_capacity_bytes",
        "_cmd_overhead",
        "_cylinder_of_lba", "_c_completed",
        "_c_media_read", "_c_media_write", "_c_readahead", "_c_seeks",
        "_obs", "_obs_on",
    )

    def __init__(self, sim: Simulator, spec: DiskSpec,
                 config: Optional[DriveConfig] = None, name: str = ""):
        self.sim = sim
        self.spec = spec
        self.config = config or DriveConfig()
        self.name = name or spec.name
        outer_spt = max(
            1, round(spec.outer_media_rate * spec.rotation_time_s
                     / SECTOR_BYTES))
        inner_spt = max(
            1, round(spec.inner_media_rate * spec.rotation_time_s
                     / SECTOR_BYTES))
        self.geometry = DiskGeometry.from_capacity(
            spec.capacity_bytes, heads=spec.heads,
            num_zones=spec.num_zones, outer_spt=outer_spt,
            inner_spt=inner_spt)
        self.mechanics = Mechanics(
            self.geometry, rpm=spec.rpm,
            seek_model=SeekModel(spec.single_cylinder_seek_s,
                                 spec.average_seek_s,
                                 self.geometry.cylinders),
            rotation_mode=self.config.rotation_mode,
            seed=self.config.seed,
            track_switch_time=spec.track_switch_s)
        segment_sectors = max(1, spec.segment_bytes // SECTOR_BYTES)
        self.cache = SegmentedCache(num_segments=spec.cache_segments,
                                    segment_sectors=segment_sectors)
        self.interface = Pipe(sim, bandwidth=spec.interface_rate,
                              name=f"{self.name}.sata")
        self.stats = StatsRegistry()
        # Commands the firmware can reorder (bounded by spec.queue_depth)...
        self._active: List[_Queued] = []
        # ...and the FIFO backlog behind them (host/driver queue).
        self._waiting: deque[_Queued] = deque()
        self._policy: QueuePolicy = make_policy(self.config.scheduler)
        self._head_cylinder = 0
        self._media_end_lba: Optional[int] = None
        self._worker_running = False
        self.busy_time = 0.0
        # Idle-time sequential prefetch state: the segment at the media
        # position (if any) and a credit that allows at most one idle
        # segment per serviced command or cache hit (prevents runaway
        # prefetch when the host stops reading).
        self._tail_segment = None
        self._idle_credit = 0
        self._idle_chunk_sectors = max(
            1, (64 * 1024) // SECTOR_BYTES)
        #: the idle read-ahead run in progress, if any
        self._idle_run: Optional[_IdleRun] = None
        # Write-back cache state: FIFO of dirty (start_lba, nsectors)
        # runs awaiting background destage, and flush barriers.
        self._dirty: deque[tuple[int, int]] = deque()
        self._dirty_sectors = 0
        self._flush_waiters: List[Event] = []
        # Hot-path metric objects, resolved once: StatsRegistry.counter()
        # is a dict probe + method call per update, and completions alone
        # touch two metrics per request.
        self._capacity_bytes = self.geometry.capacity_bytes
        self._cmd_overhead = spec.command_overhead_s
        #: bound once — the attribute chain per mapping was measurable
        self._cylinder_of_lba = self.geometry.cylinder_of_lba
        stats = self.stats
        self._c_completed = stats.counter("completed")
        self._c_media_read = stats.counter("media_read")
        self._c_media_write = stats.counter("media_write")
        self._c_readahead = stats.counter("readahead")
        self._c_seeks = stats.counter("seeks")
        # Ambient observability, captured once; every hook below guards
        # on the cached boolean so the default path is unchanged.
        self._obs = obs.current()
        self._obs_on = self._obs.enabled
        if self._obs_on:
            telemetry = self._obs.telemetry_for(sim)
            if telemetry is not None \
                    and f"disk.{self.name}.queue_length" \
                    not in telemetry.series:
                telemetry.watch_drive(self)
                telemetry.start()

    # -- BlockDevice protocol -------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        """Addressable bytes (actual fitted geometry, ≈ spec capacity)."""
        return self.geometry.capacity_bytes

    def submit(self, request: IORequest) -> Event:
        """Queue ``request``; returns its completion event.

        Read requests fully covered by the cache complete without touching
        the mechanics (fast path).
        """
        # Alignment is enforced by IORequest's constructor, so plain
        # floor division replaces the re-validating sectors() helper on
        # this once-per-request path.
        offset = request.offset
        size = request.size
        start_lba = offset // SECTOR_BYTES
        nsectors = size // SECTOR_BYTES
        if offset + size > self._capacity_bytes:
            raise ValueError(
                f"{request!r} beyond capacity {self._capacity_bytes}")
        sim = self.sim
        idle_run = self._idle_run
        if idle_run is not None and idle_run.next_end <= sim.now:
            # Idle read-ahead chunks that ended by now are in the cache
            # for this command.
            idle_run.fill(sim.now)
        if request.submit_time == 0.0:  # inlined stamp_submit()
            request.submit_time = sim.now
        event = sim.event("io")
        is_read = request.kind is IOKind.READ  # inlined is_read property
        if self._obs_on:
            # Structural span for the drive residency; phase spans
            # (queue/seek/rotate/transfer/complete/cache-hit) tile it.
            span = self._obs.begin_child(request, "disk.request", "disk",
                                         sim.now, args={"disk": self.name})
            request.annotations["obs.disk"] = span
            self._obs.link(request, span)
        if is_read and (
                self.cache.lookup(start_lba, nsectors) == nsectors
                or (self._dirty
                    and self._dirty_covers(start_lba, nsectors))):
            request.annotations["disk.hit"] = "submit"
            self._complete(request, event)
            # A consuming stream re-arms idle read-ahead.
            self._idle_credit = 1
            self._kick_worker()
            return event
        if not is_read and self._absorb_write(request, event,
                                                      start_lba, nsectors):
            return event
        if self._obs_on:
            request.annotations["obs.diskq"] = self._obs.begin_child(
                request, "disk.queue", "disk", sim.now)
        queued = _Queued(request, event,
                         self._cylinder_of_lba(start_lba),
                         start_lba, nsectors)
        self._waiting.append(queued)
        if idle_run is not None:
            idle_run.cut()
        self._kick_worker()
        return event

    def _at(self, when: float, step) -> None:
        """Call ``step(timer)`` at the absolute time ``when``."""
        sim = self.sim
        timer = sim.event("idle")
        timer._state = Event.TRIGGERED
        timer.callbacks.append(step)
        sim._push(when, timer)

    def _kick_worker(self) -> None:
        if not self._worker_running:
            self._worker_running = True
            self.sim.after(0.0, _Worker(self).run)

    def _dirty_covers(self, start_lba: int, nsectors: int) -> bool:
        """Whole range inside one not-yet-destaged dirty run? (WCE
        drives serve such reads from the write buffer.)"""
        return any(run_start <= start_lba
                   and start_lba + nsectors <= run_start + run_len
                   for run_start, run_len in self._dirty)

    def _absorb_write(self, request: IORequest, event: Event,
                      start_lba: int, nsectors: int) -> bool:
        """Write-back fast path: absorb the write into the dirty buffer.

        Returns False (caller queues a media write) when write caching is
        off or the dirty budget is exhausted.
        """
        budget = self.spec.write_cache_bytes // SECTOR_BYTES
        if budget <= 0 or self._dirty_sectors + nsectors > budget:
            return False
        self.cache.invalidate(start_lba, nsectors)
        idle_run = self._idle_run
        if idle_run is not None and not self.cache.is_live(idle_run.segment):
            idle_run.cut()
        self._dirty.append((start_lba, nsectors))
        self._dirty_sectors += nsectors
        request.annotations["disk.wce"] = True
        self.stats.counter("write_absorbed").add(request.size)
        self._complete(request, event)
        self._kick_worker()
        return True

    def flush(self) -> Event:
        """Barrier: fires once all dirty write data has reached media."""
        event = self.sim.event(name=f"{self.name}.flush")
        # Not ``_dirty``: a run being destaged has left that list.
        if not self._dirty_sectors:
            event.succeed()
        else:
            self._flush_waiters.append(event)
            self._kick_worker()
        return event

    @property
    def queue_length(self) -> int:
        """Currently pending (not yet serviced) commands."""
        return len(self._waiting) + len(self._active)

    # -- service helpers (the worker's) ------------------------------------
    def _can_idle_prefetch(self) -> bool:
        """True when the tail segment can be extended into a new one."""
        if self.spec.read_ahead_bytes == 0 or self._media_end_lba is None:
            return False
        tail = self._tail_segment
        return (tail is not None and self.cache.is_live(tail)
                and tail.end == self._media_end_lba)

    def _advance_media(self, start_lba: int, nsectors: int) -> None:
        end = start_lba + nsectors
        self._media_end_lba = end if end < self.geometry.total_sectors \
            else None
        last = min(end, self.geometry.total_sectors) - 1
        self._head_cylinder = self._cylinder_of_lba(last)

    def _insert_demand(self, start_lba: int, nsectors: int):
        """Cache the demand data; returns the segment for read-ahead.

        When the demand exceeds one segment, only the tail fits — that is
        the part a sequential stream will extend, so keep it.
        """
        capacity = self.cache.segment_sectors
        if nsectors >= capacity:
            segment = self.cache.allocate(start_lba + nsectors - capacity)
            self.cache.fill(segment, capacity)
            return segment
        segment = self.cache.allocate(start_lba)
        self.cache.fill(segment, nsectors)
        return segment

    def _complete(self, request: IORequest, event: Event,
                  charge_interface: bool = True) -> None:
        """Start the completion hop: command overhead (+ interface
        transfer), then fire ``event``.

        Misses skip the interface charge: the transfer streams off the
        platter concurrently with the media read, and the interface is
        always faster than the media here. The hop is a callback chain
        (:class:`_Completion`) started by one zero-delay event pushed
        here, the push a Process bootstrap would make (DESIGN.md §4).
        """
        self.sim.after(
            0.0, _Completion(self, request, event, charge_interface).start)

    # -- reporting ------------------------------------------------------------------
    def throughput(self, elapsed: float) -> float:
        """Completed bytes per second over ``elapsed`` seconds."""
        return self.stats.counter("completed").throughput(elapsed)

    def __repr__(self) -> str:
        return (f"<DiskDrive {self.name!r} "
                f"{self.capacity_bytes / 1e9:.1f} GB "
                f"pending={self.queue_length}>")
