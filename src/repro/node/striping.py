"""RAID-0 striping over a storage node's disks.

The paper's testbed controller (BC4810) is a RAID controller used as
JBOD; this extension provides the striped alternative: a
:class:`StripedVolume` presents one flat address space over several
disks, splitting requests at chunk boundaries round-robin. A single
sequential stream then engages every spindle — the classic way media
servers traded stream capacity for per-stream bandwidth.

The volume is a :class:`~repro.io.BlockDevice`, so the stream server
runs on top of it unchanged (streams over the *virtual* space are still
sequential, and the coalesced R-sized fetches fan out across disks).

**Degraded mode** (DESIGN.md §6): a member disk can die mid-run —
declared via :meth:`StripedVolume.mark_disk_dead` or learned organically
when a child request fails with
:class:`~repro.faults.errors.DiskDeadError`. A dead member fails only
the requests whose stripe ranges *touch* it (fail-fast, without
occupying any live disk's queue); requests that map entirely onto
surviving members keep completing at full throughput.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.faults.errors import DiskDeadError
from repro.io import BlockDevice, IORequest, stamp_submit
from repro.node.node import StorageNode
from repro.sim import Simulator
from repro.sim.events import Event
from repro.sim.stats import StatsRegistry
from repro.units import KiB, SECTOR_BYTES

__all__ = ["StripedVolume"]


class StripedVolume:
    """RAID-0 view over selected disks of a node.

    Parameters
    ----------
    sim:
        Owning simulator.
    node:
        The storage node whose disks back the volume.
    disk_ids:
        Member disks, in stripe order.
    chunk_bytes:
        Stripe unit; requests split at chunk boundaries.
    """

    def __init__(self, sim: Simulator, node: StorageNode,
                 disk_ids: Sequence[int], chunk_bytes: int = 256 * KiB):
        if not disk_ids:
            raise ValueError("striped volume needs at least one disk")
        if len(set(disk_ids)) != len(disk_ids):
            raise ValueError(f"duplicate disks in stripe: {disk_ids}")
        if chunk_bytes < SECTOR_BYTES or chunk_bytes % SECTOR_BYTES:
            raise ValueError(
                f"chunk_bytes must be sector-aligned: {chunk_bytes}")
        unknown = [d for d in disk_ids if d not in node.disk_ids]
        if unknown:
            raise ValueError(f"disks not on node: {unknown}")
        self.sim = sim
        self.node = node
        self.disk_ids = list(disk_ids)
        self.chunk_bytes = chunk_bytes
        per_disk = node.capacity_bytes
        usable_chunks = per_disk // chunk_bytes
        #: Virtual capacity: whole chunks only, across all members.
        self.capacity_bytes = (usable_chunks * chunk_bytes
                               * len(self.disk_ids))
        self.stats = StatsRegistry()
        #: Members known dead; their chunks fail fast (degraded mode).
        self._dead_disks: Set[int] = set()

    # -- degraded mode ------------------------------------------------------
    @property
    def dead_disks(self) -> List[int]:
        """Members currently known dead, sorted."""
        return sorted(self._dead_disks)

    @property
    def degraded(self) -> bool:
        """True once any member disk has died."""
        return bool(self._dead_disks)

    def mark_disk_dead(self, disk_id: int) -> None:
        """Record a member death; later requests touching it fail fast.

        Idempotent. In-flight children on the disk finish however the
        underlying device decides; only *new* submissions are affected.
        """
        if disk_id not in self.disk_ids:
            raise ValueError(f"disk {disk_id} not a member of {self!r}")
        if disk_id not in self._dead_disks:
            self._dead_disks.add(disk_id)
            self.stats.counter("disk_deaths").add()

    # -- address mapping ----------------------------------------------------
    def map_offset(self, virtual_offset: int) -> Tuple[int, int]:
        """Virtual byte offset → (disk_id, physical byte offset)."""
        if not 0 <= virtual_offset < self.capacity_bytes:
            raise ValueError(
                f"offset {virtual_offset} outside volume "
                f"[0, {self.capacity_bytes})")
        chunk_index, within = divmod(virtual_offset, self.chunk_bytes)
        width = len(self.disk_ids)
        disk = self.disk_ids[chunk_index % width]
        physical = (chunk_index // width) * self.chunk_bytes + within
        return disk, physical

    def split(self, request: IORequest) -> List[IORequest]:
        """Child requests, one per chunk-contiguous physical run.

        Adjacent virtual chunks mapping to consecutive physical chunks
        of the *same* disk cannot happen in RAID-0 with width > 1, so
        children are simply one per touched chunk; with width == 1 the
        request passes through whole.
        """
        if len(self.disk_ids) == 1:
            disk, physical = self.map_offset(request.offset)
            child = request.derive(physical, request.size)
            child.disk_id = disk
            return [child]
        children = []
        position = request.offset
        remaining = request.size
        while remaining > 0:
            disk, physical = self.map_offset(position)
            chunk_left = self.chunk_bytes - position % self.chunk_bytes
            size = min(chunk_left, remaining)
            child = request.derive(physical, size)
            child.disk_id = disk
            children.append(child)
            position += size
            remaining -= size
        return children

    # -- BlockDevice protocol ------------------------------------------------
    def submit(self, request: IORequest) -> Event:
        """Fan the request out to member disks; completes when all do.

        Degraded mode: a request whose stripe range touches a known-dead
        member fails *immediately* with :class:`DiskDeadError` — no
        child is submitted, so a dead disk never queues work on (or
        steals host/controller time from) the survivors. Requests
        entirely on live members proceed normally.
        """
        if request.offset + request.size > self.capacity_bytes:
            raise ValueError(
                f"{request!r} beyond volume capacity "
                f"{self.capacity_bytes}")
        stamp_submit(request, self.sim.now)
        event = self.sim.event(name=f"stripe{request.request_id}")
        children = self.split(request)
        self.stats.counter("submitted").add(request.size)
        self.stats.counter("children").add()
        if self._dead_disks:
            touched = sorted({child.disk_id for child in children
                              if child.disk_id in self._dead_disks})
            if touched:
                self.stats.counter("degraded_failed").add(request.size)
                event.fail(DiskDeadError(
                    f"{request!r} touches dead member disk(s) {touched}"))
                return event

        def gather(sim):
            # Submit everything up front (children proceed in
            # parallel), then account each child individually so a
            # member death is *learned* — later requests touching that
            # member fail fast instead of queueing behind a dead disk.
            pairs = [(child, self.node.submit(child))
                     for child in children]
            first_exc = None
            for child, child_event in pairs:
                try:
                    yield child_event
                except Exception as exc:
                    if isinstance(exc, DiskDeadError) \
                            and child.disk_id not in self._dead_disks:
                        self.mark_disk_dead(child.disk_id)
                    if first_exc is None:
                        first_exc = exc
            if first_exc is not None:
                self.stats.counter("degraded_failed").add(request.size)
                event.fail(first_exc)
                return
            request.complete_time = sim.now
            self.stats.counter("completed").add(request.size)
            event.succeed(request)

        self.sim.process(gather(self.sim), name="stripe.gather")
        return event

    def register_buffers(self, count: int) -> None:
        """Forward buffer accounting to the node's host cost model."""
        self.node.register_buffers(count)

    def __repr__(self) -> str:
        return (f"<StripedVolume disks={self.disk_ids} "
                f"chunk={self.chunk_bytes} "
                f"capacity={self.capacity_bytes}>")
