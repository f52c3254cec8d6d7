"""Hedged/redirected mirror reads over a storage node's disks.

The paper's round-robin dispatch assumes every spindle services requests
at the same rate; one slow disk inflates the tail for every stream
mapped to it. This module brings the sweep fabric's straggler policy
(`repro.experiments.fabric.coordinator`) and its estimator,
:class:`~repro.sim.stats.StragglerTracker`, *inside* the simulated
storage stack: a :class:`HedgedVolume` is a RAID-1-style mirror over member
disks — every member holds a full copy — that

* routes each read to one member, picked either round-robin (the
  paper's baseline) or by a per-member latency EWMA with idle
  preference (``select="ewma"``);
* with hedging enabled, starts a timer at ``max(hedge_min_s, hedge_k ×
  window-median)`` and, if the primary copy has not completed by then,
  issues **one** duplicate read to the fastest idle live member —
  first result wins, the loser is drained deterministically (its
  completion updates latency stats but never reaches the client, so a
  request completes exactly once);
* redirects to an untried live member when a copy fails, and learns
  member deaths organically: a child failing with
  :class:`~repro.faults.errors.DiskDeadError` marks the member dead so
  later reads exclude it without queueing behind the corpse.

The volume is a :class:`~repro.io.BlockDevice`, so the stream server
runs on top of it unchanged. With the default policy (hedging off,
single member) the submit path mirrors
:class:`~repro.node.striping.StripedVolume` operation for operation, so
its output is bit-identical to a width-1 stripe — pinned by
``tests/test_hedging.py``.

Determinism: every decision (member choice, hedge trigger, loser
cancellation) is a pure function of simulated time and volume state —
no wall clock, no unseeded randomness — so a seeded run replays
exactly (DESIGN.md §9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.faults.errors import DiskDeadError
from repro.io import IORequest, stamp_submit
from repro.sim import Simulator
from repro.sim.events import Event
from repro.sim.stats import StatsRegistry, StragglerTracker

__all__ = ["HedgePolicy", "HedgedVolume"]

_SELECT_POLICIES = ("ewma", "roundrobin")


@dataclass(frozen=True)
class HedgePolicy:
    """Read-placement and hedging knobs for a :class:`HedgedVolume`.

    Parameters
    ----------
    select:
        ``"ewma"`` picks the idle member with the lowest latency EWMA
        (unproven members look fast; the estimator is the fabric's
        :class:`~repro.sim.stats.StragglerTracker`);
        ``"roundrobin"`` rotates over members — the paper's baseline.
    hedge:
        Enable duplicate reads for stragglers. Off by default so a
        plain volume stays bit-identical to a width-1 stripe.
    hedge_k / hedge_min_s:
        A read older than ``max(hedge_min_s, hedge_k × median)`` of the
        recent-latency window earns one hedge to an idle live member.
    """

    select: str = "ewma"
    hedge: bool = False
    hedge_k: float = 3.0
    hedge_min_s: float = 2e-3

    def __post_init__(self) -> None:
        if self.select not in _SELECT_POLICIES:
            raise ValueError(
                f"select must be one of {_SELECT_POLICIES}: {self.select!r}")
        if self.hedge_k < 0.0:
            raise ValueError(f"hedge_k must be >= 0: {self.hedge_k}")
        if self.hedge_min_s < 0.0:
            raise ValueError(f"hedge_min_s must be >= 0: {self.hedge_min_s}")


class _ReadRace:
    """Book-keeping for one hedged read: copies in flight, winner."""

    __slots__ = ("request", "event", "tried", "outstanding", "decided",
                 "first_exc")

    def __init__(self, request: IORequest, event: Event):
        self.request = request
        self.event = event
        #: members a copy of this read has been sent to
        self.tried: Set[int] = set()
        #: copies currently in flight
        self.outstanding = 0
        #: True once the client event fired (success or failure)
        self.decided = False
        self.first_exc: Optional[BaseException] = None


class HedgedVolume:
    """Mirror view over member disks with hedged/redirected reads.

    Parameters
    ----------
    sim:
        Owning simulator.
    node:
        The device the member disks live on. Anything node-shaped
        works — a :class:`~repro.node.node.StorageNode` or a fault
        wrapper around one (``disk_ids``, ``capacity_bytes`` and
        ``submit`` are all that is used).
    disk_ids:
        Member disks; each holds a full copy of the address space.
    policy:
        Read placement + hedging knobs; default is plain EWMA routing
        with hedging off.
    """

    def __init__(self, sim: Simulator, node, disk_ids: Sequence[int],
                 policy: Optional[HedgePolicy] = None):
        if not disk_ids:
            raise ValueError("hedged volume needs at least one disk")
        if len(set(disk_ids)) != len(disk_ids):
            raise ValueError(f"duplicate disks in mirror: {disk_ids}")
        unknown = [d for d in disk_ids if d not in node.disk_ids]
        if unknown:
            raise ValueError(f"disks not on node: {unknown}")
        self.sim = sim
        self.node = node
        self.disk_ids = list(disk_ids)
        self.policy = policy or HedgePolicy()
        #: Every member mirrors the full per-disk address space.
        self.capacity_bytes = node.capacity_bytes
        self.stats = StatsRegistry()
        self._dead_disks: Set[int] = set()
        #: per-member latency EWMAs and the hedge-trigger window
        self._stragglers = StragglerTracker()
        #: copies in flight per member (idle preference + hedging)
        self._inflight: Dict[int, int] = {d: 0 for d in self.disk_ids}
        self._rr_next = 0
        # Cached guard so the hedging-off submit path never consults
        # the policy object per request.
        self._hedging = bool(self.policy.hedge)

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
        """Record a member death; later reads exclude it organically.

        Idempotent. In-flight copies on the disk finish however the
        underlying device decides; only *new* placements are affected.
        """
        if disk_id not in self.disk_ids:
            raise ValueError(f"disk {disk_id} not a member of {self!r}")
        if disk_id not in self._dead_disks:
            self._dead_disks.add(disk_id)
            self.stats.counter("disk_deaths").add()

    def _learn(self, member: int, exc: BaseException) -> None:
        if isinstance(exc, DiskDeadError) \
                and member not in self._dead_disks:
            self.mark_disk_dead(member)

    # -- member selection ---------------------------------------------------
    def _pick_primary(self, live: Sequence[int]) -> int:
        if self.policy.select == "roundrobin":
            width = len(self.disk_ids)
            for _ in range(width):
                disk = self.disk_ids[self._rr_next % width]
                self._rr_next += 1
                if disk not in self._dead_disks:
                    return disk
        # EWMA: idle members first, fastest estimate wins, id breaks
        # ties.
        idle = [d for d in live if not self._inflight[d]]
        return self._stragglers.fastest(idle or live)

    def _pick_redirect(self, tried: Set[int]) -> Optional[int]:
        """Fastest untried live member, or None when exhausted."""
        return self._stragglers.fastest(
            d for d in self.disk_ids
            if d not in tried and d not in self._dead_disks)

    def _pick_hedge(self, tried: Set[int]) -> Optional[int]:
        """Fastest *idle* untried live member (hedges never queue)."""
        return self._stragglers.fastest(
            d for d in self.disk_ids
            if d not in tried and d not in self._dead_disks
            and not self._inflight[d])

    # -- BlockDevice protocol -----------------------------------------------
    def submit(self, request: IORequest) -> Event:
        """Route the request to member copies; completes exactly once.

        Reads go to one member (two with a hedge in flight); writes
        mirror to every live member so the copies stay coherent. A
        request fails only when every live member has been tried (or
        none remain), with the *first* error observed.
        """
        if request.offset + request.size > self.capacity_bytes:
            raise ValueError(
                f"{request!r} beyond volume capacity "
                f"{self.capacity_bytes}")
        stamp_submit(request, self.sim.now)
        event = self.sim.event(name=f"hedge{request.request_id}")
        self.stats.counter("submitted").add(request.size)
        live = [d for d in self.disk_ids if d not in self._dead_disks]
        if not live:
            self.stats.counter("degraded_failed").add(request.size)
            event.fail(DiskDeadError(
                f"{request!r}: all mirror members "
                f"{self.disk_ids} are dead"))
            return event
        if not request.is_read:
            self.sim.process(self._mirror_write(request, event, live),
                             name="hedge.write")
            return event
        primary = self._pick_primary(live)
        if not self._hedging:
            self.sim.process(self._relay(request, event, primary),
                             name="hedge.read")
            return event
        race = _ReadRace(request, event)
        self._launch(race, primary, is_hedge=False)
        self.sim.process(self._hedge_timer(race), name="hedge.timer")
        return event

    # -- plain read path (hedging off) --------------------------------------
    def _relay(self, request: IORequest, event: Event, member: int):
        """One copy at a time; redirect to an untried mirror on failure.

        Structurally identical to ``StripedVolume``'s width-1 gather —
        derive child, submit, one yield, complete — so the hedging-off
        volume is bit-identical to a single-disk stripe.
        """
        tried = {member}
        first_exc: Optional[BaseException] = None
        while True:
            child = request.derive(request.offset, request.size)
            child.disk_id = member
            self._inflight[member] += 1
            started = self.sim.now
            try:
                yield self.node.submit(child)
            except Exception as exc:
                self._inflight[member] -= 1
                self._learn(member, exc)
                if first_exc is None:
                    first_exc = exc
                next_member = self._pick_redirect(tried)
                if next_member is None:
                    self.stats.counter("degraded_failed").add(request.size)
                    event.fail(first_exc)
                    return
                member = next_member
                tried.add(member)
                self.stats.counter("redirects").add()
                continue
            self._inflight[member] -= 1
            self._stragglers.observe(member, self.sim.now - started)
            request.complete_time = self.sim.now
            self.stats.counter("completed").add(request.size)
            event.succeed(request)
            return

    # -- hedged read path ----------------------------------------------------
    def _launch(self, race: _ReadRace, member: int, is_hedge: bool) -> None:
        race.tried.add(member)
        race.outstanding += 1
        child = race.request.derive(race.request.offset, race.request.size)
        child.disk_id = member
        self._inflight[member] += 1
        started = self.sim.now
        child_event = self.node.submit(child)
        self.sim.process(
            self._drain(race, member, child_event, started, is_hedge),
            name="hedge.drain")

    def _drain(self, race: _ReadRace, member: int, child_event: Event,
               started: float, is_hedge: bool):
        """Await one copy; first success wins, losers only update stats."""
        try:
            yield child_event
        except Exception as exc:
            self._inflight[member] -= 1
            self._learn(member, exc)
            race.outstanding -= 1
            if race.decided:
                return
            if race.first_exc is None:
                race.first_exc = exc
            if race.outstanding > 0:
                # A sibling copy is still racing; let it finish.
                return
            next_member = self._pick_redirect(race.tried)
            if next_member is None:
                race.decided = True
                self.stats.counter("degraded_failed").add(
                    race.request.size)
                race.event.fail(race.first_exc)
                return
            self.stats.counter("redirects").add()
            self._launch(race, next_member, is_hedge=False)
            return
        self._inflight[member] -= 1
        self._stragglers.observe(member, self.sim.now - started)
        race.outstanding -= 1
        if race.decided:
            # The loser of the race: drained deterministically — its
            # latency feeds the estimator, nothing reaches the client.
            self.stats.counter("hedges_cancelled").add()
            return
        race.decided = True
        if is_hedge:
            self.stats.counter("hedges_won").add()
        request = race.request
        request.complete_time = self.sim.now
        self.stats.counter("completed").add(request.size)
        race.event.succeed(request)

    def _hedge_timer(self, race: _ReadRace):
        """Issue at most one duplicate copy once the read ages out."""
        policy = self.policy
        yield self.sim.timeout(
            self._stragglers.threshold(policy.hedge_k, policy.hedge_min_s))
        if race.decided or race.outstanding != 1:
            return
        member = self._pick_hedge(race.tried)
        if member is None:
            return
        self.stats.counter("hedges_issued").add()
        self._launch(race, member, is_hedge=True)

    # -- write path ----------------------------------------------------------
    def _mirror_write(self, request: IORequest, event: Event,
                      members: Sequence[int]):
        """Mirror the write to every live member; completes when all do."""
        pairs = []
        for member in members:
            child = request.derive(request.offset, request.size)
            child.disk_id = member
            self._inflight[member] += 1
            pairs.append((member, self.node.submit(child)))
        first_exc: Optional[BaseException] = None
        for member, child_event in pairs:
            try:
                yield child_event
            except Exception as exc:
                self._learn(member, exc)
                if first_exc is None:
                    first_exc = exc
            self._inflight[member] -= 1
        if first_exc is not None:
            self.stats.counter("degraded_failed").add(request.size)
            event.fail(first_exc)
            return
        request.complete_time = self.sim.now
        self.stats.counter("completed").add(request.size)
        event.succeed(request)

    def register_buffers(self, count: int) -> None:
        """Forward buffer accounting to the node's host cost model."""
        self.node.register_buffers(count)

    def __repr__(self) -> str:
        return (f"<HedgedVolume disks={self.disk_ids} "
                f"select={self.policy.select} "
                f"hedge={self._hedging} "
                f"capacity={self.capacity_bytes}>")
