"""Tests for the hedged/redirected mirror volume (DESIGN.md §9).

The load-bearing pins:

* **bit-identity off** — a policies-off HedgedVolume (no hedging, no
  EWMA steering) produces the exact FleetReport a StripedVolume over
  the same single member does: the resilience layer is free when off;
* **tail win** — with one mirror member straggling, hedged reads beat
  blind round-robin on p99 in the same deterministic scenario;
* **degraded mode** — a dead member is excluded after its first
  DiskDeadError and clients never see the death;
* **bookkeeping** — racing hedge copies complete each request exactly
  once and leak nothing.
"""

import pytest

from repro.core import ServerParams, StreamServer
from repro.disk import WD800JD
from repro.disk.mechanics import RotationMode
from repro.faults import DiskDeath, FaultPlan, FaultyDevice, \
    StragglerDevice
from repro.io import IOKind, IORequest
from repro.node import HedgePolicy, HedgedVolume, StripedVolume, \
    base_topology, build_node, medium_topology
from repro.sim import Simulator
from repro.units import KiB
from repro.workload import ClientFleet, StreamSpec

SIZE = 64 * KiB


def _node(sim, topo=base_topology, seed=7):
    return build_node(sim, topo(disk_spec=WD800JD,
                                rotation_mode=RotationMode.EXPECTED,
                                seed=seed))


def _specs(volume, streams=8):
    spacing = volume.capacity_bytes // streams
    spacing -= spacing % SIZE
    return [StreamSpec(stream_id=i, disk_id=0, start_offset=i * spacing,
                       request_size=SIZE) for i in range(streams)]


def read(offset, size=SIZE, stream=None):
    return IORequest(kind=IOKind.READ, disk_id=0, offset=offset,
                     size=size, stream_id=stream)


def write(offset, size=SIZE):
    return IORequest(kind=IOKind.WRITE, disk_id=0, offset=offset,
                     size=size)


# ---------------------------------------------------------------------------
# Policy validation
# ---------------------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        HedgePolicy(select="fastest")
    with pytest.raises(ValueError):
        HedgePolicy(hedge_k=-1.0)
    with pytest.raises(ValueError):
        HedgePolicy(hedge_min_s=-1.0)


def test_volume_rejects_bad_members():
    sim = Simulator()
    node = _node(sim)
    with pytest.raises(ValueError):
        HedgedVolume(sim, node, [])
    with pytest.raises(ValueError):
        HedgedVolume(sim, node, [0, 0])
    with pytest.raises(ValueError):
        HedgedVolume(sim, node, [99])


# ---------------------------------------------------------------------------
# Bit-identity: policies off == bare volume
# ---------------------------------------------------------------------------

def _fleet_report(volume_factory):
    sim = Simulator()
    node = _node(sim)
    volume = volume_factory(sim, node)
    server = StreamServer(sim, volume, ServerParams())
    fleet = ClientFleet(sim, server, _specs(volume))
    return fleet.run(duration=1.0)


def test_policies_off_bit_identical_to_striped_volume():
    """HedgedVolume with hedging/EWMA off over one member == a
    single-member StripedVolume: same fleet, same bits."""
    striped = _fleet_report(
        lambda sim, node: StripedVolume(sim, node, [0]))
    hedged = _fleet_report(
        lambda sim, node: HedgedVolume(
            sim, node, [0],
            policy=HedgePolicy(select="roundrobin", hedge=False)))
    assert hedged.total_bytes == striped.total_bytes
    assert hedged.per_stream_bytes == striped.per_stream_bytes
    assert hedged.mean_latency == striped.mean_latency
    assert hedged.p99_latency == striped.p99_latency
    assert hedged.total_errors == striped.total_errors == 0


# ---------------------------------------------------------------------------
# Tail win under a straggler
# ---------------------------------------------------------------------------

def _straggler_run(policy):
    sim = Simulator()
    node = _node(sim, topo=medium_topology)
    adversary = StragglerDevice(sim, node, slowdown=8.0, disk_id=0)
    volume = HedgedVolume(sim, adversary, [0, 1], policy=policy)
    server = StreamServer(sim, volume,
                          ServerParams(dispatch_width=2))
    fleet = ClientFleet(sim, server, _specs(volume))
    return fleet.run(duration=2.0), volume


def test_hedged_beats_round_robin_p99_under_straggler():
    """One 8x-slow mirror member: blind rotation eats the penalty on
    half its fetches; EWMA steering + hedging cuts the tail."""
    blind, _ = _straggler_run(
        HedgePolicy(select="roundrobin", hedge=False))
    hedged, volume = _straggler_run(
        HedgePolicy(select="ewma", hedge=True,
                    hedge_k=2.0, hedge_min_s=5e-3))
    assert hedged.total_errors == blind.total_errors == 0
    assert hedged.p99_latency < blind.p99_latency
    # The win is mechanical, not luck: the EWMA path actually steered
    # and/or hedged away from the straggler.
    stats = volume.stats
    assert stats.counter("completed").count > 0


# ---------------------------------------------------------------------------
# Degraded mode
# ---------------------------------------------------------------------------

def test_dead_member_excluded_without_client_errors():
    sim = Simulator()
    node = _node(sim, topo=medium_topology)
    faulty = FaultyDevice(sim, node, FaultPlan(
        seed=0, deaths=(DiskDeath(disk_id=0, at=0.01),)))
    volume = HedgedVolume(
        sim, faulty, [0, 1],
        policy=HedgePolicy(select="roundrobin", hedge=False))
    server = StreamServer(sim, volume, ServerParams())
    fleet = ClientFleet(sim, server, _specs(volume),
                        tolerate_errors=True)
    report = fleet.run(duration=1.0)
    assert report.total_errors == 0  # the mirror absorbed the death
    assert report.total_bytes > 0
    assert volume.degraded
    assert volume.dead_disks == [0]
    assert volume.stats.counter("redirects").count >= 1


def test_all_members_dead_fails_fast():
    sim = Simulator()
    node = _node(sim, topo=medium_topology)
    volume = HedgedVolume(sim, node, [0, 1])
    volume.mark_disk_dead(0)
    volume.mark_disk_dead(1)
    failed = []
    event = volume.submit(read(0))
    event.callbacks.append(lambda fired: failed.append(fired.ok))
    sim.run()
    assert failed == [False]


# ---------------------------------------------------------------------------
# Hedge bookkeeping
# ---------------------------------------------------------------------------

def test_eager_hedging_completes_each_request_exactly_once():
    """hedge_min_s=0/hedge_k=0 hedges every read that takes any time at
    all; first result wins, the loser is drained and cancelled."""
    sim = Simulator()
    node = _node(sim, topo=medium_topology)
    volume = HedgedVolume(
        sim, node, [0, 1],
        policy=HedgePolicy(select="ewma", hedge=True,
                           hedge_k=0.0, hedge_min_s=0.0))
    completions = []

    def reader():
        for index in range(20):
            request = read(index * SIZE, stream=3)
            yield volume.submit(request)
            completions.append(request.offset)

    sim.process(reader())
    sim.run()
    assert completions == [i * SIZE for i in range(20)]
    stats = volume.stats
    assert stats.counter("completed").count == 20
    issued = stats.counter("hedges_issued").count
    assert issued >= 1
    # Every hedged race resolves with one winner and one drained loser:
    # the cancelled count tracks losers (either copy), never exceeding
    # the number of races, and hedge wins are a subset of the races.
    assert stats.counter("hedges_cancelled").count <= issued
    assert stats.counter("hedges_won").count <= issued
    assert all(count == 0 for count in volume._inflight.values())


def test_write_mirrors_to_every_live_member():
    sim = Simulator()
    node = _node(sim, topo=medium_topology)

    class SpyNode:
        disk_ids = node.disk_ids
        capacity_bytes = node.capacity_bytes
        writes = []

        def submit(self, request):
            if request.kind is IOKind.WRITE:
                SpyNode.writes.append(request.disk_id)
            return node.submit(request)

        def register_buffers(self, count):
            node.register_buffers(count)

    volume = HedgedVolume(sim, SpyNode(), [0, 1])
    done = []
    event = volume.submit(write(0))
    event.callbacks.append(lambda fired: done.append(fired.ok))
    sim.run()
    assert done == [True]
    assert sorted(SpyNode.writes) == [0, 1]
