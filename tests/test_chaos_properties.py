"""Randomized chaos properties: the stack under seeded fault schedules.

Every seed builds a different fault mix (probabilistic transients,
transient/permanent media defects, stragglers, retry depth, quarantine)
and runs tolerant clients through the full stream-server stack over a
:class:`~repro.faults.FaultyDevice`. The properties:

* **completion** — every issued request either completes or raises
  (counted by the tolerant client); nothing vanishes;
* **byte conservation** — completed bytes equal completed requests
  times the request size, client-side and server-side;
* **termination** — every stream finishes its fixed byte budget within
  a generous simulated-time cap;
* **no buffered-set leaks** — once the clients are done and GC has had
  time to run, the server's buffered set holds zero bytes.

The seed matrix is CI-tunable: ``REPRO_CHAOS_SEEDS=lo:hi`` (default
``0:20``) so the nightly lane can run a wider sweep than the fast lane.
"""

from __future__ import annotations

import os

import pytest

from repro.core import ServerParams, StreamServer
from repro.faults import FaultPlan, FaultyDevice, MediaFault, RandomFaults, \
    StragglerProfile
from repro.node import base_topology, build_node
from repro.sim import Simulator
from repro.units import KiB, MiB
from repro.workload import ClientFleet, uniform_streams

REQUEST_SIZE = 64 * KiB
PER_STREAM_BYTES = 1 * MiB
NUM_STREAMS = 3
#: Simulated-seconds cap: far beyond what 3 MiB at disk speed needs,
#: even with retries, backoff and stragglers.
TIME_CAP = 120.0


def _seed_matrix():
    spec = os.environ.get("REPRO_CHAOS_SEEDS", "0:20")
    lo, _, hi = spec.partition(":")
    return list(range(int(lo), int(hi)))


SEEDS = _seed_matrix()


def _plan_for(seed: int) -> FaultPlan:
    """A seed-dependent mix of every fault class."""
    media = []
    if seed % 2:  # transient defect early in stream 0's range
        media.append(MediaFault(disk_id=0, offset=2 * REQUEST_SIZE,
                                size=REQUEST_SIZE, transient=True,
                                recover_after=1 + seed % 3))
    if seed % 5 == 0:  # permanent defect: retries must give up
        media.append(MediaFault(disk_id=0, offset=5 * REQUEST_SIZE,
                                size=REQUEST_SIZE))
    stragglers = []
    if seed % 3 == 0:
        stragglers.append(StragglerProfile(slowdown=2.0, start=0.05))
    return FaultPlan(
        seed=seed,
        media=tuple(media),
        random_faults=(RandomFaults(
            probability=0.02 + (seed % 7) * 0.02),),
        stragglers=tuple(stragglers))


def _params_for(seed: int) -> ServerParams:
    """Seed-dependent policy knobs (retry depth, quarantine)."""
    return ServerParams(
        read_ahead=256 * KiB, dispatch_width=2,
        requests_per_residency=2, memory_budget=16 * MiB,
        gc_period=0.5, buffer_timeout=1.0, stream_timeout=2.0,
        max_retries=seed % 4,
        quarantine_threshold=(2 if seed % 2 else 0))


def _chaos_run(seed: int):
    """One full chaos run; returns (clients, server, sim)."""
    sim = Simulator()
    node = build_node(sim, base_topology(seed=seed))
    faulty = FaultyDevice(sim, node, _plan_for(seed))
    server = StreamServer(sim, faulty, _params_for(seed))
    specs = uniform_streams(NUM_STREAMS, node.disk_ids,
                            node.capacity_bytes,
                            request_size=REQUEST_SIZE,
                            total_bytes=PER_STREAM_BYTES)
    fleet = ClientFleet(sim, server, specs, tolerate_errors=True)
    fleet.run(duration=TIME_CAP)
    return fleet, server, sim


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_invariants(seed):
    fleet, server, sim = _chaos_run(seed)
    expected = PER_STREAM_BYTES // REQUEST_SIZE

    # Termination: every stream consumed its whole byte budget (as
    # completions or skipped errors) well within the time cap.
    for client in fleet.clients:
        assert client.finished_at is not None, \
            f"seed {seed}: stream {client.spec.stream_id} never finished"
        assert client.finished_at <= TIME_CAP

    # Completion: nothing vanishes — every issued request either
    # completed or raised into the tolerant client.
    for client in fleet.clients:
        assert client.completed_requests + client.errors == expected, \
            (f"seed {seed}: stream {client.spec.stream_id} lost "
             f"{expected - client.completed_requests - client.errors} "
             f"requests")

    # Byte conservation, client-side and server-side.
    for client in fleet.clients:
        assert client.completed_bytes == \
            client.completed_requests * REQUEST_SIZE
    report = server.report()
    assert report.completed_bytes == sum(
        c.completed_bytes for c in fleet.clients)

    # No buffered-set leaks: give GC time to reap idle buffers, then
    # the buffered set must be empty (quarantine reclamation included).
    sim.run(until=sim.now + 10.0)
    assert server.buffered.in_use == 0, \
        (f"seed {seed}: {server.buffered.in_use} bytes leaked in the "
         f"buffered set")
    assert server.memory_in_use == 0


@pytest.mark.parametrize("seed", [s for s in SEEDS if s % 7 == 0][:3])
def test_chaos_deterministic(seed):
    """Same seed, same workload => bit-identical per-stream outcomes."""
    first, _, _ = _chaos_run(seed)
    second, _, _ = _chaos_run(seed)
    assert [c.completed_bytes for c in first.clients] == \
        [c.completed_bytes for c in second.clients]
    assert [c.errors for c in first.clients] == \
        [c.errors for c in second.clients]
    assert [c.finished_at for c in first.clients] == \
        [c.finished_at for c in second.clients]


# ---------------------------------------------------------------------------
# Hedged-mirror chaos: the resilience layer under the same fault mixes
# ---------------------------------------------------------------------------

def _hedged_plan_for(seed: int) -> FaultPlan:
    """The base fault mix, plus a mid-run death of mirror member 0 on
    a quarter of the seeds — the degraded-mode path hedging must keep
    invisible to clients."""
    import dataclasses

    from repro.faults import DiskDeath

    base = _plan_for(seed)
    if seed % 4 == 1:
        # Early enough that most of the run happens degraded (the
        # whole workload is a few hundredths of a simulated second).
        return dataclasses.replace(
            base, deaths=(DiskDeath(disk_id=0, at=0.01),))
    return base


def _hedged_chaos_run(seed: int):
    """One chaos run through a two-member HedgedVolume mirror."""
    from repro.node import HedgedVolume, HedgePolicy, medium_topology

    sim = Simulator()
    node = build_node(sim, medium_topology(seed=seed))
    faulty = FaultyDevice(sim, node, _hedged_plan_for(seed))
    policy = HedgePolicy(
        select="ewma" if seed % 2 else "roundrobin",
        hedge=(seed % 5 != 0),  # a fifth of the seeds run redirect-only
        hedge_k=1.0, hedge_min_s=1e-3)
    volume = HedgedVolume(sim, faulty, [0, 1], policy=policy)
    server = StreamServer(sim, volume, _params_for(seed))
    specs = uniform_streams(NUM_STREAMS, [0], volume.capacity_bytes,
                            request_size=REQUEST_SIZE,
                            total_bytes=PER_STREAM_BYTES)
    fleet = ClientFleet(sim, server, specs, tolerate_errors=True)
    fleet.run(duration=TIME_CAP)
    return fleet, server, volume, sim


@pytest.mark.parametrize("seed", SEEDS)
def test_hedged_chaos_invariants(seed):
    fleet, server, volume, sim = _hedged_chaos_run(seed)
    expected = PER_STREAM_BYTES // REQUEST_SIZE

    # Termination + completion: hedge copies in flight never strand a
    # request — every issue resolves exactly once, in time.
    for client in fleet.clients:
        assert client.finished_at is not None, \
            f"seed {seed}: stream {client.spec.stream_id} never finished"
        assert client.completed_requests + client.errors == expected

    # Byte conservation with hedges racing: a request completed through
    # *either* copy counts its bytes exactly once.
    for client in fleet.clients:
        assert client.completed_bytes == \
            client.completed_requests * REQUEST_SIZE
    report = server.report()
    assert report.completed_bytes == sum(
        c.completed_bytes for c in fleet.clients)

    # Hedge bookkeeping sanity: losers are cancelled, never completed
    # twice; every launched copy has drained by the end of the run.
    stats = volume.stats
    issued = stats.counter("hedges_issued").count
    assert stats.counter("hedges_won").count <= issued
    assert stats.counter("hedges_cancelled").count <= issued
    assert all(count == 0 for count in volume._inflight.values()), \
        f"seed {seed}: leaked in-flight copies {volume._inflight}"

    # A killed member degrades the mirror but never surfaces
    # DiskDeadError to clients: reads redirect to the survivor.
    if seed % 4 == 1:
        assert volume.degraded
        assert 0 in volume.dead_disks

    # No buffered-set leaks, hedged or not.
    sim.run(until=sim.now + 10.0)
    assert server.buffered.in_use == 0
    assert server.memory_in_use == 0


@pytest.mark.parametrize("seed", [s for s in SEEDS if s % 6 == 1][:3])
def test_hedged_chaos_deterministic(seed):
    """Same seed => bit-identical outcomes with hedges racing."""
    first_fleet, _, first_volume, _ = _hedged_chaos_run(seed)
    second_fleet, _, second_volume, _ = _hedged_chaos_run(seed)
    assert [c.completed_bytes for c in first_fleet.clients] == \
        [c.completed_bytes for c in second_fleet.clients]
    assert [c.errors for c in first_fleet.clients] == \
        [c.errors for c in second_fleet.clients]
    assert [c.finished_at for c in first_fleet.clients] == \
        [c.finished_at for c in second_fleet.clients]
    for name in ("hedges_issued", "hedges_won", "hedges_cancelled",
                 "redirects", "completed"):
        assert first_volume.stats.counter(name).count == \
            second_volume.stats.counter(name).count, name
