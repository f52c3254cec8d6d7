"""The drive's idle read-ahead run: one timer, chunks filled lazily.

An idle run reads the next segment in 64 KiB chunks so that a command
arriving mid-run stops it at the next chunk boundary. The run keeps one
timer, not one per chunk: its chunk end times are computed up front,
``DiskDrive.submit`` books the chunks that ended by then, and a queued
command or a dead segment cuts the run at the chunk in progress
(DESIGN.md §4, "Hops that wait").
"""

import pytest

from repro.disk import DISKSIM_GENERIC, DiskDrive, DriveConfig
from repro.disk.mechanics import RotationMode
from repro.io import IOKind, IORequest
from repro.sim import Simulator
from repro.units import KiB, MiB, SECTOR_BYTES


def make_drive(sim, write_cache=0):
    spec = DISKSIM_GENERIC
    if write_cache:
        spec = spec.with_write_cache(write_cache)
    return DiskDrive(sim, spec,
                     config=DriveConfig(rotation_mode=RotationMode.EXPECTED))


def request(kind, lba, sectors):
    return IORequest(kind=kind, disk_id=0, offset=lba * SECTOR_BYTES,
                     size=sectors * SECTOR_BYTES)


def start_idle_run(sim, drive):
    """Read 64 KiB at LBA 0; the drive reads ahead to the end of that
    segment, then starts an idle run into the next one."""
    drive.submit(request(IOKind.READ, 0, 128))
    while drive._idle_run is None:
        sim.step()
    return drive._idle_run


def test_chunk_ends_add_transfer_times_in_chunk_order():
    sim = Simulator()
    drive = make_drive(sim)
    run = start_idle_run(sim, drive)
    start = run.segment.start
    assert start == drive._media_end_lba == drive.cache.segment_sectors
    chunk = drive._idle_chunk_sectors
    expected, when, lba = [], sim.now, start
    for _ in range(drive.cache.segment_sectors // chunk):
        when += drive.mechanics.transfer_time(lba, chunk)
        expected.append(when)
        lba += chunk
    assert len(expected) == 4
    assert run.ends == expected
    assert run.sizes == [chunk] * 4
    # Left alone, the run fills the whole segment and ends at the last
    # boundary.
    sim.run(until=expected[-1])
    assert drive._idle_run is None
    assert run.segment.count == drive.cache.segment_sectors
    assert drive._media_end_lba == start + drive.cache.segment_sectors
    assert drive.stats.counter("readahead").count == 1 + 4


def test_command_mid_run_cuts_it_at_the_next_boundary():
    sim = Simulator()
    drive = make_drive(sim)
    run = start_idle_run(sim, drive)
    start = run.segment.start
    sim.run(until=(run.ends[1] + run.ends[2]) / 2)
    assert run.filled == 0  # nothing has looked at the chunks yet
    far = drive.submit(request(IOKind.READ, 2_000_000, 128))
    assert run.filled == 2 and run.segment.count == 2 * 128
    assert run.stop == 2
    sim.run(until=run.ends[2] - 1e-9)
    assert drive._idle_run is run
    sim.run(until=run.ends[2])
    # Chunk 2 ended and was filled; the worker took the command there.
    assert drive._idle_run is None
    assert run.segment.count == 3 * 128
    assert drive._media_end_lba == start + 3 * 128
    assert drive.queue_length == 0  # being serviced
    sim.run()
    assert far.processed
    assert drive._media_end_lba > 2_000_000
    assert drive.cache.peek(start, 3 * 128) == 3 * 128
    assert drive.cache.peek(start + 3 * 128, 1) == 0


def test_hit_at_submit_sees_exactly_the_chunks_ended_by_then():
    sim = Simulator()
    drive = make_drive(sim)
    run = start_idle_run(sim, drive)
    start = run.segment.start
    sim.run(until=(run.ends[0] + run.ends[1]) / 2)
    inside = request(IOKind.READ, start + 120, 8)  # the end of chunk 0
    drive.submit(inside)
    assert inside.annotations["disk.hit"] == "submit"
    assert run.filled == 1 and run.stop == 3  # a hit does not cut
    # A chunk that ends at the submit instant counts as filled.
    sim.run(until=run.ends[1])
    assert run.filled == 1
    at_boundary = request(IOKind.READ, start + 128, 128)
    drive.submit(at_boundary)
    assert at_boundary.annotations["disk.hit"] == "submit"
    assert run.filled == 2 and run.stop == 3
    # The next chunk has not ended: its read misses, queues and cuts.
    pending = request(IOKind.READ, start + 256, 8)
    drive.submit(pending)
    assert "disk.hit" not in pending.annotations
    assert drive.queue_length == 1 and run.stop == 2
    sim.run()
    assert pending.annotations["disk.hit"] == "queue"


@pytest.mark.parametrize("index", range(4))
def test_a_chunk_hits_from_its_boundary_on(index):
    sim = Simulator()
    drive = make_drive(sim)
    run = start_idle_run(sim, drive)
    sim.run(until=run.ends[index] - 1e-9)
    early = request(IOKind.READ, run.segment.start + 128 * index, 128)
    drive.submit(early)
    assert "disk.hit" not in early.annotations
    sim = Simulator()
    drive = make_drive(sim)
    run = start_idle_run(sim, drive)
    sim.run(until=run.ends[index])
    late = request(IOKind.READ, run.segment.start + 128 * index, 128)
    drive.submit(late)
    assert late.annotations["disk.hit"] == "submit"


def test_absorbed_write_that_invalidates_the_segment_ends_the_run():
    sim = Simulator()
    drive = make_drive(sim, write_cache=8 * MiB)
    run = start_idle_run(sim, drive)
    start = run.segment.start
    sim.run(until=(run.ends[0] + run.ends[1]) / 2)
    # A write elsewhere leaves the run alone.
    drive.submit(request(IOKind.WRITE, 1_000_000, 8))
    assert run.stop == 3
    # A write into the segment kills it: the run ends at the boundary
    # of the chunk in progress, which is not filled.
    drive.submit(request(IOKind.WRITE, start + 10, 8))
    assert not drive.cache.is_live(run.segment)
    assert run.stop == 1
    media_end = drive._media_end_lba
    assert media_end == start + 128
    sim.run(until=run.ends[1] - 1e-9)
    assert drive._idle_run is run
    sim.run(until=run.ends[1])
    assert drive._idle_run is None
    assert drive.stats.counter("readahead").count == 1 + 1
    sim.run()
    assert drive._dirty_sectors == 0  # the worker went on to destage


def test_second_run_in_a_busy_period_ignores_the_first_runs_timer():
    sim = Simulator()
    drive = make_drive(sim)
    first = start_idle_run(sim, drive)
    start = first.segment.start
    sim.run(until=(first.ends[0] + first.ends[1]) / 2)
    # Chunk 1 is in progress: its read queues and cuts the run. At the
    # boundary it is a queue hit, and the worker, still busy, starts a
    # second run at once.
    drive.submit(request(IOKind.READ, start + 128, 128))
    sim.run(until=first.ends[1])
    second = drive._idle_run
    assert second is not None and second is not first
    assert second.segment.start == start + 2 * 128
    # The first run's own timer fires in the middle of the second run.
    assert second.ends[0] < first.ends[-1] < second.ends[-1]
    sim.run(until=first.ends[-1])
    assert drive._idle_run is second
    assert second.stop == 3
    assert drive._worker_running
    sim.run(until=second.ends[-1] - 1e-9)
    assert drive._idle_run is second
    sim.run(until=second.ends[-1])
    assert drive._idle_run is None
    assert second.segment.count == drive.cache.segment_sectors
    assert first.segment.count == 2 * 128


@pytest.mark.parametrize("cut", [False, True])
def test_one_run_makes_at_most_two_pushes(cut):
    sim = Simulator()
    drive = make_drive(sim)
    pushes = []
    push = sim._push

    def logged(when, event):
        for step in event.callbacks:
            owner = getattr(step, "__self__", None)
            if type(owner).__name__ == "_IdleRun":
                pushes.append((owner, when))
        push(when, event)

    sim._push = logged
    run = start_idle_run(sim, drive)
    if cut:
        sim.run(until=run.ends[0] / 2 + run.ends[1] / 2)
        drive.submit(request(IOKind.READ, 2_000_000, 8))
    sim.run()
    mine = [when for owner, when in pushes if owner is run]
    expected = [run.ends[-1], run.ends[1]] if cut else [run.ends[-1]]
    assert mine == expected


def test_figure1_point_pushes_per_request():
    """Kernel pushes per request on the SMOKE Figure 1 point (60
    streams, 8 KiB): 20.88 with a timeout per idle chunk and an Event
    per grant."""
    from repro.disk.specs import DISKSIM_GENERIC as SPEC
    from repro.experiments.base import SMOKE, spread_streams
    from repro.experiments.fig01_collapse import NUM_DISKS
    from repro.node import build_node, large_topology
    from repro.workload.client import ClientFleet

    sim = Simulator()
    node = build_node(sim, large_topology(NUM_DISKS, disk_spec=SPEC,
                                          seed=60))
    specs = spread_streams(60, node.disk_ids, node.capacity_bytes,
                           request_size=8 * KiB)
    fleet = ClientFleet(sim, node, specs)
    report = fleet.run(duration=SMOKE.duration, warmup=SMOKE.warmup,
                       settle_requests=5)
    requests = node.stats.counter("completed").count
    assert report.throughput_mb == 224.0703125  # bench/golden.json
    assert sim._sequence / requests <= 19.6
