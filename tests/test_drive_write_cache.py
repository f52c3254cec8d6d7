"""Tests for the drive-level write-back cache (WCE)."""

import pytest

from repro.disk import DISKSIM_GENERIC, DiskDrive, DriveConfig
from repro.disk.mechanics import RotationMode
from repro.io import IOKind, IORequest
from repro.sim import Simulator
from repro.units import KiB, MiB


def make_drive(sim, write_cache=8 * MiB):
    spec = DISKSIM_GENERIC.with_write_cache(write_cache)
    return DiskDrive(sim, spec,
                     config=DriveConfig(rotation_mode=RotationMode.EXPECTED))


def write(offset, size=64 * KiB):
    return IORequest(kind=IOKind.WRITE, disk_id=0, offset=offset,
                     size=size)


def read(offset, size=64 * KiB):
    return IORequest(kind=IOKind.READ, disk_id=0, offset=offset,
                     size=size)


def test_absorbed_write_completes_fast():
    sim = Simulator()
    drive = make_drive(sim)
    event = drive.submit(write(0))
    sim.run(until=0.002)
    assert event.processed
    assert event.value.latency < 0.002  # interface + overhead, no media
    assert event.value.annotations.get("disk.wce")


def test_write_through_when_disabled():
    sim = Simulator()
    drive = make_drive(sim, write_cache=0)
    event = drive.submit(write(100 * MiB))
    sim.run()
    assert event.value.latency > 0.003  # seek + rotation + media
    assert "disk.wce" not in event.value.annotations


def test_dirty_data_destages_in_background():
    sim = Simulator()
    drive = make_drive(sim)
    for index in range(8):
        drive.submit(write(index * 64 * KiB))
    sim.run()
    assert drive.stats.counter("destaged").total_bytes == 8 * 64 * KiB
    assert drive.stats.counter("media_write").total_bytes == 8 * 64 * KiB
    assert drive._dirty_sectors == 0


def test_budget_exhaustion_falls_back_to_media():
    sim = Simulator()
    drive = make_drive(sim, write_cache=128 * KiB)
    events = [drive.submit(write(index * 10 * MiB)) for index in range(4)]
    sim.run()
    absorbed = drive.stats.counter("write_absorbed").count
    assert absorbed <= 2  # 128K budget = two 64K writes
    assert all(e.processed for e in events)
    assert drive.stats.counter("media_write").total_bytes \
        == 4 * 64 * KiB  # everything reaches media eventually


def test_flush_barrier():
    sim = Simulator()
    drive = make_drive(sim)
    drive.submit(write(0))
    drive.submit(write(64 * KiB))
    barrier = drive.flush()
    sim.run_until_event(barrier, limit=10.0)
    assert drive._dirty_sectors == 0
    assert drive.stats.counter("destaged").count >= 1


def test_flush_waits_for_the_run_being_destaged():
    """A run being destaged has left the dirty list but not the media:
    a flush raised meanwhile fires only when that destage ends."""
    sim = Simulator()
    drive = make_drive(sim)
    drive.submit(write(300 * MiB))
    sim.run(until=0.001)
    assert not drive._dirty and drive._dirty_sectors == 128
    fired = []
    barrier = drive.flush()
    barrier.callbacks.append(
        lambda event: fired.append((sim.now, drive._dirty_sectors)))
    sim.run()
    assert len(fired) == 1
    when, dirty = fired[0]
    assert dirty == 0
    assert when > 0.007
    assert drive.stats.counter("destaged").total_bytes == 64 * KiB


def test_flush_on_clean_drive_is_immediate():
    sim = Simulator()
    drive = make_drive(sim)
    barrier = drive.flush()
    sim.run(until=0.001)
    assert barrier.processed


def test_read_after_write_served_from_dirty_buffer():
    sim = Simulator()
    drive = make_drive(sim)
    drive.submit(write(500 * MiB))
    event = drive.submit(read(500 * MiB))
    sim.run(until=0.003)
    assert event.processed
    assert event.value.annotations.get("disk.hit") == "submit"


def test_reads_prioritised_over_destage():
    """Queued reads are serviced before dirty data destages."""
    sim = Simulator()
    drive = make_drive(sim)
    drive.submit(write(700 * MiB))  # absorbed, pending destage
    read_event = drive.submit(read(100 * MiB))
    sim.run_until_event(read_event, limit=5.0)
    # At read completion the dirty data may still be undestaged.
    destaged_at_read = drive.stats.counter("destaged").total_bytes
    sim.run()
    assert drive.stats.counter("destaged").total_bytes == 64 * KiB
    assert destaged_at_read <= 64 * KiB


def test_interleaved_write_streams_gain_from_wce():
    """WCE turns scattered sync writes into batched destages."""
    def run(write_cache):
        sim = Simulator()
        drive = make_drive(sim, write_cache=write_cache)
        num_streams, per_stream = 16, 1 * MiB
        spacing = drive.capacity_bytes // num_streams
        spacing -= spacing % (64 * KiB)
        done = {}

        def writer(sim, stream):
            offset = stream * spacing
            for _ in range(per_stream // (64 * KiB)):
                yield drive.submit(write(offset))
                offset += 64 * KiB

        processes = [sim.process(writer(sim, s))
                     for s in range(num_streams)]
        joined = sim.all_of(processes)
        sim.run_until_event(joined, limit=600.0)
        return sim.now  # time until all writes acknowledged

    assert run(64 * MiB) < run(0) / 3
