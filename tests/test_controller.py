"""Tests for the controller: routing, prefetch cache, bandwidth ceiling."""

import pytest

from repro.controller import ControllerSpec, DiskController, PrefetchCache
from repro.disk import DISKSIM_GENERIC, DiskDrive, DriveConfig
from repro.disk.mechanics import RotationMode
from repro.io import IOKind, IORequest
from repro.sim import Simulator
from repro.units import KiB, MiB


def make_controller(sim, num_disks=2, spec=None, disk_spec=None):
    disks = {
        disk_id: DiskDrive(
            sim, disk_spec or DISKSIM_GENERIC,
            config=DriveConfig(rotation_mode=RotationMode.EXPECTED),
            name=f"d{disk_id}")
        for disk_id in range(num_disks)
    }
    return DiskController(sim, spec or ControllerSpec(), disks)


def read(disk_id, offset, size, stream=None):
    return IORequest(kind=IOKind.READ, disk_id=disk_id, offset=offset,
                     size=size, stream_id=stream)


# ---------------------------------------------------------------------------
# PrefetchCache unit tests
# ---------------------------------------------------------------------------

def test_prefetch_cache_disabled_when_zero():
    cache = PrefetchCache(cache_bytes=0, prefetch_bytes=0)
    assert not cache.enabled
    assert not cache.covers(0, 0, 4096)
    cache.insert_extent(0, 0, 4096)  # no-op, no crash
    cache.invalidate(0, 0, 4096)


def test_prefetch_cache_extent_alignment():
    cache = PrefetchCache(cache_bytes=8 * MiB, prefetch_bytes=1 * MiB)
    offset, size = cache.extent_of(1_500_000)
    assert offset == 1_500_000 - 1_500_000 % (1 * MiB)
    assert size == 1 * MiB
    assert offset % (1 * MiB) == 0


def test_prefetch_cache_hit_after_insert():
    cache = PrefetchCache(cache_bytes=4 * MiB, prefetch_bytes=1 * MiB)
    cache.insert_extent(0, 0, 1 * MiB)
    assert cache.covers(0, 0, 64 * KiB)
    assert cache.covers(0, 512 * KiB, 512 * KiB)
    assert not cache.covers(0, 1 * MiB, 64 * KiB)


def test_prefetch_cache_disks_isolated():
    cache = PrefetchCache(cache_bytes=4 * MiB, prefetch_bytes=1 * MiB)
    cache.insert_extent(0, 0, 1 * MiB)
    assert not cache.covers(1, 0, 64 * KiB)


def test_prefetch_cache_extent_count():
    cache = PrefetchCache(cache_bytes=128 * MiB, prefetch_bytes=4 * MiB)
    assert cache.num_extents == 32


def test_prefetch_cache_lru_thrash():
    cache = PrefetchCache(cache_bytes=2 * MiB, prefetch_bytes=1 * MiB)
    cache.insert_extent(0, 0, 1 * MiB)
    cache.insert_extent(0, 10 * MiB, 1 * MiB)
    cache.insert_extent(0, 20 * MiB, 1 * MiB)  # evicts first
    assert not cache.peek(0, 0, 64 * KiB)
    assert cache.peek(0, 20 * MiB, 64 * KiB)


def test_prefetch_cache_invalidate():
    cache = PrefetchCache(cache_bytes=4 * MiB, prefetch_bytes=1 * MiB)
    cache.insert_extent(0, 0, 1 * MiB)
    cache.invalidate(0, 256 * KiB, 64 * KiB)
    assert not cache.peek(0, 0, 64 * KiB)


def test_prefetch_cache_validation():
    with pytest.raises(ValueError):
        PrefetchCache(cache_bytes=-1, prefetch_bytes=0)
    with pytest.raises(ValueError):
        PrefetchCache(cache_bytes=1 * MiB, prefetch_bytes=1000)  # unaligned


# ---------------------------------------------------------------------------
# DiskController integration
# ---------------------------------------------------------------------------

def test_controller_routes_to_correct_disk():
    sim = Simulator()
    controller = make_controller(sim, num_disks=2)
    event = controller.submit(read(1, 0, 64 * KiB))
    sim.run()
    assert event.value.latency > 0
    assert controller.disks[1].stats.counter("completed").count == 1
    assert controller.disks[0].stats.counter("completed").count == 0


def test_controller_rejects_unknown_disk():
    sim = Simulator()
    controller = make_controller(sim, num_disks=2)
    with pytest.raises(ValueError):
        controller.submit(read(7, 0, 64 * KiB))


def test_controller_rejects_too_many_disks():
    sim = Simulator()
    disks = {
        i: DiskDrive(sim, DISKSIM_GENERIC, name=f"d{i}") for i in range(3)
    }
    with pytest.raises(ValueError):
        DiskController(sim, ControllerSpec(num_ports=2), disks)


def test_controller_prefetch_serves_subsequent_requests_from_cache():
    sim = Simulator()
    spec = ControllerSpec().with_prefetch(cache_bytes=16 * MiB,
                                          prefetch_bytes=1 * MiB)
    controller = make_controller(sim, num_disks=1, spec=spec)
    first = controller.submit(read(0, 0, 64 * KiB))
    sim.run()
    miss_latency = first.value.latency
    # Rest of the 1 MiB extent is now controller-cached.
    second = controller.submit(read(0, 512 * KiB, 64 * KiB))
    sim.run()
    hit_latency = second.value.latency
    assert controller.stats.counter("cache_hits").count == 1
    assert hit_latency < miss_latency / 2


def test_controller_prefetch_spans_extents():
    sim = Simulator()
    spec = ControllerSpec().with_prefetch(cache_bytes=16 * MiB,
                                          prefetch_bytes=1 * MiB)
    controller = make_controller(sim, num_disks=1, spec=spec)
    # Request straddling two extents fetches both.
    event = controller.submit(read(0, 1 * MiB - 64 * KiB, 128 * KiB))
    sim.run()
    assert event.value is not None
    assert controller.stats.counter("prefetched").total_bytes == 2 * MiB


def test_controller_concurrent_misses_coalesce():
    sim = Simulator()
    spec = ControllerSpec().with_prefetch(cache_bytes=16 * MiB,
                                          prefetch_bytes=1 * MiB)
    controller = make_controller(sim, num_disks=1, spec=spec)
    events = [controller.submit(read(0, i * 64 * KiB, 64 * KiB))
              for i in range(4)]
    sim.run()
    assert all(e.processed for e in events)
    # All four land in one extent: exactly one disk fetch.
    assert controller.stats.counter("prefetched").count == 1


def test_controller_write_invalidates_cache():
    sim = Simulator()
    spec = ControllerSpec().with_prefetch(cache_bytes=16 * MiB,
                                          prefetch_bytes=1 * MiB)
    controller = make_controller(sim, num_disks=1, spec=spec)
    controller.submit(read(0, 0, 64 * KiB))
    sim.run()
    assert controller.cache.peek(0, 0, 64 * KiB)
    write = IORequest(kind=IOKind.WRITE, disk_id=0, offset=0, size=64 * KiB)
    controller.submit(write)
    sim.run()
    assert not controller.cache.peek(0, 0, 64 * KiB)


def test_controller_bus_moves_every_completed_byte():
    sim = Simulator()
    controller = make_controller(sim, num_disks=2)
    for disk_id in (0, 1):
        for i in range(4):
            controller.submit(read(disk_id, i * 64 * KiB, 64 * KiB))
    sim.run()
    assert controller.bus.bytes_moved == 8 * 64 * KiB


def test_controller_aggregate_bandwidth_is_a_ceiling():
    """Many cache hits can't exceed the bus rate."""
    sim = Simulator()
    spec = ControllerSpec(aggregate_bandwidth=10 * MiB)
    controller = make_controller(sim, num_disks=1, spec=spec)
    # Prime drive cache so everything after is instant except the bus.
    controller.submit(read(0, 0, 1 * MiB))
    sim.run()
    start = sim.now
    events = [controller.submit(read(0, i * 64 * KiB, 64 * KiB))
              for i in range(16)]  # 1 MiB total, all drive-cache hits
    sim.run()
    elapsed = sim.now - start
    assert all(e.processed for e in events)
    assert elapsed >= (1 * MiB) / (10 * MiB) * 0.95


def test_controller_queue_depth_backpressure():
    sim = Simulator()
    spec = ControllerSpec(queue_depth=2)
    controller = make_controller(sim, num_disks=1, spec=spec)
    for i in range(6):
        controller.submit(read(0, i * (1 * MiB), 64 * KiB))
    sim.run(until=0.0001)
    assert controller.queue_in_use <= 2
    sim.run()
    assert controller.stats.counter("completed").count == 6


def test_controller_homogeneous_disks_required():
    sim = Simulator()
    small = DISKSIM_GENERIC
    from dataclasses import replace
    big = replace(DISKSIM_GENERIC, capacity_bytes=160 * 10**9)
    disks = {0: DiskDrive(sim, small), 1: DiskDrive(sim, big)}
    with pytest.raises(ValueError):
        DiskController(sim, ControllerSpec(), disks)


# ---------------------------------------------------------------------------
# Failure path: a failed disk event fails the controller's event
# ---------------------------------------------------------------------------

class _FailingDrive:
    """A stub drive whose first ``failures`` requests fail after 1 ms."""

    capacity_bytes = 1 << 30

    def __init__(self, sim, failures=1):
        from repro.sim import Pipe

        self.sim = sim
        self.interface = Pipe(sim, bandwidth=150 * MiB, name="stub.sata")
        self.failures = failures
        self.errors = []

    def submit(self, request):
        event = self.sim.event()
        if self.failures:
            self.failures -= 1
            error = IOError(f"stub failure at {request.offset}")
            self.errors.append(error)
            event.fail(error, delay=1e-3)
        else:
            event.succeed(request, delay=1e-3)
        return event


def _stub_controller(sim, spec=None):
    drive = _FailingDrive(sim)
    return DiskController(sim, spec or ControllerSpec(), {0: drive}), drive


def _assert_released(controller):
    assert controller.queue_in_use == 0
    assert controller._port_slots[0].in_use == 0
    assert controller._cpu.in_use == 0
    assert controller.bus.pipe._lock.in_use == 0


@pytest.mark.parametrize("kind", [IOKind.READ, IOKind.WRITE])
def test_controller_disk_failure_fails_the_request(kind):
    sim = Simulator()
    controller, drive = _stub_controller(sim)
    failed = controller.submit(
        IORequest(kind=kind, disk_id=0, offset=0, size=64 * KiB))
    after = controller.submit(
        IORequest(kind=kind, disk_id=0, offset=64 * KiB, size=64 * KiB))
    sim.run()  # no SimulationError: the failure has a home
    assert failed.processed and not failed.ok
    assert failed.value is drive.errors[0]
    # Slot and admission were released: the next request completes.
    assert after.ok
    assert controller.stats.counter("completed").count == 1
    _assert_released(controller)


def test_controller_extent_fetch_failure_fails_the_request():
    sim = Simulator()
    spec = ControllerSpec(port_concurrency=2).with_prefetch(
        cache_bytes=16 * MiB, prefetch_bytes=1 * MiB)
    controller, drive = _stub_controller(sim, spec)
    failed = controller.submit(read(0, 0, 64 * KiB))
    joiner = controller.submit(read(0, 64 * KiB, 64 * KiB))
    sim.run()
    assert not failed.ok and failed.value is drive.errors[0]
    # The stream that joined the fetch still completes (it is not told
    # the shared fetch failed), and nothing stays in flight.
    assert joiner.ok
    assert not controller.cache.in_flight
    assert controller.stats.counter("prefetched").count == 0
    _assert_released(controller)


def test_controller_failure_reaches_a_waiting_process():
    sim = Simulator()
    controller, drive = _stub_controller(sim)
    caught = []

    def client(sim):
        try:
            yield controller.submit(read(0, 0, 64 * KiB))
        except IOError as error:
            caught.append((error, sim.now))

    sim.process(client(sim))
    sim.run()
    assert caught and caught[0][0] is drive.errors[0]
