"""Tests for storage-node assembly and the host cost model."""

import pytest

from repro.disk import DISKSIM_GENERIC, WD800JD
from repro.io import IOKind, IORequest
from repro.node import (
    HostParams,
    base_topology,
    build_node,
    large_topology,
    medium_topology,
)
from repro.sim import Simulator
from repro.units import KiB, MiB, US


def read(disk_id, offset, size, stream=None):
    return IORequest(kind=IOKind.READ, disk_id=disk_id, offset=offset,
                     size=size, stream_id=stream)


def test_base_topology_single_disk():
    sim = Simulator()
    node = build_node(sim, base_topology())
    assert node.num_disks == 1
    assert node.disk_ids == [0]


def test_medium_topology_eight_disks_two_controllers():
    sim = Simulator()
    node = build_node(sim, medium_topology())
    assert node.num_disks == 8
    assert len(node.controllers) == 2
    assert node.disk_ids == list(range(8))


def test_large_topology_sixty_disks():
    sim = Simulator()
    node = build_node(sim, large_topology(60))
    assert node.num_disks == 60
    assert len(node.controllers) == 15  # 15 full controllers


def test_large_topology_remainder_controller():
    topo = large_topology(10)
    assert topo.disks_per_controller == [4, 4, 2]


def test_large_topology_validation():
    with pytest.raises(ValueError):
        large_topology(0)
    with pytest.raises(ValueError):
        large_topology(100)


def test_node_routes_across_controllers():
    sim = Simulator()
    node = build_node(sim, medium_topology())
    events = [node.submit(read(d, 0, 64 * KiB)) for d in (0, 5)]
    sim.run()
    assert all(e.processed for e in events)
    # Disk 0 on controller 0, disk 5 on controller 1.
    assert node.controllers[0].stats.counter("completed").count == 1
    assert node.controllers[1].stats.counter("completed").count == 1


def test_node_unknown_disk_rejected():
    sim = Simulator()
    node = build_node(sim, base_topology())
    with pytest.raises(ValueError):
        node.submit(read(3, 0, 64 * KiB))


def test_node_completion_cost_scales_with_buffers():
    """More live buffers -> slower completion path."""
    host = HostParams(cpus=1, completion_per_buffer_s=10 * US)

    def one_request_latency(extra_buffers):
        sim = Simulator()
        node = build_node(sim, base_topology(host=host))
        node.register_buffers(extra_buffers)
        event = node.submit(read(0, 0, 64 * KiB))
        sim.run()
        return event.value.latency

    fast = one_request_latency(0)
    slow = one_request_latency(1000)
    assert slow > fast + 900 * 10 * US  # ~10ms extra


def test_node_register_buffers_validation():
    sim = Simulator()
    node = build_node(sim, base_topology())
    node.register_buffers(5)
    node.register_buffers(-5)
    with pytest.raises(ValueError):
        node.register_buffers(-1)


def test_node_outstanding_tracks_in_flight():
    sim = Simulator()
    node = build_node(sim, base_topology())
    for i in range(4):
        node.submit(read(0, i * MiB, 64 * KiB))
    sim.run(until=0.0005)
    assert node.outstanding >= 1
    sim.run()
    assert node.outstanding == 0


def test_node_throughput_accounting():
    sim = Simulator()
    node = build_node(sim, base_topology())
    for i in range(8):
        node.submit(read(0, i * 64 * KiB, 64 * KiB))
    sim.run()
    total = node.stats.counter("completed").total_bytes
    assert total == 8 * 64 * KiB
    assert node.throughput(sim.now) == pytest.approx(total / sim.now)


def test_node_completion_records_request_latency():
    sim = Simulator()
    node = build_node(sim, base_topology())
    event = node.submit(read(0, 0, 64 * KiB))
    sim.run()
    assert node.stats.counter("completed").count == 1
    request = event.value
    assert 0 < request.latency <= request.complete_time <= sim.now


def test_node_seeded_reproducibility():
    def run_once(seed):
        sim = Simulator()
        node = build_node(sim, base_topology(seed=seed))
        events = [node.submit(read(0, i * 10 * MiB, 64 * KiB))
                  for i in range(5)]
        sim.run()
        return [e.value.latency for e in events]

    assert run_once(1) == run_once(1)
    assert run_once(1) != run_once(2)


def test_node_drive_accessor():
    sim = Simulator()
    node = build_node(sim, medium_topology())
    drive = node.drive(3)
    assert drive.name == "disk3"


def test_node_wd800jd_medium_matches_paper_testbed():
    sim = Simulator()
    node = build_node(sim, medium_topology(disk_spec=WD800JD))
    assert node.num_disks == 8
    assert node.capacity_bytes == node.drive(0).capacity_bytes


class _FailingDrive:
    """A stub drive that fails its first request after 1 ms."""

    capacity_bytes = 1 << 30

    def __init__(self, sim):
        from repro.sim import Pipe

        self.sim = sim
        self.interface = Pipe(sim, bandwidth=150 * MiB, name="stub.sata")
        self.errors = []

    def submit(self, request):
        event = self.sim.event()
        if not self.errors:
            self.errors.append(IOError("stub failure"))
            event.fail(self.errors[0], delay=1e-3)
        else:
            event.succeed(request, delay=1e-3)
        return event


def test_node_controller_failure_fails_the_request():
    from repro.controller import ControllerSpec, DiskController
    from repro.node import StorageNode

    sim = Simulator()
    drive = _FailingDrive(sim)
    controller = DiskController(sim, ControllerSpec(), {0: drive})
    node = StorageNode(sim, [controller])
    failed = node.submit(read(0, 0, 64 * KiB))
    after = node.submit(read(0, 64 * KiB, 64 * KiB))
    sim.run()  # no SimulationError: the failure has a home
    assert failed.processed and not failed.ok
    assert failed.value is drive.errors[0]
    assert after.ok
    assert node.outstanding == 0
    assert node._cpu.in_use == 0
    assert controller.queue_in_use == 0
    assert node.stats.counter("completed").count == 1
