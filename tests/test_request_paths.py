"""The node, controller and drive-completion hops as callback chains.

``StorageNode``, ``DiskController`` and ``DiskDrive`` completion used to
run one generator Process per request. Each is now a chain of callbacks
on grants and timeouts (DESIGN.md §4). These tests pin what the chains
must keep from the Process-based hops: an uncontended read costs exactly
the sum of its fixed costs, same-instant submits stay FIFO at every
queueing point, Figure 8's extent fetches coalesce across streams, and
no Process is spawned per request.
"""

import pytest

from repro.controller import ControllerSpec
from repro.disk import DISKSIM_GENERIC
from repro.disk.mechanics import RotationMode
from repro.io import IOKind, IORequest
from repro.node import HostParams, base_topology, build_node
from repro.sim import Simulator
from repro.units import KiB, MiB

SIZE = 64 * KiB


def read(offset, size=SIZE, stream=None):
    return IORequest(kind=IOKind.READ, disk_id=0, offset=offset, size=size,
                     stream_id=stream)


def _node(sim, controller_spec=None, host=None):
    topology = base_topology(rotation_mode=RotationMode.EXPECTED)
    if controller_spec is not None:
        topology.controller_spec = controller_spec
    if host is not None:
        topology.host = host
    return build_node(sim, topology)


def _prime(sim, node, offset=0):
    """Read once so the drive cache holds the segment at ``offset``."""
    node.submit(read(offset))
    sim.run()


def test_uncontended_read_costs_exactly_its_fixed_costs():
    sim = Simulator()
    node = _node(sim)
    _prime(sim, node)
    controller = node.controllers[0]
    bus = controller.bus.pipe
    host = node.host
    start = sim.now
    event = node.submit(read(SIZE))  # a drive-cache hit
    sim.run()
    # Each stage adds its cost to the clock in the order it runs.
    expected = start
    expected += host.submit_cost_s
    expected += controller.spec.request_overhead_s
    expected += DISKSIM_GENERIC.command_overhead_s
    expected += SIZE / DISKSIM_GENERIC.interface_rate
    expected += bus.per_transfer_overhead + SIZE / bus.bandwidth
    expected += host.completion_base_s  # no live buffers at completion
    assert event.ok
    assert event.value.complete_time == expected
    assert node.outstanding == 0
    assert controller.queue_in_use == 0


def test_no_process_per_request(spawned):
    sim = Simulator()
    node = _node(sim)
    events = [node.submit(read(i * SIZE)) for i in range(8)]
    sim.run()
    assert all(event.ok for event in events)
    # Every hop, the drive's mechanical worker too, is a callback chain.
    assert spawned == []
    assert node.drive(0).stats.counter("completed").count == 8


def test_same_instant_submits_stay_fifo_at_every_queue():
    """One node CPU, two admission entries, one port slot: every stage
    queues, and any out-of-order grant would reorder completions."""
    sim = Simulator()
    node = _node(sim, controller_spec=ControllerSpec(queue_depth=2),
                 host=HostParams(cpus=1))
    _prime(sim, node)
    controller = node.controllers[0]
    done = []
    events = []
    for index in range(6):
        event = node.submit(read((index % 4) * SIZE))
        event.callbacks.append(
            lambda event, index=index: done.append((index, sim.now)))
        events.append(event)
    sim.run(until=sim.now)
    assert node._cpu.queued == 5
    while node._cpu.queued:
        sim.step()
    assert controller._admission.queued > 0
    sim.run()
    assert [index for index, _ in done] == list(range(6))
    times = [when for _, when in done]
    assert times == sorted(times) and len(set(times)) == 6
    assert all(event.ok for event in events)


@pytest.mark.parametrize("port_concurrency, hits", [(1, 3), (4, 0)])
def test_controller_prefetch_extent_fetch_coalesces_across_streams(
        port_concurrency, hits):
    """Figure 8's controller prefetch fetches a shared extent once.

    With one command slot per port (Figure 8's controller) the other
    streams queue behind the fetch and then hit the controller cache;
    with more slots they join the in-flight fetch instead.
    """
    sim = Simulator()
    spec = ControllerSpec(port_concurrency=port_concurrency).with_prefetch(
        cache_bytes=16 * MiB, prefetch_bytes=1 * MiB)
    node = _node(sim, controller_spec=spec)
    controller = node.controllers[0]
    drive = node.drive(0)
    # Four streams read different blocks of the same 1 MiB extent.
    events = [node.submit(read(stream * 4 * SIZE, stream=stream))
              for stream in range(4)]
    sim.run()
    assert all(event.ok for event in events)
    assert controller.stats.counter("prefetched").count == 1
    assert controller.stats.counter("prefetched").total_bytes == 1 * MiB
    assert controller.stats.counter("cache_hits").count == hits
    assert drive.stats.counter("completed").count == 1
    assert not controller.cache.in_flight
    # The fetching stream completes first; nobody overtakes it.
    times = [event.value.complete_time for event in events]
    assert times[0] == min(times)
    # A later read in the extent is a controller-cache hit, no fetch.
    later = node.submit(read(12 * SIZE, stream=9))
    sim.run()
    assert later.ok
    assert controller.stats.counter("cache_hits").count == hits + 1
    assert controller.stats.counter("prefetched").count == 1
