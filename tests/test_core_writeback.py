"""Tests for the write-coalescing extension (DESIGN.md §5)."""

import random
from dataclasses import replace

import pytest

from repro.core import ServerParams, StreamServer, WriteCoalescer, \
    WriteCoalescerParams
from repro.disk import WD800JD
from repro.disk.mechanics import RotationMode
from repro.io import IOKind, IORequest
from repro.node import base_topology, build_node, medium_topology
from repro.sim import Simulator
from repro.units import KiB, MiB
from repro.workload import StreamClient, uniform_streams


def make_stack(sim, **param_kwargs):
    node = build_node(sim, base_topology(
        disk_spec=WD800JD, rotation_mode=RotationMode.EXPECTED))
    params = WriteCoalescerParams(**param_kwargs) if param_kwargs else None
    return WriteCoalescer(sim, node, params), node


def write(offset, size=64 * KiB, stream=1, disk=0):
    return IORequest(kind=IOKind.WRITE, disk_id=disk, offset=offset,
                     size=size, stream_id=stream)


def test_ack_is_fast_write_behind():
    sim = Simulator()
    coalescer, _node = make_stack(sim)
    event = coalescer.write(write(0))
    sim.run_until_event(event, limit=1.0)
    # Absorbed into a gather buffer: microseconds, not disk time.
    assert event.value.latency < 0.001


def test_rejects_reads():
    sim = Simulator()
    coalescer, _node = make_stack(sim)
    with pytest.raises(ValueError):
        coalescer.write(IORequest(kind=IOKind.READ, disk_id=0, offset=0,
                                  size=4 * KiB))


def test_sequential_writes_coalesce_into_large_flushes():
    sim = Simulator()
    coalescer, node = make_stack(sim, coalesce_bytes=1 * MiB)
    for index in range(32):  # 2 MiB of 64K writes
        coalescer.write(write(index * 64 * KiB))
    sim.run_until_event(coalescer.flush_all(), limit=10.0)
    drive = node.drive(0)
    flushes = coalescer.stats.counter("flushes")
    assert flushes.total_bytes == 2 * MiB
    assert flushes.count <= 3  # ~2 x 1 MiB flushes, not 32 x 64K
    assert drive.stats.counter("media_write").total_bytes == 2 * MiB


def test_non_contiguous_write_flushes_previous_run():
    sim = Simulator()
    coalescer, _node = make_stack(sim)
    coalescer.write(write(0))
    coalescer.write(write(64 * KiB))
    coalescer.write(write(500 * MiB))  # jump
    sim.run(until=0.1)
    assert coalescer.stats.counter("flushes").count >= 1
    assert coalescer.stats.counter("flushes").total_bytes >= 128 * KiB


def test_streams_gather_independently():
    sim = Simulator()
    coalescer, _node = make_stack(sim, coalesce_bytes=4 * MiB)
    coalescer.write(write(0, stream=1))
    coalescer.write(write(500 * MiB, stream=2))
    coalescer.write(write(64 * KiB, stream=1))  # continues stream 1
    sim.run(until=0.01)
    assert len(coalescer._buffers) == 2
    assert coalescer.dirty_bytes == 3 * 64 * KiB


def test_timeout_flushes_idle_buffers():
    sim = Simulator()
    coalescer, node = make_stack(sim, flush_timeout=0.2)
    coalescer.write(write(0))
    sim.run()  # flusher drains after the timeout
    assert coalescer.dirty_bytes == 0
    assert node.drive(0).stats.counter("media_write").total_bytes \
        == 64 * KiB


def test_memory_budget_forces_flush():
    sim = Simulator()
    coalescer, _node = make_stack(sim, coalesce_bytes=1 * MiB,
                                  memory_budget=1 * MiB)
    events = [coalescer.write(write(index * 64 * KiB, stream=index))
              for index in range(32)]  # 32 streams x 64K = 2 MiB dirty
    for event in events:
        sim.run_until_event(event, limit=10.0)
    assert coalescer.dirty_bytes <= 1 * MiB


def test_flush_all_barrier():
    sim = Simulator()
    coalescer, node = make_stack(sim)
    for index in range(4):
        coalescer.write(write(index * 64 * KiB))
    sim.run_until_event(coalescer.flush_all(), limit=5.0)
    assert coalescer.dirty_bytes == 0
    assert node.drive(0).stats.counter("media_write").total_bytes \
        == 4 * 64 * KiB


def test_params_validation():
    with pytest.raises(ValueError):
        WriteCoalescerParams(coalesce_bytes=100)
    with pytest.raises(ValueError):
        WriteCoalescerParams(coalesce_bytes=1 * MiB, memory_budget=512 * KiB)
    with pytest.raises(ValueError):
        WriteCoalescerParams(flush_timeout=0)


def test_server_integration_routes_writes():
    sim = Simulator()
    node = build_node(sim, base_topology(
        disk_spec=WD800JD, rotation_mode=RotationMode.EXPECTED))
    server = StreamServer(sim, node, ServerParams(coalesce_writes=True))
    events = [server.submit(write(index * 64 * KiB))
              for index in range(16)]
    for event in events:
        sim.run_until_event(event, limit=5.0)
    assert server.write_coalescer.stats.counter("absorbed").count == 16
    assert server.stats.counter("direct").count == 0


def test_server_without_flag_passes_writes_through():
    sim = Simulator()
    node = build_node(sim, base_topology(
        disk_spec=WD800JD, rotation_mode=RotationMode.EXPECTED))
    server = StreamServer(sim, node, ServerParams())
    event = server.submit(write(0))
    sim.run_until_event(event, limit=5.0)
    assert server.write_coalescer is None
    assert server.stats.counter("direct").count == 1


def test_write_throughput_improves_with_coalescing():
    """Many interleaved sequential write streams: coalescing wins."""
    def run(coalesce):
        sim = Simulator()
        node = build_node(sim, base_topology(
            disk_spec=WD800JD, rotation_mode=RotationMode.EXPECTED))
        server = StreamServer(sim, node, ServerParams(
            coalesce_writes=coalesce, write_coalesce_bytes=2 * MiB,
            write_memory_budget=256 * MiB))
        num_streams, per_stream = 30, 2 * MiB
        spacing = node.capacity_bytes // num_streams
        spacing -= spacing % (64 * KiB)

        def writer(sim, stream):
            offset = stream * spacing
            for _ in range(per_stream // (64 * KiB)):
                yield server.submit(write(offset, stream=stream))
                offset += 64 * KiB

        processes = [sim.process(writer(sim, s))
                     for s in range(num_streams)]
        done = sim.all_of(processes)
        sim.run_until_event(done, limit=300.0)
        elapsed = sim.now
        if coalesce:
            sim.run_until_event(server.write_coalescer.flush_all(),
                                limit=300.0)
            elapsed = sim.now
        return num_streams * per_stream / elapsed

    assert run(True) > 2 * run(False)


def test_budget_wait_never_loses_acknowledged_writes():
    """A write that waits for budget must not land in a flushed buffer.

    128 writers' 1 MiB gather buffers need twice the default 64 MiB
    budget, so writes wait in ``_absorb`` while ``_flush_oldest`` flushes
    other streams' buffers, including, sometimes, the waiting stream's
    own. Every acknowledged byte must still reach a flush.
    """
    sim = Simulator()
    node = build_node(sim, medium_topology(disk_spec=WD800JD, seed=0))
    server = StreamServer(sim, node, ServerParams(coalesce_writes=True))
    coalescer = server.write_coalescer
    assert coalescer.params.memory_budget == 64 * MiB
    per_stream = 2 * MiB + 512 * KiB
    specs = uniform_streams(32, node.disk_ids, node.capacity_bytes,
                            request_size=64 * KiB, total_bytes=per_stream)
    rng = random.Random(0)
    writers = set()
    for disk_index in range(len(node.disk_ids)):
        writers.update(disk_index * 32 + i
                       for i in rng.sample(range(32), 16))
    clients = [StreamClient(sim, server,
                            replace(spec, kind=IOKind.WRITE)
                            if spec.stream_id in writers else spec)
               for spec in specs]
    sim.run_until_event(sim.all_of([c.start() for c in clients]),
                        limit=600.0)
    sim.run_until_event(coalescer.flush_all(), limit=600.0)
    sim.run()
    assert all(c.completed_bytes == per_stream and not c.errors
               for c in clients)
    written = per_stream * len(writers)
    assert coalescer.dirty_bytes == 0
    assert coalescer.stats.counter("absorbed").total_bytes == written
    assert coalescer.stats.counter("flushes").total_bytes == written
