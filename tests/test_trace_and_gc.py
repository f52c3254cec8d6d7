"""Tests for the tracer and the server's garbage collector."""

import pytest

from repro.core import ServerParams, StreamServer
from repro.disk import WD800JD
from repro.disk.mechanics import RotationMode
from repro.io import IOKind, IORequest
from repro.node import base_topology, build_node
from repro.sim import Simulator
from repro.sim.trace import TraceRecord, Tracer
from repro.units import KiB, MiB


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def test_tracer_capacity_bounded():
    tracer = Tracer(capacity=10)
    for index in range(25):
        tracer.emit(float(index), "src", "evt", index)
    assert len(tracer) == 10
    assert tracer.records()[0].detail == 15  # oldest retained


def test_tracer_counts_capacity_evictions():
    """Overflow was previously silent; ``dropped`` now counts it."""
    tracer = Tracer(capacity=10)
    for index in range(25):
        tracer.emit(float(index), "src", "evt", index)
    assert len(tracer) == 10
    assert tracer.dropped == 15
    tracer.clear()
    assert tracer.dropped == 0


def test_tracer_repr_surfaces_drops():
    tracer = Tracer(capacity=2)
    for index in range(3):
        tracer.emit(float(index), "src", "evt")
    assert "dropped=1" in repr(tracer)
    assert "records=2/2" in repr(tracer)
    assert "∞" in repr(Tracer(capacity=None))


def test_tracer_kind_whitelist():
    tracer = Tracer(kinds={"keep"})
    tracer.emit(0.0, "s", "keep")
    tracer.emit(0.0, "s", "drop")
    assert len(tracer) == 1
    assert tracer.dropped == 1


def test_tracer_filters():
    tracer = Tracer()
    tracer.emit(0.0, "a", "x", 1)
    tracer.emit(1.0, "b", "x", 2)
    tracer.emit(2.0, "a", "y", 3)
    assert len(tracer.records(source="a")) == 2
    assert len(tracer.records(kind="x")) == 2
    assert len(tracer.records(source="a", kind="x")) == 1
    assert tracer.last().detail == 3
    assert tracer.last(kind="x").detail == 2
    assert tracer.last(kind="zzz") is None


def test_tracer_sinks():
    tracer = Tracer()
    seen = []
    tracer.add_sink(seen.append)
    tracer.emit(0.0, "s", "k", "payload")
    assert len(seen) == 1
    assert isinstance(seen[0], TraceRecord)


def test_tracer_clear():
    tracer = Tracer()
    tracer.emit(0.0, "s", "k")
    tracer.clear()
    assert len(tracer) == 0


def test_tracer_kernel_hook_counts_steps():
    tracer = Tracer()
    sim = Simulator(trace=tracer)
    sim.timeout(1.0)
    sim.timeout(2.0)
    sim.run()
    assert tracer.kernel_steps == 2


# ---------------------------------------------------------------------------
# Garbage collector
# ---------------------------------------------------------------------------

def make_server(sim, **kwargs):
    node = build_node(sim, base_topology(
        disk_spec=WD800JD, rotation_mode=RotationMode.EXPECTED))
    defaults = dict(read_ahead=1 * MiB, memory_budget=32 * MiB,
                    gc_period=0.25, buffer_timeout=0.5,
                    stream_timeout=1.0)
    defaults.update(kwargs)
    return StreamServer(sim, node, ServerParams(**defaults)), node


def detect_stream(sim, server, start=0, count=6):
    def client(sim):
        offset = start
        for _ in range(count):
            yield server.submit(IORequest(
                kind=IOKind.READ, disk_id=0, offset=offset,
                size=64 * KiB, stream_id=1))
            offset += 64 * KiB

    process = sim.process(client(sim))
    sim.run_until_event(process, limit=30.0)


def test_gc_self_terminates_when_idle():
    sim = Simulator()
    server, _node = make_server(sim)
    detect_stream(sim, server)
    assert server.gc.running
    sim.run()  # everything times out and is reclaimed
    assert not server.gc.running
    assert server.classifier.live_streams == 0
    assert len(server.buffered) == 0


def test_gc_counts_work():
    sim = Simulator()
    server, _node = make_server(sim)
    detect_stream(sim, server)
    sim.run()
    assert server.gc.cycles > 0
    assert server.gc.streams_dropped == 1
    assert server.gc.buffers_reclaimed_bytes > 0


def test_gc_restarts_on_new_activity():
    sim = Simulator()
    server, _node = make_server(sim)
    detect_stream(sim, server, start=0)
    sim.run()
    assert not server.gc.running
    detect_stream(sim, server, start=10 * 10**9 - 10 * 10**9 % (64 * KiB))
    assert server.gc.running
    sim.run()
    assert not server.gc.running


def test_gc_expires_undetected_bitmaps():
    sim = Simulator()
    server, _node = make_server(sim, classifier_interval=0.5)
    # Two requests: not enough for detection, but bitmaps allocated.
    event = server.submit(IORequest(kind=IOKind.READ, disk_id=0,
                                    offset=0, size=64 * KiB))
    sim.run_until_event(event, limit=5.0)
    assert server.classifier.bitmaps.live_count == 1
    sim.run()  # GC expires the stale bitmap, then exits
    assert server.classifier.bitmaps.live_count == 0
    assert not server.gc.running


def test_gc_keeps_stream_with_pending_demand():
    """A stream with waiting clients is never collected mid-wait."""
    sim = Simulator()
    server, node = make_server(sim, stream_timeout=0.1, gc_period=0.05)
    detect_stream(sim, server)
    # Park a pending request far beyond the fetch frontier by submitting
    # at the stream's expected offset while the disk is saturated with
    # direct traffic.
    stream = next(iter(server.classifier.streams.values()))
    pending_event = server.submit(IORequest(
        kind=IOKind.READ, disk_id=0, offset=stream.client_next,
        size=64 * KiB, stream_id=1))
    sim.run_until_event(pending_event, limit=30.0)
    assert pending_event.ok


class _FixedLatencyDevice:
    """Completes every request after ``latency`` seconds."""

    capacity_bytes = 64 * MiB

    def __init__(self, sim, latency):
        self.sim = sim
        self.latency = latency

    def submit(self, request):
        return self.sim.timeout(self.latency, request)


def test_gc_drops_parked_stream_in_first_cycle_after_its_demand_drains():
    """A stream idle past ``stream_timeout`` while its client waits is
    parked, not dropped. Serving the client unparks it, and the next
    cycle drops it, as a full scan of every stream would."""
    sim = Simulator()
    device = _FixedLatencyDevice(sim, 1e-3)
    server = StreamServer(sim, device, ServerParams(
        read_ahead=1 * MiB, memory_budget=32 * MiB,
        requests_per_residency=1, gc_period=0.25, buffer_timeout=0.5,
        stream_timeout=1.0))
    detect_stream(sim, server, count=6)
    stream = next(iter(server.classifier.streams.values()))
    device.latency = 2.0
    # Read on until a request outruns the staged data and has to wait
    # on the stream for a new fetch.
    offset = stream.client_next
    while True:
        waiting = server.submit(IORequest(
            kind=IOKind.READ, disk_id=0, offset=offset, size=64 * KiB,
            stream_id=1))
        offset += 64 * KiB
        if stream.pending:
            break
        sim.run_until_event(waiting)
    sim.run(until=sim.now + 1.5)  # idle 1.5 s, its fetch still out
    assert stream.stream_id in server.classifier._parked
    sim.run_until_event(waiting)
    assert not stream.pending
    assert stream.stream_id not in server.classifier._parked
    assert server.classifier.live_streams == 1
    sim.run(until=sim.now + server.params.gc_period)
    assert server.classifier.live_streams == 0
    assert server.gc.streams_dropped == 1
