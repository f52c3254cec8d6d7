"""Process counts of the request path (DESIGN.md §4, "Hops that wait").

Every per-request hop is a callback chain: the client slots, the xdd
readers, the page cache's miss path, the block layer's dispatch, the
write coalescer and the drive's mechanical worker. What still runs as a
Process is listed in DESIGN.md: the block layer's dispatcher, the
server's direct relay and read-ahead pumps, and background loops. These
tests pin exactly which Processes a Figure 1, Figure 2 and ``mixed-rw``
point start, and that a page-cache miss starts none.
"""

import pytest

from repro.core import StreamServer
from repro.experiments import SMOKE, fig01_collapse, fig02_schedulers
from repro.host import BufferCache
from repro.sim import Simulator
from repro.units import KiB, MiB

from tests.test_hit_paths import _Device
from tests.test_mixed_rw_golden import _workloads


def _run_point(module, series, x):
    spec = module.sweep()
    point = next(p for p in spec.points if (p.series, p.x) == (series, x))
    return (point.fn or spec.point_fn)(SMOKE, dict(point.params))


def test_figure1_point_spawns_no_process(spawned):
    assert _run_point(fig01_collapse, "500 streams", "256K") > 0
    assert spawned == []


def test_figure2_point_spawns_only_the_dispatcher(spawned):
    assert _run_point(fig02_schedulers, "cfq", 16) > 0
    assert spawned == ["blk.disp"]


def test_mixed_rw_point_spawns_no_process_per_write(spawned, monkeypatch):
    accepted = []
    original = StreamServer._accept

    def accept(self, request, event):
        accepted.append(request)
        return original(self, request, event)

    monkeypatch.setattr(StreamServer, "_accept", accept)
    assert _workloads().mixed_point(0, 50) > 0
    # Reads the classifier sends direct take the relay, and staged
    # streams a pump per dispatch residency; writes take none.
    assert set(spawned) == {"server.direct", "server.pump", "server.gc",
                            "server.wback.flusher", "server.wback.drain"}
    assert spawned.count("server.gc") == 1
    assert spawned.count("server.wback.flusher") == 1
    assert len(spawned) < 0.05 * len(accepted)


def test_page_cache_miss_spawns_no_process(spawned):
    sim = Simulator()
    device = _Device(sim)
    cache = BufferCache(sim, device, 1 * MiB)
    event = cache.read(1, 0, 0, 4 * KiB)
    assert not event.triggered
    sim.run_until_event(event)
    assert spawned == []
    assert sim.now == 1e-3
    assert [(r.offset, r.size) for r in device.requests] == [(0, 16 * KiB)]
    assert cache.cached_fraction(0, 0, 16 * KiB) == 1.0


# -- failures: a chain fails its own event, not the run --------------------

class _FailingDevice(_Device):
    """Fails every request after 1 ms."""

    def submit(self, request):
        self.requests.append(request)
        event = self.sim.event()
        event.fail(OSError(f"bad block at {request.offset}"), delay=1e-3)
        return event


def test_block_layer_failure_fails_carrier_and_merged_requests():
    from repro.host import BlockLayer
    from repro.host.schedulers import make_scheduler
    from repro.io import IOKind, IORequest

    sim = Simulator()
    layer = BlockLayer(sim, _FailingDevice(sim), make_scheduler("noop"))
    carrier = IORequest(IOKind.READ, 0, 0, 4 * KiB)
    merged = IORequest(IOKind.READ, 0, 4 * KiB, 4 * KiB)
    events = [layer.submit(carrier), layer.submit(merged)]
    sim.run()
    assert [event.ok for event in events] == [False, False]
    assert all(isinstance(event.value, OSError) for event in events)
    assert layer.in_flight == 0
    assert layer.stats.counter("completed").count == 2


def test_page_cache_fetch_failure_fails_the_read():
    sim = Simulator()
    cache = BufferCache(sim, _FailingDevice(sim), 1 * MiB)
    event = cache.read(1, 0, 0, 4 * KiB)
    sim.run()
    assert not event.ok and isinstance(event.value, OSError)
    assert cache.cached_fraction(0, 0, 4 * KiB) == 0.0


class _ThirdFails(_Device):
    """Fails the third request after 1 ms, completes the rest."""

    def submit(self, request):
        self.requests.append(request)
        if len(self.requests) == 3:
            event = self.sim.event()
            event.fail(OSError("bad block"), delay=1e-3)
            return event
        return self.sim.timeout(1e-3, value=request)


@pytest.mark.parametrize("tolerate", [False, True])
def test_client_slot_failure(tolerate):
    from repro.workload import StreamClient
    from repro.workload.generators import StreamSpec

    sim = Simulator()
    device = _ThirdFails(sim)
    client = StreamClient(sim, device, StreamSpec(
        stream_id=0, disk_id=0, start_offset=0, request_size=4 * KiB,
        total_bytes=10 * 4 * KiB), tolerate_errors=tolerate)
    done = client.start()
    sim.run()
    assert done.triggered and client.finished_at == sim.now
    if tolerate:
        # The bad block is skipped and the stream carries on.
        assert done.ok
        assert client.errors == 1 and client.completed_requests == 9
        assert len(device.requests) == 10
    else:
        # The slot stops and start()'s event fails with the error.
        assert not done.ok and isinstance(done.value, OSError)
        assert client.errors == 0 and client.completed_requests == 2
        assert len(device.requests) == 3


def _fleet(device, streams, tolerate):
    from repro.workload import ClientFleet
    from repro.workload.generators import StreamSpec

    return ClientFleet(device.sim, device, [StreamSpec(
        stream_id=stream, disk_id=0, start_offset=stream * MiB,
        request_size=4 * KiB, total_bytes=10 * 4 * KiB)
        for stream in range(streams)], tolerate_errors=tolerate)


def test_intolerant_fleet_raises_a_failed_request():
    """A failed request ends its stream, and the run raises its error
    instead of reporting the shortfall as lower throughput."""
    device = _ThirdFails(Simulator())
    fleet = _fleet(device, 2, tolerate=False)
    with pytest.raises(OSError, match="bad block"):
        fleet.run()
    assert [c.completed_requests for c in fleet.clients] == [1, 10]


def test_tolerant_fleet_counts_a_failed_request():
    device = _ThirdFails(Simulator())
    report = _fleet(device, 2, tolerate=True).run()
    assert report.total_errors == 1
    assert report.total_bytes == 19 * 4 * KiB


class _StreamFails(_Device):
    """Fails stream 1's first request after 1 ms and stream 0's after
    2 ms; stream 2 completes."""

    def submit(self, request):
        self.requests.append(request)
        delay = {0: 2e-3, 1: 1e-3}.get(request.stream_id)
        if delay is None:
            return self.sim.timeout(1e-3, value=request)
        event = self.sim.event()
        event.fail(OSError(f"stream {request.stream_id}"), delay=delay)
        return event


def test_intolerant_fleet_raises_in_stream_order():
    with pytest.raises(OSError, match="stream 0"):
        _fleet(_StreamFails(Simulator()), 3, tolerate=False).run()
