"""Hit paths that never wait run without a Process (DESIGN.md §4).

A ``BufferCache`` read whose pages are all resident, and a
``StreamServer`` request served from staged memory, used to spawn one
generator Process each. Both are now served inline: the cache hit
succeeds its event in ``read()``, and the memory hit is one timeout
whose callback runs ``_finish``. A miss or partial hit, which has to
wait, is a ``_Miss`` callback chain, not a Process either. These tests
pin that no Process is spawned, that timing and bookkeeping match the
miss path's, that the cases which can wait still take that path, and
that Figure 2's values are unchanged.
"""

import json
from pathlib import Path

import pytest

from repro.core import ServerParams, StreamServer
from repro.core.server import COMPLETION_COPY_S
from repro.disk import WD800JD
from repro.disk.mechanics import RotationMode
from repro.experiments import SMOKE, fig02_schedulers
from repro.host import BufferCache
from repro.host.buffer_cache import _Miss
from repro.io import IOKind, IORequest
from repro.node import base_topology, build_node
from repro.sim import Simulator
from repro.units import KiB, MiB

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden.json"


class _Device:
    """A block device that completes every request after 1 ms."""

    capacity_bytes = 64 * MiB

    def __init__(self, sim):
        self.sim = sim
        self.requests = []

    def submit(self, request):
        self.requests.append(request)
        return self.sim.timeout(1e-3)


def _warm_cache():
    """Two streams' readahead windows resident: pages 0-3 and 8-11."""
    sim = Simulator()
    device = _Device(sim)
    cache = BufferCache(sim, device, 1 * MiB)
    sim.run_until_event(cache.read(1, 0, 0, 4 * KiB))
    sim.run_until_event(cache.read(2, 0, 32 * KiB, 4 * KiB))
    return sim, device, cache


# -- BufferCache -------------------------------------------------------------

def test_cache_hit_spawns_no_process_and_fires_now(spawned):
    sim, device, cache = _warm_cache()
    spawned.clear()
    now = sim.now
    event = cache.read(1, 0, 4 * KiB, 8 * KiB)
    assert spawned == []
    assert event.triggered
    sim.run_until_event(event)
    assert sim.now == now
    assert len(device.requests) == 2
    assert cache.stats.counter("hits").total_bytes == 8 * KiB


def test_cache_hit_matches_miss_chain():
    inline_sim, _, inline = _warm_cache()
    inline_now = inline_sim.now
    inline_sim.run_until_event(inline.read(1, 0, 4 * KiB, 8 * KiB))

    sim, device, reference = _warm_cache()
    now = sim.now
    event = sim.event()
    _Miss(reference, 1, reference._streams[1], 0, 4 * KiB, 8 * KiB,
          event).start(None)
    assert event.triggered  # the re-check found every page resident
    sim.run_until_event(event)

    assert inline_sim.now == inline_now and sim.now == now
    assert len(device.requests) == 2
    assert list(inline._pages) == list(reference._pages)
    assert list(inline._pages)[-2:] == [(0, 1), (0, 2)]
    assert inline._streams[1].next_expected \
        == reference._streams[1].next_expected == 12 * KiB
    assert inline.stats.snapshot() == reference.stats.snapshot()


def test_partial_hit_takes_miss_chain(spawned):
    sim, device, cache = _warm_cache()
    order = list(cache._pages)
    spawned.clear()
    queued = sim.queue_length
    event = cache.read(1, 0, 8 * KiB, 12 * KiB)  # pages 2, 3 and 4
    assert spawned == []
    # One push, where the Process bootstrap was: the chain's first step.
    assert sim.queue_length == queued + 1
    assert not event.triggered
    # read() touched nothing: the chain does it at its first step.
    assert list(cache._pages) == order
    sim.run_until_event(event)
    assert spawned == []
    assert len(device.requests) == 3
    assert cache.stats.counter("misses").count == 3
    # The fetch started at the first missing page, 4, and its whole
    # window is now the most recently used run.
    assert device.requests[-1].offset == 16 * KiB
    window = device.requests[-1].size // (4 * KiB)
    assert list(cache._pages)[-window:] == [(0, 4 + i)
                                            for i in range(window)]


def test_fill_landing_before_bootstrap_turns_miss_into_hit(spawned):
    sim, device, cache = _warm_cache()
    landing = sim.event()
    landing.callbacks.append(
        lambda _event: [cache._insert(0, index) for index in (4, 5)])
    landing.succeed()  # processed at this instant, before the bootstrap
    spawned.clear()
    event = cache.read(1, 0, 16 * KiB, 8 * KiB)  # pages 4 and 5: absent
    assert spawned == []
    assert not event.triggered
    now = sim.now
    sim.run_until_event(event)
    assert spawned == []
    assert sim.now == now
    assert len(device.requests) == 2  # the chain re-checked: no fetch
    assert list(cache._pages)[-2:] == [(0, 4), (0, 5)]
    assert cache.stats.counter("hits").total_bytes == 8 * KiB
    assert cache._streams[1].next_expected == 24 * KiB


# -- StreamServer ------------------------------------------------------------

def _read(offset, size=64 * KiB, stream_id=1):
    return IORequest(kind=IOKind.READ, disk_id=0, offset=offset, size=size,
                     stream_id=stream_id)


def _staged(server, request):
    """The buffer staging ``request``'s range in the server stream the
    classifier detected for the request's client stream, if any."""
    stream = next(stream for stream in server.classifier.streams.values()
                  if stream.client_id == request.stream_id)
    return server.buffered.find_in_stream(stream.stream_id, request.offset,
                                          request.size)


def test_server_memory_hit_spawns_no_process(spawned):
    sim = Simulator()
    node = build_node(sim, base_topology(
        disk_spec=WD800JD, rotation_mode=RotationMode.EXPECTED))
    server = StreamServer(sim, node, ServerParams(
        read_ahead=1 * MiB, memory_budget=64 * MiB,
        requests_per_residency=1))
    completed = server.stats.counter("completed")
    seen = {}

    def client(sim):
        offset = 0
        while offset < 1 * MiB:  # detect the stream, stage a window
            yield server.submit(_read(offset))
            offset += 64 * KiB
        yield sim.timeout(0.1)  # let the in-flight fetch fill
        buffer = _staged(server, _read(offset))
        assert buffer is not None and buffer.filled
        seen["hits"] = server.stats.counter("staged_hits").count
        seen["completed"] = completed.count
        seen["submitted"] = sim.now
        before = len(spawned)
        event = server.submit(_read(offset))
        seen["spawned"] = spawned[before:]
        done = yield event
        seen["resumed"] = sim.now
        seen["complete_time"] = done.complete_time
        seen["completed_at_resume"] = completed.count

    sim.run_until_event(sim.process(client(sim)))
    assert seen["spawned"] == []
    assert server.stats.counter("staged_hits").count == seen["hits"] + 1
    assert seen["resumed"] == \
        seen["submitted"] + COMPLETION_COPY_S
    assert seen["complete_time"] == seen["resumed"]
    assert seen["completed_at_resume"] == seen["completed"] + 1


def test_overlapping_staged_hits_complete_in_start_order():
    """Two copies in flight at once: each completes its own request,
    exactly ``COMPLETION_COPY_S`` after it started, first in first out
    (the server's copy FIFO)."""
    sim = Simulator()
    server = StreamServer(sim, _Device(sim), ServerParams(
        read_ahead=1 * MiB, memory_budget=16 * MiB,
        requests_per_residency=1))
    copy_s = COMPLETION_COPY_S
    starts = {1: 0, 2: 32 * MiB}

    def stage(stream_id):
        offset = starts[stream_id]
        while offset < starts[stream_id] + 1 * MiB:
            yield server.submit(_read(offset, stream_id=stream_id))
            offset += 64 * KiB

    for stream_id in starts:
        sim.run_until_event(sim.process(stage(stream_id)))
    sim.run(until=sim.now + 0.1)  # let both read-ahead fetches fill
    requests = [_read(starts[stream_id] + 1 * MiB, stream_id=stream_id)
                for stream_id in starts]
    for request in requests:
        buffer = _staged(server, request)
        assert buffer is not None and buffer.filled
    completed = []
    first = server.submit(requests[0])
    first.callbacks.append(lambda event: completed.append(event.value))
    sim.run(until=sim.now + copy_s / 2)
    second = server.submit(requests[1])
    second.callbacks.append(lambda event: completed.append(event.value))
    sim.run_until_event(second)
    assert completed == requests
    for request in requests:
        assert request.complete_time == request.submit_time + copy_s


# -- Figure 2 ----------------------------------------------------------------

@pytest.mark.parametrize("scheduler", ["noop", "cfq", "anticipatory"])
def test_fig02_point_equals_golden(scheduler):
    with GOLDEN.open(encoding="utf-8") as handle:
        golden = json.load(handle)["host-stack"]["series"]
    spec = fig02_schedulers.sweep()
    point = next(p for p in spec.points
                 if p.series == scheduler and p.x == 16)
    value = (point.fn or spec.point_fn)(SMOKE, dict(point.params))
    assert value == golden[scheduler]["16"]
