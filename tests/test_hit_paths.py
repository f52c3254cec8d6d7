"""Hit paths that never wait run without a Process (DESIGN.md §4).

A ``BufferCache`` read whose pages are all resident, and a
``StreamServer`` request served from staged memory, used to spawn one
generator Process each. Both are now served inline: the cache hit
succeeds its event in ``read()``, and the memory hit is one timeout
whose callback runs ``_finish``. These tests pin that no Process is
spawned, that timing and bookkeeping match the Process-based path,
that the cases which can wait still take it, and that Figure 2's
values are unchanged.
"""

import json
from pathlib import Path

import pytest

from repro.core import ServerParams, StreamServer
from repro.disk import WD800JD
from repro.disk.mechanics import RotationMode
from repro.experiments import SMOKE, fig02_schedulers
from repro.host import BufferCache
from repro.io import IOKind, IORequest
from repro.node import base_topology, build_node
from repro.sim import Simulator
from repro.units import KiB, MiB

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden.json"


@pytest.fixture
def spawned(monkeypatch):
    """Names of every Process started through ``Simulator.process``."""
    names = []
    original = Simulator.process

    def process(self, generator, name=""):
        names.append(name)
        return original(self, generator, name)

    monkeypatch.setattr(Simulator, "process", process)
    return names


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


def test_cache_hit_matches_read_process():
    inline_sim, _, inline = _warm_cache()
    inline_sim.run_until_event(inline.read(1, 0, 4 * KiB, 8 * KiB))

    sim, _, reference = _warm_cache()
    event = sim.event()
    sim.process(reference._read(1, reference._streams[1], 0, 4 * KiB,
                                8 * KiB, event))
    sim.run_until_event(event)

    assert list(inline._pages) == list(reference._pages)
    assert list(inline._pages)[-2:] == [(0, 1), (0, 2)]
    assert inline._streams[1].next_expected \
        == reference._streams[1].next_expected == 12 * KiB
    assert inline.stats.snapshot() == reference.stats.snapshot()


def test_partial_hit_takes_read_process(spawned):
    sim, device, cache = _warm_cache()
    order = list(cache._pages)
    spawned.clear()
    event = cache.read(1, 0, 8 * KiB, 12 * KiB)  # pages 2, 3 and 4
    assert spawned == ["bcache.s1"]
    assert not event.triggered
    # read() touched nothing: _read does it at its bootstrap.
    assert list(cache._pages) == order
    sim.run_until_event(event)
    assert len(device.requests) == 3
    assert cache.stats.counter("misses").count == 3


def test_fill_landing_before_bootstrap_turns_miss_into_hit(spawned):
    sim, device, cache = _warm_cache()
    landing = sim.event()
    landing.callbacks.append(
        lambda _event: [cache._insert(0, index) for index in (4, 5)])
    landing.succeed()  # processed at this instant, before the bootstrap
    spawned.clear()
    event = cache.read(1, 0, 16 * KiB, 8 * KiB)  # pages 4 and 5: absent
    assert spawned == ["bcache.s1"]
    now = sim.now
    sim.run_until_event(event)
    assert sim.now == now
    assert len(device.requests) == 2  # _read re-checked: no fetch
    assert cache.stats.counter("hits").total_bytes == 8 * KiB
    assert cache._streams[1].next_expected == 24 * KiB


# -- StreamServer ------------------------------------------------------------

def _read(offset, size=64 * KiB):
    return IORequest(kind=IOKind.READ, disk_id=0, offset=offset, size=size,
                     stream_id=1)


def test_server_memory_hit_spawns_no_process(spawned):
    sim = Simulator()
    node = build_node(sim, base_topology(
        disk_spec=WD800JD, rotation_mode=RotationMode.EXPECTED))
    server = StreamServer(sim, node, ServerParams(
        read_ahead=1 * MiB, memory_budget=64 * MiB,
        requests_per_residency=1))
    latency = server.stats.latency("latency")
    seen = {}

    def client(sim):
        offset = 0
        while offset < 1 * MiB:  # detect the stream, stage a window
            yield server.submit(_read(offset))
            offset += 64 * KiB
        yield sim.timeout(0.1)  # let the in-flight fetch fill
        buffer = server.buffered.find(0, offset, 64 * KiB)
        assert buffer is not None and buffer.filled
        seen["hits"] = server.stats.counter("staged_hits").count
        seen["samples"] = latency.count
        seen["submitted"] = sim.now
        before = len(spawned)
        event = server.submit(_read(offset))
        seen["spawned"] = spawned[before:]
        done = yield event
        seen["resumed"] = sim.now
        seen["complete_time"] = done.complete_time
        seen["samples_at_resume"] = latency.count

    sim.run_until_event(sim.process(client(sim)))
    assert seen["spawned"] == []
    assert server.stats.counter("staged_hits").count == seen["hits"] + 1
    assert seen["resumed"] == \
        seen["submitted"] + server.params.completion_copy_s
    assert seen["complete_time"] == seen["resumed"]
    assert seen["samples_at_resume"] == seen["samples"] + 1


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
