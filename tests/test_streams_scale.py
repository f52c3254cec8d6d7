"""Stream-count insensitivity of the simulator's own cost.

The stream server's data plane is indexed (DESIGN.md "Data-plane
indexes"): classifier routing, dispatch-set admission, read-ahead
staging and buffered-set lookups are O(1) or O(log n) in the number of
resident streams. These tests pin that with the same growing-population
experiment at 100, 1k and 10k streams: every stream issues the same
``per_stream`` sequential 64 KiB reads, so only the number of streams
held at once changes.

The tier-1 pins count over a zero-cost stub device: kernel events per
completed request, and streams the GC's idle walk visits per completed
request. Both counts are the same on every machine and event core, so
the bands can be tight: an O(streams) rescan that schedules work shows
up as a rising event count, and one that only walks shows up as rising
visits. The ``slow`` test repeats the event count over real drives and
adds a same-process wall-time ratio between the 10k and the 100 stream
run.
"""

import functools
import gc
import time

import pytest

from repro.core.classifier import SequentialClassifier
from repro.core.params import ServerParams
from repro.core.server import StreamServer
from repro.disk.drive import DiskDrive, DriveConfig
from repro.disk.mechanics import RotationMode
from repro.disk.specs import DISKSIM_GENERIC
from repro.io import IOKind, IORequest
from repro.sim import Simulator
from repro.units import GiB, KiB, MiB

POPULATIONS = (100, 1_000, 10_000)
PER_STREAM = 4
SIZE = 64 * KiB
NUM_DISKS = 8


class _CountingClassifier(SequentialClassifier):
    """Counts the streams the GC's idle walk returns, over all cycles."""

    __slots__ = ("visits",)

    def __init__(self, params):
        super().__init__(params)
        self.visits = 0

    def idle_candidates(self, now, timeout):
        candidates = super().idle_candidates(now, timeout)
        self.visits += len(candidates)
        return candidates


def _run_clients(sim, device, streams, per_stream):
    """``streams`` sequential readers through a StreamServer on
    ``device``; returns kernel events and GC idle-walk visits, each
    per completed request."""
    params = ServerParams(memory_budget=64 * MiB)
    classifier = _CountingClassifier(params)
    server = StreamServer(sim, device, params, classifier=classifier)
    per_disk = -(-streams // NUM_DISKS)  # ceil
    spacing = (device.capacity_bytes // per_disk) // MiB * MiB \
        - (per_stream + 1) * SIZE

    def client(disk_id, start, stream_id):
        offset = start
        for _ in range(per_stream):
            yield server.submit(IORequest(
                kind=IOKind.READ, disk_id=disk_id, offset=offset,
                size=SIZE, stream_id=stream_id))
            offset += SIZE

    processes = [
        sim.process(client(index % NUM_DISKS,
                           (index // NUM_DISKS) * spacing, index))
        for index in range(streams)]
    sim.run_until_event(sim.all_of(processes))
    completed = server.stats.counter("completed").count
    assert completed == streams * per_stream
    return sim._sequence / completed, classifier.visits / completed


@functools.lru_cache(maxsize=None)
def streams_scale(streams: int, per_stream: int = PER_STREAM):
    """(events, idle-walk visits) per request over a device that
    completes every request after a fixed 200 µs: no geometry, cache or
    mechanics, so the counts are the server's own per-request work."""
    sim = Simulator()
    latency = 200e-6

    class _FixedLatencyDisks:
        capacity_bytes = 1024 * GiB

        def submit(self, request):
            request.complete_time = sim.now + latency
            return sim.event("stub.io").succeed(request, delay=latency)

    return _run_clients(sim, _FixedLatencyDisks(), streams, per_stream)


def streams_scale_drive(streams: int, per_stream: int = PER_STREAM):
    """Events per request over eight real drives (DiskSim base spec,
    EXPECTED rotation): every fetch pays queue policy, cylinder mapping,
    cache lookup and completion."""
    sim = Simulator()
    drives = [DiskDrive(sim, DISKSIM_GENERIC,
                        DriveConfig(rotation_mode=RotationMode.EXPECTED))
              for _ in range(NUM_DISKS)]

    class _DriveArray:
        capacity_bytes = drives[0].capacity_bytes
        disk_ids = list(range(NUM_DISKS))

        def submit(self, request):
            return drives[request.disk_id].submit(request)

    return _run_clients(sim, _DriveArray(), streams, per_stream)


def _spread(values):
    return max(values) / min(values) - 1.0


def test_events_per_request_flat_across_stream_counts():
    counts = [streams_scale(streams)[0] for streams in POPULATIONS]
    assert _spread(counts) <= 0.05, dict(zip(POPULATIONS, counts))


def test_gc_idle_walk_visits_per_request_flat_across_stream_counts():
    """A stream the GC finds idle while its clients wait is parked, not
    walked again every cycle. Here that leaves under two walks per
    stream over its life (mostly: parked once, dropped once), so visits
    per request stay under ``2 / PER_STREAM`` at every population: 0 /
    0.46 / 0.50 for 100 / 1k / 10k streams. Re-walking waiting streams
    every cycle gave 0 / 1.8 / 19.4."""
    visits = [streams_scale(streams)[1] for streams in POPULATIONS]
    assert max(visits) < 2 / PER_STREAM, dict(zip(POPULATIONS, visits))


@pytest.mark.slow
def test_real_drive_cost_flat_across_stream_counts():
    per_request_s = {}
    counts = []
    for streams in POPULATIONS:
        gc.collect()
        started = time.perf_counter()
        counts.append(streams_scale_drive(streams)[0])
        per_request_s[streams] = (time.perf_counter() - started) \
            / (streams * PER_STREAM)
    assert _spread(counts) <= 0.15, dict(zip(POPULATIONS, counts))
    assert per_request_s[10_000] <= 2.0 * per_request_s[100], per_request_s
