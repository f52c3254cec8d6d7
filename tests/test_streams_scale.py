"""Stream-count insensitivity of the simulator's own cost.

The stream server's data plane is indexed (DESIGN.md "Data-plane
indexes"): classifier routing, dispatch-set admission, read-ahead
staging and buffered-set lookups are O(1) or O(log n) in the number of
resident streams. These tests pin that with the same growing-population
experiment at 100, 1k and 10k streams: every stream issues the same
``per_stream`` sequential 64 KiB reads, so only the number of streams
held at once changes.

The tier-1 pin counts kernel events per completed request over a
zero-cost stub device. The count is the same on every machine and
event core, so the band can be tight: an O(streams) rescan that
schedules work shows up as a rising count. The ``slow`` test repeats
the count over real drives and adds a same-process wall-time ratio
between the 10k and the 100 stream run.
"""

import gc
import time

import pytest

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


def _run_clients(sim, device, streams, per_stream):
    """``streams`` sequential readers through a StreamServer on
    ``device``; returns kernel events per completed request."""
    server = StreamServer(sim, device, ServerParams(memory_budget=64 * MiB))
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
    return sim._sequence / completed


def streams_scale(streams: int, per_stream: int = PER_STREAM) -> float:
    """Events per request over a device that completes every request
    after a fixed 200 µs: no geometry, cache or mechanics, so the count
    is the server's own per-request work."""
    sim = Simulator()
    latency = 200e-6

    class _FixedLatencyDisks:
        capacity_bytes = 1024 * GiB

        def submit(self, request):
            request.complete_time = sim.now + latency
            return sim.event("stub.io").succeed(request, delay=latency)

    return _run_clients(sim, _FixedLatencyDisks(), streams, per_stream)


def streams_scale_drive(streams: int,
                        per_stream: int = PER_STREAM) -> float:
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
    counts = [streams_scale(streams) for streams in POPULATIONS]
    assert _spread(counts) <= 0.05, dict(zip(POPULATIONS, counts))


@pytest.mark.slow
def test_real_drive_cost_flat_across_stream_counts():
    per_request_s = {}
    counts = []
    for streams in POPULATIONS:
        gc.collect()
        started = time.perf_counter()
        counts.append(streams_scale_drive(streams))
        per_request_s[streams] = (time.perf_counter() - started) \
            / (streams * PER_STREAM)
    assert _spread(counts) <= 0.15, dict(zip(POPULATIONS, counts))
    assert per_request_s[10_000] <= 2.0 * per_request_s[100], per_request_s
