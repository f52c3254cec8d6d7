"""The zero-overhead-off gate (DESIGN.md §7).

Three pins, strongest first:

* **Off is the default** and every component hook reduces to a cached
  boolean — the default path runs the exact same kernel event stream as
  before the hooks existed.
* **Span recording is passive**: a spans-only traced run produces
  bit-identical simulated results *and* a bit-identical kernel event
  stream — opening/closing spans never schedules events or consumes
  randomness.
* **Telemetry is read-only but scheduled**: a telemetry-on run's
  simulated results are equal, while its kernel event stream is not
  (the sampler's timeouts enter the heap).
"""

from repro import obs
from repro.core import ServerParams, StreamServer
from repro.disk.drive import DiskDrive, DriveConfig
from repro.disk.mechanics import RotationMode
from repro.disk.specs import DISKSIM_GENERIC
from repro.sim import Simulator
from repro.sim.trace import Tracer
from repro.units import KiB
from repro.workload import ClientFleet, StreamSpec

DURATION = 0.2
STREAMS = 4


def _run(tracer=None):
    """One deterministic server run; returns (fingerprint, tracer)."""
    sim = Simulator(trace=tracer)
    drive = DiskDrive(sim, DISKSIM_GENERIC,
                      DriveConfig(rotation_mode=RotationMode.EXPECTED))
    server = StreamServer(sim, drive, ServerParams())
    size = 64 * KiB
    spacing = drive.capacity_bytes // STREAMS
    spacing -= spacing % size
    specs = [StreamSpec(stream_id=i, disk_id=0, start_offset=i * spacing,
                        request_size=size) for i in range(STREAMS)]
    fleet = ClientFleet(sim, server, specs)
    report = fleet.run(duration=DURATION)
    fingerprint = (
        sim.now,
        report.total_bytes,
        tuple(report.per_stream_bytes),
        report.mean_latency,
        server.stats.counter("completed").count,
        server.stats.counter("staged_hits").count,
        drive.stats.counter("completed").count,
        drive.stats.counter("seeks").count,
    )
    return fingerprint, tracer


def test_observability_is_off_by_default():
    assert obs.current() is obs.OBS_OFF
    assert not obs.current().enabled


def test_activation_restores_previous_context():
    context = obs.ObsContext()
    with obs.activated(context):
        assert obs.current() is context
        inner = obs.ObsContext()
        with obs.activated(inner):
            assert obs.current() is inner
        assert obs.current() is context
    assert obs.current() is obs.OBS_OFF


def test_off_run_records_no_spans():
    context = obs.ObsContext()
    baseline, _ = _run()
    assert obs.current() is obs.OBS_OFF  # nothing leaked
    assert len(context.spans) == 0


def test_spans_on_is_bit_identical():
    """Tracing changes nothing: results AND kernel event stream equal."""
    plain, plain_tracer = _run(Tracer(capacity=None))
    with obs.activated(obs.ObsContext(span_capacity=None)) as context:
        traced, traced_tracer = _run(Tracer(capacity=None))
    assert len(context.spans) > 0  # the traced run did record
    assert traced == plain
    assert traced_tracer.kernel_steps == plain_tracer.kernel_steps
    assert traced_tracer.records() == plain_tracer.records()


def test_telemetry_on_results_equal_events_differ():
    plain, plain_tracer = _run(Tracer(capacity=None))
    with obs.activated(
            obs.ObsContext(telemetry_interval=0.01)) as context:
        sampled, sampled_tracer = _run(Tracer(capacity=None))
    assert sampled == plain
    # The sampler's own timeouts entered the event heap.
    assert sampled_tracer.kernel_steps > plain_tracer.kernel_steps
    assert context.telemetries, "telemetry never attached"


def test_repeated_off_runs_are_deterministic():
    assert _run()[0] == _run()[0]
