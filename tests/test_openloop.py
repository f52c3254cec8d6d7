"""Open-loop clients + the server's bounded admission edge (DESIGN.md §9).

The load-bearing pins:

* **shedding bounds the admitted tail** — driven past saturation, the
  admission-controlled server sheds honestly (reported, with a
  retry-after hint) while the requests it *does* admit keep a p99 far
  below the unbounded-queue collapse;
* **policies off is a no-op** — admission_limit=0 (the default) sheds
  nothing, ever;
* **determinism** — arrival sequences are (seed, stream) functions, so
  identical runs produce identical counts byte for byte.
"""

import pytest

from repro.core import ServerParams, StreamServer
from repro.faults import AdmissionShedError
from repro.sim import Simulator
from repro.units import KiB
from repro.workload import OpenLoopClient, OpenLoopFleet, StreamSpec, \
    poisson_arrivals

SIZE = 64 * KiB


class QueueDevice:
    """Single FIFO server with a fixed service time — a queueing-theory
    textbook device, so saturation arithmetic is exact."""

    capacity_bytes = 1 << 40
    disk_ids = [0]

    def __init__(self, sim, service_s=1e-3):
        self.sim = sim
        self.service_s = service_s
        self._busy_until = 0.0

    def submit(self, request):
        start = max(self.sim.now, self._busy_until)
        done = start + self.service_s
        self._busy_until = done
        return self.sim.event("queue.io").succeed(
            request, delay=done - self.sim.now)

    def register_buffers(self, count):
        pass


def _specs(streams):
    return [StreamSpec(stream_id=i, disk_id=0,
                       start_offset=i * (1 << 30), request_size=SIZE)
            for i in range(streams)]


def _overload_run(admission_limit, admission_queue_depth, seed=3):
    """4 streams at 2x a 1 ms-service device's capacity for 2 s."""
    sim = Simulator()
    device = QueueDevice(sim, service_s=1e-3)
    server = StreamServer(sim, device, ServerParams(
        read_ahead=0,
        admission_limit=admission_limit,
        admission_queue_depth=admission_queue_depth))
    fleet = OpenLoopFleet(sim, server, _specs(4), rate=2000.0, seed=seed)
    return fleet.run(duration=2.0, warmup=0.25)


# ---------------------------------------------------------------------------
# Arrival generation
# ---------------------------------------------------------------------------

def test_poisson_arrivals_deterministic_and_windowed():
    first = poisson_arrivals(rate=500.0, duration=1.0, seed=11)
    second = poisson_arrivals(rate=500.0, duration=1.0, seed=11)
    assert first == second
    assert first != poisson_arrivals(rate=500.0, duration=1.0, seed=12)
    assert all(0.0 <= t < 1.0 for t in first)
    assert first == sorted(first)
    # Mean rate lands near the configured one (law of large numbers).
    assert 400 <= len(first) <= 600
    with pytest.raises(ValueError):
        poisson_arrivals(rate=0.0, duration=1.0)
    with pytest.raises(ValueError):
        poisson_arrivals(rate=1.0, duration=-1.0)


def test_client_requires_exactly_one_arrival_source():
    sim = Simulator()
    device = QueueDevice(sim)
    spec = _specs(1)[0]
    with pytest.raises(ValueError):
        OpenLoopClient(sim, device, spec)
    with pytest.raises(ValueError):
        OpenLoopClient(sim, device, spec, rate=10.0, arrivals=[0.5])
    with pytest.raises(ValueError):
        OpenLoopClient(sim, device, spec, rate=-1.0)


def test_trace_mode_issues_at_exact_times():
    sim = Simulator()
    device = QueueDevice(sim, service_s=1e-4)
    client = OpenLoopClient(sim, device, _specs(1)[0],
                            arrivals=[0.1, 0.25, 0.7])
    client.start()
    sim.run()
    assert client.issued == 3
    assert client.completed == 3
    assert client.completed_bytes == 3 * SIZE
    assert client.in_flight == 0


# ---------------------------------------------------------------------------
# Admission control under overload
# ---------------------------------------------------------------------------

def test_shedding_keeps_admitted_p99_bounded():
    """2x overload: without admission the queue (and the tail) grows
    without bound; with it, sheds are reported and the admitted p99
    stays within a small multiple of the in-service backlog."""
    unbounded = _overload_run(admission_limit=0,
                              admission_queue_depth=0)
    bounded = _overload_run(admission_limit=8, admission_queue_depth=4)
    assert unbounded.shed == 0  # policies off: never sheds
    assert bounded.shed > 0
    assert bounded.shed_rate > 0.2  # 2x overload sheds a lot
    assert bounded.completed > 0
    # The admitted tail is bounded by roughly (limit + depth) services;
    # the unbounded run's tail is the whole accumulated backlog.
    assert bounded.p99_latency < 0.05
    assert unbounded.p99_latency > 10 * bounded.p99_latency


def test_shed_error_carries_retry_after_hint():
    sim = Simulator()
    device = QueueDevice(sim, service_s=1e-3)
    server = StreamServer(sim, device, ServerParams(
        read_ahead=0, admission_limit=1, admission_queue_depth=0))
    hints = []

    def burst():
        events = [server.submit(request) for request in (
            _request(offset) for offset in range(0, 4 * SIZE, SIZE))]
        for event in events:
            try:
                yield event
            except AdmissionShedError as exc:
                hints.append(exc.retry_after_s)

    def _request(offset):
        from repro.io import IOKind, IORequest
        return IORequest(kind=IOKind.READ, disk_id=0, offset=offset,
                         size=SIZE, stream_id=0)

    sim.process(burst())
    sim.run()
    assert hints, "burst past the limit must shed"
    assert all(hint > 0.0 for hint in hints)
    assert server.report().shed_requests == len(hints)


def test_overload_run_is_deterministic():
    first = _overload_run(admission_limit=8, admission_queue_depth=4)
    second = _overload_run(admission_limit=8, admission_queue_depth=4)
    assert first.issued == second.issued
    assert first.completed == second.completed
    assert first.shed == second.shed
    assert first.completed_bytes == second.completed_bytes
    assert first.p99_latency == second.p99_latency
    # A different seed is a different arrival sequence.
    other = _overload_run(admission_limit=8, admission_queue_depth=4,
                          seed=4)
    assert other.issued != first.issued or other.shed != first.shed


def test_report_rates():
    report = _overload_run(admission_limit=8, admission_queue_depth=4)
    assert report.offered_rate == pytest.approx(
        report.issued / 2.0)
    assert report.shed_rate == pytest.approx(
        report.shed / report.issued)
    assert report.throughput == pytest.approx(
        report.completed_bytes / 2.0)
    assert report.errors == 0


def test_admission_params_validated():
    with pytest.raises(ValueError):
        ServerParams(admission_limit=-1)
    with pytest.raises(ValueError):
        ServerParams(admission_queue_depth=-1)
