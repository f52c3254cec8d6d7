"""Failure-injection tests: device faults must surface, not wedge.

A :class:`repro.faults.FaultyDevice` fails selected requests; the
server must propagate the error to exactly the affected clients,
reclaim the staged state, and keep serving everyone else. The second
half covers the server's fault *policies*: bounded retry with seeded
exponential backoff, retry exhaustion, and stream quarantine.
"""

import random

import pytest

from repro.core import ServerParams, StreamServer
from repro.core.server import (RETRY_BACKOFF_CAP_S, RETRY_BACKOFF_JITTER,
                               RETRY_BACKOFF_S, RETRY_SEED)
from repro.disk import WD800JD
from repro.disk.mechanics import RotationMode
from repro.faults import (
    DeviceError,
    FaultPlan,
    FaultyDevice,
    MediaFault,
    TransientMediaError,
)
from repro.io import IOKind, IORequest
from repro.node import base_topology, build_node
from repro.sim import Simulator
from repro.units import KiB, MiB


def make_stack(sim, should_fail=None, plan=None, **param_overrides):
    node = build_node(sim, base_topology(
        disk_spec=WD800JD, rotation_mode=RotationMode.EXPECTED))
    if plan is None:
        plan = FaultPlan.from_predicate(
            should_fail, transient=param_overrides.pop("transient", False))
    faulty = FaultyDevice(sim, node, plan)
    server = StreamServer(sim, faulty, ServerParams(
        read_ahead=1 * MiB, memory_budget=32 * MiB, **param_overrides))
    return server, faulty


def read(offset, size=64 * KiB, stream=1):
    return IORequest(kind=IOKind.READ, disk_id=0, offset=offset,
                     size=size, stream_id=stream)


def test_direct_path_fault_fails_client_event():
    sim = Simulator()
    server, faulty = make_stack(sim, should_fail=lambda r: True)
    event = server.submit(read(0))
    with pytest.raises(DeviceError):
        sim.run_until_event(event, limit=5.0)
    assert faulty.failures == 1
    assert server.stats.counter("device_errors").count >= 1


def test_fetch_fault_fails_waiting_clients_not_simulation():
    """A failing read-ahead fetch must fail the attached clients and
    leave the simulation healthy."""
    sim = Simulator()
    # Fail only the large (coalesced) fetches; direct 64K requests pass.
    server, faulty = make_stack(
        sim, should_fail=lambda r: r.size > 512 * KiB)
    failures = []
    completions = []

    def client(sim):
        offset = 0
        for _ in range(10):
            event = server.submit(read(offset))
            try:
                yield event
                completions.append(offset)
            except DeviceError:
                failures.append(offset)
                return
            offset += 64 * KiB

    process = sim.process(client(sim))
    sim.run_until_event(process, limit=30.0)
    # The first requests (pre-detection, direct) succeed; the first
    # staged request dies on the injected fetch fault.
    assert len(completions) >= 2
    assert len(failures) == 1
    assert server.buffered.in_use == 0  # aborted buffer reclaimed


def test_other_streams_survive_one_streams_fault():
    sim = Simulator()
    poison_zone = 40 * 10**9  # faults only in the second disk half

    def should_fail(request):
        return request.offset >= poison_zone and request.size > 512 * KiB

    server, _faulty = make_stack(sim, should_fail)
    good, bad = [], []

    def client(sim, start, bucket):
        offset = start
        for _ in range(12):
            try:
                yield server.submit(read(offset, stream=start))
            except DeviceError:
                bucket.append("fault")
                return
            offset += 64 * KiB
        bucket.append("done")

    healthy = sim.process(client(sim, 0, good))
    doomed = sim.process(client(sim, poison_zone, bad))
    sim.run_until_event(sim.all_of([healthy, doomed]), limit=60.0)
    assert good == ["done"]
    assert bad == ["fault"]


def test_stream_recovers_after_transient_fault():
    sim = Simulator()
    state = {"armed": True}

    def should_fail(request):
        if state["armed"] and request.size > 512 * KiB:
            state["armed"] = False  # fail exactly one fetch
            return True
        return False

    server, _faulty = make_stack(sim, should_fail)
    outcomes = []

    def client(sim):
        offset = 0
        for _ in range(20):
            try:
                yield server.submit(read(offset))
                outcomes.append("ok")
            except DeviceError:
                outcomes.append("fault")
            offset += 64 * KiB

    process = sim.process(client(sim))
    sim.run_until_event(process, limit=60.0)
    assert outcomes.count("fault") == 1
    # The stream keeps going after the transient fault.
    assert outcomes[-1] == "ok"
    assert outcomes.count("ok") == 19


# -- retry policy ----------------------------------------------------------

def test_transient_fault_retried_to_success():
    """A transient fault on the first attempt is retried and the client
    never sees it."""
    sim = Simulator()
    server, faulty = make_stack(
        sim, should_fail=lambda r: True, transient=True, max_retries=2)
    event = server.submit(read(0))
    value = sim.run_until_event(event, limit=5.0)
    assert value is not None
    assert faulty.failures == 1  # attempt 0 injected, attempt 1 passed
    assert server.stats.counter("retries").count == 1
    assert server.stats.counter("device_errors").count == 1


def test_retry_exhaustion_surfaces_transient_error():
    """A defect that outlives the retry budget fails the client."""
    sim = Simulator()
    plan = FaultPlan(media=(MediaFault(
        disk_id=0, offset=0, size=64 * KiB, transient=True,
        recover_after=10),))
    server, faulty = make_stack(sim, plan=plan, max_retries=2)
    event = server.submit(read(0))
    with pytest.raises(TransientMediaError):
        sim.run_until_event(event, limit=5.0)
    # 1 initial attempt + 2 retries, all injected.
    assert faulty.failures == 3
    assert server.stats.counter("device_errors").count == 3
    assert server.stats.counter("retries").count == 2


def test_retries_disabled_by_default():
    sim = Simulator()
    server, faulty = make_stack(
        sim, should_fail=lambda r: True, transient=True)
    event = server.submit(read(0))
    with pytest.raises(TransientMediaError):
        sim.run_until_event(event, limit=5.0)
    assert faulty.failures == 1
    assert server.stats.counter("retries").count == 0


def _replica_schedule(attempts):
    """The backoff schedule rebuilt from the module constants."""
    rng = random.Random(RETRY_SEED)
    nominal = [min(RETRY_BACKOFF_S * 2 ** (attempt - 1),
                   RETRY_BACKOFF_CAP_S) for attempt in attempts]
    return nominal, [delay * (1.0 + RETRY_BACKOFF_JITTER
                              * (2.0 * rng.random() - 1.0))
                     for delay in nominal]


def test_backoff_deterministic_per_seed():
    """Every server draws its jitter from RETRY_SEED: one schedule."""

    def delays():
        sim = Simulator()
        server, _ = make_stack(sim, should_fail=lambda r: False)
        return [server._backoff_delay(attempt) for attempt in range(1, 9)]

    assert delays() == delays() == _replica_schedule(range(1, 9))[1]


def test_backoff_without_jitter_is_exact():
    """The un-jittered schedule doubles from RETRY_BACKOFF_S up to the
    RETRY_BACKOFF_CAP_S cap; each delay is it times one jitter draw."""
    sim = Simulator()
    server, _ = make_stack(sim, should_fail=lambda r: False)
    nominal, expected = _replica_schedule(range(1, 11))
    assert nominal == [2e-3, 4e-3, 8e-3, 16e-3, 32e-3, 64e-3, 128e-3,
                       0.25, 0.25, 0.25]
    assert [server._backoff_delay(a) for a in range(1, 11)] == expected
    for base, delay in zip(nominal, expected):
        assert (1.0 - RETRY_BACKOFF_JITTER) * base <= delay \
            <= (1.0 + RETRY_BACKOFF_JITTER) * base


# -- quarantine ------------------------------------------------------------

def test_quarantine_after_repeated_fetch_failures():
    """A stream whose fetches keep dying is quarantined: its staged
    pages are reclaimed and its client falls back to the direct path."""
    sim = Simulator()
    # Every coalesced fetch fails; direct 64K requests pass.
    server, _faulty = make_stack(
        sim, should_fail=lambda r: r.size > 512 * KiB,
        quarantine_threshold=2)
    outcomes = []

    def client(sim):
        offset = 0
        for _ in range(30):
            try:
                yield server.submit(read(offset))
                outcomes.append("ok")
            except DeviceError:
                outcomes.append("fault")
            offset += 64 * KiB

    process = sim.process(client(sim))
    sim.run_until_event(process, limit=120.0)
    assert len(outcomes) == 30
    report = server.report()
    assert report.quarantined_streams == 1
    # After quarantine the client's requests bypass classification and
    # complete on the (healthy) direct path.
    assert server.stats.counter("quarantine_bypass").count > 0
    assert outcomes[-1] == "ok"
    assert server.buffered.in_use == 0


def test_quarantine_disabled_by_default():
    sim = Simulator()
    server, _faulty = make_stack(
        sim, should_fail=lambda r: r.size > 512 * KiB)
    outcomes = []

    def client(sim):
        offset = 0
        for _ in range(20):
            try:
                yield server.submit(read(offset))
                outcomes.append("ok")
            except DeviceError:
                outcomes.append("fault")
            offset += 64 * KiB

    process = sim.process(client(sim))
    sim.run_until_event(process, limit=120.0)
    assert server.report().quarantined_streams == 0
    assert server.stats.counter("quarantine_bypass").count == 0
