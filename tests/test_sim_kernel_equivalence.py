"""Backend/step equivalence and free-list (pool) correctness.

The kernel's pending-event queue and untraced dispatch loop are
pluggable (:mod:`repro.sim.eventcore`): a compiled C core and the
original ``heapq`` reference. Every backend's ``run()`` batches
same-timestamp events, dispatches sole waiters directly and recycles
provably-unreferenced events through free-lists;
:meth:`Simulator.step` is the readable per-event reference with none
of those fast paths. These tests pin *all available backends*
and ``step()`` to bit-identical observable behaviour on a workload that
exercises every event type — Timeout, bare Event, AllOf, AnyOf, Process
joins and interrupts — and pin the pools' safety contract: a user-held
reference to a processed event never observes reuse, and traced runs
never recycle at all.
"""

import random

import pytest

from repro.sim import Simulator
from repro.sim.engine import _POOL_LIMIT
from repro.sim.eventcore import available_backends
from repro.sim.events import Event, Interrupt, Timeout

BACKENDS = available_backends()


# -- mixed workload --------------------------------------------------------

def _build_workload(sim, log, seed=0):
    """Spawn a deterministic tangle of processes that append to ``log``.

    Covers: zero and equal delays (same-instant batches), AllOf fan-in,
    AnyOf races, process joins, interrupts mid-sleep, and a failing
    process whose exception a watcher absorbs.
    """
    rng = random.Random(seed)

    def ticker(sim, ident, count):
        for tick in range(count):
            yield sim.timeout(rng.choice([0.0, 0.5, 1.0, 1.0, 2.5]))
            log.append(("tick", ident, tick, sim.now))

    def fanout(sim):
        children = [sim.timeout(delay, value=delay)
                    for delay in (1.0, 1.0, 3.0, 0.0)]
        results = yield sim.all_of(children)
        log.append(("allof", tuple(results.values()), sim.now))

    def racer(sim):
        fast = sim.timeout(1.0, value="fast")
        slow = sim.timeout(4.0, value="slow")
        first = yield sim.any_of([fast, slow])
        log.append(("anyof", tuple(first.values()), sim.now))
        yield slow  # drain the loser deterministically
        log.append(("anyof-late", sim.now))

    def sleeper(sim):
        try:
            yield sim.timeout(50.0)
            log.append(("overslept", sim.now))
        except Interrupt as interrupt:
            log.append(("interrupted", interrupt.cause, sim.now))
        yield sim.timeout(0.25)
        log.append(("sleeper-done", sim.now))

    def alarm(sim, target):
        yield sim.timeout(2.0)
        target.interrupt("wake")
        log.append(("alarm", sim.now))

    def failer(sim):
        yield sim.timeout(1.5)
        raise RuntimeError("expected failure")

    def watcher(sim, target):
        try:
            yield target
            log.append(("watched-ok", sim.now))
        except RuntimeError as error:
            log.append(("watched-fail", str(error), sim.now))

    def joiner(sim, target):
        value = yield target
        log.append(("joined", value, sim.now))

    def quick(sim):
        yield sim.timeout(0.75)
        return "quick-value"

    for ident in range(3):
        sim.process(ticker(sim, ident, count=4))
    sim.process(fanout(sim))
    sim.process(racer(sim))
    target = sim.process(sleeper(sim))
    sim.process(alarm(sim, target))
    failed = sim.process(failer(sim))
    sim.process(watcher(sim, failed))
    sim.process(joiner(sim, sim.process(quick(sim))))


def _run_with_step(sim):
    while sim.queue_length:
        sim.step()
    return sim.now


class _StubTracer:
    """Records the exact kernel event stream: (now, type, name)."""

    def __init__(self):
        self.records = []

    def kernel(self, now, event):
        self.records.append((now, type(event).__name__, event.name))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_run_equals_step_on_mixed_workload(backend, seed):
    """run() and step() produce identical logs, clocks and sequences."""
    log_run, log_step = [], []
    sim_run = Simulator(backend=backend)
    sim_step = Simulator(backend=backend)
    _build_workload(sim_run, log_run, seed=seed)
    _build_workload(sim_step, log_step, seed=seed)

    end_run = sim_run.run()
    end_step = _run_with_step(sim_step)

    assert log_run == log_step
    assert end_run == end_step
    # Identical event counts were scheduled and consumed.
    assert sim_run._sequence == sim_step._sequence
    assert sim_run.queue_length == 0 and sim_step.queue_length == 0


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_backends_produce_identical_streams(seed):
    """Every backend yields the bit-identical log, clock and sequence."""
    results = {}
    for backend in BACKENDS:
        log = []
        sim = Simulator(backend=backend)
        _build_workload(sim, log, seed=seed)
        end = sim.run()
        results[backend] = (log, end, sim._sequence)
    reference = results["heapq"]
    for backend, got in results.items():
        assert got == reference, f"{backend} diverged from heapq"


@pytest.mark.parametrize("seed", [0, 3])
def test_traced_kernel_streams_identical_across_backends(seed):
    """The traced per-event kernel record stream is bit-identical."""
    streams = {}
    for backend in BACKENDS:
        tracer = _StubTracer()
        sim = Simulator(trace=tracer, backend=backend)
        _build_workload(sim, [], seed=seed)
        sim.run()
        streams[backend] = tracer.records
    reference = streams["heapq"]
    assert reference, "tracer saw no kernel records"
    for backend, got in streams.items():
        assert got == reference, f"{backend} trace diverged from heapq"


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_until_equals_step_prefix(backend):
    """run(until=t) consumes exactly the events step() would by t."""
    log_run, log_step = [], []
    sim_run = Simulator(backend=backend)
    sim_step = Simulator(backend=backend)
    _build_workload(sim_run, log_run)
    _build_workload(sim_step, log_step)

    horizon = 2.0
    sim_run.run(until=horizon)
    while sim_step.queue_length and sim_step.peek() <= horizon:
        sim_step.step()

    assert log_run == log_step
    # Resuming both to the end still agrees (pool reuse across the
    # boundary must not perturb anything).
    sim_run.run()
    _run_with_step(sim_step)
    assert log_run == log_step


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_equals_step_with_resources(backend):
    """Contention primitives ride the same fast paths identically."""
    from repro.sim.resources import Pipe, Resource, Store

    def _world(sim, log):
        disk = Resource(sim, capacity=2, name="disk")
        queue = Store(sim, capacity=4, name="queue")
        link = Pipe(sim, bandwidth=1e6, name="link")

        def producer(sim):
            for item in range(8):
                yield queue.put(item)
                yield sim.timeout(0.1)

        def consumer(sim, ident):
            for _ in range(4):
                item = yield queue.get()
                grant = disk.request()
                yield grant
                yield sim.process(link.transfer(32768))
                disk.release()
                log.append(("served", ident, item, round(sim.now, 9)))

        sim.process(producer(sim))
        sim.process(consumer(sim, "a"))
        sim.process(consumer(sim, "b"))

    log_run, log_step = [], []
    sim_run = Simulator(backend=backend)
    sim_step = Simulator(backend=backend)
    _world(sim_run, log_run)
    _world(sim_step, log_step)
    assert sim_run.run() == _run_with_step(sim_step)
    assert log_run == log_step


# -- pool correctness -------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_held_timeout_reference_never_observes_reuse(backend):
    """A processed Timeout the user still holds is never recycled."""
    sim = Simulator(backend=backend)
    held = sim.timeout(1.0, value="mine", name="held")

    def waiter(sim):
        value = yield held
        assert value == "mine"

    sim.process(waiter(sim))
    sim.run()
    assert held.processed and held.ok and held.value == "mine"
    assert held not in sim._timeout_pool

    # Churn enough timeouts to cycle the pool many times over.
    def churn(sim):
        for _ in range(200):
            yield sim.timeout(0.01)

    sim.process(churn(sim))
    sim.run()
    # The held object is untouched: same state, same value, still not
    # in any pool, and no new timeout is the same object.
    assert held.processed and held.ok and held.value == "mine"
    assert held.name == "held"  # reset-on-recycle never ran on it
    assert held not in sim._timeout_pool
    fresh = sim.timeout(0.5)
    assert fresh is not held


@pytest.mark.parametrize("backend", BACKENDS)
def test_recycling_actually_happens(backend):
    """The free-lists fill on an unheld-timeout workload (not dead code)."""
    sim = Simulator(backend=backend)

    def churn(sim):
        for _ in range(50):
            yield sim.timeout(0.001)

    sim.process(churn(sim))
    sim.run()
    assert sim._timeout_pool, "timeout free-list never filled"
    assert sim._event_pool, "event free-list never filled (bootstrap)"
    assert all(type(event) is Timeout for event in sim._timeout_pool)
    assert all(type(event) is Event for event in sim._event_pool)


@pytest.mark.parametrize("backend", BACKENDS)
def test_recycled_timeouts_are_clean_on_reuse(backend):
    """Pool hits come back with virgin state: no value, ok, no waiter."""
    sim = Simulator(backend=backend)

    def churn(sim):
        for _ in range(10):
            yield sim.timeout(0.001)

    sim.process(churn(sim))
    sim.run()
    assert sim._timeout_pool
    recycled = sim.timeout(2.0)
    assert recycled.triggered and not recycled.processed
    assert recycled._value is None and recycled._ok
    assert recycled._sole_waiter is None and not recycled.callbacks
    assert recycled.delay == 2.0

    pooled_event = sim.event("named")
    assert pooled_event.name == "named"
    assert not pooled_event.triggered
    assert pooled_event._sole_waiter is None and not pooled_event.callbacks


@pytest.mark.parametrize("backend", BACKENDS)
def test_pool_is_bounded(backend):
    """The free-lists never exceed _POOL_LIMIT entries."""
    sim = Simulator(backend=backend)

    def churn(sim, count):
        for _ in range(count):
            yield sim.timeout(0.0)

    for _ in range(8):
        sim.process(churn(sim, 400))
    sim.run()
    assert len(sim._timeout_pool) <= _POOL_LIMIT
    assert len(sim._event_pool) <= _POOL_LIMIT


@pytest.mark.parametrize("backend", BACKENDS)
def test_traced_runs_never_recycle(backend):
    """With a tracer attached, run() takes the reference path: no pools."""
    tracer = _StubTracer()
    sim = Simulator(trace=tracer, backend=backend)

    def churn(sim):
        for _ in range(20):
            yield sim.timeout(0.001)

    sim.process(churn(sim))
    sim.run()
    assert tracer.records, "tracer saw no kernel records"
    assert not sim._timeout_pool
    assert not sim._event_pool


@pytest.mark.parametrize("backend", BACKENDS)
def test_condition_events_never_enter_pools(backend):
    """AllOf/AnyOf/Process instances are structurally non-poolable."""
    sim = Simulator(backend=backend)

    def fan(sim):
        yield sim.all_of([sim.timeout(0.1), sim.timeout(0.2)])
        yield sim.any_of([sim.timeout(0.1), sim.timeout(0.2)])

    sim.process(fan(sim))
    sim.run()
    assert all(type(event) is Timeout for event in sim._timeout_pool)
    assert all(type(event) is Event for event in sim._event_pool)
