"""``sim.after`` and ``Resource.request_then``: the chain idioms.

A callback chain waits on time with ``sim.after(delay, step)`` and on a
slot with ``resource.request_then(step)``. Both must push exactly what
the Event-based forms push — ``timeout(delay).callbacks.append(step)``
and ``request().callbacks.append(step)`` — at the same points, so every
``(time, seq)`` position is unchanged. Each test runs on every
available event core.
"""

import random
import sys

import pytest

from repro.sim import Resource, Simulator
from repro.sim.eventcore import available_backends, compiled_available
from repro.sim.events import Event, Timeout

BACKENDS = available_backends()


def _stock_pools(sim):
    """Put a few recycled events and timeouts on the free-lists (only
    events with one callback are recycled)."""
    for _ in range(3):
        sim.event().succeed().callbacks.append(lambda event: None)
        sim.after(0.0, lambda event: None)
    sim.run()


# -- after -------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_after_dispatches_in_timeout_append_order(backend, seed):
    """Interleaved ``after`` and ``timeout().callbacks.append`` calls,
    some from inside dispatched steps: the same log, clock and push
    count as the all-``timeout`` schedule."""
    def schedule(use_after):
        rng = random.Random(seed)
        sim = Simulator(backend=backend)
        log = []
        delays = [rng.choice([0.0, 0.0, 1e-3, 2e-3, 0.5e-3])
                  for _ in range(60)]

        def wait(delay, step, index):
            if use_after and index % 2 == 0:
                sim.after(delay, step)
            else:
                sim.timeout(delay).callbacks.append(step)

        def make(index):
            def step(event):
                log.append((index, sim.now, type(event).__name__))
                if index + 20 < len(delays):
                    wait(delays[index + 20], make(index + 20), index + 20)
            return step

        for index in range(20):
            wait(delays[index], make(index), index)
        end = sim.run()
        return log, end, sim._sequence

    expected = schedule(use_after=False)
    assert len(expected[0]) == 60
    assert schedule(use_after=True) == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_after_uses_a_pooled_timeout(backend):
    sim = Simulator(backend=backend)
    sim.after(1.0, lambda event: None)
    sim.run()
    pooled = len(sim._timeout_pool)
    assert pooled >= 1
    before = sim._sequence
    seen = []
    assert sim.after(0.5, seen.append) is None
    assert sim._sequence == before + 1
    assert len(sim._timeout_pool) == pooled - 1
    sim.run()
    assert len(seen) == 1 and type(seen[0]) is Timeout
    assert sim.now == 1.5


@pytest.mark.parametrize("backend", BACKENDS)
def test_after_negative_delay_raises_like_timeout(backend):
    sim = Simulator(backend=backend)
    with pytest.raises(ValueError) as from_timeout:
        sim.timeout(-1.0)
    with pytest.raises(ValueError) as from_after:
        sim.after(-1.0, lambda event: None)
    assert str(from_after.value) == str(from_timeout.value) \
        == "negative timeout delay: -1.0"
    # With a pooled timeout at hand as well.
    sim.after(0.0, lambda event: None)
    sim.run()
    assert sim._timeout_pool
    with pytest.raises(ValueError, match="negative timeout delay: -2.0"):
        sim.after(-2.0, lambda event: None)
    assert sim.queue_length == 0


# -- request_then ------------------------------------------------------------

def _contention(backend, waits):
    """Requesters of a 2-slot resource, each holding it 1-3 ms.

    ``waits[i]`` picks how requester ``i`` waits: ``"step"`` through
    ``request_then`` or ``"event"`` through ``request()`` with its step
    appended. Returns the log, final clock and push count.
    """
    sim = Simulator(backend=backend)
    resource = Resource(sim, capacity=2, name="disk")
    log = []

    def holder(index, hold):
        def granted(event):
            log.append(("granted", index, sim.now))

            def done(_timeout):
                log.append(("release", index, sim.now))
                resource.release()
            sim.after(hold, done)
        return granted

    def wait(index, how, hold):
        if how == "step":
            resource.request_then(holder(index, hold))
        else:
            resource.request().callbacks.append(holder(index, hold))

    for index, how in enumerate(waits):
        wait(index, how, hold=1e-3 * (1 + index % 3))
    end = sim.run()
    return log, end, sim._sequence, resource.in_use, resource.queued


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("waits", [
    ("step",),                                  # uncontended grant
    ("step", "step", "step", "step"),           # contended hand-offs
    ("event", "step", "step", "event", "step", "event"),  # one mixed FIFO
    ("step", "event", "event", "step", "event", "step"),
])
def test_request_then_dispatches_like_request(backend, waits):
    expected = _contention(backend, ("event",) * len(waits))
    assert _contention(backend, waits) == expected
    assert expected[3:] == (0, 0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_mixed_fifo_grants_in_request_order(backend):
    """Steps and grant events wait in one FIFO: a release wakes the
    oldest whatever its kind, an event with the resource as its value."""
    sim = Simulator(backend=backend)
    resource = Resource(sim, capacity=1, name="r")
    order = []
    resource.request_then(lambda event: order.append(("a", sim.now)))
    grant = resource.request()
    grant.callbacks.append(lambda event: order.append(("b", sim.now)))
    resource.request_then(lambda event: order.append(("c", sim.now)))
    assert resource.queued == 2
    for when in (1.0, 2.0):
        sim.after(when, lambda event: resource.release())
    sim.run()
    assert order == [("a", 0.0), ("b", 1.0), ("c", 2.0)]
    assert grant.value is resource
    assert (resource.in_use, resource.queued) == (1, 0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_release_on_idle_resource_raises(backend):
    sim = Simulator(backend=backend)
    resource = Resource(sim, capacity=1, name="port")
    with pytest.raises(RuntimeError) as raised:
        resource.release()
    assert str(raised.value) == "release() on idle resource 'port'"
    resource.request_then(lambda event: None)
    resource.release()
    with pytest.raises(RuntimeError, match="on idle resource 'port'"):
        resource.release()
    assert resource.in_use == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_uncontended_request_then_pushes_one_timeout_and_no_event(backend):
    sim = Simulator(backend=backend)
    _stock_pools(sim)
    events, timeouts = len(sim._event_pool), len(sim._timeout_pool)
    assert events and timeouts
    resource = Resource(sim, capacity=1)
    before = sim._sequence
    seen = []
    resource.request_then(seen.append)
    assert sim._sequence == before + 1
    assert len(sim._event_pool) == events
    assert len(sim._timeout_pool) == timeouts - 1
    sim.run()
    assert [type(event) for event in seen] == [Timeout]
    assert resource.in_use == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_contended_request_then_pushes_at_the_release(backend):
    sim = Simulator(backend=backend)
    resource = Resource(sim, capacity=1)
    resource.request_then(lambda event: None)
    sim.run()
    before = sim._sequence
    resource.request_then(lambda event: None)
    assert sim._sequence == before  # queued: nothing pushed yet
    resource.release()
    assert sim._sequence == before + 1
    assert (resource.in_use, resource.queued) == (1, 0)


@pytest.mark.skipif(not compiled_available(),
                    reason="compiled event core not built")
def test_compiled_grant_and_release_run_no_python_frame():
    sim = Simulator(backend="compiled")
    _stock_pools(sim)
    resource = Resource(sim, capacity=1)
    step = Event(sim).callbacks.append  # a C callable: no frame of its own
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        resource.request_then(step)    # free slot
        resource.request_then(step)    # queued
        resource.release()             # hand-off to the queued step
        resource.release()             # slot freed
        sim.after(0.0, step)
    finally:
        sys.setprofile(None)
    assert calls == []
    assert (resource.in_use, resource.queued) == (0, 0)
