"""Pluggable event-core backends for the simulator kernel.

The kernel's pending-event queue — a priority queue ordered by
``(when, seq)`` with FIFO semantics for equal timestamps — plus the
Timeout/Event free-lists and the untraced dispatch loop live behind one
small *core* API, so the data structure and the hot loop can be swapped
without touching :class:`repro.sim.engine.Simulator` or any event
semantics:

``compiled``
    :mod:`repro.sim._eventcore`, a C extension compiled at install time
    (``setup.py`` marks it *optional*: a build without a C compiler
    still installs, minus this backend). The heap is an array of C
    structs — no per-event tuple, no rich comparisons — and the drive
    loop, free-list recycling and the pooled ``timeout()`` factory run
    in C, calling back into Python only for generator resumes and the
    cold paths.

``heapq``
    :class:`HeapqCore`, the original ``heapq`` kernel kept as
    the readable reference implementation and the fallback whenever the
    compiled core is unavailable.

Both are pinned to bit-identical event streams (and to repeated
:meth:`Simulator.step` calls) by ``tests/test_sim_kernel_equivalence.py``
and ``tests/test_eventcore_fifo.py``.

Selection is automatic (compiled > heapq) and can be forced with the
``REPRO_EVENTCORE`` environment variable or the ``backend=`` argument of
:class:`~repro.sim.engine.Simulator`. Forcing an unavailable backend
raises immediately with a clear message.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from typing import Any, List, Optional, Tuple

from repro.sim.events import Event, Process, Timeout

__all__ = [
    "BACKENDS",
    "POOL_LIMIT",
    "HeapqCore",
    "available_backends",
    "backend_token",
    "compiled_available",
    "make_core",
    "resolve_backend",
]

try:  # CPython: exact liveness check for free-list recycling.
    from sys import getrefcount as _getrefcount
except ImportError:  # pragma: no cover - PyPy etc: never recycle
    def _getrefcount(_obj: Any) -> int:
        return -1

try:  # The optional C extension (setup.py ext_modules, optional=True).
    from repro.sim import _eventcore as _compiled
except ImportError:  # pragma: no cover - exercised by the no-compiler CI leg
    _compiled = None

#: Upper bound on each free-list; reuse is immediate, so a small cap
#: suffices and bounds worst-case retained memory.
POOL_LIMIT = 1024

#: Recognized backend names, in automatic-selection preference order.
BACKENDS = ("compiled", "heapq")

#: Environment variable forcing a specific backend.
ENV_VAR = "REPRO_EVENTCORE"


def compiled_available() -> bool:
    """True when the C extension imported successfully."""
    return _compiled is not None


def available_backends() -> Tuple[str, ...]:
    """The backends usable in this interpreter, preference order."""
    if _compiled is not None:
        return BACKENDS
    return ("heapq",)


def resolve_backend(name: Optional[str] = None) -> str:
    """Resolve ``name`` (or ``$REPRO_EVENTCORE``, or automatic) to a
    concrete backend name, validating availability.

    Automatic selection prefers ``compiled`` over ``heapq``. An
    explicit request for an unavailable backend raises ``RuntimeError``
    (not a silent fallback): a forced backend is a correctness/benchmark
    pin and must never degrade quietly.
    """
    if name is None:
        name = os.environ.get(ENV_VAR) or None
    if name is None:
        return "compiled" if _compiled is not None else "heapq"
    if name not in BACKENDS:
        raise ValueError(
            f"unknown event-core backend {name!r}: pick one of "
            f"{'/'.join(BACKENDS)} (via REPRO_EVENTCORE or "
            f"Simulator(backend=...))")
    if name == "compiled" and _compiled is None:
        raise RuntimeError(
            "event-core backend 'compiled' was requested but the "
            "repro.sim._eventcore extension is not importable — build it "
            "with `pip install .` (needs a C compiler) or drop "
            "REPRO_EVENTCORE to fall back to the heapq backend")
    return name


def backend_token(name: Optional[str] = None) -> str:
    """Stable identity of the active backend for cache fingerprints.

    Includes the compiled module's version so a rebuilt extension with
    changed semantics can never be served stale sweep-cache entries
    (``repro.experiments.executor.code_fingerprint_for`` mixes this
    token into every point's cache key).
    """
    backend = resolve_backend(name)
    if backend == "compiled":
        return f"compiled/{getattr(_compiled, '__version__', '0')}"
    return backend


def make_core(sim: Any, backend: Optional[str] = None) -> Any:
    """Build the event core for ``sim``; see :func:`resolve_backend`."""
    if resolve_backend(backend) == "compiled":
        return _compiled.EventCore(sim, POOL_LIMIT)
    return HeapqCore(sim)


class HeapqCore:
    """Reference backend: the original ``heapq`` kernel.

    The heap holds ``(when, seq, event)`` tuples; ``seq`` is a global
    push counter that makes equal-time ordering FIFO and deterministic.
    ``drive`` is the pre-backend ``Simulator.run`` hot loop
    (same-timestamp batching, direct sole-waiter resume and sole-callback
    dispatch, refcount-gated free-list recycling) operating on
    core-local state.
    """

    backend = "heapq"

    __slots__ = ("sim", "_heap", "_sequence", "timeout_pool", "event_pool")

    def __init__(self, sim: Any):
        self.sim = sim
        self._heap: List[Tuple[float, int, Event]] = []
        self._sequence = 0
        #: free-lists of processed, provably-unreferenced events
        self.timeout_pool: List[Timeout] = []
        self.event_pool: List[Event] = []

    # -- queue primitives -------------------------------------------------
    def push(self, when: float, event: Event) -> None:
        """Insert ``event`` at ``when`` behind all earlier pushes."""
        self._sequence = sequence = self._sequence + 1
        heappush(self._heap, (when, sequence, event))

    def pop(self) -> Tuple[float, Event]:
        """Remove and return ``(when, event)`` for the earliest event."""
        when, _seq, event = heappop(self._heap)
        return when, event

    def peek(self) -> float:
        """Time of the next event, or ``float('inf')`` when empty."""
        heap = self._heap
        return heap[0][0] if heap else float("inf")

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def sequence(self) -> int:
        """Total events ever pushed (the FIFO tie-break counter)."""
        return self._sequence

    # -- pooled factories -------------------------------------------------
    def timeout(self, delay: float, value: Any = None,
                name: str = "") -> Timeout:
        """Create an event that fires ``delay`` seconds from now.

        The dominant call shape (``sim.timeout(d)`` with no value and no
        name) draws from the timeout free-list when recycled instances
        are available, skipping object allocation entirely.
        """
        pool = self.timeout_pool
        if pool and value is None and not name:
            if delay < 0:
                raise ValueError(f"negative timeout delay: {delay}")
            timeout = pool.pop()
            # Recycled instances were reset on entry to the pool
            # (no callbacks, no waiter, value None, ok True, name "").
            timeout.delay = delay
            timeout._state = 1  # Event.TRIGGERED
            self._sequence = sequence = self._sequence + 1
            heappush(self._heap, (self.sim.now + delay, sequence, timeout))
            return timeout
        return Timeout(self.sim, delay, value=value, name=name)

    def after(self, delay: float, step: Any) -> None:
        """Call ``step(timeout)`` ``delay`` seconds from now.

        The one call for ``timeout(delay).callbacks.append(step)``: the
        push, its ``(time, seq)`` place and the pooled timeout are the
        ones that line makes. The compiled core fills the timeout's
        callback list in C.
        """
        self.timeout(delay).callbacks.append(step)

    def event(self, name: str = "") -> Event:
        """Create a pending :class:`Event`, recycling when possible."""
        pool = self.event_pool
        if pool:
            event = pool.pop()
            # Pool entries are reset on entry (no callbacks, no waiter,
            # value None, ok True); only name and state need setting.
            event.name = name
            event._state = 0  # Event.PENDING
            return event
        return Event(self.sim, name=name)

    def wakeup(self, process: Process, name: str) -> Event:
        """Schedule an already-triggered event that direct-resumes
        ``process`` on the next kernel step (bootstrap / interrupt)."""
        pool = self.event_pool
        if pool:
            event = pool.pop()
            event.name = name
            event._state = 1  # Event.TRIGGERED
        else:
            event = Event(self.sim, name=name)
            event._state = 1
        event._sole_waiter = process
        self._sequence = sequence = self._sequence + 1
        heappush(self._heap, (self.sim.now, sequence, event))
        return event

    # -- resource slots ---------------------------------------------------
    def request_then(self, resource: Any, step: Any) -> None:
        """Grant a slot of ``resource`` to ``step`` (FIFO behind waiters).

        A free slot hands off with ``after(0.0, step)``: the push, at the
        same point, that ``request()`` plus ``succeed()`` makes.
        :class:`repro.sim.resources.Resource` binds this and
        :meth:`release` to itself.
        """
        if resource._in_use < resource.capacity:
            resource._in_use += 1
            self.timeout(0.0).callbacks.append(step)
        else:
            resource._waiters.append(step)

    def release(self, resource: Any) -> None:
        """Free a slot of ``resource``, handing it to the oldest waiter:
        an Event (from ``request()``) succeeds with the resource, a step
        (from :meth:`request_then`) is called after zero delay."""
        if resource._in_use <= 0:
            raise RuntimeError(
                f"release() on idle resource {resource.name!r}")
        waiters = resource._waiters
        if waiters:
            waiter = waiters.popleft()
            if isinstance(waiter, Event):
                waiter.succeed(resource)
            else:
                self.timeout(0.0).callbacks.append(waiter)
        else:
            resource._in_use -= 1

    # -- hot loop ---------------------------------------------------------
    def drive(self, until: Optional[float]) -> None:
        """Dispatch events (to ``until``, inclusive); untraced runs only.

        This is the pre-backend ``Simulator.run`` loop: events sharing
        the head timestamp drain in one inner batch, and the two
        dominant waiter shapes skip ``Event._process_callbacks``:

        * a sole waiter and no callbacks resumes the process directly;
        * no sole waiter and exactly one callback runs that callback
          directly, with ``_process_callbacks``' steps (state
          ``PROCESSED``, a fresh ``callbacks`` list, then ``cb(event)``).

        Processed ``Timeout``/``Event`` instances from either shape whose
        only reference is the loop's are recycled through the free-lists.
        """
        sim = self.sim
        heap = self._heap
        pop = heappop
        getref = _getrefcount
        tpool = self.timeout_pool
        epool = self.event_pool
        limit = POOL_LIMIT
        horizon = float("inf") if until is None else until
        # sim._failures keeps its identity until _raise_orphans swaps it
        # (and _raise_orphans is only entered when it is non-empty), so a
        # local alias is safe as long as it is re-bound after each call.
        failures = sim._failures
        while heap and heap[0][0] <= horizon:
            when, _seq, event = pop(heap)
            sim.now = when
            while True:
                waiter = event._sole_waiter
                callbacks = event.callbacks
                cls = event.__class__
                if waiter is not None and not callbacks:
                    # Direct resume (inlined fast path of
                    # Event._process_callbacks).
                    event._sole_waiter = None
                    event._state = 2  # Event.PROCESSED
                    waiter._resume(event)
                elif waiter is None and len(callbacks) == 1:
                    # Direct sole-callback dispatch.
                    event._state = 2  # Event.PROCESSED
                    event.callbacks = []
                    callbacks[0](event)
                else:
                    event._process_callbacks()
                    cls = None  # the reference path never recycles
                # Inlined recycle: class test first so non-poolable
                # events skip the refcount call.
                if cls is Timeout:
                    if getref(event) == 2 and len(tpool) < limit:
                        # Only the loop local + getrefcount's argument
                        # reference it: recyclable.
                        event._value = None
                        event._ok = True
                        event.name = ""
                        tpool.append(event)
                elif cls is Event:
                    if getref(event) == 2 and len(epool) < limit:
                        event._value = None
                        event._ok = True
                        event.name = ""
                        epool.append(event)
                if failures:
                    # Checked per event, not per batch: a waiter must be
                    # able to absorb a failure *before* the failed
                    # process's own completion event (same instant)
                    # clears its waiter slot.
                    sim._raise_orphans()
                    failures = sim._failures
                if heap and heap[0][0] == when:
                    event = pop(heap)[2]
                else:
                    break

    def __repr__(self) -> str:
        return f"<HeapqCore pending={len(self._heap)} seq={self._sequence}>"
