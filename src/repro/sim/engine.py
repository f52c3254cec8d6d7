"""The simulator core: clock, pluggable event core, and run loop.

The kernel's hot state — the timestamped pending-event queue, the
Timeout/Event free-lists, and the untraced dispatch loop — lives in a
pluggable *event core* (:mod:`repro.sim.eventcore`): a compiled C
extension when available, otherwise the original ``heapq``
implementation, kept verbatim as the reference.
:class:`Simulator` owns everything else: the clock, failure propagation,
tracing, and the ``until`` semantics of :meth:`Simulator.run`.

The factory entry points the hot paths call millions of times per
experiment — ``sim.timeout``, ``sim.after``, ``sim.event``,
``sim._push``, ``sim._wakeup`` — are the core's bound methods installed
directly into instance slots at construction, so a pooled timeout is
one call with no extra indirection regardless of backend (and one C
call on the compiled core).

Traced runs always take the readable per-event reference path through
``core.pop()`` + :meth:`Simulator.step`-equivalent dispatch: tracing is
for debugging and validation, where the free-list recycling and inlined
resume fast paths of ``core.drive`` would only obscure the event stream.
``tests/test_sim_kernel_equivalence.py`` pins every backend and
``step()`` to bit-identical behaviour.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.sim import eventcore
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    Process,
    ProcessGenerator,
    Timeout,
)

__all__ = ["Simulator", "SimulationError"]

#: Upper bound on each free-list (re-exported; the cores enforce it).
_POOL_LIMIT = eventcore.POOL_LIMIT


class SimulationError(RuntimeError):
    """An unhandled exception escaped a process with no waiter."""


class Simulator:
    """Discrete-event simulator with a float-seconds clock.

    Events scheduled for the same instant are processed in FIFO order of
    scheduling, which makes runs deterministic.

    Parameters
    ----------
    start_time:
        Initial clock value in seconds (default ``0.0``).
    trace:
        Optional :class:`repro.sim.trace.Tracer` receiving kernel records.
    backend:
        Event-core backend name (``"compiled"``/``"heapq"``); default
        is automatic selection, overridable with the ``REPRO_EVENTCORE``
        environment variable. See :mod:`repro.sim.eventcore`.

    Attributes
    ----------
    timeout, event:
        Event factories — the active core's bound methods, installed
        into slots at construction (see the module docstring). Their
        semantics are documented on :class:`repro.sim.eventcore.HeapqCore`.
    after:
        ``after(delay, step)`` calls ``step(timeout)`` ``delay`` seconds
        from now: the one call for
        ``timeout(delay).callbacks.append(step)``, with the same push.
        Every callback chain waits on time with it.
    """

    __slots__ = ("now", "trace", "_failures", "_active", "_core",
                 "timeout", "after", "event", "_push", "_wakeup")

    def __init__(self, start_time: float = 0.0, trace: Any = None,
                 backend: Optional[str] = None):
        self.now: float = float(start_time)
        self.trace = trace
        self._failures: list[Process] = []
        self._active = True
        core = eventcore.make_core(self, backend)
        self._core = core
        # Bound core methods installed as instance attributes: the
        # hottest factory calls go straight to the core with no
        # delegating Python frame in between.
        self.timeout = core.timeout
        self.after = core.after
        self.event = core.event
        self._push = core.push
        self._wakeup = core.wakeup

    # -- factory helpers -----------------------------------------------------
    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start ``generator`` as a process; returns the joinable Process."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event], name: str = "") -> AllOf:
        """Event that fires when every event in ``events`` has fired."""
        return AllOf(self, events, name=name)

    def any_of(self, events: Iterable[Event], name: str = "") -> AnyOf:
        """Event that fires when the first of ``events`` fires."""
        return AnyOf(self, events, name=name)

    # -- kernel internals ------------------------------------------------------
    @property
    def backend(self) -> str:
        """Name of the active event-core backend."""
        return self._core.backend

    @property
    def _sequence(self) -> int:
        """Total events ever pushed (the FIFO tie-break counter)."""
        return self._core.sequence

    @property
    def _timeout_pool(self) -> list[Timeout]:
        """The active core's timeout free-list (tests/diagnostics)."""
        return self._core.timeout_pool

    @property
    def _event_pool(self) -> list[Event]:
        """The active core's event free-list (tests/diagnostics)."""
        return self._core.event_pool

    def _schedule(self, event: Event, delay: float) -> None:
        """Place a triggered event on the queue ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative schedule delay: {delay}")
        self._push(self.now + delay, event)

    def _register_failure(self, process: Process) -> None:
        """Remember a failed process so unhandled errors surface in run()."""
        self._failures.append(process)

    # -- running ----------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Number of triggered-but-unprocessed events."""
        return len(self._core)

    @property
    def idle(self) -> bool:
        """True when no events remain — the drain condition self-
        terminating housekeeping loops (server GC, the observability
        telemetry sampler) test before rescheduling themselves."""
        return not len(self._core)

    def peek(self) -> float:
        """Time of the next event, or ``float('inf')`` when idle."""
        return self._core.peek()

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it).

        This is the readable reference path: no batching, no free-list
        recycling, one event per call. ``run()`` must stay semantically
        equivalent to repeated ``step()`` calls (pinned by
        ``tests/test_sim_kernel_equivalence.py``).
        """
        when, event = self._core.pop()
        self.now = when
        if self.trace is not None:
            self.trace.kernel(self.now, event)
        event._process_callbacks()
        self._raise_orphans()

    def _raise_orphans(self) -> None:
        """Raise for failed processes whose exception nobody consumed."""
        if not self._failures:
            return
        failures, self._failures = self._failures, []
        for process in failures:
            # A waiter registered during callback processing absorbs it.
            if process.callbacks or process._sole_waiter is not None:
                continue
            raise SimulationError(
                f"unhandled exception in process {process.name!r}"
            ) from process.value

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock passes ``until``.

        Returns the final clock value.

        ``until`` semantics (pinned by ``tests/test_sim_run_until.py``):

        * Events scheduled *exactly at* ``until`` **are** processed; the
          loop only stops at the first event strictly later than
          ``until``. Equal-time events keep their FIFO order.
        * When the queue drains before ``until`` (or holds only later
          events), the clock is still advanced exactly to ``until`` —
          ``run(until=t)`` always returns with ``now == t`` when
          ``t >= now`` at entry, even if nothing fired.
        * ``until`` earlier than the current clock raises ``ValueError``.

        Untraced runs hand the whole loop to the active event core's
        ``drive`` — the kernel's hot path (same-timestamp batching,
        direct resume, free-list recycling; compiled when the C core is
        active). All of its fast paths preserve the observable
        ``(time, seq)`` FIFO order; events a dispatched process
        schedules at the current instant join the tail of the running
        batch exactly as they would have been popped next by the
        per-event loop. Traced runs take the per-event reference path
        below instead (and never recycle).
        """
        trace = self.trace
        if until is not None and until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        if trace is None:
            self._core.drive(until)
        else:
            core = self._core
            if until is None:
                while len(core):
                    when, event = core.pop()
                    self.now = when
                    trace.kernel(when, event)
                    event._process_callbacks()
                    if self._failures:
                        self._raise_orphans()
            else:
                while len(core) and core.peek() <= until:
                    when, event = core.pop()
                    self.now = when
                    trace.kernel(when, event)
                    event._process_callbacks()
                    if self._failures:
                        self._raise_orphans()
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_until_event(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` is processed; return its value.

        Raises the event's exception if it failed, or ``TimeoutError`` if
        ``limit`` seconds of simulated time pass first.
        """
        core = self._core
        while not event.processed:
            if not len(core):
                raise SimulationError(
                    f"simulation drained before {event!r} fired"
                )
            if limit is not None and core.peek() > limit:
                raise TimeoutError(
                    f"{event!r} not processed by simulated t={limit}"
                )
            self.step()
        if not event.ok:
            raise event.value
        return event.value

    def __repr__(self) -> str:
        return (f"<Simulator t={self.now:g} queued={len(self._core)} "
                f"backend={self._core.backend}>")
