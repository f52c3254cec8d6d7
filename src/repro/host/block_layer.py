"""The block layer: a scheduler-driven dispatcher over a block device.

Owns the request queue for one device, asks the scheduler what to do
whenever the device has capacity, honours deliberate idling (anticipatory,
CFQ ``slice_idle``), and completes merged requests alongside their
carriers.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.host.schedulers.base import Dispatch, Idle, IOScheduler
from repro.io import BlockDevice, IORequest, stamp_submit
from repro.sim import Simulator
from repro.sim.events import Event
from repro.sim.stats import StatsRegistry

__all__ = ["BlockLayer"]


class _InFlight:
    """One dispatched request, as callbacks: submit it to the device,
    then free its dispatch slot and complete it (and its merged
    requests).

    :meth:`BlockLayer._issue` starts it with one zero-delay timeout,
    the push a Process bootstrap would make (DESIGN.md §4, "Hops that
    wait"). A failed device event fails the carrier's and the merged
    requests' events with the same exception.
    """

    __slots__ = ("layer", "request")

    def __init__(self, layer: "BlockLayer", request: IORequest):
        self.layer = layer
        self.request = request

    def submit(self, _event: Event) -> None:
        self.layer.device.submit(self.request).callbacks.append(self.done)

    def done(self, event: Event) -> None:
        layer = self.layer
        request = self.request
        layer.in_flight -= 1
        layer.scheduler.on_complete(request, layer.sim.now)
        layer._finish(request, None if event._ok else event._value)
        layer._kick()


class BlockLayer:
    """Dispatch requests to ``device`` in the order ``scheduler`` decides.

    Parameters
    ----------
    sim:
        Owning simulator.
    device:
        Any :class:`~repro.io.BlockDevice` (drive, controller, node).
    scheduler:
        The I/O scheduler instance (owned exclusively by this layer).
    dispatch_depth:
        Concurrent requests allowed at the device. Depth 1 models the
        pre-NCQ SATA stacks of the paper's era; the scheduler sees every
        scheduling decision.
    """

    def __init__(self, sim: Simulator, device: BlockDevice,
                 scheduler: IOScheduler, dispatch_depth: int = 1,
                 name: str = "blk"):
        if dispatch_depth < 1:
            raise ValueError(f"dispatch_depth must be >= 1: {dispatch_depth}")
        self.sim = sim
        self.device = device
        self.scheduler = scheduler
        self.dispatch_depth = dispatch_depth
        self.name = name
        self.capacity_bytes = device.capacity_bytes
        self.in_flight = 0
        self.stats = StatsRegistry()
        self._completions: dict[int, Event] = {}
        self._wake: Optional[Event] = None
        self._dispatcher_running = False
        # Precomputed hot-path names (one wake per dispatch cycle).
        self._wake_name = f"{name}.wake"
        self._disp_name = f"{name}.disp"
        # Ambient observability, captured once (boolean-guarded hooks).
        self._obs = obs.current()
        self._obs_on = self._obs.enabled

    # -- BlockDevice protocol -----------------------------------------------
    def submit(self, request: IORequest) -> Event:
        """Queue ``request`` with the scheduler; returns completion event."""
        stamp_submit(request, self.sim.now)
        event = self.sim.event(name="blk")
        self._completions[request.request_id] = event
        if self._obs_on:
            # Scheduler-queue phase: closed at dispatch (or, for merged
            # requests, at the carrier's completion).
            request.annotations["obs.blkq"] = self._obs.begin_child(
                request, "blk.queue", "blk", self.sim.now)
        self.scheduler.add(request, self.sim.now)
        self._kick()
        return event

    # -- dispatcher ------------------------------------------------------------
    def _kick(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()
        if not self._dispatcher_running:
            self._dispatcher_running = True
            self.sim.process(self._dispatcher(), name=self._disp_name)

    def _dispatcher(self):
        while True:
            if self.in_flight >= self.dispatch_depth:
                yield self._make_wake()
                continue
            decision = self.scheduler.decide(self.sim.now)
            if isinstance(decision, Dispatch):
                self._issue(decision.request)
                continue
            if isinstance(decision, Idle):
                delay = max(0.0, decision.until - self.sim.now)
                self.stats.counter("idle_waits").add()
                wake = self._make_wake()
                yield self.sim.any_of([wake, self.sim.timeout(delay)])
                continue
            # Nothing queued: park until work or a completion arrives.
            if self.in_flight == 0 and len(self.scheduler) == 0:
                self._dispatcher_running = False
                self._wake = None
                return
            yield self._make_wake()

    def _make_wake(self) -> Event:
        self._wake = self.sim.event(name=self._wake_name)
        return self._wake

    def _issue(self, request: IORequest) -> None:
        self.in_flight += 1
        self.stats.counter("dispatched").add(request.size)
        if self._obs_on:
            span = request.annotations.pop("obs.blkq", None)
            if span is not None:
                self._obs.spans.end(span, self.sim.now)
        self.sim.after(0.0, _InFlight(self, request).submit)

    def _finish(self, request: IORequest,
                error: Optional[BaseException] = None) -> None:
        """Complete the request and any requests merged into it, or
        fail them all with ``error``."""
        now = self.sim.now
        for absorbed in request.annotations.pop("merged", []):
            absorbed.complete_time = now
            if self._obs_on:
                span = absorbed.annotations.pop("obs.blkq", None)
                if span is not None:
                    # Merged requests ride their carrier: the whole
                    # residency was queue time from this layer's view.
                    span.set_arg("merged", True)
                    self._obs.spans.end(span, now)
            self._complete(absorbed, error)
        request.complete_time = now
        self._complete(request, error)

    def _complete(self, request: IORequest,
                  error: Optional[BaseException]) -> None:
        self.stats.counter("completed").add(request.size)
        event = self._completions.pop(request.request_id, None)
        if event is None:
            return
        if error is None:
            event.succeed(request)
        else:
            event.fail(error)

    def __repr__(self) -> str:
        return (f"<BlockLayer {self.name!r} {self.scheduler.name} "
                f"queued={len(self.scheduler)} in_flight={self.in_flight}>")
