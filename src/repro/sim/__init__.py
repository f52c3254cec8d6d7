"""Discrete-event simulation kernel.

A small, self-contained, generator-based discrete-event simulator in the
style of simpy, purpose-built for the storage models in this package.

Public surface:

* :class:`~repro.sim.engine.Simulator` — the event loop and clock.
* :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.Process`, :class:`~repro.sim.events.AnyOf`,
  :class:`~repro.sim.events.AllOf` — things processes ``yield``.
* :class:`~repro.sim.resources.Resource`, :class:`~repro.sim.resources.Store`,
  :class:`~repro.sim.resources.Pipe` — contention primitives.
* :mod:`~repro.sim.stats` — counters, time-weighted gauges, latency samplers.
* :mod:`~repro.sim.trace` — optional structured event tracing.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker(sim, "a", 2.0))
>>> _ = sim.process(worker(sim, "b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from repro.sim.engine import Simulator, SimulationError
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.sim.resources import Pipe, Resource, Store
from repro.sim.stats import (
    Counter,
    Histogram,
    IntervalRate,
    LatencySampler,
    StatsRegistry,
    TimeWeightedGauge,
)
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Counter",
    "Event",
    "Histogram",
    "Interrupt",
    "IntervalRate",
    "LatencySampler",
    "Pipe",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "StatsRegistry",
    "Store",
    "TimeWeightedGauge",
    "Timeout",
    "TraceRecord",
    "Tracer",
]
