"""Per-layer host time and call counts, measured from outside ``repro``.

Two instruments, both installed only around a traced pass:

* a **sampler** thread (the process's only extra thread) that reads the
  main thread's stack every :data:`SAMPLE_INTERVAL_S` seconds via
  ``sys._current_frames()`` and charges the sample to the nearest
  ``repro`` frame's package. Builtins, stdlib helpers and the compiled
  event core have no ``repro`` frame of their own, so they are charged to
  the ``repro`` code that called them (``sim`` therefore includes the
  dispatch loop). cProfile is not used: it made Figure 13's 10
  streams/disk point 3.7x slower and shifts the proportions towards
  call-heavy code.
* **entry-point wrappers** that count (and, except for the very hot
  ``Simulator.process``, time) each layer's public entry point, plus
  ``__init__`` registries so each component's public ``.stats`` can be
  read after the pass. ``submit()`` returns an event at once and the
  layer's work runs later in generators the kernel resumes, which is
  why the sampler, not the wrapper time, gives a layer's host time.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

import repro
from metrics import CALL_LAYERS, LAYERS
from repro.controller.controller import DiskController
from repro.core.server import StreamServer
from repro.disk.drive import DiskDrive
from repro.host.block_layer import BlockLayer
from repro.host.buffer_cache import BufferCache
from repro.node.node import StorageNode
from repro.sim.engine import Simulator

__all__ = ["LayerTrace"]

# A sample's layer is the ``repro`` package of its nearest ``repro``
# frame; any other ``repro`` module (experiments, analysis, faults,
# units) counts as ``other``. A sample with no ``repro`` frame (the
# benchmark's own loop and its calibration kernel) is not counted.

#: (layer, class, method, timed): each layer's public entry point.
ENTRY_POINTS = (
    ("sim", Simulator, "process", False),
    ("disk", DiskDrive, "submit", True),
    ("controller", DiskController, "submit", True),
    ("node", StorageNode, "submit", True),
    ("core", StreamServer, "submit", True),
    ("host", BlockLayer, "submit", True),
    ("host", BufferCache, "read", True),
)

#: Entry points in client-to-disk order: a pass's client requests are
#: the calls into the first of these the workload uses.
_REQUEST_ORDER = (("host", "read"), ("core", "submit"), ("node", "submit"),
                  ("controller", "submit"), ("disk", "submit"))

_REGISTERED = (DiskDrive, DiskController, StreamServer, BufferCache)

#: Seconds between samples (the sampler also waits for the interpreter
#: lock, so samples land about every 10 ms).
SAMPLE_INTERVAL_S = 0.005


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _Sampler(threading.Thread):
    """Charges the main thread's current ``repro`` package every tick."""

    def __init__(self):
        super().__init__(name="layer-sampler", daemon=True)
        self.samples: Counter = Counter()
        self._halt = threading.Event()
        self._main = threading.main_thread().ident
        self._prefix = os.path.dirname(os.path.abspath(repro.__file__)) \
            + os.sep
        self._layer_of_code: Dict[object, Optional[str]] = {}

    def _code_layer(self, code) -> Optional[str]:
        layer = self._layer_of_code.get(code, "?")
        if layer == "?":
            filename = code.co_filename
            if filename.startswith(self._prefix):
                head = filename[len(self._prefix):].split(os.sep, 1)[0]
                head = head[:-3] if head.endswith(".py") else head
                layer = head if head in LAYERS else "other"
            else:
                layer = None
            self._layer_of_code[code] = layer
        return layer

    def run(self) -> None:
        frames = sys._current_frames
        while not self._halt.wait(SAMPLE_INTERVAL_S):
            frame = frames().get(self._main)
            layer = None
            while frame is not None and layer is None:
                layer = self._code_layer(frame.f_code)
                frame = frame.f_back
            if layer is not None:
                self.samples[layer] += 1

    def stop(self) -> None:
        self._halt.set()
        self.join()


class LayerTrace:
    """Instruments one pass at a time; accumulates over traced passes.

    Use as ``with trace.pass_():`` around a pass. Per-pass counts (calls,
    processes, ``.stats`` counters) must repeat exactly from pass to
    pass; :attr:`counts` keeps one dict per pass so the caller can check.
    """

    def __init__(self):
        self.samples: Counter = Counter()
        self.counts: List[Dict[str, int]] = []
        self.call_seconds: Counter = Counter()
        self._tallies: Dict[Tuple[str, str], List[float]] = {}
        self._instances: Dict[type, list] = {}

    # -- instrumentation ---------------------------------------------------
    def _wrap(self, layer: str, cls: type, method: str, timed: bool):
        original = cls.__dict__[method]
        tally = self._tallies.setdefault((layer, method), [0, 0.0])
        clock = time.perf_counter
        if timed:
            def wrapper(*args, **kwargs):
                tally[0] += 1
                started = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    tally[1] += clock() - started
        else:
            def wrapper(*args, **kwargs):
                tally[0] += 1
                return original(*args, **kwargs)
        setattr(cls, method, wrapper)
        return cls, method, original

    def _register(self, cls: type):
        original = cls.__dict__["__init__"]
        instances = self._instances.setdefault(cls, [])

        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            instances.append(obj)
        setattr(cls, "__init__", init)
        return cls, "__init__", original

    def pass_(self) -> "_TracedPass":
        """Context manager instrumenting one pass."""
        return _TracedPass(self)

    def _pass_counts(self) -> Dict[str, int]:
        counts = {f"call.{layer}.{method}": int(tally[0])
                  for (layer, method), tally in self._tallies.items()}

        def total(cls, counter: str) -> int:
            return sum(obj.stats.counters[counter].count
                       for obj in self._instances.get(cls, ())
                       if counter in obj.stats.counters)

        counts["disk.seeks"] = total(DiskDrive, "seeks")
        counts["controller.completed"] = total(DiskController, "completed")
        counts["controller.cache_hits"] = total(DiskController, "cache_hits")
        counts["core.completed"] = total(StreamServer, "completed")
        counts["core.staged_hits"] = total(StreamServer, "staged_hits")
        counts["core.readahead"] = total(StreamServer, "readahead_issued")
        counts["core.wb_flushes"] = sum(
            server.write_coalescer.stats.counters["flushes"].count
            for server in self._instances.get(StreamServer, ())
            if server.write_coalescer is not None
            and "flushes" in server.write_coalescer.stats.counters)
        counts["host.hits"] = total(BufferCache, "hits")
        counts["host.misses"] = total(BufferCache, "misses")
        return counts

    # -- results -------------------------------------------------------------
    def metrics(self, traced_cpu_s: float) -> Dict[str, float]:
        """Per-layer metrics over every traced pass so far.

        ``traced_cpu_s`` is the CPU seconds of a traced pass (per-task
        medians, summed); ``<layer>.self_s`` is that time times the
        layer's share of the samples. Counts are per pass (the first
        traced pass).
        """
        total_samples = sum(self.samples.values())
        out: Dict[str, float] = {}
        for layer in LAYERS:
            share = _ratio(self.samples[layer], total_samples)
            out[f"{layer}.self_frac"] = share
            out[f"{layer}.self_s"] = share * traced_cpu_s
        counts = self.counts[0]
        requests = next((counts[f"call.{layer}.{method}"]
                         for layer, method in _REQUEST_ORDER
                         if counts[f"call.{layer}.{method}"]), 0)
        for layer in CALL_LAYERS:
            calls = sum(value for key, value in counts.items()
                        if key.startswith(f"call.{layer}."))
            out[f"{layer}.calls"] = calls
            out[f"{layer}.call_us"] = 1e6 * _ratio(
                self.call_seconds[layer], calls * len(self.counts))
        out["requests"] = requests
        out["sim.processes"] = counts["call.sim.process"]
        out["sim.processes_per_req"] = _ratio(counts["call.sim.process"],
                                              requests)
        out["disk.seeks_per_req"] = _ratio(counts["disk.seeks"], requests)
        out["controller.cache_hit_frac"] = _ratio(
            counts["controller.cache_hits"], counts["controller.completed"])
        out["core.staged_hit_frac"] = _ratio(counts["core.staged_hits"],
                                             counts["core.completed"])
        out["core.readahead_per_req"] = _ratio(counts["core.readahead"],
                                               requests)
        out["core.wb_flushes"] = counts["core.wb_flushes"]
        out["host.cache_hit_frac"] = _ratio(
            counts["host.hits"], counts["host.hits"] + counts["host.misses"])
        out["trace.samples"] = total_samples
        return out


class _TracedPass:
    def __init__(self, trace: LayerTrace):
        self.trace = trace
        self._patches: list = []
        self._sampler: Optional[_Sampler] = None

    def __enter__(self) -> "_TracedPass":
        trace = self.trace
        trace._tallies.clear()
        trace._instances.clear()
        try:
            for layer, cls, method, timed in ENTRY_POINTS:
                self._patches.append(trace._wrap(layer, cls, method, timed))
            for cls in _REGISTERED:
                self._patches.append(trace._register(cls))
        except BaseException:
            self._restore()
            raise
        self._sampler = _Sampler()
        self._sampler.start()
        return self

    def _restore(self) -> None:
        for cls, method, original in reversed(self._patches):
            setattr(cls, method, original)
        self._patches.clear()

    def __exit__(self, *exc_info) -> None:
        trace = self.trace
        try:
            self._sampler.stop()
        finally:
            self._restore()
        trace.samples.update(self._sampler.samples)
        trace.counts.append(trace._pass_counts())
        for (layer, _method), tally in trace._tallies.items():
            trace.call_seconds[layer] += tally[1]
        trace._instances.clear()
