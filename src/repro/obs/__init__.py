"""``repro.obs`` — end-to-end request tracing and telemetry.

Three pieces (DESIGN.md §7):

* **Spans** (:mod:`repro.obs.spans`) — request-lifecycle phase spans
  with parent/child causality: client → server (classify / dispatch /
  stage / complete-from-memory) → node → controller → block layer →
  drive (queue / seek / rotate / transfer / cache-hit). Phase spans tile
  their parent, so :mod:`repro.obs.attribution` decomposes any request
  latency exactly.
* **Telemetry** (:mod:`repro.obs.telemetry`) — a scheduler-driven
  sampler snapshotting registered gauges/counters into ring buffers at a
  simulated-time interval.
* **Exporters** (:mod:`repro.obs.export`) — Chrome trace-event JSON
  (Perfetto-viewable), a JSONL event log, a Prometheus-style text dump,
  and the ``python -m repro.obs.report`` summary CLI.

Zero overhead off
-----------------
Observability is *ambient*: instrumented components capture
:func:`current` at construction time. The default context is the
module-level :data:`OBS_OFF` sentinel whose ``enabled`` flag is false,
so every hook in the hot path reduces to one pre-computed boolean test —
no span objects, no dict traffic, no simulator events. The default path
is bit-identical to the uninstrumented stack (pinned by
``tests/test_obs_overhead.py``).

Enabling looks like::

    from repro import obs

    with obs.activated(obs.ObsContext(telemetry_interval=0.05)) as ctx:
        sim = Simulator()
        ...build the stack and run the workload...
    ctx.spans.close_open(sim.now)
    export_chrome_trace(ctx, "trace.json")

Span recording never creates simulator events and never consumes
randomness, so even a traced run's simulated series are bit-identical to
an untraced run. Telemetry sampling *does* schedule its own timeouts
(results are unchanged; the kernel event stream is not).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, List, Optional, Tuple

from repro.obs.sketch import QuantileSketch
from repro.obs.spans import Span, SpanRecorder, span_trees
from repro.obs.telemetry import Telemetry, TimeSeries

__all__ = [
    "OBS_OFF",
    "ObsContext",
    "QuantileSketch",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "TimeSeries",
    "activated",
    "current",
    "span_trees",
]

#: Annotation key carrying the (trace_id, span_id) parent reference a
#: layer should hang its spans off. Layers overwrite it as the request
#: descends, so each layer's spans nest under the layer above.
SPAN_KEY = "obs.span"


class _NullObs:
    """The off sentinel: one shared instance, ``enabled`` false.

    Components cache ``current().enabled`` at construction; every hook
    site guards on that boolean, so the sentinel's methods are never on
    the hot path — they exist only so defensive calls are harmless.
    """

    __slots__ = ()
    enabled = False
    spans = None
    telemetry_interval: Optional[float] = None

    def telemetry_for(self, sim: Any) -> None:
        return None

    def __repr__(self) -> str:
        return "<obs OFF>"


#: The module-level no-op sentinel — the default ambient context.
OBS_OFF = _NullObs()


class ObsContext:
    """An enabled observability context: span recorder + telemetry config.

    Parameters
    ----------
    span_capacity:
        Maximum retained spans (overflow counted in ``spans.dropped``).
    span_reserved:
        Optional per-category span quotas, e.g. ``{"client": 50_000}``
        — reserved categories keep recording at capacity while
        unreserved (disk-phase) spans are the ones shed. See
        :class:`~repro.obs.spans.SpanRecorder`.
    telemetry_interval:
        Simulated seconds between telemetry samples; ``None`` disables
        the sampler (spans only).
    telemetry_capacity:
        Ring-buffer length per telemetry metric.
    """

    enabled = True

    def __init__(self, span_capacity: Optional[int] = 1_000_000,
                 telemetry_interval: Optional[float] = None,
                 telemetry_capacity: Optional[int] = 4096,
                 span_reserved: Optional[dict] = None):
        self.spans = SpanRecorder(capacity=span_capacity,
                                  reserved=span_reserved)
        self.telemetry_interval = telemetry_interval
        self.telemetry_capacity = telemetry_capacity
        #: One Telemetry per simulator seen (a sweep builds many sims).
        self.telemetries: List[Tuple[Any, Telemetry]] = []
        #: Telemetry series shipped back by fabric workers (DESIGN.md
        #: §10): ``{"name", "kind", "samples": [[t, v], ...]}`` dicts,
        #: names already prefixed with their worker tag.
        self.remote_series: List[dict] = []

    def telemetry_for(self, sim: Any) -> Optional[Telemetry]:
        """The (lazily created) sampler bound to ``sim``.

        Returns ``None`` when telemetry is disabled; callers guard on
        that, so spans-only tracing schedules nothing.
        """
        if self.telemetry_interval is None:
            return None
        for known_sim, telemetry in self.telemetries:
            if known_sim is sim:
                return telemetry
        telemetry = Telemetry(sim, interval=self.telemetry_interval,
                              capacity=self.telemetry_capacity)
        self.telemetries.append((sim, telemetry))
        return telemetry

    # -- span plumbing shared by the instrumented layers --------------------
    def begin_child(self, request: Any, name: str, category: str,
                    now: float, args: Optional[dict] = None) -> Span:
        """Open a span under the request's current parent reference.

        Without a reference (an uninstrumented caller drove this layer
        directly) the span roots a fresh trace — the tree is simply
        shorter, never broken.
        """
        ref = request.annotations.get(SPAN_KEY)
        if ref is None:
            return self.spans.begin(name, category, now, args=args)
        return self.spans.begin(name, category, now, trace_id=ref[0],
                                parent_id=ref[1], args=args)

    def link(self, request: Any, span: Span) -> None:
        """Make ``span`` the parent for layers below this one."""
        request.annotations[SPAN_KEY] = (span.trace_id, span.span_id)

    def instant_for(self, request: Any, name: str, category: str,
                    now: float, args: Optional[dict] = None) -> Span:
        """Record a zero-duration marker under the request's parent ref."""
        ref = request.annotations.get(SPAN_KEY)
        if ref is None:
            return self.spans.instant(name, category, now, args=args)
        return self.spans.instant(name, category, now, trace_id=ref[0],
                                  parent_id=ref[1], args=args)

    # -- cross-process shipping (DESIGN.md §10) ------------------------------
    def pack_payload(self) -> dict:
        """This context's spans + telemetry as one JSON-safe payload.

        The fabric worker calls this after running a traced point; the
        payload rides back inside the result message's ``obs`` field
        and is merged into the coordinator-side context with
        :meth:`ingest_payload`.
        """
        series = []
        for _, telemetry in self.telemetries:
            for ts in telemetry.series.values():
                series.append({
                    "name": ts.name,
                    "kind": ts.kind,
                    "samples": [[t, v] for t, v in ts.samples()],
                })
        return {
            "spans": self.spans.pack(),
            "dropped": self.spans.dropped,
            "dropped_by_category": dict(self.spans.dropped_by_category),
            "series": series,
        }

    def ingest_payload(self, payload: dict, worker: int) -> int:
        """Merge one worker's :meth:`pack_payload` into this context.

        Spans are remapped onto this context's id space tagged with
        ``worker``; worker-side capacity drops are carried over into
        the local drop counters (so the merged trace reports total
        shed, not just local shed); telemetry series land in
        :attr:`remote_series` under a ``w{worker}.`` name prefix.
        Returns the number of spans retained.
        """
        kept = self.spans.ingest(payload.get("spans") or [], worker=worker)
        self.spans.dropped += payload.get("dropped", 0)
        for category, shed in (payload.get("dropped_by_category")
                               or {}).items():
            self.spans.dropped_by_category[category] = \
                self.spans.dropped_by_category.get(category, 0) + shed
        for series in payload.get("series") or []:
            self.remote_series.append({
                "name": f"w{worker}.{series['name']}",
                "kind": series.get("kind", "gauge"),
                "samples": [tuple(sample)
                            for sample in series.get("samples", [])],
            })
        return kept

    def __repr__(self) -> str:
        return (f"<ObsContext spans={len(self.spans)} "
                f"telemetry={self.telemetry_interval}>")


#: The ambient context captured by components at construction time.
_ACTIVE: Any = OBS_OFF


def current() -> Any:
    """The ambient observability context (default: :data:`OBS_OFF`)."""
    return _ACTIVE


@contextmanager
def activated(context: ObsContext):
    """Make ``context`` ambient for the duration of the ``with`` block.

    Components built inside the block capture it; components built
    outside stay dark. Nesting restores the previous context on exit.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = context
    try:
        yield context
    finally:
        _ACTIVE = previous
