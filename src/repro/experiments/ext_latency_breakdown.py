"""Extension experiment — response-time breakdown (the paper's §5.5).

The paper observes that "within each stream, request response times can
be divided in two broad categories: requests that require disk I/O and
requests that may be serviced directly from memory", and that with large
read-ahead most requests fall in the fast category. This experiment
quantifies it from the observability subsystem: each point runs traced
(``repro.obs`` spans, no telemetry) and derives every series from the
span-based latency attribution — the memory-served fraction is the share
of client traces whose server phases are staging phases, the
percentiles come from the client root spans, and the per-component
milliseconds are :func:`repro.obs.attribution.attribute`'s exact
decomposition (queue / seek / rotation / transfer / staging / other)
instead of ad-hoc counter accounting.
"""

from __future__ import annotations

from repro import obs
from repro.analysis import ExperimentResult
from repro.core import ServerParams, StreamServer
from repro.disk.specs import WD800JD
from repro.experiments.base import QUICK, ExperimentScale
from repro.experiments.executor import Point, SweepSpec, run_sweep
from repro.node import base_topology, build_node
from repro.obs.attribution import attribute
from repro.sim import Simulator
from repro.sim.stats import sorted_quantile
from repro.units import KiB, MiB, format_size
from repro.workload import ClientFleet, uniform_streams

__all__ = ["run", "sweep", "READ_AHEADS", "STREAM_COUNTS"]

READ_AHEADS = [256 * KiB, 1 * MiB, 8 * MiB]
STREAM_COUNTS = [10, 100]
REQUEST_SIZE = 64 * KiB

SERIES_FRACTION = "memory-served fraction"
SERIES_P50 = "p50 (ms)"
SERIES_P99 = "p99 (ms)"
SERIES_MEAN = "mean (ms)"
#: Per-component mean milliseconds from the span attribution.
SERIES_COMPONENTS = ("queue (ms)", "seek (ms)", "rotation (ms)",
                     "transfer (ms)", "staging (ms)", "other (ms)")


def _point(scale: ExperimentScale, params: dict) -> dict:
    """One (S, R) configuration → all metric series, span-derived."""
    num_streams = params["streams"]
    read_ahead = params["read_ahead"]
    with obs.activated(obs.ObsContext()) as context:
        sim = Simulator()
        node = build_node(sim, base_topology(disk_spec=WD800JD,
                                             seed=num_streams))
        server_params = ServerParams(read_ahead=read_ahead,
                                     dispatch_width=num_streams,
                                     requests_per_residency=1,
                                     memory_budget=max(
                                         num_streams * read_ahead,
                                         8 * MiB))
        server = StreamServer(sim, node, server_params)
        specs = uniform_streams(num_streams, node.disk_ids,
                                node.capacity_bytes,
                                request_size=REQUEST_SIZE)
        fleet = ClientFleet(sim, server, specs)
        fleet.run(duration=scale.duration, warmup=scale.warmup,
                  settle_requests=5)
    # The fleet ran for exactly `duration` after the warm-up/settle
    # boundary, so that boundary is now - duration: attribution over
    # roots completing at or after it reproduces the measured window
    # (completion-based, like the samplers it replaces). The
    # memory-served fraction is over the *whole* run — like the counter
    # accounting it replaces, it includes each stream's startup direct
    # reads, which is what separates the read-ahead configurations.
    boundary = sim.now - scale.duration
    spans = context.spans.spans
    report = attribute(spans, since=boundary)
    whole_run = attribute(spans)
    latencies = sorted(
        root.duration for root in context.spans.roots("client")
        if root.end is not None and root.end >= boundary)
    out = {
        SERIES_FRACTION: whole_run.staged_fraction,
        SERIES_P50: sorted_quantile(latencies, 0.50) * 1e3,
        SERIES_P99: sorted_quantile(latencies, 0.99) * 1e3,
        SERIES_MEAN: report.mean_latency_ms,
    }
    for label in SERIES_COMPONENTS:
        component = label.split(" ")[0]
        out[label] = report.mean_ms(component)
    return out


def sweep() -> SweepSpec:
    """One point per (S, R); each fans into the metric series."""
    points = tuple(
        Point(series=SERIES_FRACTION,
              x=f"S={num_streams} R={format_size(read_ahead)}",
              params={"streams": num_streams, "read_ahead": read_ahead})
        for num_streams in STREAM_COUNTS
        for read_ahead in READ_AHEADS)
    return SweepSpec(
        experiment_id="ext-latency-breakdown",
        title="Response-time breakdown: memory-served fraction and "
              "percentiles",
        x_label="S / R",
        y_label="see series (fraction or msec)",
        notes="extension quantifying the paper's §5.5 two-category "
              "observation; series derived from repro.obs span "
              "attribution",
        point_fn=_point,
        points=points,
        series_order=(SERIES_FRACTION, SERIES_P50, SERIES_P99,
                      SERIES_MEAN) + SERIES_COMPONENTS)


def run(scale: ExperimentScale = QUICK, jobs: int | None = None,
        cache: bool = True) -> ExperimentResult:
    """One series per metric, x = (S, R) configuration label."""
    return run_sweep(sweep(), scale, jobs=jobs, cache=cache)
