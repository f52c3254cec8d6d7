"""Extension experiment — fleet-scale tail latency (ROADMAP item 2).

The paper evaluates at most a few hundred concurrent streams; this
extension pushes the same server to production shape: thousands of
sequential streams spread over a 60-drive fleet, with the dispatch set
acting as the admission edge (at most D streams generate disk traffic;
the rest wait their turn and are served from staged memory). Each point
runs traced and reports aggregate throughput plus client-side
p50/p99/p999 response times derived from ``repro.obs`` client root
spans — the tail-latency SLO view the paper's mean-throughput figures
cannot show.

The span recorder runs with a reserved ``client`` quota
(:class:`repro.obs.SpanRecorder`): at 10k streams a FULL run records
hundreds of thousands of requests, and the quota keeps every client
root (the percentile inputs) while high-volume server/disk phase spans
are the ones shed at capacity.

Only tractable because the server data plane is index-accelerated
(DESIGN.md "data-plane indexes"): with the reference linear scans,
per-event cost grew with the stream count and a 10k-stream simulation
was dominated by bookkeeping loops instead of the modeled disks
(``tests/test_streams_scale.py`` pins events per request flat across
100, 1k and 10k streams).

Percentiles come from a :class:`repro.obs.sketch.QuantileSketch`
(DESIGN.md §10) rather than a sorted raw list: bounded memory at any
request count, and every reported quantile is within
``PERCENTILE_ACCURACY`` relative error of the exact value (pinned by
``tests/test_obs_sketch.py``). ``SLO_SMOKE`` publishes the figure's
shape claims as a machine-checkable spec for
``python -m repro.obs.report slo``.
"""

from __future__ import annotations

from repro import obs
from repro.analysis import ExperimentResult
from repro.core import ServerParams, StreamServer
from repro.disk.specs import WD800JD
from repro.experiments.base import QUICK, ExperimentScale, spread_streams
from repro.experiments.executor import Point, SweepSpec, run_sweep
from repro.node import build_node, large_topology
from repro.obs.sketch import QuantileSketch
from repro.sim import Simulator
from repro.units import KiB, MiB
from repro.workload import ClientFleet

__all__ = ["run", "sweep", "NUM_DISKS", "SLO_SMOKE", "STREAM_COUNTS"]

STREAM_COUNTS = [1000, 4000, 10000]
NUM_DISKS = 60
REQUEST_SIZE = 64 * KiB
READ_AHEAD = 1 * MiB
REQUESTS_PER_RESIDENCY = 4

SERIES_THROUGHPUT = "throughput (MB/s)"
SERIES_P50 = "p50 (ms)"
SERIES_P99 = "p99 (ms)"
SERIES_P999 = "p999 (ms)"
#: Client root spans kept per point; disk-phase spans shed beyond the
#: shared pool. FULL at 10k streams is the sizing case: ~400k requests.
SPAN_CAPACITY = 1_000_000
CLIENT_SPAN_RESERVE = 600_000
#: Guaranteed relative error of the reported percentiles (sketch alpha).
PERCENTILE_ACCURACY = 0.01

#: Machine-checkable gate for a SMOKE-scale run of this figure
#: (``python -m repro.obs.report slo --spec
#: repro.experiments.ext_fleet:SLO_SMOKE --runner-json ... --figure
#: ext-fleet``). Bounds are deliberately loose shape claims — the fleet
#: keeps moving data and the p999 tail stays earthbound even at 10k
#: streams — not regression pins.
SLO_SMOKE = {
    "name": "ext-fleet-smoke",
    "objectives": [
        {"name": "throughput floor", "kind": "series_min",
         "series": SERIES_THROUGHPUT, "min": 1.0},
        {"name": "p99 ceiling at 1k streams", "kind": "series_max",
         "series": SERIES_P99, "max": 2000.0, "x": "1000"},
        {"name": "p999 ceiling", "kind": "series_max",
         "series": SERIES_P999, "max": 60000.0},
    ],
}


def _point(scale: ExperimentScale, params: dict) -> dict:
    """One stream-count cell → throughput + tail-latency series."""
    num_streams = params["streams"]
    with obs.activated(obs.ObsContext(
            span_capacity=SPAN_CAPACITY,
            span_reserved={"client": CLIENT_SPAN_RESERVE})) as context:
        sim = Simulator()
        node = build_node(sim, large_topology(NUM_DISKS,
                                              disk_spec=WD800JD,
                                              seed=num_streams))
        server_params = ServerParams(
            read_ahead=READ_AHEAD,
            dispatch_width=NUM_DISKS,
            requests_per_residency=REQUESTS_PER_RESIDENCY,
            memory_budget=2 * NUM_DISKS * READ_AHEAD
            * REQUESTS_PER_RESIDENCY)
        server = StreamServer(sim, node, server_params)
        specs = spread_streams(num_streams, node.disk_ids,
                               node.capacity_bytes,
                               request_size=REQUEST_SIZE)
        fleet = ClientFleet(sim, server, specs)
        report = fleet.run(duration=scale.duration, warmup=scale.warmup,
                           settle_requests=2)
    boundary = sim.now - scale.duration
    sketch = QuantileSketch(relative_accuracy=PERCENTILE_ACCURACY)
    sketch.extend(
        root.duration for root in context.spans.roots("client")
        if root.end is not None and root.end >= boundary)
    p50, p99, p999 = sketch.quantiles((0.50, 0.99, 0.999))
    return {
        SERIES_THROUGHPUT: report.throughput_mb,
        SERIES_P50: p50 * 1e3,
        SERIES_P99: p99 * 1e3,
        SERIES_P999: p999 * 1e3,
    }


def sweep() -> SweepSpec:
    """One point per stream count; each fans into the metric series."""
    points = tuple(
        Point(series=SERIES_THROUGHPUT, x=num_streams,
              params={"streams": num_streams})
        for num_streams in STREAM_COUNTS)
    return SweepSpec(
        experiment_id="ext-fleet",
        title=f"Fleet-scale tail latency ({NUM_DISKS} disks, "
              f"D={NUM_DISKS} admission edge)",
        x_label="total streams",
        y_label="see series (MB/s or msec)",
        notes="extension: thousands of streams over a striped fleet; "
              "percentiles from repro.obs client root spans under a "
              "reserved span quota",
        point_fn=_point,
        points=points,
        series_order=(SERIES_THROUGHPUT, SERIES_P50, SERIES_P99,
                      SERIES_P999))


def run(scale: ExperimentScale = QUICK, jobs: int | None = None,
        cache: bool = True) -> ExperimentResult:
    """Throughput and p50/p99/p999 vs total stream count."""
    return run_sweep(sweep(), scale, jobs=jobs, cache=cache)
