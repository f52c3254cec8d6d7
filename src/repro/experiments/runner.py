"""Command-line experiment runner.

Usage::

    python -m repro.experiments.runner               # all figures, quick
    python -m repro.experiments.runner fig10 fig13   # a subset
    python -m repro.experiments.runner --scale full  # paper-grade runs
    python -m repro.experiments.runner --jobs 8      # 8 worker processes
    python -m repro.experiments.runner --no-cache    # force re-simulation
    python -m repro.experiments.runner --json out.json

Prints each figure's series as an ASCII table; this is what populated
EXPERIMENTS.md. Every experiment is a sweep of independent points
(see :mod:`repro.experiments.executor`): ``--jobs`` fans points across a
process pool (default ``REPRO_JOBS`` or all cores) and completed points
are memoized on disk so re-runs and ``--check`` passes are near-instant.
``--json`` writes the machine-readable per-figure series and wall
times.

``--trace-out PATH`` runs the figures under an active ``repro.obs``
context and writes a Chrome trace (open in Perfetto), a JSONL event log
(``PATH.jsonl``, input of ``python -m repro.obs.report``), and — when
``--telemetry SECS`` enables the time-series sampler — a Prometheus
text dump (``PATH.prom``). Tracing forces ``--jobs 1`` and disables the
sweep cache: spans live in this process, and a cache hit would skip the
simulation that produces them.

``--workers SPEC`` dispatches sweep points over the distributed fabric
(:mod:`repro.experiments.fabric`) instead of the local process pool: an
integer spawns that many local worker processes, a comma-separated
``host:port`` list dials long-lived remote workers. ``--fabric-trace
PATH`` additionally writes the coordinator's per-worker telemetry
(queue depth, hedges, cache hits) as a JSONL log that ``python -m
repro.obs.report`` renders.

``--workers`` composes with ``--trace-out`` (DESIGN.md §10): each
worker runs its points under a worker-local obs context and ships
spans + telemetry back with its results; the coordinator merges them
into one worker-tagged Chrome trace, and ``PATH.prom`` becomes the
fleet-wide Prometheus dump (worker telemetry plus the fabric's
per-worker cache/dispatch counters).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.analysis import format_table
from repro.experiments import EXPERIMENTS, EXTENSIONS, FULL, QUICK, SMOKE
from repro.experiments.executor import resolve_jobs

_SCALES = {"smoke": SMOKE, "quick": QUICK, "full": FULL}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    catalogue = {**EXPERIMENTS, **EXTENSIONS}
    parser = argparse.ArgumentParser(
        description="Reproduce the paper's figures on the simulator.")
    parser.add_argument("figures", nargs="*",
                        help=f"figure ids (default: the paper figures "
                             f"{sorted(EXPERIMENTS)}; extensions: "
                             f"{sorted(EXTENSIONS)})")
    parser.add_argument("--scale", choices=sorted(_SCALES),
                        default="quick",
                        help="simulated seconds per measured point")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for sweep points "
                             "(default: REPRO_JOBS or all cores; "
                             "1 = serial in-process)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the on-disk sweep result cache "
                             "(~/.cache/repro-sweeps) and re-simulate")
    parser.add_argument("--json", metavar="PATH", dest="json_path",
                        help="also write per-figure series and wall "
                             "times as JSON ('-' for stdout)")
    parser.add_argument("--check", action="store_true",
                        help="verify each figure's shape against the "
                             "paper's claims (exit 1 on violations)")
    parser.add_argument("--trace-out", metavar="PATH", dest="trace_out",
                        help="run traced (repro.obs) and write a Chrome "
                             "trace JSON to PATH plus a JSONL event log "
                             "to PATH.jsonl (forces --jobs 1, no cache)")
    parser.add_argument("--telemetry", type=float, default=None,
                        metavar="SECS",
                        help="with --trace-out: sample telemetry every "
                             "SECS simulated seconds and also write a "
                             "Prometheus text dump to PATH.prom")
    parser.add_argument("--workers", metavar="SPEC", dest="workers",
                        help="run sweep points on the distributed "
                             "fabric: an integer spawns that many local "
                             "worker processes, 'host:port,...' dials "
                             "remote workers started with 'python -m "
                             "repro.experiments.fabric worker --listen' "
                             "(default: REPRO_FABRIC if set)")
    parser.add_argument("--fabric-trace", metavar="PATH",
                        dest="fabric_trace",
                        help="with --workers: write per-worker fabric "
                             "telemetry (queue depth, hedges, cache "
                             "hits) as a repro.obs JSONL log to PATH "
                             "(read with python -m repro.obs.report)")
    arguments = parser.parse_args(argv)
    if arguments.telemetry is not None and not arguments.trace_out:
        parser.error("--telemetry requires --trace-out")
    if arguments.fabric_trace and not arguments.workers:
        parser.error("--fabric-trace requires --workers")

    requested = arguments.figures or sorted(EXPERIMENTS)
    unknown = [f for f in requested if f not in catalogue]
    if unknown:
        parser.error(f"unknown figure ids: {unknown}; "
                     f"choose from {sorted(catalogue)}")
    scale = _SCALES[arguments.scale]
    jobs = resolve_jobs(arguments.jobs)
    use_cache = not arguments.no_cache
    obs_context = None
    fabric = None
    if arguments.trace_out:
        from repro import obs
        from repro.experiments import executor
        obs_context = obs.ObsContext(
            telemetry_interval=arguments.telemetry)
        jobs = 1          # local fallbacks stay in this traced process
        use_cache = False  # a cache hit would skip the traced run
        if not arguments.workers:
            # A REPRO_FABRIC default would move points off-process
            # untraced; with --workers the fabric *is* the traced path
            # (workers ship their spans back, see DESIGN.md §10).
            executor.set_default_fabric(executor.FABRIC_OFF)
    if arguments.workers:
        from repro.experiments import executor
        from repro.experiments.fabric import Fabric, FabricError
        fabric = Fabric(arguments.workers)
        try:
            fabric.start()
        except FabricError as exc:
            print(f"error: fabric start failed: {exc}", file=sys.stderr)
            return 2
        executor.set_default_fabric(fabric)
    failures = 0
    report = {"scale": scale.name, "jobs": jobs,
              "cache": use_cache, "figures": {}}
    total_started = time.time()
    for figure_id in requested:
        started = time.time()
        if obs_context is not None:
            from repro import obs
            with obs.activated(obs_context):
                result = catalogue[figure_id](scale, jobs=jobs,
                                              cache=use_cache)
        else:
            result = catalogue[figure_id](scale, jobs=jobs,
                                          cache=use_cache)
        wall = time.time() - started
        print(format_table(result))
        print(f"[{figure_id}: {wall:.1f}s wall, "
              f"scale={scale.name}, jobs={jobs}]")
        report["figures"][figure_id] = {
            "wall_s": wall,
            "title": result.title,
            "x_label": result.x_label,
            "y_label": result.y_label,
            "series": {label: dict(zip(series.xs, series.ys))
                       for label, series in
                       zip(result.labels, result.series)},
        }
        if arguments.check:
            from repro.analysis.verify import verify_result
            violations = verify_result(result)
            if violations:
                failures += 1
                for violation in violations:
                    print(f"  SHAPE VIOLATION: {violation}")
            else:
                print(f"  shape check: OK")
        print()
    report["total_wall_s"] = time.time() - total_started

    fabric_metrics = None
    if fabric is not None:
        stats = fabric.stats()
        report["fabric"] = stats
        # Snapshot before close(): per-worker rows need live workers.
        fabric_metrics = fabric.prometheus_metrics()
        if arguments.fabric_trace:
            fabric.export_telemetry(
                arguments.fabric_trace,
                meta={"figures": requested, "scale": scale.name})
            print(f"[fabric trace -> {arguments.fabric_trace}]")
        print(f"[fabric: {stats['workers']} workers, "
              f"{stats['completed']} computed, "
              f"{stats['cache_local_hits'] + stats['cache_peer_hits']} "
              f"cache hits, {stats['hedges_issued']} hedges "
              f"({stats['hedges_won']} won), "
              f"{stats['requeued']} requeued]")
        fabric.close()
        executor.set_default_fabric(None)

    if obs_context is not None:
        from repro.obs.export import (export_chrome_trace, export_jsonl,
                                      export_prometheus)
        last = max((span.end if span.end is not None else span.start
                    for span in obs_context.spans.spans), default=0.0)
        truncated = obs_context.spans.close_open(last)
        meta = {"figures": requested, "scale": scale.name,
                "truncated": truncated}
        if fabric_metrics is not None:
            meta["fabric"] = arguments.workers
        export_chrome_trace(obs_context, arguments.trace_out, meta=meta)
        export_jsonl(obs_context, arguments.trace_out + ".jsonl",
                     meta=meta)
        written = [arguments.trace_out, arguments.trace_out + ".jsonl"]
        if arguments.telemetry is not None or fabric_metrics is not None:
            # The fleet-wide Prometheus dump: local + worker-shipped
            # telemetry plus the fabric's per-worker counters/EWMAs.
            export_prometheus(obs_context, arguments.trace_out + ".prom",
                              extra=fabric_metrics)
            written.append(arguments.trace_out + ".prom")
        print(f"[trace: {len(obs_context.spans.spans)} spans "
              f"({obs_context.spans.dropped} dropped) -> "
              f"{', '.join(written)}]")

    if arguments.json_path:
        payload = json.dumps(report, indent=2, sort_keys=True)
        if arguments.json_path == "-":
            print(payload)
        else:
            with open(arguments.json_path, "w", encoding="utf-8") as out:
                out.write(payload + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
