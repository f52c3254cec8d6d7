"""Record the perf trajectory: kernel + domain rates, per-figure wall time.

Usage::

    python -m repro.experiments.bench                    # kernel + domain
    python -m repro.experiments.bench --figures fig06    # + one figure
    python -m repro.experiments.bench --all-figures --scale smoke
    python -m repro.experiments.bench --baseline BENCH_engine.json
    python -m repro.experiments.bench --check             # CI regression gate

Writes ``BENCH_engine.json`` (next to the repo root by default) with two
benchmark tiers:

* **kernel** — the simulator's events/sec micro-workloads
  (:mod:`repro.sim.microbench`), measured on the active event-core
  backend (recorded in the report's ``eventcore`` field); a
  ``kernel_backends`` section adds paired same-machine A/B rates for
  every available backend (heapq / compiled), interleaved
  round-robin so machine drift taxes each backend equally.
* **domain** — the per-request storage path's ops/sec
  (:mod:`repro.experiments.domainbench`): geometry mapping, segmented
  cache churn, the drive service loop, and an end-to-end StreamServer
  smoke run.
* **sweep** — the distributed sweep fabric's dispatch rate
  (:mod:`repro.experiments.fabricbench`): points/s through
  ``Fabric.run_tasks`` on a cache-cold, wait-dominated sweep at 1, 4
  and 8 local workers, gated per worker count (``sweep/<name>@wN``).

``--baseline PATH`` copies the kernel/domain rates recorded in an
existing trajectory file into the new report's ``baseline`` section, so
a PR's before/after is readable from one file. ``--check [PATH]``
re-measures both tiers and exits non-zero if any workload's rate fell
more than its tolerance below the recorded value — the CI regression
gate. The gate is noise-hardened: a workload that looks regressed on
the first measurement is re-measured up to ``--remeasure`` times
(default 3) and judged on the **median** of all its samples, so a
one-off scheduler hiccup on a busy CI box doesn't fail the build while
a genuine persistent slowdown still does. Tolerance is ``--tolerance``
(default 20%) globally, overridable per workload by a ``"tolerance"``
field on the baseline entry (e.g. a noisy allocation-heavy workload can
carry ``"tolerance": 0.35`` without loosening the gate for the rest).
``--check`` also enforces :data:`FLATNESS_GATES` — machine-independent
relative-rate invariants between two workloads of the *same*
measurement pass, e.g. the server data plane at 10k resident streams
staying within 2x of its 100-stream per-request cost.

Figure timings honour the sweep executor's ``--jobs`` and cache
controls; pass ``--no-cache`` for honest cold-run wall times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from typing import List, Optional

from repro.experiments import EXPERIMENTS, EXTENSIONS, FULL, QUICK, SMOKE
from repro.experiments.domainbench import (DOMAIN_TOLERANCES,
                                           DOMAIN_WORKLOADS,
                                           DRIVE_TOLERANCES,
                                           DRIVE_WORKLOADS, ops_per_second)
from repro.experiments.executor import resolve_jobs
from repro.experiments.fabricbench import measure_sweep
from repro.sim.eventcore import (ENV_VAR as _EVENTCORE_ENV,
                                 available_backends, backend_token,
                                 resolve_backend)
from repro.sim.microbench import WORKLOADS, events_per_second

_SCALES = {"smoke": SMOKE, "quick": QUICK, "full": FULL}

DEFAULT_OUTPUT = "BENCH_engine.json"

#: Allowed fractional slowdown before ``--check`` fails (20%).
DEFAULT_TOLERANCE = 0.20

#: Total measurements (median-of-N) for workloads that look regressed
#: on the first pass of ``--check``.
DEFAULT_REMEASURE = 3


#: Kernel micro-workloads swing far more than the domain tier on busy
#: machines (CPU-frequency drift alone is worth ~30%), so the per-backend
#: A/B entries carry their own looser --check tolerance.
KERNEL_AB_TOLERANCE = 0.35

#: Relative-rate invariants ``--check`` enforces between two *measured*
#: workloads of the same run: ``(slow, fast, max_ratio)`` fails when
#: rate(fast) / rate(slow) exceeds ``max_ratio``. Unlike the per-workload
#: regression gate (measured vs recorded, machine-speed sensitive) these
#: compare two same-machine measurements, so the bound is absolute: the
#: server data plane at 10k resident streams must stay within 2x of the
#: per-request cost at 100 streams — the O(1)/O(log n) hot-path
#: guarantee of DESIGN.md "data-plane indexes". Gates whose workloads
#: are absent from the measurement (older baselines) are skipped.
FLATNESS_GATES = [
    ("domain/streams_scale_10k", "domain/streams_scale_100", 2.0),
    # Slow tier (bench --slow): the same flatness relation over real
    # DiskDrive mechanics instead of the zero-cost stub.
    ("drive/streams_scale_drive_10k", "drive/streams_scale_drive_100",
     2.0),
]


def active_eventcore() -> str:
    """The event-core backend token the current environment selects."""
    return backend_token(resolve_backend(None))


def measure_kernel(repeats: int = 3) -> dict:
    """events/sec for every kernel micro-workload (best of ``repeats``)."""
    kernel = {}
    for name, workload in WORKLOADS.items():
        rate, events = events_per_second(workload, repeats=repeats)
        kernel[name] = {"events_per_sec": round(rate, 1),
                        "events_per_run": events}
    return kernel


def measure_kernel_backends(repeats: int = 2, rounds: int = 3) -> dict:
    """Paired same-machine A/B: events/sec per event-core backend.

    Backends are interleaved round-robin (compiled, heapq, compiled,
    ...) so CPU-frequency drift during the run taxes every
    backend equally; each entry keeps the best rate seen across all
    ``rounds`` (with ``repeats`` best-of inside each round). The
    backend is forced through the same ``REPRO_EVENTCORE`` environment
    override users have, restoring the caller's value afterwards.
    """
    saved = os.environ.get(_EVENTCORE_ENV)
    results: dict = {backend: {} for backend in available_backends()}
    try:
        for _ in range(rounds):
            for backend, rates in results.items():
                os.environ[_EVENTCORE_ENV] = backend
                for name, workload in WORKLOADS.items():
                    rate, events = events_per_second(workload,
                                                     repeats=repeats)
                    entry = rates.get(name)
                    if entry is None or rate > entry["events_per_sec"]:
                        rates[name] = {
                            "events_per_sec": round(rate, 1),
                            "events_per_run": events,
                            "tolerance": KERNEL_AB_TOLERANCE,
                        }
    finally:
        if saved is None:
            os.environ.pop(_EVENTCORE_ENV, None)
        else:
            os.environ[_EVENTCORE_ENV] = saved
    return results


def measure_domain(repeats: int = 3) -> dict:
    """ops/sec for every domain micro-workload (best of ``repeats``).

    Workloads with an entry in
    :data:`~repro.experiments.domainbench.DOMAIN_TOLERANCES` carry it
    into the recorded baseline, so re-recording ``BENCH_engine.json``
    never silently drops a per-workload ``--check`` tolerance.
    """
    domain = {}
    for name, workload in DOMAIN_WORKLOADS.items():
        rate, ops = ops_per_second(workload, repeats=repeats)
        domain[name] = {"ops_per_sec": round(rate, 1),
                        "ops_per_run": ops}
        if name in DOMAIN_TOLERANCES:
            domain[name]["tolerance"] = DOMAIN_TOLERANCES[name]
    return domain


def measure_drive(repeats: int = 3) -> dict:
    """ops/sec for the slow real-drive tier (``bench --slow`` only)."""
    drive = {}
    for name, workload in DRIVE_WORKLOADS.items():
        rate, ops = ops_per_second(workload, repeats=repeats)
        drive[name] = {"ops_per_sec": round(rate, 1),
                       "ops_per_run": ops}
        if name in DRIVE_TOLERANCES:
            drive[name]["tolerance"] = DRIVE_TOLERANCES[name]
    return drive


def measure_figures(figure_ids: List[str], scale, jobs: int,
                    cache: bool) -> dict:
    """Wall time + series per figure via the sweep executor."""
    catalogue = {**EXPERIMENTS, **EXTENSIONS}
    figures = {}
    for figure_id in figure_ids:
        started = time.time()
        result = catalogue[figure_id](scale, jobs=jobs, cache=cache)
        figures[figure_id] = {
            "wall_s": round(time.time() - started, 3),
            "series": {label: dict(zip(series.xs, series.ys))
                       for label, series in
                       zip(result.labels, result.series)},
        }
    return figures


def _backend_mismatch(report: dict) -> bool:
    """True when the active event core differs from the recording one.

    Only meaningful when the file carries the per-backend A/B section
    for the active backend — otherwise there is nothing better to gate
    against and the top-level numbers are used as-is.
    """
    backend = resolve_backend(None)
    token = backend_token(backend)
    return (report.get("eventcore", token) != token
            and backend in report.get("kernel_backends", {}))


def _recorded_kernel(report: dict) -> dict:
    """The kernel-tier baseline entries that match the *active* backend.

    The top-level ``kernel`` section reflects whatever backend was
    active when the file was written (normally the compiled core). When
    the file also carries the per-backend A/B section and the current
    environment selects a different backend — a forced
    ``REPRO_EVENTCORE`` CI leg, or a no-compiler install running on the
    heapq fallback — comparing against the recording backend's rates
    would be meaningless, so ``--check`` gates against the matching
    ``kernel_backends`` entries instead.
    """
    if _backend_mismatch(report):
        return report["kernel_backends"][resolve_backend(None)]
    return report.get("kernel", {})


def _recorded_rates(report: dict, slow: bool = False) -> dict:
    """Flatten a trajectory file into {tier/workload: rate}.

    On a backend mismatch the domain tier is omitted: its
    simulator-driven workloads (drive service, server smoke, tracing
    overhead) were recorded on the recording backend, and there is no
    per-backend domain baseline to gate against. The forced-backend CI
    legs gate the kernel tier; the default leg gates everything.

    The slow real-drive tier is included only with ``slow`` — fast
    ``--check`` runs must filter it from *both* sides of the
    comparison, or a nightly-recorded baseline would fail every fast
    check with MISSING entries.
    """
    rates = {}
    for name, entry in _recorded_kernel(report).items():
        rates[f"kernel/{name}"] = entry["events_per_sec"]
    if not _backend_mismatch(report):
        for name, entry in report.get("domain", {}).items():
            rates[f"domain/{name}"] = entry["ops_per_sec"]
        if slow:
            for name, entry in report.get("drive", {}).items():
                rates[f"drive/{name}"] = entry["ops_per_sec"]
        for name, entry in report.get("sweep", {}).items():
            for workers, rate in entry.get("points_per_sec", {}).items():
                rates[f"sweep/{name}@w{workers}"] = rate
    return rates


def _recorded_tolerances(report: dict, default: float,
                         slow: bool = False) -> dict:
    """Per-workload tolerance overrides from the baseline file.

    A baseline entry may carry a ``"tolerance"`` field (fractional
    slowdown) that overrides the global ``--tolerance`` for that one
    workload — the escape hatch for intrinsically noisy workloads.
    """
    tolerances = {}
    for name, entry in _recorded_kernel(report).items():
        tolerances[f"kernel/{name}"] = float(
            entry.get("tolerance", default))
    if not _backend_mismatch(report):
        for name, entry in report.get("domain", {}).items():
            tolerances[f"domain/{name}"] = float(
                entry.get("tolerance", default))
        if slow:
            for name, entry in report.get("drive", {}).items():
                tolerances[f"drive/{name}"] = float(
                    entry.get("tolerance", default))
        for name, entry in report.get("sweep", {}).items():
            allowed = float(entry.get("tolerance", default))
            for workers in entry.get("points_per_sec", {}):
                tolerances[f"sweep/{name}@w{workers}"] = allowed
    return tolerances


def _measure_all(repeats: int, sweep: bool = True,
                 slow: bool = False) -> dict:
    """One full measurement pass over all tiers.

    ``sweep=False`` skips the fabric fan-out measurement (it spawns 13
    worker processes) when the baseline has no sweep entries to gate;
    ``slow`` adds the real-drive tier (nightly lane only).
    """
    report = {"kernel": measure_kernel(repeats=repeats),
              "domain": measure_domain(repeats=repeats)}
    if slow:
        report["drive"] = measure_drive(repeats=repeats)
    if sweep:
        report["sweep"] = measure_sweep()
    return _recorded_rates(report, slow=slow)


def _evaluate(baseline: dict, current: dict, tolerances: dict) -> tuple:
    """(rows, regressed names, missing count) for one measurement set."""
    rows = []
    regressed = []
    missing = 0
    for name, recorded_rate in sorted(baseline.items()):
        measured = current.get(name)
        if measured is None:
            # Workload renamed/removed: surface loudly rather than skip.
            rows.append(f"{name:28s} recorded={recorded_rate:12,.0f} "
                        f"measured=         n/a (   n/a) MISSING")
            missing += 1
            continue
        allowed = tolerances[name]
        ratio = measured / recorded_rate if recorded_rate else float("inf")
        status = "ok" if ratio >= 1.0 - allowed else "REGRESSED"
        rows.append(f"{name:28s} recorded={recorded_rate:12,.0f} "
                    f"measured={measured:12,.0f} ({ratio:6.2%}) {status}")
        if status != "ok":
            regressed.append(name)
    return rows, regressed, missing


def _evaluate_flatness(current: dict) -> tuple:
    """(rows, failed gate names) for the relative-rate invariants."""
    rows = []
    failed = []
    for slow, fast, max_ratio in FLATNESS_GATES:
        slow_rate = current.get(slow)
        fast_rate = current.get(fast)
        if slow_rate is None or fast_rate is None:
            continue  # older baseline without the paired workloads
        ratio = fast_rate / slow_rate if slow_rate else float("inf")
        status = "ok" if ratio <= max_ratio else "NOT FLAT"
        name = f"flat {slow} vs {fast}"
        rows.append(f"{name:58s} ratio={ratio:5.2f}x "
                    f"(max {max_ratio:.1f}x) {status}")
        if status != "ok":
            failed.append(name)
    return rows, failed


def run_check(path: str, tolerance: float, repeats: int,
              remeasure: int = DEFAULT_REMEASURE,
              slow: bool = False) -> int:
    """Re-measure both tiers against ``path``; 0 = no regression.

    Noise hardening: workloads that look regressed on the first
    measurement are re-measured until each has ``remeasure`` samples
    and judged on the **median**, so transient machine noise passes
    while persistent slowdowns still fail.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            recorded = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"bench --check: cannot read {path}: {exc}",
              file=sys.stderr)
        return 2
    baseline = _recorded_rates(recorded, slow=slow)
    if not baseline:
        print(f"bench --check: no recorded workloads in {path}",
              file=sys.stderr)
        return 2
    active = active_eventcore()
    recorded_core = recorded.get("eventcore", "unrecorded")
    print(f"bench --check: event core backend = {active} "
          f"(recorded with {recorded_core})")
    if _backend_mismatch(recorded):
        print("bench --check: gating kernel tier against the matching "
              "kernel_backends baseline; domain tier skipped (recorded "
              f"with {recorded_core})")
    tolerances = _recorded_tolerances(recorded, tolerance, slow=slow)
    need_sweep = any(name.startswith("sweep/") for name in baseline)
    samples = {name: [rate] for name, rate in
               _measure_all(repeats, sweep=need_sweep,
                            slow=slow).items()}
    current = {name: rates[0] for name, rates in samples.items()}
    rows, regressed_names, missing = _evaluate(baseline, current,
                                               tolerances)
    flat_rows, flat_failed = _evaluate_flatness(current)
    if (regressed_names or flat_failed) and remeasure > 1:
        print(f"bench --check: {len(regressed_names) + len(flat_failed)} "
              f"workload(s)/gate(s) look regressed; re-measuring "
              f"(median of {remeasure})")
        for _ in range(remeasure - 1):
            for name, rate in _measure_all(repeats, sweep=need_sweep,
                                           slow=slow).items():
                samples.setdefault(name, []).append(rate)
        current = {name: statistics.median(rates)
                   for name, rates in samples.items()}
        rows, regressed_names, missing = _evaluate(baseline, current,
                                                   tolerances)
        flat_rows, flat_failed = _evaluate_flatness(current)
    rows += flat_rows
    failures = len(regressed_names) + missing + len(flat_failed)
    for row in rows:
        print(row)
    if failures:
        # Replay the complete ratio table on stderr: CI log scrapers
        # that only keep the failing stream still get the full
        # per-bench picture, not just the verdict.
        print(f"bench --check: {failures} workload(s) regressed beyond "
              f"tolerance (default {tolerance:.0%}) vs {path}:",
              file=sys.stderr)
        for row in rows:
            print(f"  {row}", file=sys.stderr)
        return 1
    print(f"bench --check: all {len(baseline)} workloads within "
          f"tolerance (default {tolerance:.0%}) of {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    catalogue = {**EXPERIMENTS, **EXTENSIONS}
    parser = argparse.ArgumentParser(
        description="Emit BENCH_engine.json: kernel events/sec, domain "
                    "ops/sec and per-figure wall times.")
    parser.add_argument("--figures", nargs="*", default=[],
                        metavar="FIG",
                        help=f"figure ids to time "
                             f"(from {sorted(catalogue)})")
    parser.add_argument("--all-figures", action="store_true",
                        help="time every paper figure")
    parser.add_argument("--scale", choices=sorted(_SCALES),
                        default="smoke",
                        help="scale for figure timings (default smoke)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: REPRO_JOBS or "
                             "all cores)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the sweep cache for honest cold "
                             "wall times")
    parser.add_argument("--repeats", type=int, default=3,
                        help="micro-workload repeats (best-of)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="existing trajectory file whose kernel/"
                             "domain rates are copied into the new "
                             "report's 'baseline' section")
    parser.add_argument("--check", nargs="?", const=DEFAULT_OUTPUT,
                        default=None, metavar="PATH",
                        help=f"re-measure and fail if any workload "
                             f"regressed more than --tolerance vs PATH "
                             f"(default {DEFAULT_OUTPUT}); writes "
                             f"nothing")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE, metavar="FRAC",
                        help="allowed fractional slowdown for --check "
                             f"(default {DEFAULT_TOLERANCE}; a "
                             f"baseline entry's 'tolerance' field "
                             f"overrides per workload)")
    parser.add_argument("--remeasure", type=int,
                        default=DEFAULT_REMEASURE, metavar="N",
                        help="median-of-N re-measure for workloads that "
                             "look regressed on the first --check pass "
                             f"(default {DEFAULT_REMEASURE}; 1 disables)")
    parser.add_argument("--slow", action="store_true",
                        help="include the real-drive scale tier "
                             "(nightly lane): measured and recorded "
                             "under 'drive', and gated by --check only "
                             "when this flag is present")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        metavar="PATH",
                        help=f"output path (default {DEFAULT_OUTPUT}; "
                             f"'-' for stdout)")
    arguments = parser.parse_args(argv)

    if arguments.check is not None:
        if arguments.remeasure < 1:
            parser.error("--remeasure must be >= 1")
        return run_check(arguments.check, arguments.tolerance,
                         arguments.repeats,
                         remeasure=arguments.remeasure,
                         slow=arguments.slow)

    figure_ids = list(arguments.figures)
    if arguments.all_figures:
        figure_ids = sorted(EXPERIMENTS)
    unknown = [f for f in figure_ids if f not in catalogue]
    if unknown:
        parser.error(f"unknown figure ids: {unknown}")

    jobs = resolve_jobs(arguments.jobs)
    scale = _SCALES[arguments.scale]
    report = {
        "schema": "repro-bench-engine/4",
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "eventcore": active_eventcore(),
        "kernel": measure_kernel(repeats=arguments.repeats),
        "kernel_backends": measure_kernel_backends(),
        "domain": measure_domain(repeats=arguments.repeats),
        "sweep": measure_sweep(),
    }
    if arguments.slow:
        report["drive"] = measure_drive(repeats=arguments.repeats)
    if arguments.baseline:
        with open(arguments.baseline, "r", encoding="utf-8") as handle:
            previous = json.load(handle)
        report["baseline"] = {
            "recorded_at": previous.get("recorded_at"),
            "kernel": previous.get("kernel", {}),
            "domain": previous.get("domain", {}),
        }
    if figure_ids:
        report["figure_scale"] = scale.name
        report["jobs"] = jobs
        report["cache"] = not arguments.no_cache
        report["figures"] = measure_figures(
            figure_ids, scale, jobs, cache=not arguments.no_cache)

    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if arguments.output == "-":
        sys.stdout.write(payload)
    else:
        with open(arguments.output, "w", encoding="utf-8") as out:
            out.write(payload)
        summary = ", ".join(
            f"{name}={entry['events_per_sec']:,.0f} ev/s"
            for name, entry in report["kernel"].items())
        domain_summary = ", ".join(
            f"{name}={entry['ops_per_sec']:,.0f} op/s"
            for name, entry in report["domain"].items())
        sweep_summary = ", ".join(
            f"{name}: " + " ".join(
                f"w{workers}={rate:,.1f} pt/s" for workers, rate in
                sorted(entry["points_per_sec"].items(),
                       key=lambda item: int(item[0])))
            for name, entry in report["sweep"].items())
        print(f"wrote {arguments.output} (event core "
              f"{report['eventcore']}): {summary}; {domain_summary}; "
              f"{sweep_summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
