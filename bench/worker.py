"""Measure one workload in this process; started by ``run.py``.

Usage (``src`` must be importable)::

    python bench/worker.py --workload NAME --seed N --seconds S [--trace]
    python bench/worker.py --setup-probe --workload NAME --seed N
    python bench/worker.py --regen-golden
    python bench/worker.py --check-slices

A run repeats *passes* over the workload's tasks until the next pass
would end past ``--seconds``, with at least :data:`MIN_PASSES` passes.
Imports happen before the window opens, so they are not timed. With
``--trace`` the passes alternate untraced and traced (at least one of
each) so the trace overhead is measured in the same run. The last line
of standard output is one JSON object with the run's metrics and checks.

Every task value is checked: a task fails if it raised, returned NaN or
differs from ``golden.json``. Where ``golden.json`` has no value
(``mixed-rw`` at a seed other than the recorded one) it fails if it
differs from the same task's value in the run's first pass.

``--check-slices`` runs every point of the three figure sweeps once
under the layer trace and compares each workload's slice with its whole
sweep (see ``workloads.FIGURE_SLICES``); it exits 1 if they differ by
more than :data:`SLICE_SHARE_TOL` or :data:`SLICE_RATIO_TOL`.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

import calibration

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

#: Untraced run: fewest passes whose median is reported.
MIN_PASSES = 3
#: Traced run: fewest passes (alternating untraced, traced).
MIN_TRACE_PASSES = 2
#: The seed ``golden.json`` records ``mixed-rw`` at.
GOLDEN_SEED = 0
#: ``--check-slices``: the largest gap it accepts between a slice and its
#: whole sweep, in points of a layer's share of host time (a slice's
#: shares rest on 400-1,200 samples, so about 2 points is noise), and as
#: a share of the sweep's processes per request.
SLICE_SHARE_TOL = 4.0
SLICE_RATIO_TOL = 0.05


def _run_pass(workload, tracer=None) -> dict:
    """Run every task once; per-task values, CPU and wall seconds, and
    CPU seconds scaled by the calibration kernel timed around each task
    (``calibration.py``)."""
    values: Dict[str, Optional[float]] = {}
    errors: Dict[str, str] = {}
    cpu: Dict[str, float] = {}
    wall: Dict[str, float] = {}
    scaled: Dict[str, float] = {}
    started = time.perf_counter()
    with tracer.pass_() if tracer is not None else nullcontext():
        kernel_before = calibration.kernel_seconds()
        for task in workload.tasks:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                values[task.key] = float(task.run())
            except Exception as exc:  # a failed task is a reported result
                values[task.key] = None
                errors[task.key] = f"{type(exc).__name__}: {exc}"
            cpu[task.key] = time.process_time() - cpu0
            wall[task.key] = time.perf_counter() - wall0
            kernel_after = calibration.kernel_seconds()
            scaled[task.key] = calibration.scaled(cpu[task.key],
                                                  kernel_before, kernel_after)
            kernel_before = kernel_after
    return {"values": values, "errors": errors, "cpu": cpu, "wall": wall,
            "scaled": scaled, "wall_s": time.perf_counter() - started,
            "traced": tracer is not None}


def load_golden(path: Path = GOLDEN) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def expected_values(workload, seed: int, golden: dict) -> Optional[dict]:
    """Golden value per task key, or None when none is recorded."""
    from workloads import point_key
    entry = golden.get(workload.name)
    if entry is None:
        return None
    if workload.spec is None:
        return entry["values"] if seed == entry["seed"] else None
    return {point_key(series, x): value
            for series, points in entry["series"].items()
            for x, value in points.items()}


def check_passes(workload, seed: int, passes: List[dict],
                 golden: dict) -> dict:
    """Count failed task runs; collect why each failed."""
    expected = expected_values(workload, seed, golden)
    first = passes[0]["values"]
    failed, reasons = 0, []
    for number, run in enumerate(passes):
        for key, value in run["values"].items():
            if value is None:
                reason = run["errors"][key]
            elif math.isnan(value):
                reason = "NaN"
            elif expected is not None and value != expected.get(key):
                reason = f"{value!r} != golden {expected.get(key)!r}"
            elif expected is None and value != first[key]:
                reason = f"{value!r} != first pass {first[key]!r}"
            else:
                continue
            failed += 1
            reasons.append(f"pass {number} {key}: {reason}")
    return {"attempted": sum(len(run["values"]) for run in passes),
            "failed": failed, "reasons": reasons}


def end_to_end(passes: List[dict]) -> Dict[str, float]:
    """The end-to-end metrics measured in the worker, from untraced
    passes: per-task median scaled CPU seconds, summed and maximised."""
    medians = [statistics.median(p["scaled"][key] for p in passes)
               for key in passes[0]["scaled"]]
    return {
        "cpu_s": sum(medians),
        "point_cpu_s_max": max(medians),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure(workload, seed: int, seconds: float, golden: dict,
            trace: bool = False) -> dict:
    """Run the pass loop for ``seconds``; metrics plus checks."""
    tracer = None
    if trace:
        from layertrace import LayerTrace
        tracer = LayerTrace()
    least = MIN_TRACE_PASSES if trace else MIN_PASSES
    passes: List[dict] = []
    opened = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(_run_pass(workload, tracer if traced else None))
        elapsed = time.perf_counter() - opened
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= least and elapsed + typical > seconds:
            break
    result = check_passes(workload, seed, passes, golden)
    result["passes"] = len(passes)
    untraced = [p for p in passes if not p["traced"]]
    result["metrics"] = end_to_end(untraced)
    result["samples"] = {kind: {key: [p[kind][key] for p in untraced]
                                for key in untraced[0][kind]}
                         for kind in ("cpu", "wall", "scaled")}
    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        traced_cpu = end_to_end(traced_passes)["cpu_s"]
        layer = tracer.metrics(traced_cpu)
        layer["trace.overhead"] = traced_cpu / result["metrics"]["cpu_s"] \
            - 1.0
        result["trace"] = layer
        share_sum = sum(value for name, value in layer.items()
                        if name.endswith(".self_frac"))
        if abs(share_sum - 1.0) > 1e-9:
            result["reasons"].append(f"self_frac sums to {share_sum!r}")
        if any(counts != tracer.counts[0] for counts in tracer.counts):
            result["reasons"].append("call counts differ between passes")
    result["correct"] = result["failed"] == 0 and not result["reasons"]
    return result


def setup_probe(name: str, seed: int, reduced: bool) -> float:
    """Scaled wall seconds to import the workload code and build the
    workload (this process must not have imported ``repro`` yet).

    Wall time, because importing numpy briefly runs extra threads whose
    CPU time would count; the kernel is timed on the same clock.
    """
    clock = time.perf_counter
    kernel_before = calibration.kernel_seconds(clock)
    started = clock()
    import workloads
    workloads.build(name, seed, reduced=reduced)
    wall_s = clock() - started
    return calibration.scaled(wall_s, kernel_before,
                              calibration.kernel_seconds(clock))


def regen_golden() -> dict:
    """Recompute golden values: every point of the three figure sweeps
    (their full SMOKE sweeps, shape-checked) and ``mixed-rw`` at seed 0.
    """
    from repro.analysis.verify import verify_result
    from repro.experiments.executor import run_sweep
    import workloads
    golden: dict = {"scale": "smoke"}
    for name in workloads.FIGURE_SLICES:
        spec = workloads.build(name, 0).spec
        result = run_sweep(spec, workloads.SMOKE, jobs=1, cache=False)
        violations = verify_result(result)
        if violations:
            raise SystemExit(f"{name}: shape violations {violations}")
        golden[name] = {"figure": spec.experiment_id, "series": {
            label: {str(x): y for x, y in zip(series.xs, series.ys)}
            for label, series in zip(result.labels, result.series)}}
        print(f"{name}: {len(spec.points)} points", file=sys.stderr)
    mixed = workloads.build("mixed-rw", GOLDEN_SEED)
    golden["mixed-rw"] = {"seed": GOLDEN_SEED, "values": {
        task.key: task.run() for task in sorted(mixed.tasks,
                                                key=lambda t: t.key)}}
    return golden


def _profile(points: List[dict]) -> Dict[str, float]:
    """Layer shares (per cent of samples) and per-request ratios over
    traced points."""
    from metrics import LAYERS
    samples = sum((point["samples"] for point in points), Counter())
    total = sum(samples.values())
    requests = sum(point["requests"] for point in points)
    profile = {layer: 100.0 * samples[layer] / total for layer in LAYERS}
    profile["cpu_us/req"] = 1e6 * sum(p["cpu_s"] for p in points) / requests
    profile["processes/req"] = sum(p["processes"] for p in points) / requests
    return profile


def check_slices() -> bool:
    """Trace every point of the three figure sweeps once and print each
    slice's profile beside its whole sweep's; True if every slice is
    within the tolerances.

    CPU time per request is printed but not checked: a slice's points
    and the rest of the sweep run minutes apart, and on a shared VM the
    machine's speed changes more than that in minutes. Layer shares are
    ratios within each point, and processes per request is a count, so
    drift does not move them.
    """
    from layertrace import LayerTrace
    from metrics import LAYERS
    import workloads
    ratios = ("cpu_us/req", "processes/req")
    ok = True
    for name, (_module, wanted) in workloads.FIGURE_SLICES.items():
        spec = workloads.build(name, 0).spec
        in_slice = {workloads.point_key(series, x) for series, x in wanted}
        points = []
        for p in spec.points:
            tracer = LayerTrace()
            started = time.process_time()
            with tracer.pass_():
                (p.fn or spec.point_fn)(workloads.SMOKE, dict(p.params))
            cpu_s = time.process_time() - started
            layer = tracer.metrics(cpu_s)
            points.append({"key": workloads.point_key(p.series, p.x),
                           "cpu_s": cpu_s, "samples": tracer.samples,
                           "requests": layer["requests"],
                           "processes": layer["sim.processes"]})
        part = [p for p in points if p["key"] in in_slice]
        full, sliced = _profile(points), _profile(part)
        share_gap = max(abs(sliced[l] - full[l]) for l in LAYERS)
        cpu_gap, process_gap = (abs(sliced[r] / full[r] - 1) for r in ratios)
        fits = share_gap <= SLICE_SHARE_TOL and process_gap <= SLICE_RATIO_TOL
        ok &= fits
        columns = [l for l in LAYERS if max(full[l], sliced[l]) >= 0.05]
        print(f"{name}: {len(points)} points, {len(part)} in the slice")
        print(f"  {'':12}{'cpu_s':>8}" + "".join(f"{c:>11}" for c in columns)
              + "".join(f"{r:>15}" for r in ratios))
        for label, rows, profile in (("whole sweep", points, full),
                                     ("slice", part, sliced)):
            print(f"  {label:12}{sum(p['cpu_s'] for p in rows):8.2f}"
                  + "".join(f"{profile[c]:10.1f}%" for c in columns)
                  + "".join(f"{profile[r]:15.3f}" for r in ratios))
        print(f"  gap: {share_gap:.1f} points of share, {process_gap:.1%} "
              f"in processes per request -> {'ok' if fits else 'TOO FAR'} "
              f"({cpu_gap:.1%} in CPU per request, not checked)", flush=True)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reduced", action="store_true")
    parser.add_argument("--setup-probe", action="store_true")
    parser.add_argument("--regen-golden", action="store_true")
    parser.add_argument("--check-slices", action="store_true")
    args = parser.parse_args(argv)
    if args.check_slices:
        return 0 if check_slices() else 1
    if args.regen_golden:
        golden = regen_golden()
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True)
                          + "\n", encoding="utf-8")
        return 0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(
            args.workload, args.seed, args.reduced)}))
        return 0
    import workloads
    from repro.sim.eventcore import backend_token, resolve_backend
    workload = workloads.build(args.workload, args.seed,
                               reduced=args.reduced)
    result = measure(workload, args.seed, args.seconds, load_golden(),
                     trace=args.trace)
    result["eventcore"] = backend_token(resolve_backend(None))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
