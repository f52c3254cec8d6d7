"""End-to-end benchmark of the simulator: cold figure-point host time.

Usage, from the repository root::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--repeats 5] [--trace 1] [--out R.json] [--record]
    python3 bench/run.py --compare BASE.json HEAD.json
    python3 bench/run.py --regen-golden
    python3 bench/run.py --check-slices

With ``--workload`` it measures one workload (see ``workloads.py``) and
prints ``workload metric value unit`` lines, then, as the last line, one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The
metrics are the end-to-end ones with ``--trace 0`` and the per-layer
ones with ``--trace 1`` (see ``metrics.py``).

Without ``--workload`` it runs every workload ``--repeats`` times,
interleaved (A B C D, A B C D, ...) so machine drift hits all of them
alike, plus one traced run each with ``--trace 1``. ``--out`` writes
every run to a JSON file that ``--compare`` reads; ``--record`` appends
the medians to ``bench/history.jsonl``.

``--check-slices`` traces every point of the three figure sweeps and
checks that each figure workload's slice has its sweep's per-layer
profile (``worker.py``); ``--regen-golden`` rewrites ``golden.json``.

Each measurement runs in a fresh ``bench/worker.py`` process. Set-up
first builds the compiled event core in place when it is missing
(``setup.py build_ext --inplace``; without a compiler the pure-Python
core runs) and every result names the core that ran: results from
different cores are never compared.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("direct-collapse", "staged-dispatch", "host-stack", "mixed-rw")
HISTORY = HERE / "history.jsonl"

#: Fresh interpreters timed for ``setup_s`` (after one untimed one that
#: writes the bytecode caches).
SETUP_PROBES = 7
#: Kill a worker that has not finished by then (a whole run must end
#: within 180 s).
WORKER_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 600


class BenchError(RuntimeError):
    """The benchmark could not run here; no result is printed."""


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def _python(args: List[str], timeout: float) -> dict:
    """Run ``worker.py`` with ``args``; its last stdout line as JSON."""
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=_env(), stdout=subprocess.PIPE, timeout=timeout,
            text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} ran past {timeout} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited {done.returncode}")
    return json.loads(lines[-1])


def set_up() -> None:
    """Check the checkout; build the compiled event core if missing."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {ROOT / 'src'}")
    if glob.glob(str(ROOT / "src" / "repro" / "sim" / "_eventcore*.so")):
        return
    try:
        subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                       cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S, check=True)
    except (subprocess.SubprocessError, OSError) as exc:
        raise BenchError(f"building the event core failed: {exc}") from exc


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            reduced: bool = False) -> dict:
    """Measure one workload: the result line's fields plus details."""
    started = time.perf_counter()
    common = ["--workload", workload, "--seed", str(seed)]
    if reduced:
        common.append("--reduced")
    setup = None
    if not trace:
        probes = [_python(common + ["--setup-probe"], 60)["setup_s"]
                  for _ in range(SETUP_PROBES + 1)][1:]
        setup = statistics.median(probes)
    measured = _python(common + ["--seconds", str(seconds)]
                       + (["--trace"] if trace else []), WORKER_TIMEOUT_S)
    if trace:
        values = measured["trace"]
        table = PER_LAYER
    else:
        values = dict(measured["metrics"], setup_s=setup)
        table = END_TO_END
    metrics = {name: {"value": values[name], "unit": table[name][0]}
               for name in table}
    return {"correct": measured["correct"],
            "attempted": measured["attempted"],
            "failed": measured["failed"], "metrics": metrics,
            "eventcore": measured["eventcore"], "seed": seed,
            "passes": measured["passes"], "reasons": measured["reasons"],
            "samples": measured["samples"],
            "run_s": time.perf_counter() - started}


def _print_metrics(workload: str, metrics: dict) -> None:
    for name, entry in metrics.items():
        print(f"{workload} {name} {entry['value']:.6g} {entry['unit']}")


def _one_workload(args) -> int:
    result = run_one(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.reduced)
    print(f"[{args.workload}: eventcore {result['eventcore']}, "
          f"{result['passes']} passes, {result['failed']}/"
          f"{result['attempted']} task runs failed]", file=sys.stderr)
    for reason in result["reasons"]:
        print(f"  {reason}", file=sys.stderr)
    _print_metrics(args.workload, result["metrics"])
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


# -- all workloads ---------------------------------------------------------

def _median_metrics(runs: List[dict]) -> Dict[str, float]:
    return {name: statistics.median(run["metrics"][name]["value"]
                                    for run in runs)
            for name in runs[0]["metrics"]}


def _git(*args: str) -> str:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL,
                              check=True).stdout.strip()
    except (subprocess.SubprocessError, OSError):
        return ""


def _suite(args) -> int:
    report = {"seconds": args.seconds, "repeats": args.repeats,
              "reduced": args.reduced, "workloads": {}}
    runs: Dict[str, List[dict]] = {name: [] for name in WORKLOADS}
    for repeat in range(args.repeats):
        for name in WORKLOADS:
            result = run_one(name, args.seed + repeat, args.seconds, False,
                             args.reduced)
            runs[name].append(result)
            print(f"[repeat {repeat}: {name} cpu_s "
                  f"{result['metrics']['cpu_s']['value']:.3f}, "
                  f"{result['failed']} failed]", file=sys.stderr)
    tokens = {run["eventcore"] for name in WORKLOADS for run in runs[name]}
    if len(tokens) != 1:
        raise BenchError(f"event core changed between runs: {tokens}")
    report["eventcore"] = tokens.pop()
    failed = 0
    for name in WORKLOADS:
        entry = {"runs": runs[name], "median": _median_metrics(runs[name])}
        workload_failed = sum(run["failed"] for run in runs[name])
        if args.trace:
            entry["trace"] = run_one(name, args.seed, args.seconds, True,
                                     args.reduced)
            workload_failed += entry["trace"]["failed"]
        report["workloads"][name] = entry
        failed += workload_failed
        for metric, value in entry["median"].items():
            print(f"{name} {metric} {value:.6g} {END_TO_END[metric][0]}")
        print(f"{name} failed {workload_failed} count")
        if args.trace:
            _print_metrics(name, entry["trace"]["metrics"])
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n",
                                  encoding="utf-8")
    if args.record:
        line = {"rev": _git("rev-parse", "--short", "HEAD") or "unknown",
                "src_dirty": bool(_git("status", "--porcelain", "--",
                                       "src", "setup.py")),
                "date": time.strftime("%Y-%m-%d"),
                "eventcore": report["eventcore"],
                "seconds": args.seconds, "repeats": args.repeats,
                "medians": {name: report["workloads"][name]["median"]
                            for name in WORKLOADS}}
        with open(HISTORY, "a", encoding="utf-8") as history:
            history.write(json.dumps(line, sort_keys=True) + "\n")
    return 1 if failed else 0


# -- compare ------------------------------------------------------------------

def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(values_base: List[float], values_head: List[float],
            better: str, bound: float) -> str:
    """improved / unchanged / regressed / unresolved for one metric.

    Unresolved when either side's quartile spread exceeds ``bound`` of
    its median, unless every head run beats every base run. Regressed
    when the head median is worse by more than ``bound``. Improved when
    the head wins at least nine tenths of the index-paired runs and the
    medians differ by more than the base quartile spread.
    """
    sign = 1.0 if better == "lower" else -1.0
    base, head = statistics.median(values_base), \
        statistics.median(values_head)
    spreads = []
    for values, middle in ((values_base, base), (values_head, head)):
        q1, q3 = _quartiles(values)
        spreads.append((q3 - q1) / middle if middle else 0.0)
    if max(spreads) > bound:
        beats_all = all(sign * (h - b) < 0
                        for h in values_head for b in values_base)
        return "improved" if beats_all else "unresolved"
    if base and sign * (head - base) / base > bound:
        return "regressed"
    pairs = list(zip(values_base, values_head))
    wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    q1, q3 = _quartiles(values_base)
    if wins >= 0.9 * len(pairs) and sign * (base - head) > q3 - q1:
        return "improved"
    return "unchanged"


def compare(base_path: str, head_path: str) -> int:
    base = json.loads(Path(base_path).read_text(encoding="utf-8"))
    head = json.loads(Path(head_path).read_text(encoding="utf-8"))
    if base["eventcore"] != head["eventcore"]:
        print(f"refusing to compare event core {base['eventcore']!r} "
              f"with {head['eventcore']!r}", file=sys.stderr)
        return 2
    regressed = False
    print(f"{'workload':16} {'metric':16} {'base median [q1, q3]':34} "
          f"{'head median [q1, q3]':34} verdict")
    for name, entry in base["workloads"].items():
        other = head["workloads"].get(name)
        if other is None:
            print(f"{name:16} missing from {head_path}")
            regressed = True
            continue
        for metric, (unit, better, bound) in END_TO_END.items():
            sides = []
            for runs in (entry["runs"], other["runs"]):
                values = [run["metrics"][metric]["value"] for run in runs]
                q1, q3 = _quartiles(values)
                sides.append((values, f"{statistics.median(values):.4g} "
                                      f"[{q1:.4g}, {q3:.4g}] {unit}"))
            call = verdict(sides[0][0], sides[1][0], better, bound)
            regressed |= call == "regressed"
            print(f"{name:16} {metric:16} {sides[0][1]:34} "
                  f"{sides[1][1]:34} {call}")
        failed = [sum(run["failed"] for run in runs)
                  for runs in (entry["runs"], other["runs"])]
        call = "regressed" if failed[1] > failed[0] else "unchanged"
        regressed |= call == "regressed"
        print(f"{name:16} {'failed':16} {failed[0]:<34} {failed[1]:<34} "
              f"{call}")
    return 1 if regressed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the simulator.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="measure one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (all workloads: first seed)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measurement window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs per workload without --workload")
    parser.add_argument("--out", help="write every run to this JSON file")
    parser.add_argument("--record", action="store_true",
                        help="append the medians to bench/history.jsonl")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"),
                        help="compare two --out files")
    parser.add_argument("--regen-golden", action="store_true",
                        help="recompute bench/golden.json")
    parser.add_argument("--check-slices", action="store_true",
                        help="compare each figure slice with its whole "
                             "sweep, layer by layer")
    parser.add_argument("--reduced", action="store_true",
                        help="first two tasks of each workload (tests)")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    try:
        set_up()
        for flag in ("regen_golden", "check_slices"):
            if getattr(args, flag):
                return subprocess.run(
                    [sys.executable, str(HERE / "worker.py"),
                     "--" + flag.replace("_", "-")],
                    cwd=ROOT, env=_env()).returncode
        if args.workload:
            return _one_workload(args)
        return _suite(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
