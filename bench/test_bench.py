"""Tests of the benchmark itself; run with ``pytest bench/`` (~70 s).

They run the reduced variant (the first two tasks of each workload)
through the same command line the full benchmark uses.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

#: Per-layer metrics that are exact counts or ratios of counts.
EXACT = [name for name, (unit, _better) in PER_LAYER.items()
         if unit in ("count", "1/req") or name.endswith("hit_frac")]
EXACT.remove("trace.samples")


def bench(*args: str) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    assert done.returncode == 0
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_metric_tables(declared):
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in declared["per_layer"]} == PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reduced_run_is_correct_and_emits_declared_metrics(workload,
                                                           declared):
    result = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                   "--trace", "0", "--reduced")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert result["attempted"] >= 6 and result["failed"] == 0
    assert {name: entry["unit"] for name, entry in
            result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_perturbed_golden_value_fails_the_run():
    import worker
    import workloads
    workload = workloads.build("direct-collapse", 0, reduced=True)
    golden = worker.load_golden()
    series, x = workload.tasks[0].key.split(" @ ")
    points = golden["direct-collapse"]["series"][series]
    points[x] = math.nextafter(points[x], math.inf)
    passes = [worker._run_pass(workload)]
    checked = worker.check_passes(workload, 0, passes, golden)
    assert checked["failed"] == 1
    assert "golden" in checked["reasons"][0]


def test_traced_runs_repeat_their_counts_exactly(declared):
    first, second = (bench("--workload", "mixed-rw", "--seed", "5",
                           "--seconds", "1", "--trace", "1", "--reduced")
                     for _ in range(2))
    assert first["correct"] and second["correct"]
    assert {name: entry["unit"] for name, entry in
            first["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared["per_layer"]}
    metrics = [{name: entry["value"] for name, entry in
                result["metrics"].items()} for result in (first, second)]
    assert {k: metrics[0][k] for k in EXACT} == \
        {k: metrics[1][k] for k in EXACT}
    assert metrics[0]["core.calls"] > 0 and metrics[0]["host.calls"] == 0
    assert math.isclose(sum(v for k, v in metrics[0].items()
                            if k.endswith(".self_frac")), 1.0)


def _suite_file(path: Path, eventcore: str, cpu: list) -> str:
    runs = [{"failed": 0, "metrics": {
        name: {"value": (c if name == "cpu_s" else 1.0), "unit": unit}
        for name, (unit, _b, _bound) in END_TO_END.items()}} for c in cpu]
    path.write_text(json.dumps({"eventcore": eventcore, "workloads": {
        "mixed-rw": {"runs": runs}}}), encoding="utf-8")
    return str(path)


def test_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert run.verdict(steady, steady, "lower", 0.10) == "unchanged"
    assert run.verdict(steady, [v * 0.5 for v in steady], "lower",
                       0.10) == "improved"
    assert run.verdict(steady, [v * 1.2 for v in steady], "lower",
                       0.10) == "regressed"
    noisy = [6.0, 10.0, 14.0, 8.0, 12.0]
    assert run.verdict(steady, noisy, "lower", 0.10) == "unresolved"


def test_compare_refuses_mixed_cores_and_flags_regressions(tmp_path):
    base = _suite_file(tmp_path / "base.json", "compiled/1", [1.0, 1.0])
    head = _suite_file(tmp_path / "head.json", "calendar", [1.0, 1.0])
    assert run.compare(base, head) == 2
    same = _suite_file(tmp_path / "same.json", "compiled/1", [1.5, 1.5])
    assert run.compare(base, same) == 1
