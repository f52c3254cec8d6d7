"""Determinism and caching guarantees of the sweep executor.

The contract (ISSUE 1): parallel execution must be *byte-identical* to
the serial path — every point is an independent seeded simulation, so
fanning out across processes may never change a single y value — and a
warm cache must return identical results without re-simulating.

The default-run tests cover two cheap figures at SMOKE scale plus the
executor's unit-level behaviours; ``-m slow`` extends the equality check
to every figure and extension at SMOKE (several minutes, not part of
tier-1).
"""

import pytest

from repro.experiments import EXPERIMENTS, EXTENSIONS, SMOKE
from repro.experiments import fig05_xdd_single, fig06_segsize
from repro.experiments import executor
from repro.experiments.base import ExperimentScale
from repro.experiments.executor import (
    Point,
    SweepSpec,
    build_result,
    point_key,
    run_sweep,
)

TINY = ExperimentScale("tiny", duration=0.1, warmup=0.02)

#: Cheap single-disk figures safe to run twice in tier-1.
CHEAP_FIGURES = {
    "fig05": fig05_xdd_single.run,
    "fig06": fig06_segsize.run,
}


def _identical(first, second):
    assert first.labels == second.labels
    assert first.as_dict() == second.as_dict()
    for series_a, series_b in zip(first.series, second.series):
        assert series_a.xs == series_b.xs
        assert series_a.ys == series_b.ys  # exact ==, not approx


@pytest.mark.parametrize("figure_id", sorted(CHEAP_FIGURES))
def test_parallel_equals_serial_smoke(figure_id):
    """jobs=2 fabric output is exactly the serial output at SMOKE."""
    run = CHEAP_FIGURES[figure_id]
    serial = run(SMOKE, jobs=1, cache=False)
    parallel = run(SMOKE, jobs=2, cache=False)
    _identical(serial, parallel)


@pytest.mark.slow
@pytest.mark.parametrize("figure_id",
                         sorted(EXPERIMENTS) + sorted(EXTENSIONS))
def test_parallel_equals_serial_smoke_all_figures(figure_id):
    """Every figure: fabric output == serial output at SMOKE scale."""
    run = {**EXPERIMENTS, **EXTENSIONS}[figure_id]
    serial = run(SMOKE, jobs=1, cache=False)
    parallel = run(SMOKE, jobs=2, cache=False)
    _identical(serial, parallel)


def test_warm_cache_returns_identical_without_resimulating(tmp_path):
    """Second run: zero simulated points (run-counter hook), same data."""
    before = executor.simulated_points()
    cold = run_sweep(fig06_segsize.sweep(), TINY, jobs=1,
                     cache_root=tmp_path)
    after_cold = executor.simulated_points()
    assert after_cold - before == len(fig06_segsize.sweep().points)

    warm = run_sweep(fig06_segsize.sweep(), TINY, jobs=1,
                     cache_root=tmp_path)
    after_warm = executor.simulated_points()
    assert after_warm == after_cold, "warm cache re-simulated points"
    _identical(cold, warm)


def test_cache_disabled_always_simulates(tmp_path):
    """cache=False never consults or fills the on-disk store."""
    spec = fig06_segsize.sweep()
    before = executor.simulated_points()
    run_sweep(spec, TINY, jobs=1, cache=False, cache_root=tmp_path)
    run_sweep(spec, TINY, jobs=1, cache=False, cache_root=tmp_path)
    assert executor.simulated_points() - before == 2 * len(spec.points)
    assert not any(tmp_path.rglob("*.json"))


def _stub_point(scale, params):
    return float(params["value"]) * scale.duration


def _stub_multi(scale, params):
    return {"a": float(params["value"]), "b": -float(params["value"])}


def test_in_sweep_duplicates_simulate_once():
    """Identical points (same fn + params) collapse to one simulation."""
    spec = SweepSpec(
        experiment_id="dup", title="t", x_label="x", y_label="y",
        point_fn=_stub_point,
        points=(
            Point(series="main", x=1, params={"value": 7}),
            Point(series="baseline", x=1, params={"value": 7}),
            Point(series="main", x=2, params={"value": 9}),
        ))
    before = executor.simulated_points()
    result = run_sweep(spec, TINY, jobs=1, cache=False)
    assert executor.simulated_points() - before == 2  # not 3
    assert result.get("main").ys == [7 * TINY.duration,
                                     9 * TINY.duration]
    assert result.get("baseline").ys == [7 * TINY.duration]


def test_dict_valued_points_fan_into_series():
    """A dict return lands one x in every named series, in order."""
    spec = SweepSpec(
        experiment_id="multi", title="t", x_label="x", y_label="y",
        point_fn=_stub_multi,
        points=(Point(series="a", x="p", params={"value": 3}),
                Point(series="a", x="q", params={"value": 4})),
        series_order=("a", "b"))
    result = run_sweep(spec, TINY, jobs=1, cache=False)
    assert result.labels == ["a", "b"]
    assert result.get("a").ys == [3.0, 4.0]
    assert result.get("b").ys == [-3.0, -4.0]


def test_point_key_sensitivity():
    """Keys differ across fn, params, and scale; stable otherwise."""
    base = point_key(_stub_point, TINY, {"value": 1})
    assert base == point_key(_stub_point, TINY, {"value": 1})
    assert base != point_key(_stub_multi, TINY, {"value": 1})
    assert base != point_key(_stub_point, TINY, {"value": 2})
    assert base != point_key(_stub_point, SMOKE, {"value": 1})


def test_cache_shared_across_figures_for_same_point(tmp_path):
    """fig13-style baseline points hit fig12-style cache entries."""
    spec_a = SweepSpec(
        experiment_id="a", title="t", x_label="x", y_label="y",
        point_fn=_stub_point,
        points=(Point(series="s", x=1, params={"value": 5}),))
    spec_b = SweepSpec(
        experiment_id="b", title="t", x_label="x", y_label="y",
        point_fn=_stub_multi,  # different default fn...
        points=(Point(series="s", x=1, params={"value": 5},
                      fn=_stub_point),))  # ...but the point overrides it
    before = executor.simulated_points()
    run_sweep(spec_a, TINY, jobs=1, cache_root=tmp_path)
    run_sweep(spec_b, TINY, jobs=1, cache_root=tmp_path)
    assert executor.simulated_points() - before == 1


def test_build_result_preserves_point_order():
    """Series assemble in spec order regardless of completion order."""
    spec = SweepSpec(
        experiment_id="o", title="t", x_label="x", y_label="y",
        point_fn=_stub_point,
        points=tuple(Point(series="s", x=i, params={"value": i})
                     for i in (3, 1, 2)))
    result = build_result(spec, [30.0, 10.0, 20.0])
    assert result.get("s").xs == [3, 1, 2]
    assert result.get("s").ys == [30.0, 10.0, 20.0]


def test_code_fingerprint_ignores_tests_and_benchmarks(tmp_path):
    """Only package sources count: tests/benchmarks/docs don't churn it."""
    from repro.experiments.executor import code_fingerprint

    (tmp_path / "pkg.py").write_text("x = 1\n")
    for excluded in ("tests", "benchmarks", "docs", "__pycache__"):
        (tmp_path / excluded).mkdir()
    base = code_fingerprint(root=tmp_path)
    for excluded in ("tests", "benchmarks", "docs", "__pycache__"):
        (tmp_path / excluded / "extra.py").write_text("y = 2\n")
    assert code_fingerprint(root=tmp_path) == base

    (tmp_path / "pkg.py").write_text("x = 2\n")
    assert code_fingerprint(root=tmp_path) != base


def test_code_fingerprint_sees_package_edits(tmp_path):
    """New or renamed package modules change the fingerprint."""
    from repro.experiments.executor import code_fingerprint

    (tmp_path / "a.py").write_text("pass\n")
    base = code_fingerprint(root=tmp_path)
    (tmp_path / "b.py").write_text("pass\n")
    grown = code_fingerprint(root=tmp_path)
    assert grown != base
    (tmp_path / "b.py").rename(tmp_path / "c.py")
    assert code_fingerprint(root=tmp_path) not in (base, grown)


def test_parallel_equals_serial_with_batching():
    """24 points on two local workers, many per worker: still
    byte-identical, in spec order."""
    spec = SweepSpec(
        experiment_id="batch", title="t", x_label="x", y_label="y",
        point_fn=_stub_point,
        points=tuple(Point(series="s", x=i, params={"value": i})
                     for i in range(24)))
    serial = run_sweep(spec, TINY, jobs=1, cache=False)
    parallel = run_sweep(spec, TINY, jobs=2, cache=False)
    _identical(serial, parallel)


@pytest.mark.smoke_parallel
def test_smoke_parallel_runner_cli(monkeypatch, capsys, tmp_path):
    """Tier-1 wiring: REPRO_JOBS=2 + smoke scale through the real CLI.

    Exercises env-based job resolution, the local fabric, the on-disk
    cache, and the --json emitter end to end on a cheap figure.
    """
    import json

    from repro.experiments.runner import main

    monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
    monkeypatch.setenv("REPRO_JOBS", "2")
    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path))
    json_path = tmp_path / "runner.json"
    exit_code = main(["fig06", "--scale", "smoke",
                      "--json", str(json_path)])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "jobs=2" in output
    payload = json.loads(json_path.read_text())
    assert payload["jobs"] == 2
    assert "fig06" in payload["figures"]
    assert payload["figures"]["fig06"]["wall_s"] >= 0
    series = payload["figures"]["fig06"]["series"]
    assert "30 streams" in series and len(series["30 streams"]) == 7
