"""Executor hardening: corrupt cache entries, worker crashes, timeouts.

The sweep executor must degrade gracefully:

* a corrupt on-disk cache entry (truncated write, garbage bytes, wrong
  value shape) is logged, evicted and recomputed — never an abort and
  never a silently poisoned figure;
* a fabric worker dying mid-point (OOM-kill, segfault) gets its task
  requeued; a point that keeps killing workers exhausts the requeue
  budget, and the executor recomputes the sweep serially in-process;
* ``REPRO_POINT_TIMEOUT`` bounds each point's wall-clock; an overrun
  yields ``NaN`` and is *not* written to the cache, so the next run
  retries.
"""

from __future__ import annotations

import json
import math
import os
import time

import pytest

from repro.experiments import executor
from repro.experiments.base import ExperimentScale
from repro.experiments.executor import (
    Point,
    SweepCache,
    SweepSpec,
    point_key,
    run_sweep,
)

TINY = ExperimentScale("tiny", duration=0.1, warmup=0.02)


# -- point functions (top-level so workers import them by reference) ------

def _double(scale, params):
    return params["x"] * 2.0


def _crash_in_worker(scale, params):
    """Die hard — but only inside a fabric worker, so the serial
    fallback (which runs in the parent) can succeed."""
    if params.get("parent") not in (None, os.getpid()):
        os._exit(1)
    return params["x"] * 2.0


def _slow_point(scale, params):
    if params.get("slow"):
        time.sleep(10.0)
    return params["x"] * 2.0


def _spec(fn, points):
    return SweepSpec(experiment_id="hardening-test", title="t",
                     x_label="x", y_label="y", point_fn=fn,
                     points=tuple(points))


def _points(fn, xs, **extra):
    return [Point(series="s", x=x, params={"x": x, **extra}) for x in xs]


# -- corrupt cache entries -------------------------------------------------

@pytest.mark.parametrize("payload", [
    b"not json at all {",
    b"",
    json.dumps({"no_value_key": 1}).encode(),
    json.dumps({"value": "a string is not a rate"}).encode(),
    json.dumps({"value": [1, 2, 3]}).encode(),
    json.dumps({"value": {"series": "nope"}}).encode(),
])
def test_corrupt_cache_entry_evicted_and_recomputed(tmp_path, payload,
                                                    caplog):
    spec = _spec(_double, _points(_double, [3.0]))
    key = point_key(_double, TINY, spec.points[0].params)
    store = SweepCache(tmp_path)
    path = store._path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(payload)

    with caplog.at_level("WARNING", logger="repro.sweeps"):
        result = run_sweep(spec, TINY, jobs=1, cache_root=tmp_path)
    assert result.series[0].ys == [6.0]
    assert any("evicting corrupt sweep-cache entry" in record.message
               for record in caplog.records)
    # The entry healed: valid JSON with the recomputed value.
    assert json.loads(path.read_text())["value"] == 6.0


def test_corrupt_entry_does_not_count_as_hit(tmp_path):
    store = SweepCache(tmp_path)
    path = store._path("ab" + "0" * 62)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("garbage")
    hit, value = store.get("ab" + "0" * 62)
    assert (hit, value) == (False, None)
    assert not path.exists()  # evicted


def test_missing_entry_is_a_plain_miss(tmp_path):
    store = SweepCache(tmp_path)
    hit, value = store.get("cd" + "0" * 62)
    assert (hit, value) == (False, None)


# -- worker crashes --------------------------------------------------------

def test_worker_crash_falls_back_to_serial(tmp_path, caplog):
    """Every copy of these points kills its worker: the fabric requeues
    them until the budget runs out, then the sweep runs serially."""
    xs = [1.0, 2.0, 3.0, 4.0]
    points = _points(_crash_in_worker, xs, parent=os.getpid())
    spec = _spec(_crash_in_worker, points)
    fabric = executor.resolve_fabric(None, jobs=2)
    requeued = fabric.requeued
    with caplog.at_level("WARNING", logger="repro"):
        result = run_sweep(spec, TINY, jobs=2, cache_root=tmp_path)
    assert result.series[0].ys == [2.0, 4.0, 6.0, 8.0]
    assert fabric.requeued > requeued
    assert any("re-queueing task" in record.message
               for record in caplog.records)
    assert any("sweep fabric failed" in record.message
               for record in caplog.records)


def test_healthy_fabric_does_not_fall_back(tmp_path, caplog):
    xs = [1.0, 2.0, 3.0, 4.0]
    spec = _spec(_double, _points(_double, xs))
    fabric = executor.resolve_fabric(None, jobs=2)
    completed = fabric.completed
    with caplog.at_level("WARNING", logger="repro"):
        result = run_sweep(spec, TINY, jobs=2, cache_root=tmp_path)
    assert result.series[0].ys == [2.0, 4.0, 6.0, 8.0]
    assert fabric.completed == completed + len(xs)
    assert not any("sweep fabric failed" in record.message
                   for record in caplog.records)


# -- per-point wall-clock timeout ------------------------------------------

def test_point_timeout_yields_nan_and_is_not_cached(tmp_path,
                                                    monkeypatch, caplog):
    monkeypatch.setenv("REPRO_POINT_TIMEOUT", "0.2")
    points = [Point(series="s", x=1.0, params={"x": 1.0, "slow": True}),
              Point(series="s", x=2.0, params={"x": 2.0})]
    spec = _spec(_slow_point, points)
    with caplog.at_level("WARNING", logger="repro.sweeps"):
        result = run_sweep(spec, TINY, jobs=1, cache_root=tmp_path)
    assert math.isnan(result.series[0].ys[0])
    assert result.series[0].ys[1] == 4.0
    # The healthy point is cached; the timed-out one is not.
    slow_key = point_key(_slow_point, TINY, points[0].params)
    fast_key = point_key(_slow_point, TINY, points[1].params)
    store = SweepCache(tmp_path)
    assert store.get(slow_key) == (False, None)
    assert store.get(fast_key) == (True, 4.0)


def test_point_timeout_disabled_by_default(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_POINT_TIMEOUT", raising=False)
    assert executor._point_timeout_s() == 0.0
    spec = _spec(_double, _points(_double, [5.0]))
    result = run_sweep(spec, TINY, jobs=1, cache_root=tmp_path)
    assert result.series[0].ys == [10.0]


def test_point_timeout_malformed_env_ignored(monkeypatch):
    monkeypatch.setenv("REPRO_POINT_TIMEOUT", "soon")
    assert executor._point_timeout_s() == 0.0
