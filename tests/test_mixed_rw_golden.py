"""The write path's values on every push.

``bench/workloads.py``'s ``mixed-rw`` points (8 disks x 32 streams,
25/50/75% writers through a write-coalescing ``StreamServer``, timed to
the write-back barrier) must equal the seed-0 values in
``bench/golden.json``. Both files are read, never edited; this runs the
points in-process on whichever event core is active.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads():
    name = "bench_workloads"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(
            name, BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses resolve it by name
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pct", [25, 50, 75])
def test_mixed_rw_point_equals_golden(pct):
    with (BENCH / "golden.json").open(encoding="utf-8") as handle:
        golden = json.load(handle)["mixed-rw"]
    assert golden["seed"] == 0
    assert _workloads().mixed_point(0, pct) \
        == golden["values"][f"{pct}% writes"]
