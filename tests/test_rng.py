"""The stdlib PCG64 against numpy's ``default_rng``, and a simulator
run with numpy unimportable.

Every golden series was recorded while the drive drew its rotational
latencies from ``numpy.random.default_rng(seed).uniform(0.0, T)``;
``repro.sim.rng.PCG64`` must give the same doubles for the same seed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.rng import PCG64

ROOT = Path(__file__).resolve().parents[1]

#: Rotation time of a 7200 rpm drive, the figures' common spindle speed.
T = 60.0 / 7200.0
DRAWS = 2000

#: ``topology.seed * 1009 + disk_id`` (repro.node.topology) for figure
#: topologies: Figure 1's 60-disk seeds (its stream counts), Figure 6's
#: seed 7, ext-fragmentation's 21 and single-disk stream counts.
TOPOLOGY_SEEDS = [seed * 1009 + disk_id for seed, disk_id in [
    (60, 0), (60, 59), (100, 17), (300, 42), (500, 59),
    (7, 0), (21, 0), (1, 0), (128, 0)]]


@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 + 5, 2**70 + 3]
                         + TOPOLOGY_SEEDS)
def test_draws_equal_numpy(seed):
    np = pytest.importorskip("numpy")
    reference = np.random.default_rng(seed)
    expected = [float(reference.uniform(0.0, T)) for _ in range(DRAWS)]
    rng = PCG64(seed)
    assert [rng.uniform(0.0, T) for _ in range(DRAWS)] == expected


def test_uniform_bounds_match_numpy():
    np = pytest.importorskip("numpy")
    reference = np.random.default_rng(9)
    rng = PCG64(9)
    for low, high in [(0.0, 1.0), (-2.5, 3.0), (1e-3, 1e-3 + 1e-9)]:
        assert rng.uniform(low, high) == float(reference.uniform(low, high))
    assert rng.random() == float(reference.random())


@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_negative_seed_raises(seed):
    with pytest.raises(ValueError):
        PCG64(seed)


@pytest.mark.parametrize("seed", [1.5, 2.0, "3", b"3", [1, 2]])
def test_non_integer_seed_raises(seed):
    with pytest.raises(TypeError):
        PCG64(seed)


def test_seed_none_draws_fresh_entropy():
    a, b = PCG64(None), PCG64()
    assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]


_NO_NUMPY_POINT = """
import json, sys
sys.modules["numpy"] = None  # any import of numpy now fails
import repro.experiments
import repro.experiments.runner
from repro.experiments import fig01_collapse
from repro.experiments.base import SMOKE
from repro.units import KiB
value = fig01_collapse._point(SMOKE, {"streams": 60, "request_size": 8 * KiB})
loaded = sorted(m for m in sys.modules
                if m.startswith("numpy.") or (m == "numpy"
                                              and sys.modules[m] is not None))
print(json.dumps({"value": value, "numpy": loaded}))
"""


def test_figure_point_runs_without_numpy():
    """One SMOKE Figure 1 point in an interpreter where numpy cannot be
    imported equals its golden value, and loads no numpy module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(entry for entry in sys.path
                                        if entry)
    result = subprocess.run([sys.executable, "-c", _NO_NUMPY_POINT],
                            env=env, capture_output=True, text=True,
                            check=True)
    report = json.loads(result.stdout.splitlines()[-1])
    with open(ROOT / "bench" / "golden.json", encoding="utf-8") as handle:
        golden = json.load(handle)
    expected = golden["direct-collapse"]["series"]["60 streams"]["8K"]
    assert report == {"value": expected, "numpy": []}
