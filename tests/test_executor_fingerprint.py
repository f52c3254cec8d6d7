"""Per-module cache fingerprints and spawn-safe pool workers.

Satellites of the kernel PR: cache keys must track only the modules a
figure actually imports (editing an unimported module keeps entries
warm), and the worker pool must be pickle-clean so forcing the
``spawn`` start method still yields byte-identical sweeps.
"""

import multiprocessing
import sys
import textwrap

import pytest

from repro.experiments import SMOKE, fig05_xdd_single, fig06_segsize
from repro.experiments import executor
from repro.experiments.base import ExperimentScale
from repro.experiments.executor import (
    Point,
    SweepSpec,
    code_fingerprint_for,
    import_closure,
    point_key,
    run_sweep,
)

TINY = ExperimentScale("tiny", duration=0.1, warmup=0.02)


# -- fake package fixture --------------------------------------------------

PKG = "fingerprintpkg"

PKG_FILES = {
    # Aggregator __init__ mirroring repro.experiments: imports every
    # figure to build a registry. Must NOT drag figb into figa's key.
    "__init__.py": f"""
        from {PKG} import figa, figb
        REGISTRY = {{"a": figa.point, "b": figb.point}}
    """,
    "dep.py": """
        def factor():
            return 2.0
    """,
    "figa.py": f"""
        from {PKG}.dep import factor

        def point(scale, params):
            return factor() * params["value"]
    """,
    "figb.py": """
        def point(scale, params):
            return float(params["value"])
    """,
    "unrelated.py": """
        def unused():
            return "nobody imports me"
    """,
}


@pytest.fixture
def fake_pkg(tmp_path, monkeypatch):
    """An importable throwaway package the tests can edit on disk."""
    root = tmp_path / PKG
    root.mkdir()
    for name, source in PKG_FILES.items():
        (root / name).write_text(textwrap.dedent(source))
    monkeypatch.syspath_prepend(str(tmp_path))
    executor._fingerprint_cache_clear()
    yield root
    executor._fingerprint_cache_clear()
    for name in [m for m in sys.modules
                 if m == PKG or m.startswith(PKG + ".")]:
        del sys.modules[name]


def _edit(path, suffix="\n# edited\n"):
    path.write_text(path.read_text() + suffix)
    executor._fingerprint_cache_clear()


# -- import closure --------------------------------------------------------

def test_import_closure_follows_only_actual_imports(fake_pkg):
    closure = import_closure(f"{PKG}.figa", package=PKG)
    assert f"{PKG}.figa" in closure
    assert f"{PKG}.dep" in closure
    assert PKG in closure  # ancestor __init__ executes at import time
    assert f"{PKG}.figb" not in closure  # aggregator not traversed
    assert f"{PKG}.unrelated" not in closure


def test_import_closure_of_real_figure_is_scoped():
    """fig06's closure covers the sim stack but not other figures."""
    closure = import_closure("repro.experiments.fig06_segsize")
    assert "repro.experiments.fig06_segsize" in closure
    assert "repro.experiments.executor" in closure
    assert "repro.disk.specs" in closure
    assert "repro.sim.engine" in closure  # via the measurement stack
    # Sibling figures are reachable only through the package
    # aggregator, which is digested but never traversed.
    assert "repro.experiments.fig05_xdd_single" not in closure
    assert "repro.experiments.fig12_multidisk" not in closure


def test_unimported_edit_keeps_fingerprint_stable(fake_pkg):
    sys.path_importer_cache.clear()
    import importlib
    figa = importlib.import_module(f"{PKG}.figa")
    base = code_fingerprint_for(figa.point)

    _edit(fake_pkg / "unrelated.py")
    assert code_fingerprint_for(figa.point) == base

    _edit(fake_pkg / "figb.py")  # sibling figure: still warm
    assert code_fingerprint_for(figa.point) == base

    _edit(fake_pkg / "dep.py")  # actually imported: invalidates
    assert code_fingerprint_for(figa.point) != base

    _edit(fake_pkg / "figa.py")  # the figure itself: invalidates
    assert code_fingerprint_for(figa.point) != base


def test_aggregator_init_edit_invalidates(fake_pkg):
    """Ancestor __init__ runs at import time, so its digest counts."""
    import importlib
    figa = importlib.import_module(f"{PKG}.figa")
    base = code_fingerprint_for(figa.point)
    _edit(fake_pkg / "__init__.py")
    assert code_fingerprint_for(figa.point) != base


def test_unimported_edit_keeps_cache_entries_warm(fake_pkg, tmp_path):
    """End to end: the on-disk sweep cache survives unrelated edits."""
    import importlib
    figa = importlib.import_module(f"{PKG}.figa")
    spec = SweepSpec(
        experiment_id="fp", title="t", x_label="x", y_label="y",
        point_fn=figa.point,
        points=(Point(series="s", x=1, params={"value": 3}),))
    cache_root = tmp_path / "cache"

    before = executor.simulated_points()
    run_sweep(spec, TINY, jobs=1, cache_root=cache_root)
    assert executor.simulated_points() - before == 1

    _edit(fake_pkg / "unrelated.py")
    run_sweep(spec, TINY, jobs=1, cache_root=cache_root)
    assert executor.simulated_points() - before == 1, \
        "editing an unimported module re-simulated a cached point"

    _edit(fake_pkg / "dep.py")
    run_sweep(spec, TINY, jobs=1, cache_root=cache_root)
    assert executor.simulated_points() - before == 2, \
        "editing an imported module must invalidate the entry"


def test_point_key_uses_closure_fingerprint():
    """Keys for different figures embed different code fingerprints."""
    fp05 = code_fingerprint_for(fig05_xdd_single._point)
    fp06 = code_fingerprint_for(fig06_segsize._point)
    assert fp05 != fp06  # the figure module itself is in its closure
    # Stable across calls (memoised and deterministic).
    assert code_fingerprint_for(fig06_segsize._point) == fp06
    key = point_key(fig06_segsize._point, TINY, {"segment_size": 1024})
    assert key == point_key(fig06_segsize._point, TINY,
                            {"segment_size": 1024})


def test_fingerprint_incorporates_event_core_backend(monkeypatch):
    """Flipping REPRO_EVENTCORE must miss the sweep cache.

    The backends are pinned bit-identical by the equivalence suite, but
    a cached point must never be replayed under a backend that did not
    actually produce it — the backend token is part of the code
    fingerprint (and hence of every point key).
    """
    from repro.sim.eventcore import available_backends, resolve_backend

    fingerprints = {}
    for backend in available_backends():
        monkeypatch.setenv("REPRO_EVENTCORE", backend)
        fingerprints[backend] = code_fingerprint_for(fig06_segsize._point)
    assert len(set(fingerprints.values())) == len(fingerprints), \
        "distinct backends must produce distinct cache fingerprints"
    # Without the override the auto-selected backend's token applies.
    monkeypatch.delenv("REPRO_EVENTCORE")
    assert (code_fingerprint_for(fig06_segsize._point)
            == fingerprints[resolve_backend(None)])


# -- spawn-safe pool -------------------------------------------------------

def _identical(first, second):
    assert first.labels == second.labels
    for series_a, series_b in zip(first.series, second.series):
        assert series_a.xs == series_b.xs
        assert series_a.ys == series_b.ys  # exact ==, not approx


def test_pool_context_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_MP_START", "spawn")
    assert executor._pool_context().get_start_method() == "spawn"
    monkeypatch.delenv("REPRO_MP_START")
    default = executor._pool_context().get_start_method()
    assert default in ("fork", "spawn", "forkserver")


def test_worker_init_replays_parent_sys_path(monkeypatch):
    fake = ["/nonexistent/extra-a", "/nonexistent/extra-b"]
    monkeypatch.setattr(sys, "path", list(sys.path))
    executor._worker_init(list(sys.path) + fake)
    assert sys.path[:2] == fake  # prepended, order preserved
    before = list(sys.path)
    executor._worker_init(before)  # idempotent
    assert sys.path == before


@pytest.mark.parametrize("method", ["spawn"])
def test_spawn_pool_equals_serial(monkeypatch, method):
    """Forcing spawn workers reproduces the serial sweep exactly."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} unavailable")  # pragma: no cover
    serial = fig06_segsize.run(SMOKE, jobs=1, cache=False)
    monkeypatch.setenv("REPRO_MP_START", method)
    spawned = fig06_segsize.run(SMOKE, jobs=2, cache=False)
    _identical(serial, spawned)
