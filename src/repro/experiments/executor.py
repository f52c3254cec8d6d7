"""Declarative sweep specs and the parallel, cached sweep executor.

Every paper figure is a *sweep*: a list of independent, seeded,
deterministic measurement points plus a reduction into an
:class:`~repro.analysis.metrics.ExperimentResult`. Historically each
``fig*.py`` module looped over its points serially in-process; this
module factors the loop out so that every figure gets, for free:

* **Fan-out** — points run across a ``multiprocessing`` worker pool
  (``--jobs N`` / ``REPRO_JOBS``, default ``os.cpu_count()``). Points
  are independent simulations, so parallel and serial execution produce
  *byte-identical* series (asserted by
  ``tests/test_executor_determinism.py``). Tasks are pickle-clean, so
  the pool works under both ``fork`` and ``spawn`` start methods
  (``REPRO_MP_START`` forces one).
* **Memoization** — completed points are cached on disk under
  ``~/.cache/repro-sweeps/`` (override with ``REPRO_SWEEP_CACHE``;
  disable with ``--no-cache`` / ``REPRO_NO_CACHE=1``). Keys hash the
  point function's identity, the scale, the point parameters, and a
  fingerprint of the modules the point function's figure *actually
  imports* (its static import closure, see
  :func:`code_fingerprint_for`), so editing an unrelated figure or an
  unimported subsystem keeps every unaffected cache entry warm.
* **Deduplication** — points with identical cache keys inside one sweep
  (e.g. Figure 13 embedding Figure 12's R=512K baseline) simulate once.

A point function must be a *top-level* callable (picklable by
reference) with the signature ``point_fn(scale, params: dict) -> float |
dict[str, float]``. A plain float lands in the point's declared series;
a dict fans one simulation out into several series (used by the
extension experiments that report multiple metrics per run).
"""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import json
import logging
import math
import os
import signal
import sys
import tempfile
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional, \
    Sequence, Set, Tuple, Union

from repro.analysis import ExperimentResult
from repro.experiments.base import ExperimentScale
from repro.sim.eventcore import backend_token, resolve_backend

__all__ = [
    "FABRIC_MIN_POINTS",
    "FABRIC_OFF",
    "Point",
    "PointTimeoutError",
    "SweepSpec",
    "build_result",
    "code_fingerprint",
    "code_fingerprint_for",
    "import_closure",
    "point_key",
    "resolve_jobs",
    "run_sweep",
    "set_default_fabric",
    "simulated_points",
]

_log = logging.getLogger("repro.sweeps")

#: y payload of one point: one value, or {series label: value}.
PointValue = Union[float, Dict[str, float]]

#: Run-counter hook: incremented once per point actually *simulated*
#: (cache hits and in-sweep duplicates do not count). Tests use it to
#: assert that a warm cache short-circuits simulation entirely.
_SIMULATED_POINTS = 0


def simulated_points() -> int:
    """Total points simulated by this process since import (hook)."""
    return _SIMULATED_POINTS


@dataclass(frozen=True)
class Point:
    """One independent measurement of a sweep.

    ``params`` must contain only JSON-serialisable primitives — it is
    both the worker's input and part of the cache key. ``series`` is
    the label the value lands in (ignored when the point function
    returns a per-series dict). ``fn`` overrides the spec's
    ``point_fn`` for this point; figures use it to embed another
    figure's baseline points so the cache entries are *shared* with
    that figure (the key hashes the function identity, not the figure).
    """

    series: str
    x: Any
    params: Mapping[str, Any] = field(default_factory=dict)
    fn: Optional[Callable[["ExperimentScale", dict], "PointValue"]] = None


@dataclass(frozen=True)
class SweepSpec:
    """A figure as data: metadata + points + how to reduce them."""

    experiment_id: str
    title: str
    x_label: str
    y_label: str
    point_fn: Callable[[ExperimentScale, dict], PointValue]
    points: Tuple[Point, ...]
    notes: str = ""
    #: Explicit series ordering; series not listed appear afterwards in
    #: first-use order. Needed when dict-valued points interleave.
    series_order: Tuple[str, ...] = ()
    #: Optional final hook run on the assembled result (rarely needed).
    postprocess: Optional[Callable[[ExperimentResult], ExperimentResult]] = \
        None


# -- cache ----------------------------------------------------------------

_FINGERPRINT: Optional[str] = None


#: Directory names whose files never affect simulation results: editing
#: a test or benchmark must not invalidate the sweep cache.
_FINGERPRINT_EXCLUDED_DIRS = frozenset(
    {"tests", "benchmarks", "docs", "__pycache__"})


def code_fingerprint(root: Optional[Union[str, Path]] = None) -> str:
    """SHA-256 over the ``repro`` *package* sources (stable per checkout).

    Any edit to a simulation module changes the fingerprint and thus
    invalidates the whole on-disk result cache — coarse, but it makes
    stale-cache bugs structurally impossible. Only files under the
    installed ``repro`` package count: tests, benchmarks and docs (and
    stray ``__pycache__`` artefacts) are explicitly excluded so editing
    them never throws away cached sweep results.

    ``root`` overrides the hashed directory (for tests); the module-level
    memo only applies to the default root.
    """
    global _FINGERPRINT
    if root is None and _FINGERPRINT is not None:
        return _FINGERPRINT
    if root is None:
        import repro
        base = Path(repro.__file__).resolve().parent
    else:
        base = Path(root).resolve()
    digest = hashlib.sha256()
    for path in sorted(base.rglob("*.py")):
        relative = path.relative_to(base)
        if _FINGERPRINT_EXCLUDED_DIRS.intersection(relative.parts[:-1]):
            continue
        digest.update(str(relative).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    fingerprint = digest.hexdigest()
    if root is None:
        _FINGERPRINT = fingerprint
    return fingerprint


# -- per-module fingerprints ----------------------------------------------
#
# Hashing the whole package is safe but coarse: editing one figure (or a
# doc-string in an unrelated subsystem) used to throw away *every* cached
# point. Instead, each point function is keyed on the static import
# closure of its own module — exactly the code that can influence its
# simulation. Package ``__init__`` aggregators (``repro.experiments``
# imports every figure to build the registry) are digested but *not*
# traversed when they are merely ancestors of an imported module, so one
# figure's closure never drags in every other figure.

#: module name -> absolute source path (or None), memoised per process.
_MODULE_SOURCES: Dict[str, Optional[str]] = {}
#: module name -> (traverse targets, digest-only targets).
_MODULE_IMPORTS: Dict[str, Tuple[FrozenSet[str], FrozenSet[str]]] = {}
#: (module, package) -> transitive closure of package-internal modules.
_CLOSURE_MEMO: Dict[Tuple[str, str], FrozenSet[str]] = {}
#: (module, package) -> combined closure fingerprint.
_CLOSURE_FINGERPRINTS: Dict[Tuple[str, str], str] = {}


def _fingerprint_cache_clear() -> None:
    """Drop all fingerprint memos (tests edit sources mid-process)."""
    global _FINGERPRINT
    _FINGERPRINT = None
    _MODULE_SOURCES.clear()
    _MODULE_IMPORTS.clear()
    _CLOSURE_MEMO.clear()
    _CLOSURE_FINGERPRINTS.clear()


def _module_source(name: str) -> Optional[str]:
    """Path of ``name``'s ``.py`` source, or None for anything exotic."""
    if name in _MODULE_SOURCES:
        return _MODULE_SOURCES[name]
    try:
        spec = importlib.util.find_spec(name)
    except (ImportError, AttributeError, ValueError):
        spec = None
    origin = getattr(spec, "origin", None)
    path = origin if origin and origin.endswith(".py") else None
    _MODULE_SOURCES[name] = path
    return path


def _direct_imports(name: str, path: str, package: str) \
        -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """Package-internal modules ``name`` imports, from its AST.

    Returns ``(traverse, digest_only)``: modules whose own imports must
    be followed, and modules whose *file* matters (the importing module
    executes it) but whose imports must not be followed — the
    ``from pkg import submodule`` case, where ``pkg/__init__`` is often
    an aggregator re-importing the whole package.
    """
    if name in _MODULE_IMPORTS:
        return _MODULE_IMPORTS[name]
    prefix = package + "."
    traverse: Set[str] = set()
    digest_only: Set[str] = set()
    # Current package for resolving relative imports.
    pkg = name if path.endswith("__init__.py") else name.rpartition(".")[0]
    tree = ast.parse(Path(path).read_bytes(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                target = alias.name
                if target == package or target.startswith(prefix):
                    traverse.add(target)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = pkg.split(".") if pkg else []
                if node.level > 1:
                    parts = parts[:len(parts) - (node.level - 1)]
                base = ".".join(parts)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            else:
                base = node.module or ""
            if base != package and not base.startswith(prefix):
                continue
            for alias in node.names:
                child = f"{base}.{alias.name}"
                if alias.name != "*" and _module_source(child) is not None:
                    # ``from pkg import submodule``: follow the
                    # submodule, only digest the aggregating package.
                    traverse.add(child)
                    digest_only.add(base)
                else:
                    traverse.add(base)
    result = (frozenset(traverse), frozenset(digest_only))
    _MODULE_IMPORTS[name] = result
    return result


def import_closure(module: str, package: str = "repro") -> FrozenSet[str]:
    """Package-internal modules whose source can affect ``module``.

    The transitive static import closure of ``module`` within
    ``package``, plus the ``__init__`` of every ancestor package
    (executed at import time) — included by digest only, never
    traversed, so registry-style aggregators stay out of the closure.
    """
    memo_key = (module, package)
    if memo_key in _CLOSURE_MEMO:
        return _CLOSURE_MEMO[memo_key]
    traversed: Set[str] = set()
    digest_only: Set[str] = set()
    stack = [module]
    while stack:
        name = stack.pop()
        if name in traversed:
            continue
        traversed.add(name)
        path = _module_source(name)
        if path is None:
            continue
        follow, shallow = _direct_imports(name, path, package)
        digest_only.update(shallow)
        stack.extend(follow - traversed)
    # Ancestor packages run at import time: digest their __init__ too.
    for name in list(traversed) + list(digest_only):
        parts = name.split(".")
        for depth in range(1, len(parts)):
            digest_only.add(".".join(parts[:depth]))
    closure = frozenset(traversed | digest_only)
    _CLOSURE_MEMO[memo_key] = closure
    return closure


def code_fingerprint_for(point_fn: Callable) -> str:
    """Fingerprint of the code that can affect ``point_fn``'s result.

    SHA-256 over the sources of ``point_fn``'s module import closure
    (see :func:`import_closure`, rooted at the function's top-level
    package). Falls back to the whole-package :func:`code_fingerprint`
    when the function's module has no reachable source (interactive
    definitions) — coarse, never stale.

    The active event-core backend token (``compiled/<version>`` or
    ``heapq``; see :mod:`repro.sim.eventcore`) is mixed
    into the returned digest: the compiled core's sources are not part
    of any Python import closure, and although the backends are pinned
    bit-identical by the equivalence suite, a cache entry must never
    *assume* that pin holds for a backend that never actually ran it.
    The source-closure part stays memoized; the token is applied per
    call so flipping ``REPRO_EVENTCORE`` mid-process still misses.
    """
    module = getattr(point_fn, "__module__", "") or ""
    package = module.split(".", 1)[0]
    memo_key = (module, package)
    base = _CLOSURE_FINGERPRINTS.get(memo_key)
    if base is None:
        if not module or _module_source(module) is None:
            base = code_fingerprint()
        else:
            digest = hashlib.sha256()
            for name in sorted(import_closure(module, package)):
                path = _module_source(name)
                if path is None:
                    continue
                digest.update(name.encode())
                digest.update(b"\0")
                digest.update(Path(path).read_bytes())
                digest.update(b"\0")
            base = digest.hexdigest()
            _CLOSURE_FINGERPRINTS[memo_key] = base
    token = backend_token(resolve_backend(None))
    return hashlib.sha256(
        f"{base}|eventcore={token}".encode()).hexdigest()


def point_key(point_fn: Callable, scale: ExperimentScale,
              params: Mapping[str, Any]) -> str:
    """Stable cache key for one measurement.

    Deliberately excludes the figure id and series label: they do not
    affect the simulation, so figures that embed another figure's
    baseline (fig13/fig14) share cache entries with it. The code
    component is the point function's *import-closure* fingerprint, so
    edits to modules a figure never imports leave its entries warm.
    """
    payload = json.dumps(
        {
            "fn": f"{point_fn.__module__}.{point_fn.__qualname__}",
            "scale": [scale.name, scale.duration, scale.warmup],
            "params": dict(params),
            "code": code_fingerprint_for(point_fn),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _valid_point_value(value: Any) -> bool:
    """Is ``value`` shaped like a PointValue (float | {str: float})?"""
    if isinstance(value, (int, float)):
        return True
    if isinstance(value, dict):
        return all(isinstance(k, str) and isinstance(v, (int, float))
                   for k, v in value.items())
    return False


class SweepCache:
    """One-file-per-point JSON result cache with atomic writes.

    Corrupt entries — truncated writes, garbage bytes, valid JSON of
    the wrong shape — are *evicted* (logged + unlinked) and reported as
    misses, so a damaged cache heals itself by recomputation instead of
    poisoning sweeps forever or aborting them.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None):
        if root is None:
            root = os.environ.get("REPRO_SWEEP_CACHE") or \
                Path.home() / ".cache" / "repro-sweeps"
        self.root = Path(root).expanduser()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _evict(self, path: Path, reason: object) -> None:
        """Log and unlink a damaged entry; never raises."""
        _log.warning("evicting corrupt sweep-cache entry %s (%s); "
                     "the point will be recomputed", path, reason)
        try:
            os.unlink(path)
        except OSError:
            pass

    def get(self, key: str) -> Tuple[bool, Optional[PointValue]]:
        """(hit, value); corrupt entries are evicted and count as misses."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                value = json.load(handle)["value"]
        except FileNotFoundError:
            return False, None
        except (OSError, ValueError, KeyError) as exc:
            self._evict(path, exc)
            return False, None
        if not _valid_point_value(value):
            self._evict(
                path, f"value has type {type(value).__name__}, "
                      f"not float | dict[str, float]")
            return False, None
        return True, value

    def put(self, key: str, value: PointValue) -> None:
        """Persist ``value`` atomically against concurrent readers
        *and* writers on the same root.

        The cache root is shared property: pool workers, fabric workers
        on other hosts (via a network filesystem) and the coordinator
        all write it concurrently. Three ingredients make that safe:

        * a **per-writer temp name** (random suffix + pid in the
          prefix), so two writers of the same key never clobber each
          other's half-written temp file;
        * an ``fsync`` before the rename, so the rename can never be
          durably ordered ahead of the data it publishes (a crash
          window that would leave a *committed* empty/truncated entry
          — self-healing via eviction, but needlessly lost work);
        * ``os.replace``, atomic on POSIX: a concurrent ``get`` sees
          the old entry or the new one, never a torn mix (pinned by
          the two-process stress test).
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            "w", encoding="utf-8", dir=path.parent,
            prefix=f".tmp-{os.getpid()}-", suffix=".json", delete=False)
        try:
            with handle:
                json.dump({"value": value}, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise


# -- execution ------------------------------------------------------------

def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit arg > ``REPRO_JOBS`` > ``os.cpu_count()``."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            jobs = int(env)
        else:
            jobs = os.cpu_count() or 1
    return max(1, jobs)


class PointTimeoutError(RuntimeError):
    """A point exceeded the ``REPRO_POINT_TIMEOUT`` wall-clock budget."""


def _point_timeout_s() -> float:
    """Per-point wall-clock budget in seconds (0 = unlimited).

    ``REPRO_POINT_TIMEOUT`` guards sweeps against a single runaway
    point (an accidental infinite simulation, a pathological parameter
    combination) pinning a worker forever. Unset, empty or malformed
    values disable the guard.
    """
    raw = os.environ.get("REPRO_POINT_TIMEOUT", "").strip()
    if not raw:
        return 0.0
    try:
        return max(0.0, float(raw))
    except ValueError:
        _log.warning("ignoring malformed REPRO_POINT_TIMEOUT=%r", raw)
        return 0.0


def _invoke(task: Tuple[Callable, ExperimentScale, dict]) -> PointValue:
    """Worker entry point (top-level so it pickles by reference).

    Honours ``REPRO_POINT_TIMEOUT``: a point that overruns is aborted
    via ``SIGALRM`` and yields ``NaN`` (which ``run_sweep`` refuses to
    cache), so one stuck point costs its budget, not the whole sweep.
    The guard needs the main thread and ``SIGALRM``; elsewhere the
    point simply runs unguarded.
    """
    point_fn, scale, params = task
    limit = _point_timeout_s()
    if limit <= 0.0 or not hasattr(signal, "SIGALRM") \
            or threading.current_thread() is not threading.main_thread():
        return point_fn(scale, params)

    def _expired(signum, frame):
        raise PointTimeoutError(
            f"point {point_fn.__module__}.{point_fn.__qualname__}"
            f"({params!r}) exceeded REPRO_POINT_TIMEOUT={limit:g}s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return point_fn(scale, params)
    except PointTimeoutError as exc:
        _log.warning("%s; recording NaN (not cached)", exc)
        return float("nan")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _contains_nan(value: PointValue) -> bool:
    """True when a point value (or any series entry) is NaN."""
    if isinstance(value, dict):
        return any(isinstance(v, float) and math.isnan(v)
                   for v in value.values())
    return isinstance(value, float) and math.isnan(value)


def _worker_init(parent_sys_path: List[str]) -> None:
    """Pool initializer: make the parent's imports resolvable.

    Fork workers inherit the parent interpreter wholesale, but spawn
    workers start from a fresh interpreter whose ``sys.path`` only
    reflects the environment — any path the parent added at runtime
    (editable checkouts, test harness roots) is missing, so unpickling
    ``point_fn`` by reference would fail. Replaying the parent's
    ``sys.path`` entries (order preserved, duplicates skipped) makes
    every task pickle-clean under both start methods.
    """
    for entry in reversed(parent_sys_path):
        if entry not in sys.path:
            sys.path.insert(0, entry)


#: Scales at or below this simulated duration count as "tiny": each
#: point finishes in well under a second of wall time, so pool IPC
#: round-trips are a visible fraction of the sweep.
_TINY_SCALE_DURATION = 1.5
#: Upper bound on batching — small enough that the tail of a sweep
#: still spreads across workers.
_MAX_CHUNKSIZE = 8


def _chunksize(scale: ExperimentScale, ntasks: int, workers: int) -> int:
    """Batch size for ``pool.map`` over ``ntasks`` points.

    SMOKE-scale points simulate ~1 second each and return in tens of
    milliseconds, so shipping them one at a time makes the pool's IPC a
    measurable overhead: batch them so each worker gets a few points per
    round-trip (aiming for ~4 chunks per worker to keep the load
    balanced). Full-scale points run for seconds each — there the
    head-of-line risk of batching outweighs the IPC saving, so they keep
    ``chunksize=1``. Ordering and results are unaffected either way
    (``pool.map`` preserves order); only message framing changes.
    """
    if scale.duration > _TINY_SCALE_DURATION:
        return 1
    return max(1, min(_MAX_CHUNKSIZE, ntasks // (workers * 4)))


def _pool_context():
    """Worker start method: ``REPRO_MP_START`` > fork > platform default.

    Fork is preferred where available (cheap, inherits the imported
    package); the pool is nonetheless pickle-clean, so forcing
    ``REPRO_MP_START=spawn`` (or running on a platform without fork)
    produces byte-identical sweeps — asserted by
    ``tests/test_executor_determinism.py``.
    """
    import multiprocessing
    method = os.environ.get("REPRO_MP_START", "").strip()
    if method:
        return multiprocessing.get_context(method)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context()


# -- fabric ----------------------------------------------------------------
#
# The distributed alternative to the local pool: run_sweep(fabric=...)
# ships pending points to a coordinator/worker fabric
# (repro.experiments.fabric) instead of a ProcessPoolExecutor. The
# fabric shares the same content-addressed cache keys, so its workers'
# local caches, the coordinator's store and this process's store are
# one coherent cache. Resolution order: explicit argument >
# set_default_fabric() (the runner's --workers) > REPRO_FABRIC.

#: Sentinel/spec value that disables the fabric even when REPRO_FABRIC
#: is set (used by traced runs, whose spans must stay in-process).
FABRIC_OFF = "off"

#: Mixed-mode floor: a sweep with fewer than this many *pending* points
#: skips a resolved fabric and runs on the in-process pool instead.
#: Shipping a point costs a network round-trip plus (first use) worker
#: spawn/handshake, which dwarfs a 2-point residual sweep after a warm
#: cache; big fan-outs still go distributed. Override with
#: ``REPRO_FABRIC_MIN_POINTS`` (0 = always use the fabric).
FABRIC_MIN_POINTS = 4


def _fabric_min_points() -> int:
    """The mixed-mode floor, honouring ``REPRO_FABRIC_MIN_POINTS``."""
    raw = os.environ.get("REPRO_FABRIC_MIN_POINTS", "").strip()
    if raw:
        try:
            return max(0, int(raw))
        except ValueError:
            _log.warning("ignoring non-integer REPRO_FABRIC_MIN_POINTS"
                         "=%r", raw)
    return FABRIC_MIN_POINTS

_DEFAULT_FABRIC: Optional[Any] = None
#: spec string -> started Fabric, shared across sweeps and closed at exit.
_FABRICS: Dict[str, Any] = {}


def set_default_fabric(fabric: Optional[Any]) -> Optional[Any]:
    """Install a process-wide default fabric (spec string, Fabric
    instance, or :data:`FABRIC_OFF`); returns the previous default."""
    global _DEFAULT_FABRIC
    previous = _DEFAULT_FABRIC
    _DEFAULT_FABRIC = fabric
    return previous


def _fabric_for_spec(spec: str) -> Any:
    """The shared Fabric for a spec string (created once, reused)."""
    fabric = _FABRICS.get(spec)
    if fabric is None:
        import atexit
        from repro.experiments.fabric import Fabric
        fabric = _FABRICS[spec] = Fabric(spec)
        atexit.register(fabric.close)
    return fabric


def _resolve_fabric(fabric: Optional[Any]) -> Optional[Any]:
    """Resolve run_sweep's ``fabric`` argument to a Fabric or None."""
    if fabric is None:
        fabric = _DEFAULT_FABRIC
    if fabric is None:
        fabric = os.environ.get("REPRO_FABRIC", "").strip() or None
    if fabric is None or fabric == FABRIC_OFF or fabric == "":
        return None
    if isinstance(fabric, str):
        return _fabric_for_spec(fabric)
    return fabric


def build_result(spec: SweepSpec,
                 values: Sequence[PointValue]) -> ExperimentResult:
    """Reduce point values (in spec order) into an ExperimentResult."""
    result = ExperimentResult(
        experiment_id=spec.experiment_id, title=spec.title,
        x_label=spec.x_label, y_label=spec.y_label, notes=spec.notes)
    series = {label: result.new_series(label)
              for label in spec.series_order}

    def series_for(label: str):
        if label not in series:
            series[label] = result.new_series(label)
        return series[label]

    for point, value in zip(spec.points, values):
        if isinstance(value, dict):
            for label, y in value.items():
                series_for(label).add(point.x, y)
        else:
            series_for(point.series).add(point.x, value)
    if spec.postprocess is not None:
        result = spec.postprocess(result)
    return result


def run_sweep(spec: SweepSpec, scale: ExperimentScale,
              jobs: Optional[int] = None, cache: bool = True,
              cache_root: Optional[Union[str, Path]] = None,
              fabric: Optional[Any] = None) -> ExperimentResult:
    """Execute a sweep: cache lookup → fan-out → write-back → reduce.

    ``jobs=1`` (or a single pending point) runs in-process with no pool
    overhead; that path is the reference the determinism test compares
    the pool against. ``cache=False`` or ``REPRO_NO_CACHE=1`` skips the
    on-disk cache but still deduplicates identical points in-sweep.

    ``fabric`` (or the runner's ``--workers`` default, or
    ``REPRO_FABRIC``) routes pending points to a distributed
    coordinator/worker fabric instead of the local pool — a spec string
    (``"4"`` for local spawns, ``"hostA:7070,hostB:7070"`` for remote
    workers) or a started :class:`repro.experiments.fabric.Fabric`.
    Points are pure, so fabric and pool runs are byte-identical; any
    fabric failure falls back to local execution, like a broken pool.
    Dispatch is **mixed-mode**: sweeps whose pending-point count is
    below :data:`FABRIC_MIN_POINTS` (override:
    ``REPRO_FABRIC_MIN_POINTS``) stay on the in-process pool even with
    a fabric configured — a near-fully-cached figure's one residual
    point is cheaper to simulate than to ship.
    """
    global _SIMULATED_POINTS
    points = spec.points
    use_cache = cache and not os.environ.get("REPRO_NO_CACHE")
    store = SweepCache(cache_root) if use_cache else None
    fabric = _resolve_fabric(fabric)

    fns = [p.fn or spec.point_fn for p in points]
    keys = [point_key(fn, scale, p.params)
            for fn, p in zip(fns, points)]
    values: List[Optional[PointValue]] = [None] * len(points)
    done = [False] * len(points)
    if store is not None:
        for index, key in enumerate(keys):
            hit, value = store.get(key)
            if hit:
                values[index] = value
                done[index] = True

    # Group outstanding work by key so duplicates simulate once.
    pending: Dict[str, List[int]] = {}
    for index, key in enumerate(keys):
        if not done[index]:
            pending.setdefault(key, []).append(index)

    if pending:
        order = list(pending)
        tasks = [(fns[pending[key][0]], scale,
                  dict(points[pending[key][0]].params)) for key in order]
        _SIMULATED_POINTS += len(tasks)
        computed = None
        if fabric is not None and len(tasks) < _fabric_min_points():
            # Mixed mode: the distributed path only pays off at fan-out
            # scale, and the choice cannot change output bits (points
            # are pure and both paths share the cache keys).
            _log.debug("sweep %s: %d pending point(s) below the fabric "
                       "floor (%d); running in-process",
                       spec.experiment_id, len(tasks),
                       _fabric_min_points())
            fabric = None
        if fabric is not None:
            from repro.experiments.fabric import FabricError
            # With an ambient obs context active, the fabric runs every
            # point traced: workers record spans/telemetry locally and
            # ship them back with their results, and run_tasks merges
            # the payloads into this context worker-tagged (DESIGN.md
            # §10) — so a distributed traced run yields one coherent
            # trace instead of N invisible ones. Tracing forces the
            # shared cache off (a hit would skip the simulation that
            # produces the spans); the runner's --trace-out path
            # already disables the local cache for the same reason.
            from repro import obs as _obs
            context = _obs.current()
            trace_config = None
            if getattr(context, "enabled", False):
                recorder = context.spans
                trace_config = {
                    "span_capacity": recorder.capacity,
                    "span_reserved": recorder.reserved,
                    "telemetry_interval": context.telemetry_interval,
                    "telemetry_capacity": context.telemetry_capacity,
                }
            try:
                computed = fabric.run_tasks(
                    tasks, keys=order,
                    use_cache=(store is not None
                               and trace_config is None),
                    trace=trace_config,
                    obs_context=context if trace_config else None)
            except FabricError as exc:
                _log.warning(
                    "sweep fabric failed (%s); recomputing %d point(s) "
                    "locally", exc, len(tasks))
                computed = None
        if computed is None:
            workers = min(resolve_jobs(jobs), len(tasks))
            if workers <= 1:
                computed = [_invoke(task) for task in tasks]
            else:
                try:
                    with ProcessPoolExecutor(
                            max_workers=workers,
                            mp_context=_pool_context(),
                            initializer=_worker_init,
                            initargs=(list(sys.path),)) as pool:
                        computed = list(pool.map(
                            _invoke, tasks,
                            chunksize=_chunksize(scale, len(tasks),
                                                 workers)))
                except Exception as exc:
                    # A worker died (OOM-kill, segfault in an
                    # extension, hard crash) or the pool broke some
                    # other way. The points themselves are
                    # deterministic pure functions, so recompute the
                    # whole batch serially in-process rather than
                    # aborting the sweep.
                    _log.warning(
                        "sweep worker pool failed (%s: %s); recomputing "
                        "%d point(s) serially",
                        type(exc).__name__, exc, len(tasks))
                    computed = [_invoke(task) for task in tasks]
        for key, value in zip(order, computed):
            for index in pending[key]:
                values[index] = value
            if store is not None and not _contains_nan(value):
                # NaN marks an aborted point (REPRO_POINT_TIMEOUT):
                # never persist it, so the next run retries.
                store.put(key, value)

    return build_result(spec, values)
