"""The benchmark's four workloads: which simulations each one runs.

Each workload is a fixed list of *tasks*, one simulated measurement
point each. Three workloads are slices of paper-figure sweeps at SMOKE
scale, run exactly as ``run_sweep(jobs=1)`` runs them in-process (the
point function called with ``SMOKE`` and the point's params), so their
values are the figure's series values bit for bit. The fourth,
``mixed-rw``, is built here from public constructors only.

The workloads are chosen to separate the simulator's layers:

* ``direct-collapse`` — one Figure 1 point per request-size column, 60
  to 500 streams on 60 disks, straight to the node:
  ``sim``/``disk``/``controller``/``node``, never ``repro.core`` or
  ``repro.host``.
* ``staged-dispatch`` — Figure 13 at 30 streams/disk, D = #disks beside
  Figure 12's D = S baseline: ``repro.core`` dominates.
* ``host-stack`` — one Figure 2 point per Linux scheduler through
  ``BufferCache`` + ``BlockLayer`` on one disk: the only ``repro.host``
  workload; no controller, node or core.
* ``mixed-rw`` — 8 disks x 32 streams through a ``StreamServer`` with
  write coalescing, 25/50/75% writers, fixed bytes per stream, timed to
  the write-back barrier: read staging beside the write path.

The figure points take no seed, so ``--seed`` does not change them.
``mixed-rw`` takes its topology seed and its choice of writer streams
from ``--seed``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import ServerParams, StreamServer
from repro.disk.specs import WD800JD
from repro.experiments import (SMOKE, fig01_collapse, fig02_schedulers,
                               fig13_dispatch_staging)
from repro.experiments.executor import SweepSpec
from repro.io import IOKind
from repro.node import build_node, medium_topology
from repro.sim import Simulator
from repro.units import KiB, MiB
from repro.workload import StreamClient, uniform_streams

__all__ = ["InvariantError", "Task", "Workload", "build", "mixed_point",
           "point_key"]


class InvariantError(RuntimeError):
    """A ``mixed-rw`` point broke one of its output invariants."""


@dataclass(frozen=True)
class Task:
    """One simulated measurement: ``run()`` returns its value (MB/s)."""

    key: str
    run: Callable[[], float]


@dataclass(frozen=True)
class Workload:
    """A workload's tasks, plus the figure sweep its tasks come from."""

    name: str
    tasks: Tuple[Task, ...]
    #: The full figure sweep (for the golden file and the slice check);
    #: None for ``mixed-rw``.
    spec: Optional[SweepSpec] = None


def point_key(series: str, x) -> str:
    """Golden-file key of a figure point: ``series @ x``."""
    return f"{series} @ {x}"


#: workload -> (figure module, the (series, x) points it runs, cheapest
#: first; the first two form the reduced variant the tests run). Each
#: slice stands in for its whole figure sweep: its per-layer shares of
#: host time and its CPU time and processes per request match the
#: sweep's, which ``run.py --check-slices`` measures (README.md).
FIGURE_SLICES = {
    "direct-collapse": (fig01_collapse, [
        ("100 streams", "256K"), ("500 streams", "128K"),
        ("500 streams", "64K"), ("300 streams", "16K"),
        ("60 streams", "8K")]),
    "staged-dispatch": (fig13_dispatch_staging, [
        ("R = 512K, from Figure 12 (D = S)", 10),
        ("R = 512K, from Figure 12 (D = S)", 30),
        ("R = 512K, D = #disks, N = 128", 30)]),
    "host-stack": (fig02_schedulers, [
        ("noop", 256), ("cfq", 128), ("anticipatory", 64)]),
}

def _figure_tasks(name: str) -> Tuple[SweepSpec, List[Task]]:
    module, wanted = FIGURE_SLICES[name]
    spec = module.sweep()
    by_key = {point_key(p.series, p.x): p for p in spec.points}
    tasks = []
    for series, x in wanted:
        key = point_key(series, x)
        point = by_key[key]  # KeyError: the figure no longer has it
        fn = point.fn or spec.point_fn
        tasks.append(Task(key, functools.partial(fn, SMOKE,
                                                 dict(point.params))))
    return spec, tasks


# -- mixed-rw ---------------------------------------------------------------

MIXED_DISK_STREAMS = 32
MIXED_REQUEST = 64 * KiB
#: Half a gather buffer past a whole number of them, so every writer
#: leaves a partial buffer for the barrier to flush.
MIXED_STREAM_BYTES = 8 * MiB + 512 * KiB
MIXED_WRITE_PCTS = (25, 50, 75)
#: Staging like Figure 13 (D = #disks, R = 512K), with N sized to one
#: stream's bytes. The write budget holds a full gather buffer for every
#: writer: a writer that has to wait for budget can absorb into a buffer
#: that was flushed during the wait, and those bytes are then never
#: written (see README.md, "Model findings").
MIXED_PARAMS = ServerParams(read_ahead=512 * KiB, dispatch_width=8,
                            requests_per_residency=16,
                            memory_budget=256 * MiB, coalesce_writes=True,
                            write_memory_budget=256 * MiB)


def mixed_point(seed: int, write_pct: int) -> float:
    """MB/s of a fixed-bytes mixed read/write run, to the barrier.

    Every stream moves ``MIXED_STREAM_BYTES``; once the last client
    finishes, the write coalescer's ``flush_all`` barrier is raised and
    the value is total bytes over the barrier's completion time. Raises
    :class:`InvariantError` unless every stream completed all its bytes
    without errors, no dirty bytes remain after the barrier, and the
    coalescer flushed exactly the bytes the writers were acknowledged.
    """
    sim = Simulator()
    node = build_node(sim, medium_topology(disk_spec=WD800JD, seed=seed))
    server = StreamServer(sim, node, MIXED_PARAMS)
    rng = random.Random(seed * 1000 + write_pct)
    writers_per_disk = MIXED_DISK_STREAMS * write_pct // 100
    specs = uniform_streams(MIXED_DISK_STREAMS, node.disk_ids,
                            node.capacity_bytes,
                            request_size=MIXED_REQUEST,
                            total_bytes=MIXED_STREAM_BYTES)
    writers = set()
    for disk_index in range(len(node.disk_ids)):
        base = disk_index * MIXED_DISK_STREAMS
        writers.update(base + i for i in rng.sample(
            range(MIXED_DISK_STREAMS), writers_per_disk))
    clients = [
        StreamClient(sim, server,
                     replace(spec, kind=IOKind.WRITE)
                     if spec.stream_id in writers else spec)
        for spec in specs]
    done = sim.all_of([client.start() for client in clients])
    coalescer = server.write_coalescer
    marks: Dict[str, float] = {}

    def raise_barrier(_event) -> None:
        barrier = coalescer.flush_all()
        barrier.callbacks.append(
            lambda _b: marks.setdefault("barrier", sim.now))

    done.callbacks.append(raise_barrier)
    sim.run()
    short = [c.spec.stream_id for c in clients
             if c.completed_bytes != MIXED_STREAM_BYTES]
    errors = sum(c.errors for c in clients)
    if short or errors or "barrier" not in marks:
        raise InvariantError(
            f"{len(short)} streams short of their bytes, {errors} errors, "
            f"barrier {'fired' if 'barrier' in marks else 'never fired'}")
    if coalescer.dirty_bytes:
        raise InvariantError(
            f"{coalescer.dirty_bytes} dirty bytes after the barrier")
    # The barrier only waits for the buffers it drains itself, and
    # dirty_bytes drops when a flush is submitted; so also check that
    # every acknowledged byte went out in a flush.
    written = MIXED_STREAM_BYTES * len(writers)
    absorbed = coalescer.stats.counter("absorbed").total_bytes
    flushed = coalescer.stats.counter("flushes").total_bytes
    if not absorbed == flushed == written:
        raise InvariantError(
            f"writers sent {written} bytes, coalescer absorbed {absorbed}, "
            f"flushed {flushed}")
    total = MIXED_STREAM_BYTES * len(clients)
    return total / MiB / marks["barrier"]


def _mixed_tasks(seed: int) -> List[Task]:
    return [Task(f"{pct}% writes",
                 functools.partial(mixed_point, seed, pct))
            for pct in MIXED_WRITE_PCTS]


def build(name: str, seed: int, reduced: bool = False) -> Workload:
    """The workload ``name`` for ``seed``.

    Tasks run in a fixed order: the worker's peak RSS depends on it
    (seed-shuffled orders moved it by up to 7%). ``reduced`` keeps the
    first two tasks: the fast variant ``test_bench.py`` runs.
    """
    if name == "mixed-rw":
        spec, tasks = None, _mixed_tasks(seed)
    elif name in FIGURE_SLICES:
        spec, tasks = _figure_tasks(name)
    else:
        raise ValueError(f"unknown workload {name!r}")
    if reduced:
        tasks = tasks[:2]
    return Workload(name, tuple(tasks), spec)
