"""Shared machinery for experiment runners.

Runners measure steady-state throughput over a fixed simulated window
after a warm-up, using seeded rotational latency so results are
reproducible run-to-run. ``ExperimentScale`` trades simulated seconds for
wall-clock time: SMOKE for CI sanity, QUICK for benches, FULL for the
numbers recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.io import BlockDevice
from repro.node import NodeTopology, StorageNode, build_node
from repro.sim import Simulator
from repro.units import KiB
from repro.workload import ClientFleet, FleetReport, StreamSpec

__all__ = [
    "FULL",
    "QUICK",
    "SMOKE",
    "ExperimentScale",
    "measure",
    "server_wrapper",
    "spread_streams",
]


@dataclass(frozen=True)
class ExperimentScale:
    """How long each measured point runs (simulated seconds)."""

    name: str
    duration: float
    warmup: float


SMOKE = ExperimentScale("smoke", duration=1.0, warmup=0.25)
QUICK = ExperimentScale("quick", duration=3.0, warmup=0.75)
FULL = ExperimentScale("full", duration=10.0, warmup=2.0)


def spread_streams(total_streams: int, disk_ids: Sequence[int],
                   disk_capacity: int, request_size: int = 64 * KiB,
                   outstanding: int = 1) -> List[StreamSpec]:
    """Spread ``total_streams`` round-robin over disks, paper-spaced.

    Unlike :func:`repro.workload.uniform_streams` (which places N streams
    on *every* disk), this distributes a node-wide total — Figure 1's
    layout, where 100 total streams land ~1.7 per disk on 60 disks.
    """
    if total_streams < 1:
        raise ValueError(f"total_streams must be >= 1: {total_streams}")
    if not disk_ids:
        raise ValueError("need at least one disk")
    per_disk = -(-total_streams // len(disk_ids))  # ceil
    spacing = disk_capacity // per_disk
    spacing -= spacing % request_size
    if spacing < request_size:
        raise ValueError("streams do not fit on the disks")
    specs = []
    for stream_id in range(total_streams):
        disk = disk_ids[stream_id % len(disk_ids)]
        index = stream_id // len(disk_ids)
        specs.append(StreamSpec(stream_id=stream_id, disk_id=disk,
                                start_offset=index * spacing,
                                request_size=request_size,
                                outstanding=outstanding))
    return specs


def server_wrapper(params, policy=None):
    """A ``wrap_device`` callable placing a StreamServer over the node."""
    from repro.core import StreamServer

    def wrap(sim: Simulator, node: StorageNode):
        return StreamServer(sim, node, params, policy=policy)

    return wrap


def measure(topology: NodeTopology, scale: ExperimentScale,
            specs_for: "callable",
            wrap_device: Optional["callable"] = None,
            settle_requests: int = 5,
            tolerate_errors: bool = False) -> FleetReport:
    """Build a node, optionally wrap it, run open-ended streams, report.

    ``specs_for(node)`` returns the stream specs; ``wrap_device(sim,
    node)`` returns the device clients talk to (e.g. a StreamServer).
    ``settle_requests`` keeps the warm-up going until every stream has
    completed that many requests, so cold-start transients (initial
    cache fill rounds, stream detection) stay out of the measurement.
    ``tolerate_errors`` makes the clients skip failed requests instead
    of crashing the run — required for fault-injection experiments,
    where some requests are *supposed* to fail.
    """
    sim = Simulator()
    node = build_node(sim, topology)
    device: BlockDevice = node
    if wrap_device is not None:
        device = wrap_device(sim, node)
    specs = specs_for(node)
    fleet = ClientFleet(sim, device, specs,
                        tolerate_errors=tolerate_errors)
    report = fleet.run(duration=scale.duration, warmup=scale.warmup,
                       settle_requests=settle_requests)
    # The point's object graph is one reference cycle (simulator → event
    # core → pending events → callbacks → components → simulator), so
    # only a full collection frees it. Free it now: with few GC-tracked
    # allocations per request, the next generation-2 pass can come
    # several points later and peak memory grows meanwhile.
    del sim, node, device, fleet
    gc.collect()
    return report
