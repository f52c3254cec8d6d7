"""Link models: per-disk SATA ports and the controller↔host bus.

The drive model already charges its own interface for cache-hit transfers;
the port object here adds per-port accounting and an optional bandwidth
override, while :class:`HostBus` is the shared pipe every byte crosses on
its way to host memory — the 450 MB/s controller ceiling and, one level
up, the PCI-X segment.
"""

from __future__ import annotations

from typing import Optional

from repro.sim import Pipe, Simulator
from repro.units import MiB, US

__all__ = ["HostBus", "SataPort"]


class SataPort:
    """One point-to-point disk link with transfer accounting.

    The physical wire is owned by the drive (its ``interface`` pipe —
    cache-hit transfers are charged there; miss transfers overlap the
    media read). Pass that pipe in so the port *views* the same wire
    rather than double-charging it; a standalone pipe is created only for
    ports modelled without a drive.
    """

    def __init__(self, sim: Simulator, bandwidth: float = 150.0 * MiB,
                 name: str = "", pipe: Optional[Pipe] = None):
        self.sim = sim
        self.pipe = pipe if pipe is not None else Pipe(
            sim, bandwidth=bandwidth, name=name or "sata")
        self.name = name or self.pipe.name

    @property
    def bytes_moved(self) -> int:
        """Total bytes that crossed this port."""
        return self.pipe.bytes_moved


class HostBus:
    """The shared controller→host pipe (aggregate bandwidth ceiling).

    Every completed byte crosses it, so with eight streaming disks this is
    what pins the node to the controller's sustained rate. A small
    per-transfer overhead models DMA descriptor setup.
    """

    def __init__(self, sim: Simulator, bandwidth: float = 450.0 * MiB,
                 per_transfer_overhead: float = 5 * US, name: str = ""):
        self.sim = sim
        self.pipe = Pipe(sim, bandwidth=bandwidth,
                         per_transfer_overhead=per_transfer_overhead,
                         name=name or "hostbus")

    @property
    def bytes_moved(self) -> int:
        """Total bytes that crossed the bus."""
        return self.pipe.bytes_moved

    def utilization(self, elapsed: float) -> float:
        """Busy fraction over ``elapsed`` seconds."""
        return self.pipe.busy_time / elapsed if elapsed > 0 else 0.0
