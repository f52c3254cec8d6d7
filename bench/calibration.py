"""Machine-speed calibration: a fixed pure-Python kernel timed beside
each measurement.

On a shared VM the same simulated point takes anywhere from 0.6x to 1.2x
its usual CPU time, depending on what other tenants do, and the speed
drifts over seconds to minutes. This kernel's CPU time tracks that
drift. The worker runs it before and after every task and scales the
task's CPU time by ``REFERENCE_S / kernel time``, which reports CPU
seconds on a machine where the kernel takes :data:`REFERENCE_S`.

The kernel imports nothing from ``repro``, so no change to the simulator
changes it. It exercises what the simulator's hot paths do: a heap of
timed events, generator resumption, ``__slots__`` objects, dict updates
and a working set of a few MiB.
"""

from __future__ import annotations

import heapq
import time

__all__ = ["REFERENCE_S", "kernel_seconds", "scaled"]

#: The kernel's CPU seconds on the machine the benchmark was sized on
#: (2-vCPU Intel Xeon VM, Python 3.11); scaled times read as seconds
#: there.
REFERENCE_S = 0.12

_STEPS = 60_000
_STREAMS = 256
_RING = 8192


class _Request:
    __slots__ = ("stream", "offset", "size", "due")

    def __init__(self, stream: int, offset: int, size: int, due: float):
        self.stream = stream
        self.offset = offset
        self.size = size
        self.due = due


def _client(stream: int):
    offset, now = 0, 0.0
    while True:
        now = yield _Request(stream, offset, 65536,
                             now + 1e-4 * (1 + stream % 13))
        offset += 65536


def _kernel() -> int:
    clients = [_client(stream) for stream in range(_STREAMS)]
    heap = [(next(client).due, stream)
            for stream, client in enumerate(clients)]
    heapq.heapify(heap)
    ring = [None] * _RING
    served = {}
    for step in range(_STEPS):
        due, stream = heapq.heappop(heap)
        request = clients[stream].send(due)
        ring[step % _RING] = request
        served[stream] = served.get(stream, 0) + request.size
        heapq.heappush(heap, (request.due, stream))
    return len(served)


def kernel_seconds(clock=time.process_time) -> float:
    """Seconds of one run of the kernel in this process, on ``clock``
    (CPU time by default)."""
    started = clock()
    _kernel()
    return clock() - started


def scaled(cpu_s: float, kernel_before: float, kernel_after: float) -> float:
    """``cpu_s`` in reference seconds, using the kernel times around it."""
    return cpu_s * REFERENCE_S / ((kernel_before + kernel_after) / 2)
