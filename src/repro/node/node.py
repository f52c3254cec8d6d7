"""The storage node: controllers plus a host-side cost model.

The host charges CPU time per I/O. The completion-path cost grows with the
number of live I/O buffers (pending-list scans, select() fd sets, buffer
registry churn in the paper's user-level server), which is why dispatching
from *all* streams at once (Figure 12, ``D = S``) stays below the hardware
ceiling while a small dispatch set (Figure 13, ``D = #disks``) does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.controller.controller import DiskController
from repro.io import IORequest
from repro.sim import Resource, Simulator
from repro.sim.events import Event
from repro.sim.stats import StatsRegistry
from repro.units import GiB, US

__all__ = ["HostParams", "StorageNode"]


@dataclass(frozen=True)
class HostParams:
    """Host CPU/memory cost model.

    Attributes
    ----------
    cpus:
        Host processors available to the I/O path (the paper's node has
        two Opteron 242s).
    submit_cost_s:
        CPU time to issue one request (syscall + async submission).
    completion_base_s:
        Fixed CPU time to reap one completion.
    completion_per_buffer_s:
        Extra completion cost per live I/O buffer — the O(n) component
        of buffer management.
    memory_bytes:
        Host memory available for I/O buffering (advisory: the stream
        server sizes its buffered set against it).
    """

    cpus: int = 2
    submit_cost_s: float = 3 * US
    completion_base_s: float = 20 * US
    completion_per_buffer_s: float = 1.5 * US
    memory_bytes: int = 1 * GiB


class _NodeRequest:
    """One request's hop through the node, as callbacks: submit CPU,
    the controller, then completion CPU priced at the live buffer count.

    A failed controller event fails the node's event with the same
    exception (no CPU is held at that point).
    """

    __slots__ = ("node", "controller", "request", "event", "span", "cost")

    def __init__(self, node: "StorageNode", controller: DiskController,
                 request: IORequest, event: Event):
        self.node = node
        self.controller = controller
        self.request = request
        self.event = event
        self.span = None

    def start(self, _event: Event) -> None:
        node = self.node
        if node._obs_on:
            self.span = node._obs.begin_child(self.request, "node.request",
                                              "node", node.sim.now)
            node._obs.link(self.request, self.span)
        node._cpu.request_then(self.submit_granted)

    def submit_granted(self, _grant: Event) -> None:
        node = self.node
        node.sim.after(node.host.submit_cost_s, self.submitted)

    def submitted(self, _timeout: Event) -> None:
        node = self.node
        node._cpu.release()
        node.outstanding += 1
        self.controller.submit(self.request).callbacks.append(
            self.controller_done)

    def controller_done(self, done: Event) -> None:
        node = self.node
        node.outstanding -= 1
        if not done._ok:
            if self.span is not None:
                node._obs.spans.end(self.span, node.sim.now)
            self.event.fail(done._value)
            return
        host = node.host
        self.cost = (host.completion_base_s
                     + host.completion_per_buffer_s * node.live_buffers)
        node._cpu.request_then(self.complete_granted)

    def complete_granted(self, _grant: Event) -> None:
        self.node.sim.after(self.cost, self.completed)

    def completed(self, _timeout: Event) -> None:
        node = self.node
        request = self.request
        now = node.sim.now
        node._cpu.release()
        request.complete_time = now
        node._c_completed.add(request.size)
        if self.span is not None:
            node._obs.spans.end(self.span, now)
        self.event.succeed(request)


class StorageNode:
    """A host with one or more controllers, as one block device.

    ``submit`` routes by global ``disk_id``; completions pay the host
    cost model. Layers that stage their own buffers (the stream-aware
    server's buffered set) register them via :meth:`register_buffers` so
    the completion cost reflects total buffer-management load.
    """

    def __init__(self, sim: Simulator,
                 controllers: Sequence[DiskController],
                 host: Optional[HostParams] = None, name: str = "node"):
        if not controllers:
            raise ValueError("node needs at least one controller")
        self.sim = sim
        self.controllers = list(controllers)
        self.host = host or HostParams()
        self.name = name
        self._route: Dict[int, DiskController] = {}
        for controller in self.controllers:
            for disk_id in controller.disks:
                if disk_id in self._route:
                    raise ValueError(
                        f"disk {disk_id} on two controllers")
                self._route[disk_id] = controller
        capacities = {c.capacity_bytes for c in self.controllers}
        if len(capacities) != 1:
            raise ValueError("controllers must host homogeneous disks")
        #: Per-disk addressable bytes (BlockDevice protocol).
        self.capacity_bytes = capacities.pop()
        self._cpu = Resource(sim, capacity=self.host.cpus,
                             name=f"{name}.cpu")
        self.outstanding = 0
        self._external_buffers = 0
        self.stats = StatsRegistry()
        # Per-request metrics, resolved once (a registry probe each).
        self._c_completed = self.stats.counter("completed")
        # Ambient observability, captured once (boolean-guarded hooks).
        self._obs = obs.current()
        self._obs_on = self._obs.enabled

    # -- buffer registry -----------------------------------------------------
    @property
    def live_buffers(self) -> int:
        """Outstanding node requests plus externally registered buffers."""
        return self.outstanding + self._external_buffers

    def register_buffers(self, count: int) -> None:
        """Add ``count`` externally managed I/O buffers to the load model."""
        if self._external_buffers + count < 0:
            raise ValueError("unregistering more buffers than registered")
        self._external_buffers += count

    @property
    def num_disks(self) -> int:
        """Total disks across all controllers."""
        return len(self._route)

    @property
    def disk_ids(self) -> List[int]:
        """Sorted global disk ids."""
        return sorted(self._route)

    def drive(self, disk_id: int):
        """The :class:`~repro.disk.drive.DiskDrive` behind ``disk_id``."""
        return self._route[disk_id].disks[disk_id]

    # -- BlockDevice protocol ----------------------------------------------------
    def submit(self, request: IORequest) -> Event:
        """Issue ``request``; completion pays the host cost model.

        The request's hop is a callback chain (:class:`_NodeRequest`)
        started by one zero-delay event pushed here.
        """
        controller = self._route.get(request.disk_id)
        if controller is None:
            raise ValueError(f"{request!r}: unknown disk {request.disk_id}")
        sim = self.sim
        if request.submit_time == 0.0:  # inlined stamp_submit()
            request.submit_time = sim.now
        event = sim.event(name="node")
        sim.after(0.0, _NodeRequest(self, controller, request, event).start)
        return event

    # -- reporting -----------------------------------------------------------------
    def throughput(self, elapsed: float) -> float:
        """Completed bytes per second over ``elapsed``."""
        return self._c_completed.throughput(elapsed)

    def __repr__(self) -> str:
        return (f"<StorageNode {self.name!r} "
                f"controllers={len(self.controllers)} "
                f"disks={self.num_disks}>")
