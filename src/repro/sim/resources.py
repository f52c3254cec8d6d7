"""Contention primitives: Resource, Store, Pipe.

These model the queueing points in a storage stack:

* :class:`Resource` — a counted semaphore (e.g. a disk head, a tag queue).
* :class:`Store` — a FIFO buffer of items (e.g. a request queue).
* :class:`Pipe` — a byte pipe with finite bandwidth (e.g. a SATA link).
"""

from __future__ import annotations

import typing
from collections import deque
from functools import partial
from typing import Any, Callable, Optional

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

__all__ = ["Pipe", "Resource", "Store"]


class Resource:
    """A semaphore with ``capacity`` slots and one FIFO of waiters.

    A waiter is either a *step* or an :class:`Event`. Callback chains
    wait with :meth:`request_then`, which calls ``step(event)`` once a
    slot is theirs; process code waits on the event :meth:`request`
    returns::

        grant = resource.request()
        yield grant
        try:
            ...  # hold the resource
        finally:
            resource.release()

    Both kinds share the FIFO, so grants follow request order whatever
    the mix. A slot handed to a step is one ``sim.after(0.0, step)``:
    the push, at the same point, that ``request()`` plus ``succeed()``
    makes, with no Event built for it (DESIGN.md §4, "Hops that wait").

    ``request_then`` and ``release`` are the event core's, bound to this
    resource at construction: C functions on the compiled core, and the
    Python reference of :class:`repro.sim.eventcore.HeapqCore` on the
    heapq core.
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_waiters",
                 "_grant_name", "request_then", "release")

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        #: steps and grant events, oldest first
        self._waiters: deque[Any] = deque()
        #: precomputed once — request() runs once per grant, and the
        #: f-string per call was measurable across millions of requests
        self._grant_name = f"grant:{name}"
        core = sim._core
        #: ``request_then(step)``: call ``step(event)`` once a slot is
        #: granted (FIFO behind every earlier waiter)
        self.request_then: Callable[[Callable[[Event], Any]], None] = \
            partial(core.request_then, self)
        #: ``release()``: free one slot, waking the oldest waiter if any
        self.release: Callable[[], None] = partial(core.release, self)

    @property
    def in_use(self) -> int:
        """Number of currently-held slots."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of waiters (steps and events) for a slot."""
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that fires when a slot is granted."""
        grant = self.sim.event(self._grant_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            grant.succeed(self)
        else:
            self._waiters.append(grant)
        return grant

    def __repr__(self) -> str:
        return (f"<Resource {self.name!r} {self._in_use}/{self.capacity}"
                f" queued={len(self._waiters)}>")


class Store:
    """A FIFO buffer of items with optional capacity.

    ``put`` blocks when the store is full; ``get`` blocks when empty.
    An optional ``priority`` key on get is intentionally *not* provided:
    scheduling policies live in the disk/host layers, not the kernel.
    """

    __slots__ = ("sim", "capacity", "name", "_items", "_getters",
                 "_putters", "_put_name", "_get_name")

    def __init__(self, sim: "Simulator", capacity: Optional[int] = None,
                 name: str = ""):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()
        self._put_name = f"put:{name}"
        self._get_name = f"get:{name}"

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of buffered items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Return an event that fires once ``item`` is accepted."""
        done = self.sim.event(self._put_name)
        if self._getters:
            # Direct hand-off: never buffers, preserves FIFO.
            self._getters.popleft().succeed(item)
            done.succeed(item)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            done.succeed(item)
        else:
            self._putters.append((done, item))
        return done

    def get(self) -> Event:
        """Return an event that fires with the oldest item."""
        want = self.sim.event(self._get_name)
        if self._items:
            want.succeed(self._items.popleft())
            self._admit_waiting_putter()
        else:
            self._getters.append(want)
        return want

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; returns None when empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        self._admit_waiting_putter()
        return item

    def _admit_waiting_putter(self) -> None:
        if self._putters and (
                self.capacity is None or len(self._items) < self.capacity):
            done, item = self._putters.popleft()
            self._items.append(item)
            done.succeed(item)

    def __repr__(self) -> str:
        cap = "inf" if self.capacity is None else str(self.capacity)
        return f"<Store {self.name!r} {len(self._items)}/{cap}>"


class Pipe:
    """A shared byte pipe with a fixed bandwidth in bytes/second.

    Transfers are serialised FIFO: a transfer of ``nbytes`` holds the pipe
    for ``nbytes / bandwidth`` seconds. This deliberately models a
    store-and-forward link (SATA, PCI-X burst) rather than fair sharing;
    fair sharing at these timescales gives the same aggregate numbers but
    costs far more events.
    """

    __slots__ = ("sim", "bandwidth", "per_transfer_overhead", "name",
                 "_lock", "_in_flight", "bytes_moved", "transfers",
                 "busy_time")

    def __init__(self, sim: "Simulator", bandwidth: float,
                 per_transfer_overhead: float = 0.0, name: str = ""):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if per_transfer_overhead < 0:
            raise ValueError("per_transfer_overhead must be >= 0")
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.per_transfer_overhead = float(per_transfer_overhead)
        self.name = name
        self._lock = Resource(sim, capacity=1, name=f"pipe:{name}")
        #: ``(nbytes, then)`` of every unfinished transfer, oldest first
        self._in_flight: deque[tuple[int, Callable[[], Any]]] = deque()
        self.bytes_moved = 0
        self.transfers = 0
        self.busy_time = 0.0

    def transfer_time(self, nbytes: int) -> float:
        """Pure service time for ``nbytes`` (no queueing)."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        return self.per_transfer_overhead + nbytes / self.bandwidth

    def transfer_then(self, nbytes: int, then: Callable[[], Any]) -> None:
        """Move ``nbytes`` through the pipe, then call ``then()``.

        The callback form every simulated link uses: wait for the pipe
        (FIFO), hold it for :meth:`transfer_time`, book the bytes, busy
        time and transfer count, release the pipe, and only then call
        ``then`` — so a waiter the release wakes is scheduled before
        anything ``then`` schedules.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        self._in_flight.append((nbytes, then))
        self._lock.request_then(self._granted)

    def _granted(self, _grant: Event) -> None:
        # One slot granted in request order: the holder is the oldest
        # unfinished transfer.
        nbytes = self._in_flight[0][0]
        self.sim.after(self.per_transfer_overhead + nbytes / self.bandwidth,
                       self._moved)

    def _moved(self, _timeout: Event) -> None:
        nbytes, then = self._in_flight.popleft()
        self.bytes_moved += nbytes
        self.transfers += 1
        self.busy_time += self.per_transfer_overhead + nbytes / self.bandwidth
        self._lock.release()
        then()

    def transfer(self, nbytes: int):
        """Process generator: move ``nbytes`` through the pipe.

        Usage: ``yield from pipe.transfer(nbytes)`` or
        ``yield sim.process(pipe.transfer(nbytes))``; a thin wrapper
        over :meth:`transfer_then`.
        """
        done = self.sim.event()
        self.transfer_then(nbytes, done.succeed)
        yield done

    @property
    def utilization_to(self) -> Callable[[float], float]:
        """Return a function mapping elapsed seconds → utilisation fraction."""
        def util(elapsed: float) -> float:
            return self.busy_time / elapsed if elapsed > 0 else 0.0
        return util

    def __repr__(self) -> str:
        return (f"<Pipe {self.name!r} {self.bandwidth / 1e6:.0f} MB/s "
                f"moved={self.bytes_moved}>")
