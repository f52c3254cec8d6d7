"""Server parameters: the paper's D, R, N, M plus classifier/GC knobs.

The paper names four tunables and one invariant:

* ``R`` — read-ahead: bytes fetched per disk request for a dispatched
  stream;
* ``D`` — dispatch set size: streams issuing disk requests concurrently;
* ``N`` — requests each stream issues per dispatch-set residency;
* ``M`` — host memory devoted to I/O buffering, with ``M ≥ D·R·N``.

``ServerParams`` validates the invariant and derives whichever of ``D``
is left implicit, and :meth:`ServerParams.autotune` implements the
paper's "statically adjust to the storage node configuration" rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.units import KiB, MiB, SECTOR_BYTES

__all__ = ["ServerParams"]


@dataclass(frozen=True)
class ServerParams:
    """Complete configuration of a :class:`~repro.core.server.StreamServer`.

    Attributes
    ----------
    read_ahead:
        R — bytes per coalesced disk request. 0 disables coalescing
        entirely (requests pass through; useful as a baseline).
    dispatch_width:
        D — concurrent dispatched streams. ``None`` derives
        ``M // (R * N)`` at construction.
    requests_per_residency:
        N — disk requests a stream issues before round-robin rotation.
    memory_budget:
        M — bytes of host memory for the buffered set.
    classifier_block:
        Bitmap granularity (one bit per block of this many bytes).
    classifier_window_blocks:
        The paper's ``offset``: a bitmap covers ``[B - w, B + w]`` blocks
        around the first request's block ``B``.
    classifier_threshold:
        Set-bit count that declares a region sequential.
    classifier_interval:
        Proximity-in-time horizon: bitmaps older than this are recycled
        without having detected anything.
    gap_tolerance:
        Bytes of forward skip a request may have from a stream's expected
        next offset and still belong to it (0 = strictly sequential; the
        paper treats near-sequential streams as out of scope).
    gc_period / buffer_timeout / stream_timeout:
        Garbage-collection cadence and idleness thresholds for staged
        buffers and classified-but-quiet streams.
    """

    read_ahead: int = 1 * MiB
    dispatch_width: Optional[int] = None
    requests_per_residency: int = 1
    memory_budget: int = 128 * MiB
    classifier_block: int = 64 * KiB
    classifier_window_blocks: int = 32
    classifier_threshold: int = 3
    classifier_interval: float = 10.0
    gap_tolerance: int = 0
    gc_period: float = 1.0
    buffer_timeout: float = 4.0
    stream_timeout: float = 8.0
    #: Extension (DESIGN.md §5): coalesce sequential write streams into
    #: large write-behind flushes instead of passing writes through.
    coalesce_writes: bool = False
    write_coalesce_bytes: int = 1024 * 1024
    write_memory_budget: int = 64 * 1024 * 1024
    #: Fault/degradation policies (DESIGN.md §6). Both default *off*
    #: so the fault-free request path is bit-identical to the
    #: historical server; the chaos experiment turns them on.
    #: ``max_retries`` bounds per-request retries of *transient* errors,
    #: spaced by the seeded exponential backoff of
    #: :mod:`repro.core.server` (``RETRY_BACKOFF_S`` and friends).
    #: ``quarantine_threshold`` consecutive failed read-ahead fetches
    #: quarantine the stream: it leaves the dispatch machinery, its
    #: staged pages are reclaimed, and its client falls back to the
    #: direct path (0 disables).
    max_retries: int = 0
    quarantine_threshold: int = 0
    #: Open-loop admission control (DESIGN.md §9). Default *off* (0 =
    #: unbounded) so the fault-free path stays bit-identical.
    #: ``admission_limit`` caps client requests in service at once;
    #: overflow waits in a bounded FIFO of ``admission_queue_depth``
    #: entries. When that queue is also full the *oldest* waiting
    #: request is shed (FIFO shedding keeps the queue fresh) with an
    #: ``AdmissionShedError`` carrying a seeded retry-after hint
    #: (:mod:`repro.core.server`'s ``SHED_BACKOFF_S`` and friends),
    #: scaled by dispatch-set load.
    admission_limit: int = 0
    admission_queue_depth: int = 0

    def __post_init__(self):
        if self.read_ahead < 0 or self.read_ahead % SECTOR_BYTES:
            raise ValueError(
                f"read_ahead must be sector-aligned and >= 0: "
                f"{self.read_ahead}")
        if self.requests_per_residency < 1:
            raise ValueError(
                f"requests_per_residency must be >= 1: "
                f"{self.requests_per_residency}")
        if self.memory_budget < 0:
            raise ValueError(f"negative memory budget: {self.memory_budget}")
        if self.classifier_block < SECTOR_BYTES or \
                self.classifier_block % SECTOR_BYTES:
            raise ValueError(
                f"classifier_block must be sector-aligned: "
                f"{self.classifier_block}")
        if self.classifier_window_blocks < 1:
            raise ValueError("classifier window must be >= 1 block")
        if self.classifier_threshold < 1:
            raise ValueError("classifier threshold must be >= 1")
        if self.gap_tolerance < 0:
            raise ValueError("gap_tolerance must be >= 0")
        if self.gc_period <= 0 or self.buffer_timeout <= 0 \
                or self.stream_timeout <= 0:
            raise ValueError("GC periods/timeouts must be positive")
        if self.dispatch_width is not None and self.dispatch_width < 1:
            raise ValueError(
                f"dispatch_width must be >= 1: {self.dispatch_width}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries}")
        if self.quarantine_threshold < 0:
            raise ValueError(
                f"quarantine_threshold must be >= 0: "
                f"{self.quarantine_threshold}")
        if self.admission_limit < 0:
            raise ValueError(
                f"admission_limit must be >= 0: {self.admission_limit}")
        if self.admission_queue_depth < 0:
            raise ValueError(
                f"admission_queue_depth must be >= 0: "
                f"{self.admission_queue_depth}")
        if self.read_ahead and self.memory_budget < self.residency_bytes:
            raise ValueError(
                f"memory budget {self.memory_budget} below one residency "
                f"(R*N = {self.residency_bytes}): M >= D*R*N unsatisfiable")

    # -- derived quantities -----------------------------------------------------
    @property
    def residency_bytes(self) -> int:
        """R * N: memory one dispatched stream pins."""
        return self.read_ahead * self.requests_per_residency

    @property
    def effective_dispatch_width(self) -> int:
        """D, deriving ``M // (R * N)`` when left implicit."""
        if self.dispatch_width is not None:
            return self.dispatch_width
        if not self.read_ahead:
            return 1
        return max(1, self.memory_budget // self.residency_bytes)

    @property
    def dispatch_memory(self) -> int:
        """D * R * N — memory pinned by a full dispatch set."""
        return self.effective_dispatch_width * self.residency_bytes

    def validated_against(self, memory_bytes: int) -> "ServerParams":
        """Raise unless this configuration fits ``memory_bytes`` of host
        memory; returns self for chaining."""
        if self.memory_budget > memory_bytes:
            raise ValueError(
                f"M={self.memory_budget} exceeds host memory "
                f"{memory_bytes}")
        if self.dispatch_memory > self.memory_budget:
            raise ValueError(
                f"D*R*N={self.dispatch_memory} exceeds M="
                f"{self.memory_budget}")
        return self

    # -- the paper's static adaptation rule ------------------------------------
    @classmethod
    def autotune(cls, num_disks: int, memory_bytes: int,
                 read_ahead: int = 512 * KiB,
                 requests_per_residency: int = 128) -> "ServerParams":
        """Pick D, R, N, M for a node (Section 5.4's configuration).

        One dispatched stream per disk with a long residency amortises
        seeks best (Figure 13/14); memory is capped at half the host's so
        staging headroom remains.
        """
        if num_disks < 1:
            raise ValueError(f"num_disks must be >= 1: {num_disks}")
        if memory_bytes < 1:
            raise ValueError(f"memory_bytes must be >= 1: {memory_bytes}")
        budget = memory_bytes // 2
        residency = read_ahead * requests_per_residency
        # Shrink the residency until one stream per disk fits.
        while num_disks * residency > budget and requests_per_residency > 1:
            requests_per_residency //= 2
            residency = read_ahead * requests_per_residency
        while num_disks * residency > budget and read_ahead > 64 * KiB:
            read_ahead //= 2
            residency = read_ahead * requests_per_residency
        return cls(read_ahead=read_ahead,
                   dispatch_width=num_disks,
                   requests_per_residency=requests_per_residency,
                   memory_budget=max(budget, residency * num_disks))

    def replace(self, **kwargs) -> "ServerParams":
        """Copy with fields overridden."""
        return replace(self, **kwargs)
