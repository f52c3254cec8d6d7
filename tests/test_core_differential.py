"""Differential tests: indexed data-plane structures vs. the reference scans.

The fleet-scale data-plane work replaced linear scans in the stream
server's hot paths with indexes (DESIGN.md "data-plane indexes"):

* :class:`~repro.core.buffered_set.BufferedSet` — span indexes behind
  ``find_in_stream`` and an idle heap behind ``collect``.
* :class:`~repro.core.dispatch.DispatchSet` — waiting-id map, per-disk
  FIFOs, and an incremental per-disk load counter behind ``admit_next``.
* :class:`~repro.core.classifier.SequentialClassifier` — gap-bucket
  matching and the activity-ordered idle scan behind the GC.

All of these are advertised as *pure accelerations*: observable results,
tie-breaks, and release/admission order must be bit-identical to the
pre-indexing implementations. This module pins that claim. Each test
embeds the reference implementation (lifted from the git history before
the rewrite) and drives it and the indexed version with identical
seeded, randomized operation sequences, comparing every observable after
every step.

Buffer and stream ids come from module-global counters shared by both
instances, so raw ids interleave between the reference and the indexed
copy; comparisons therefore map objects to per-instance *allocation
ordinals* (the n-th object each instance created), which line up exactly.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, List, Optional

import pytest

from repro.core.buffered_set import BufferedSet, StreamBuffer
from repro.core.classifier import SequentialClassifier
from repro.core.dispatch import DispatchSet
from repro.core.params import ServerParams
from repro.core.policies import OffsetAwarePolicy, RoundRobinPolicy
from repro.core.server import StreamServer
from repro.core.stream import StreamQueue, StreamState
from repro.io import IOKind, IORequest
from repro.sim import Simulator

KiB = 1024


# ---------------------------------------------------------------------------
# Reference implementations (pre-indexing, from the git history)
# ---------------------------------------------------------------------------


class _ReferenceBufferedSet:
    """The pre-indexing BufferedSet: linear scans everywhere.

    Reuses the real :class:`StreamBuffer` so allocation semantics match;
    ``find_in_stream`` is a first-match scan in allocation order,
    ``collect`` a full scan releasing in allocation order.
    """

    def __init__(self, memory_budget: int, on_change=None):
        self.memory_budget = memory_budget
        self.on_change = on_change
        self.in_use = 0
        self._buffers: Dict[int, StreamBuffer] = {}
        self._by_stream: Dict[int, List[int]] = {}
        self.peak_in_use = 0
        self.allocated_total = 0
        self.reclaimed_unread = 0

    def __len__(self):
        return len(self._buffers)

    def can_allocate(self, size):
        return self.in_use + size <= self.memory_budget

    def allocate(self, stream_id, disk_id, offset, size, now):
        if not self.can_allocate(size):
            raise MemoryError("over budget")
        buffer = StreamBuffer(stream_id, disk_id, offset, size, now)
        self._buffers[buffer.buffer_id] = buffer
        self._by_stream.setdefault(stream_id, []).append(buffer.buffer_id)
        self.in_use += size
        self.allocated_total += 1
        self.peak_in_use = max(self.peak_in_use, self.in_use)
        if self.on_change is not None:
            self.on_change(+1)
        return buffer

    def mark_filled(self, buffer, now):
        buffer.filled = True
        buffer.last_access = now
        waiters, buffer.waiters = buffer.waiters, []
        return waiters

    def find_in_stream(self, stream_id, offset, size):
        for buffer_id in self._by_stream.get(stream_id, ()):
            buffer = self._buffers[buffer_id]
            if buffer.contains(offset, size):
                return buffer
        return None

    def consume(self, buffer, offset, size, now):
        buffer.last_access = now
        buffer.consumed_until = max(buffer.consumed_until, offset + size)
        if buffer.fully_consumed:
            self._release(buffer)
            return True
        return False

    def _release(self, buffer):
        removed = self._buffers.pop(buffer.buffer_id, None)
        if removed is None:
            return
        self.in_use -= buffer.size
        siblings = self._by_stream.get(buffer.stream_id)
        if siblings is not None:
            siblings.remove(buffer.buffer_id)
            if not siblings:
                del self._by_stream[buffer.stream_id]
        if self.on_change is not None:
            self.on_change(-1)

    def discard(self, buffer):
        waiters, buffer.waiters = buffer.waiters, []
        self._release(buffer)
        return waiters

    def release_stream(self, stream_id):
        reclaimed = 0
        for buffer_id in list(self._by_stream.get(stream_id, [])):
            buffer = self._buffers[buffer_id]
            if not buffer.fully_consumed:
                self.reclaimed_unread += 1
            reclaimed += buffer.size
            self._release(buffer)
        return reclaimed

    def collect(self, now, timeout):
        reclaimed = 0
        for buffer in list(self._buffers.values()):
            if buffer.filled and now - buffer.last_access >= timeout:
                if not buffer.fully_consumed:
                    self.reclaimed_unread += 1
                reclaimed += buffer.size
                self._release(buffer)
        return reclaimed

    def stream_buffers(self, stream_id):
        return [self._buffers[buffer_id]
                for buffer_id in self._by_stream.get(stream_id, [])]


class _ReferenceDispatchSet:
    """The pre-indexing DispatchSet: one global deque, scans throughout."""

    def __init__(self, width, requests_per_residency, policy=None):
        self.width = width
        self.requests_per_residency = requests_per_residency
        self.policy = policy or RoundRobinPolicy()
        self._members: Dict[int, StreamQueue] = {}
        self._waiting: Deque[StreamQueue] = deque()
        self.last_offset: Dict[int, int] = {}
        self.admissions = 0
        self.rotations = 0

    @property
    def members(self):
        return list(self._members.values())

    @property
    def free_slots(self):
        return self.width - len(self._members)

    @property
    def waiting_count(self):
        return len(self._waiting)

    def is_member(self, stream):
        return stream.stream_id in self._members

    def is_waiting(self, stream):
        return any(s.stream_id == stream.stream_id for s in self._waiting)

    def enqueue(self, stream):
        if self.is_member(stream) or self.is_waiting(stream):
            return
        stream.state = StreamState.WAITING
        self._waiting.append(stream)

    def admit_next(self):
        if not self._waiting or self.free_slots <= 0:
            return None
        load: Dict[int, int] = {}
        for member in self._members.values():
            load[member.disk_id] = load.get(member.disk_id, 0) + 1
        lightest = min(load.get(s.disk_id, 0) for s in self._waiting)
        candidates = [s for s in self._waiting
                      if load.get(s.disk_id, 0) == lightest]
        index = self.policy.select(
            candidates, context={"last_offset": self.last_offset})
        stream = candidates[index]
        self._waiting.remove(stream)
        stream.state = StreamState.DISPATCHED
        stream.issued_in_residency = 0
        self._members[stream.stream_id] = stream
        self.admissions += 1
        return stream

    def record_issue(self, stream, offset):
        if not self.is_member(stream):
            raise ValueError(f"{stream!r} not in dispatch set")
        stream.issued_in_residency += 1
        stream.total_issued += 1
        self.last_offset[stream.disk_id] = offset

    def rotate_out(self, stream):
        removed = self._members.pop(stream.stream_id, None)
        if removed is None:
            return
        stream.state = StreamState.BUFFERED
        self.rotations += 1

    def drop_waiting(self, stream):
        try:
            self._waiting.remove(stream)
        except ValueError:
            pass


def _reference_gap_match(classifier: SequentialClassifier,
                         request: IORequest) -> Optional[StreamQueue]:
    """The pre-indexing gap match: first hit scanning every live stream
    in creation order (``streams`` is insertion-ordered)."""
    for stream in classifier.streams.values():
        if stream.matches(request, classifier.params.gap_tolerance) \
                and stream.client_next != request.offset:
            return stream
    return None


def _reference_idle_scan(classifier: SequentialClassifier, now: float,
                         timeout: float) -> List[StreamQueue]:
    """The pre-indexing GC candidate selection: a full scan over every
    live stream, in creation order."""
    return [stream for stream in classifier.streams.values()
            if now - stream.last_activity >= timeout]


# ---------------------------------------------------------------------------
# BufferedSet differential
# ---------------------------------------------------------------------------


def _install_release_log(instance, log):
    original = instance._release

    def recording(buffer):
        log.append(buffer)
        original(buffer)

    instance._release = recording


class _BufferedHarness:
    """Drives a reference and an indexed BufferedSet in lock-step."""

    STREAMS = (1, 2, 3, 4, 5)
    DISKS = (0, 1)

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        budget = 512 * KiB
        self.ref = _ReferenceBufferedSet(budget)
        self.new = BufferedSet(budget)
        self.ref_releases: List[StreamBuffer] = []
        self.new_releases: List[StreamBuffer] = []
        _install_release_log(self.ref, self.ref_releases)
        _install_release_log(self.new, self.new_releases)
        #: id(buffer) -> allocation ordinal, per instance.
        self.ref_ordinals: Dict[int, int] = {}
        self.new_ordinals: Dict[int, int] = {}
        #: ordinal -> (ref_buffer, new_buffer).
        self.pairs: List[tuple] = []
        self.now = 0.0

    def _ordinal(self, ordinals, buffer):
        return None if buffer is None else ordinals[id(buffer)]

    def tick(self):
        self.now += self.rng.uniform(0.0, 0.6)

    def random_range(self):
        offset = self.rng.randrange(0, 24) * (4 * KiB)
        size = self.rng.choice([4 * KiB, 8 * KiB, 16 * KiB, 32 * KiB])
        return offset, size

    def live_ordinals(self) -> List[int]:
        live = sorted(self.ref_ordinals[id(buffer)]
                      for buffer in self.ref._buffers.values())
        live_new = sorted(self.new_ordinals[id(buffer)]
                          for buffer in self.new._buffers.values())
        assert live == live_new
        return live

    # -- operations, applied to both instances identically ------------------
    def op_allocate(self):
        stream_id = self.rng.choice(self.STREAMS)
        disk_id = self.rng.choice(self.DISKS)
        offset, size = self.random_range()
        assert self.ref.can_allocate(size) == self.new.can_allocate(size)
        if not self.ref.can_allocate(size):
            return
        ref_buf = self.ref.allocate(stream_id, disk_id, offset, size,
                                    self.now)
        new_buf = self.new.allocate(stream_id, disk_id, offset, size,
                                    self.now)
        ordinal = len(self.pairs)
        self.ref_ordinals[id(ref_buf)] = ordinal
        self.new_ordinals[id(new_buf)] = ordinal
        self.pairs.append((ref_buf, new_buf))

    def _pick_live(self):
        live = self.live_ordinals()
        if not live:
            return None
        return self.pairs[self.rng.choice(live)]

    def op_fill(self):
        pair = self._pick_live()
        if pair is None:
            return
        ref_buf, new_buf = pair
        self.ref.mark_filled(ref_buf, self.now)
        self.new.mark_filled(new_buf, self.now)

    def op_consume(self):
        pair = self._pick_live()
        if pair is None:
            return
        ref_buf, new_buf = pair
        start = ref_buf.consumed_until
        size = self.rng.choice([4 * KiB, 8 * KiB])
        released_ref = self.ref.consume(ref_buf, start, size, self.now)
        released_new = self.new.consume(new_buf, start, size, self.now)
        assert released_ref == released_new
        assert ref_buf.consumed_until == new_buf.consumed_until

    def op_find_in_stream(self):
        offset, size = self.random_range()
        stream_id = self.rng.choice(self.STREAMS)
        ref_hit = self.ref.find_in_stream(stream_id, offset, size)
        new_hit = self.new.find_in_stream(stream_id, offset, size)
        assert self._ordinal(self.ref_ordinals, ref_hit) \
            == self._ordinal(self.new_ordinals, new_hit)

    def op_collect(self):
        timeout = self.rng.choice([0.25, 0.75, 1.5, 3.0])
        assert self.ref.collect(self.now, timeout) \
            == self.new.collect(self.now, timeout)

    def op_release_stream(self):
        stream_id = self.rng.choice(self.STREAMS)
        assert self.ref.release_stream(stream_id) \
            == self.new.release_stream(stream_id)

    def op_discard(self):
        pair = self._pick_live()
        if pair is None:
            return
        ref_buf, new_buf = pair
        self.ref.discard(ref_buf)
        self.new.discard(new_buf)

    # -- invariants ---------------------------------------------------------
    def check(self):
        assert len(self.ref) == len(self.new)
        assert self.ref.in_use == self.new.in_use
        assert self.ref.peak_in_use == self.new.peak_in_use
        assert self.ref.allocated_total == self.new.allocated_total
        assert self.ref.reclaimed_unread == self.new.reclaimed_unread
        self.live_ordinals()
        # Release ORDER, not just the set: collect/release_stream promise
        # reference ordering (allocation order / oldest first).
        ref_order = [self.ref_ordinals[id(b)] for b in self.ref_releases]
        new_order = [self.new_ordinals[id(b)] for b in self.new_releases]
        assert ref_order == new_order
        for stream_id in self.STREAMS:
            ref_seq = [self.ref_ordinals[id(b)]
                       for b in self.ref.stream_buffers(stream_id)]
            new_seq = [self.new_ordinals[id(b)]
                       for b in self.new.stream_buffers(stream_id)]
            assert ref_seq == new_seq

    OPS = (
        (op_allocate, 30),
        (op_fill, 14),
        (op_consume, 14),
        (op_find_in_stream, 22),
        (op_collect, 8),
        (op_release_stream, 6),
        (op_discard, 6),
    )

    def run(self, steps: int):
        ops = [op for op, weight in self.OPS for _ in range(weight)]
        for _ in range(steps):
            self.tick()
            self.rng.choice(ops)(self)
            self.check()


@pytest.mark.parametrize("seed", [1, 7, 1009, 42424])
def test_buffered_set_matches_reference_under_random_ops(seed):
    harness = _BufferedHarness(seed)
    harness.run(400)
    # The run must have exercised the interesting paths, not just
    # allocated: something was found, collected, and tie-broken.
    assert harness.ref.allocated_total > 50
    assert harness.ref_releases


def _walk_consume(instance, stream_id: int, end: int, now: float) -> None:
    """``StreamServer._consume``: advance consumption over the stream's
    buffers, oldest first, up to ``end``."""
    for buffer in instance.stream_buffers(stream_id):
        offset = buffer.offset
        if offset >= end:
            break
        instance.consume(buffer, offset, min(buffer.end, end) - offset, now)


class _SequentialHarness(_BufferedHarness):
    """Adds streams shaped the way the server shapes them.

    A read-ahead stream has at most one fetch in flight, allocated at
    its fetch frontier, so its buffers are disjoint and in offset
    order; an aborted fetch is discarded before the frontier rewinds.
    Its client reads sequentially. The indexed side serves a read the
    way ``StreamServer._accept`` does: ``consume_head`` first, and the
    lookup plus walk only when that declines. The reference side always
    does the lookup plus walk. Reads whose buffer is still in flight
    wait for the fill and are then walked on both sides, as
    ``_buffer_filled`` does. The random ops of the base harness keep
    running on these streams too (fills, consumes, discards, collects).
    """

    SEQ_STREAMS = (11, 12, 13)
    #: Read-ahead window: how far a fetch may run ahead of the client.
    WINDOW = 96 * KiB

    def __init__(self, seed: int):
        super().__init__(seed)
        self.fetch_next = {sid: 0 for sid in self.SEQ_STREAMS}
        self.client_next = {sid: 0 for sid in self.SEQ_STREAMS}
        #: stream -> (ref_buffer, new_buffer) of its in-flight fetch.
        self.in_flight: Dict[int, tuple] = {}
        #: stream -> read ends waiting for the in-flight fetch.
        self.waiting: Dict[int, List[int]] = {}
        self.counts = {"head": 0, "finished": 0, "fallback": 0,
                       "spanning": 0, "waited": 0, "aborted": 0,
                       "rekeyed": 0}

    def op_fetch(self):
        stream_id = self.rng.choice(self.SEQ_STREAMS)
        if stream_id in self.in_flight \
                or self.fetch_next[stream_id] \
                - self.client_next[stream_id] > self.WINDOW:
            return
        size = self.rng.choice([16 * KiB, 32 * KiB])
        if not self.ref.can_allocate(size):
            return
        offset = self.fetch_next[stream_id]
        ref_buf = self.ref.allocate(stream_id, 0, offset, size, self.now)
        new_buf = self.new.allocate(stream_id, 0, offset, size, self.now)
        ordinal = len(self.pairs)
        self.ref_ordinals[id(ref_buf)] = ordinal
        self.new_ordinals[id(new_buf)] = ordinal
        self.pairs.append((ref_buf, new_buf))
        self.fetch_next[stream_id] = offset + size
        self.in_flight[stream_id] = (ref_buf, new_buf)

    def op_complete_fetch(self):
        if not self.in_flight:
            return
        stream_id = self.rng.choice(sorted(self.in_flight))
        ref_buf, new_buf = self.in_flight.pop(stream_id)
        self.ref.mark_filled(ref_buf, self.now)
        self.new.mark_filled(new_buf, self.now)
        for end in self.waiting.pop(stream_id, []):
            self.counts["waited"] += 1
            _walk_consume(self.ref, stream_id, end, self.now)
            _walk_consume(self.new, stream_id, end, self.now)

    def op_abort_fetch(self):
        if not self.in_flight:
            return
        stream_id = self.rng.choice(sorted(self.in_flight))
        ref_buf, new_buf = self.in_flight.pop(stream_id)
        self.ref.discard(ref_buf)
        self.new.discard(new_buf)
        self.waiting.pop(stream_id, None)
        # The reads that waited on it fail; the client moves on and
        # the stream refetches from the failed offset.
        self.fetch_next[stream_id] = min(self.fetch_next[stream_id],
                                         ref_buf.offset)
        self.counts["aborted"] += 1

    def op_read(self):
        stream_id = self.rng.choice(self.SEQ_STREAMS)
        start = self.client_next[stream_id]
        end = start + self.rng.choice([4 * KiB, 8 * KiB, 12 * KiB,
                                       24 * KiB])
        if end > self.fetch_next[stream_id]:
            return  # beyond the fetch frontier: queued, not a lookup
        self.client_next[stream_id] = end
        ref_hit = self.ref.find_in_stream(stream_id, end - 1, 1)
        spans = sum(1 for buffer in self.ref.stream_buffers(stream_id)
                    if start < buffer.end and buffer.offset < end)
        head = self.new.consume_head(stream_id, end, self.now)
        new_hit = head if head is not None \
            else self.new.find_in_stream(stream_id, end - 1, 1)
        assert self._ordinal(self.ref_ordinals, ref_hit) \
            == self._ordinal(self.new_ordinals, new_hit)
        if ref_hit is None:
            return  # reclaimed: the server reads it directly
        if not ref_hit.filled:
            assert head is None
            self.waiting.setdefault(stream_id, []).append(end)
            return
        _walk_consume(self.ref, stream_id, end, self.now)
        if head is not None:
            self.counts["head"] += 1
            self.counts["finished"] += head.buffer_id \
                not in self.new._buffers
        else:
            self.counts["fallback"] += 1
            self.counts["spanning"] += spans > 1
            _walk_consume(self.new, stream_id, end, self.now)

    def op_idle_collect(self):
        """Let time pass, then collect: an entry older than its
        buffer's last read is re-keyed, not taken as expired."""
        self.now += self.rng.uniform(0.5, 4.0)
        timeout = self.rng.choice([0.75, 1.5, 3.0])
        for key, buffer_id in self.new._idle_heap:
            buffer = self.new._buffers.get(buffer_id)
            if buffer is not None and key < buffer.last_access \
                    and self.now - key >= timeout:
                self.counts["rekeyed"] += 1
        assert self.ref.collect(self.now, timeout) \
            == self.new.collect(self.now, timeout)

    def check(self):
        super().check()
        consumed = [(ref_buf.consumed_until, ref_buf.last_access)
                    for ref_buf, _new in self.pairs]
        assert consumed == [(new_buf.consumed_until, new_buf.last_access)
                            for _ref, new_buf in self.pairs]
        for stream_id in self.STREAMS + self.SEQ_STREAMS:
            oldest = self.ref.stream_buffers(stream_id)[:1]
            assert self._ordinal(self.ref_ordinals, (oldest or [None])[0]) \
                == self._ordinal(self.new_ordinals,
                                 self.new._heads.get(stream_id))
        # One idle-heap entry per filled buffer, keyed no later than
        # its last read.
        keys: Dict[int, List[float]] = {}
        for key, buffer_id in self.new._idle_heap:
            keys.setdefault(buffer_id, []).append(key)
        for buffer in self.new._buffers.values():
            if buffer.filled:
                assert min(keys[buffer.buffer_id]) <= buffer.last_access

    OPS = (
        (_BufferedHarness.op_allocate, 6),
        (_BufferedHarness.op_fill, 3),
        (_BufferedHarness.op_consume, 3),
        (_BufferedHarness.op_find_in_stream, 6),
        (_BufferedHarness.op_collect, 3),
        (_BufferedHarness.op_release_stream, 2),
        (_BufferedHarness.op_discard, 2),
        (op_fetch, 30),
        (op_complete_fetch, 30),
        (op_abort_fetch, 2),
        (op_read, 80),
        (op_idle_collect, 3),
    )


@pytest.mark.parametrize("seed", [2, 19, 314, 8080])
def test_head_hit_matches_reference_lookup_and_walk(seed):
    harness = _SequentialHarness(seed)
    harness.run(600)
    counts = harness.counts
    # Every path the server's staged branch can take was exercised.
    assert counts["head"] > 30, counts
    assert counts["finished"] > 5, counts
    for path in ("fallback", "spanning", "waited", "aborted", "rekeyed"):
        assert counts[path] > 0, counts


def test_buffered_set_find_tie_breaks_to_oldest_overlap():
    """Overlapping spans of one stream: both implementations return the
    oldest (lowest-id) containing buffer."""
    ref = _ReferenceBufferedSet(1024 * KiB)
    new = BufferedSet(1024 * KiB)
    spans = [(0, 64 * KiB), (0, 32 * KiB), (16 * KiB, 16 * KiB),
             (0, 64 * KiB)]
    ref_bufs = [ref.allocate(1, 0, off, size, 0.0) for off, size in spans]
    new_bufs = [new.allocate(1, 0, off, size, 0.0) for off, size in spans]
    for probe_off, probe_size in [(0, 4 * KiB), (16 * KiB, 8 * KiB),
                                  (16 * KiB, 16 * KiB), (48 * KiB, 8 * KiB)]:
        ref_hit = ref.find_in_stream(1, probe_off, probe_size)
        new_hit = new.find_in_stream(1, probe_off, probe_size)
        assert ref_bufs.index(ref_hit) == new_bufs.index(new_hit)


# ---------------------------------------------------------------------------
# DispatchSet differential
# ---------------------------------------------------------------------------


class _DispatchHarness:
    """Drives a reference and an indexed DispatchSet in lock-step.

    Each logical stream is a *pair* of StreamQueue objects (one per
    instance) built from identical arguments; the dispatch sets mutate
    stream state, so the instances cannot share objects.
    """

    DISKS = 4

    def __init__(self, seed: int, policy_factory):
        self.rng = random.Random(seed)
        self.ref = _ReferenceDispatchSet(3, 2, policy_factory())
        self.new = DispatchSet(3, 2, policy_factory())
        self.pairs: List[tuple] = []
        self.ref_ordinals: Dict[int, int] = {}
        self.new_ordinals: Dict[int, int] = {}
        self.now = 0.0

    def _ordinal(self, ordinals, stream):
        return None if stream is None else ordinals[id(stream)]

    def op_create_and_enqueue(self):
        disk_id = self.rng.randrange(self.DISKS)
        start = self.rng.randrange(0, 64) * (64 * KiB)
        self.now += self.rng.uniform(0.0, 0.3)
        ref_stream = StreamQueue(disk_id, start, self.now)
        new_stream = StreamQueue(disk_id, start, self.now)
        ordinal = len(self.pairs)
        self.ref_ordinals[id(ref_stream)] = ordinal
        self.new_ordinals[id(new_stream)] = ordinal
        self.pairs.append((ref_stream, new_stream))
        self.ref.enqueue(ref_stream)
        self.new.enqueue(new_stream)

    def op_reenqueue(self):
        if not self.pairs:
            return
        ref_stream, new_stream = self.rng.choice(self.pairs)
        self.ref.enqueue(ref_stream)
        self.new.enqueue(new_stream)

    def op_admit(self):
        ref_admitted = self.ref.admit_next()
        new_admitted = self.new.admit_next()
        assert self._ordinal(self.ref_ordinals, ref_admitted) \
            == self._ordinal(self.new_ordinals, new_admitted)
        if ref_admitted is not None:
            assert ref_admitted.state == new_admitted.state \
                == StreamState.DISPATCHED
            assert ref_admitted.issued_in_residency \
                == new_admitted.issued_in_residency == 0

    def _pick_member(self):
        members = self.ref.members
        if not members:
            return None
        target = self.rng.choice(
            sorted(members, key=lambda s: self.ref_ordinals[id(s)]))
        return self.pairs[self.ref_ordinals[id(target)]]

    def op_record_issue(self):
        pair = self._pick_member()
        if pair is None:
            return
        ref_stream, new_stream = pair
        offset = self.rng.randrange(0, 256) * (4 * KiB)
        self.ref.record_issue(ref_stream, offset)
        self.new.record_issue(new_stream, offset)
        assert ref_stream.issued_in_residency \
            == new_stream.issued_in_residency

    def op_rotate_out(self):
        pair = self._pick_member()
        if pair is None:
            return
        ref_stream, new_stream = pair
        self.ref.rotate_out(ref_stream)
        self.new.rotate_out(new_stream)
        assert ref_stream.state == new_stream.state == StreamState.BUFFERED

    def op_drop_waiting(self):
        if not self.pairs:
            return
        ref_stream, new_stream = self.rng.choice(self.pairs)
        self.ref.drop_waiting(ref_stream)
        self.new.drop_waiting(new_stream)

    def _waiting_ordinals_new(self) -> List[int]:
        by_seq = []
        for per_disk in self.new._waiting_by_disk.values():
            for stream in per_disk.values():
                by_seq.append((self.new._waiting_ids[stream.stream_id],
                               self.new_ordinals[id(stream)]))
        return [ordinal for _seq, ordinal in sorted(by_seq)]

    def check(self):
        assert self.ref.waiting_count == self.new.waiting_count
        assert self.ref.free_slots == self.new.free_slots
        assert self.ref.admissions == self.new.admissions
        assert self.ref.rotations == self.new.rotations
        assert self.ref.last_offset == self.new.last_offset
        # Same membership and the SAME global FIFO order of waiters.
        ref_waiting = [self.ref_ordinals[id(s)] for s in self.ref._waiting]
        assert ref_waiting == self._waiting_ordinals_new()
        ref_members = sorted(self.ref_ordinals[id(s)]
                             for s in self.ref.members)
        new_members = sorted(self.new_ordinals[id(s)]
                             for s in self.new.members)
        assert ref_members == new_members
        for ref_stream, new_stream in self.pairs:
            assert self.ref.is_waiting(ref_stream) \
                == self.new.is_waiting(new_stream)
            assert self.ref.is_member(ref_stream) \
                == self.new.is_member(new_stream)
            assert ref_stream.state == new_stream.state
            assert ref_stream.total_issued == new_stream.total_issued

    OPS = (
        (op_create_and_enqueue, 30),
        (op_admit, 28),
        (op_record_issue, 16),
        (op_rotate_out, 12),
        (op_drop_waiting, 9),
        (op_reenqueue, 5),
    )

    def run(self, steps: int):
        ops = [op for op, weight in self.OPS for _ in range(weight)]
        for _ in range(steps):
            self.rng.choice(ops)(self)
            self.check()


@pytest.mark.parametrize("policy_factory",
                         [RoundRobinPolicy, OffsetAwarePolicy],
                         ids=["round-robin", "offset-aware"])
@pytest.mark.parametrize("seed", [3, 11, 5050])
def test_dispatch_set_matches_reference_under_random_ops(
        seed, policy_factory):
    harness = _DispatchHarness(seed, policy_factory)
    harness.run(400)
    assert harness.ref.admissions > 30
    assert harness.ref.rotations > 10


def test_dispatch_admission_order_interleaves_disks_identically():
    """Deterministic spot check: streams stacked on one disk and spread
    over others admit in the same disk-balanced order in both."""
    ref = _ReferenceDispatchSet(4, 1)
    new = DispatchSet(4, 1)
    layout = [0, 0, 0, 1, 2, 1, 0, 2]
    pairs = []
    for disk_id in layout:
        ref_stream = StreamQueue(disk_id, 0, 0.0)
        new_stream = StreamQueue(disk_id, 0, 0.0)
        pairs.append((ref_stream, new_stream))
        ref.enqueue(ref_stream)
        new.enqueue(new_stream)
    ref_ordinals = {id(s): i for i, (s, _n) in enumerate(pairs)}
    new_ordinals = {id(s): i for i, (_r, s) in enumerate(pairs)}
    admitted = []
    while True:
        ref_stream = ref.admit_next()
        new_stream = new.admit_next()
        if ref_stream is None:
            assert new_stream is None
            break
        assert ref_ordinals[id(ref_stream)] == new_ordinals[id(new_stream)]
        admitted.append(ref_ordinals[id(ref_stream)])
    # Disk-balanced: first four admissions cover disks 0, 1, 2 before
    # stacking a second stream anywhere.
    assert admitted[:3] == [0, 3, 4]


# ---------------------------------------------------------------------------
# Classifier / GC differential (same-instance: index vs. reference scan)
# ---------------------------------------------------------------------------


def _read(disk_id: int, offset: int, size: int = 4 * KiB) -> IORequest:
    return IORequest(kind=IOKind.READ, disk_id=disk_id, offset=offset,
                     size=size)


def test_gap_bucket_match_agrees_with_full_scan():
    """The bucketed near-sequential match returns exactly the stream the
    reference creation-order scan found, across random probes."""
    rng = random.Random(97)
    gap = 32 * KiB
    classifier = SequentialClassifier(ServerParams(gap_tolerance=gap))
    now = 0.0
    streams = []
    for i in range(60):
        now += 0.01
        disk_id = rng.randrange(3)
        # Cluster client_next positions so probe windows overlap several
        # streams (the tie-break case) and straddle bucket boundaries.
        client_next = rng.randrange(0, 48) * (8 * KiB)
        stream = StreamQueue(disk_id, client_next, now)
        classifier._register_stream(stream)
        streams.append(stream)
    for _ in range(500):
        probe = _read(rng.randrange(3), rng.randrange(0, 52) * (8 * KiB))
        expected = _reference_gap_match(classifier, probe)
        assert classifier._match_with_gap(probe) is expected
    # Routing advances streams (reindexing them); agreement must hold
    # after the indexes have churned, and after GC drops.
    for _ in range(200):
        now += 0.01
        target = rng.choice(streams)
        if target.stream_id not in classifier.streams:
            continue
        skip = rng.choice([0, 0, 4 * KiB, gap])
        request = _read(target.disk_id, target.client_next + skip)
        classifier.route(request, now)
    for stream in rng.sample(streams, 15):
        classifier.drop_stream(stream)
    for _ in range(500):
        probe = _read(rng.randrange(3), rng.randrange(0, 64) * (4 * KiB))
        expected = _reference_gap_match(classifier, probe)
        assert classifier._match_with_gap(probe) is expected


def test_idle_candidates_agree_with_full_scan():
    """The activity-ordered idle walk selects exactly the streams the
    reference full scan over ``streams`` selected, in the same order."""
    rng = random.Random(31)
    classifier = SequentialClassifier(ServerParams())
    now = 0.0
    streams = []
    for _ in range(40):
        now += rng.uniform(0.05, 0.4)
        stream = StreamQueue(rng.randrange(4), rng.randrange(256) * (4 * KiB),
                             now)
        classifier._register_stream(stream)
        streams.append(stream)
    # Touch a random subset via real routing (exact continuation), which
    # must move them behind every untouched stream in the idle order.
    for stream in rng.sample(streams, 18):
        now += rng.uniform(0.05, 0.3)
        routed = classifier.route(
            _read(stream.disk_id, stream.client_next), now)
        assert routed is stream
    now += 5.0
    for timeout in [0.5, 2.0, 5.0, 7.0, 100.0]:
        expected = _reference_idle_scan(classifier, now, timeout)
        assert classifier.idle_candidates(now, timeout) == expected
    # Dropping streams (the GC's next move) keeps both views aligned.
    for stream in classifier.idle_candidates(now, 6.0):
        classifier.drop_stream(stream)
    for timeout in [0.5, 2.0, 5.0]:
        expected = _reference_idle_scan(classifier, now, timeout)
        assert classifier.idle_candidates(now, timeout) == expected


def test_idle_candidates_empty_and_boundary_cases():
    classifier = SequentialClassifier(ServerParams())
    assert classifier.idle_candidates(100.0, 1.0) == []
    stream = StreamQueue(0, 0, 10.0)
    classifier._register_stream(stream)
    # Exactly at the threshold counts as idle (>=), matching the
    # reference comparison.
    assert classifier.idle_candidates(11.0, 1.0) == [stream]
    assert classifier.idle_candidates(10.9, 1.0) == []


class _LoggedClassifier(SequentialClassifier):
    """Records, per GC cycle, what the reference GC would drop and what
    the real one dropped.

    ``idle_candidates`` is the first thing a GC cycle asks the
    classifier about streams, so the reference decision is taken there,
    before the cycle changes anything: every live stream idle for
    ``timeout`` and not waiting for data, in creation order.
    """

    __slots__ = ("expected", "dropped", "visits")

    def __init__(self, params):
        super().__init__(params)
        self.expected: List[List[StreamQueue]] = []
        self.dropped: List[List[StreamQueue]] = []
        self.visits = 0

    def idle_candidates(self, now, timeout):
        self.expected.append(
            [stream for stream in _reference_idle_scan(self, now, timeout)
             if not stream.has_demand])
        self.dropped.append([])
        candidates = super().idle_candidates(now, timeout)
        self.visits += len(candidates)
        return candidates

    def drop_stream(self, stream):
        self.dropped[-1].append(stream)
        super().drop_stream(stream)


class _NoDevice:
    capacity_bytes = 1 << 40

    def submit(self, request):  # pragma: no cover - never called
        raise AssertionError("the GC test issues no I/O")


@pytest.mark.parametrize("seed", [4, 23, 777])
def test_gc_parking_keeps_reference_drops(seed):
    """The GC parks idle streams that still have demand instead of
    re-walking them every cycle. Each cycle must still drop exactly the
    streams, in exactly the order, the reference full scan drops; a
    stream that was parked is dropped in the first cycle after its
    demand drains, unless a request routes to it first."""
    rng = random.Random(seed)
    sim = Simulator()
    params = ServerParams()
    server = StreamServer(sim, _NoDevice(), params,
                          classifier=_LoggedClassifier(params))
    classifier = server.classifier
    live: List[StreamQueue] = []
    parked_peak = 0
    unparked = 0
    for _ in range(500):
        sim.run(until=sim.now + rng.uniform(0.0, 1.6))
        live = [stream for stream in live
                if stream.stream_id in classifier.streams]
        choice = rng.random()
        if choice < 0.15 or not live:
            stream = StreamQueue(rng.randrange(4),
                                 rng.randrange(1 << 20) * (64 * KiB),
                                 sim.now)
            classifier._register_stream(stream)
            live.append(stream)
        elif choice < 0.45:
            stream = rng.choice(live)
            routed = classifier.route(
                _read(stream.disk_id, stream.client_next), sim.now)
            assert routed is stream
            if rng.random() < 0.5:
                # The request outran the staged data: it waits.
                stream.pending.append((None, None))
        elif choice < 0.55:
            waiting = [stream for stream in live if stream.pending]
            if waiting:
                # Its data arrived: the server serves the queue and
                # unparks the stream on drain.
                stream = rng.choice(waiting)
                unparked += stream.stream_id in classifier._parked
                stream.pending.clear()
                classifier.unpark(stream)
        server.gc.ensure_running()
        parked_peak = max(parked_peak, len(classifier._parked))
    assert classifier.expected == classifier.dropped
    assert sum(map(len, classifier.dropped)) > 20
    assert parked_peak > 0 and unparked > 0
