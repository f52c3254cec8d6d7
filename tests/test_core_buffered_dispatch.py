"""Tests for the buffered set, dispatch set, and replacement policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BufferedSet,
    DispatchSet,
    OffsetAwarePolicy,
    RoundRobinPolicy,
    make_replacement_policy,
)
from repro.core.stream import StreamQueue, StreamState
from repro.units import KiB, MiB


def stream(disk=0, start=0, now=0.0):
    return StreamQueue(disk_id=disk, start_offset=start, now=now)


# ---------------------------------------------------------------------------
# BufferedSet
# ---------------------------------------------------------------------------

def test_allocate_tracks_memory():
    buffered = BufferedSet(memory_budget=4 * MiB)
    buffer = buffered.allocate(1, 0, 0, 1 * MiB, now=0.0)
    assert buffered.in_use == 1 * MiB
    assert buffered.available == 3 * MiB
    assert not buffer.filled


def test_budget_enforced():
    buffered = BufferedSet(memory_budget=1 * MiB)
    buffered.allocate(1, 0, 0, 1 * MiB, now=0.0)
    assert not buffered.can_allocate(1)
    with pytest.raises(MemoryError):
        buffered.allocate(1, 0, 1 * MiB, 1 * MiB, now=0.0)


def test_mark_filled_returns_waiters():
    buffered = BufferedSet(memory_budget=4 * MiB)
    buffer = buffered.allocate(1, 0, 0, 1 * MiB, now=0.0)
    sentinel = ("request", "event")
    buffer.waiters.append(sentinel)
    waiters = buffered.mark_filled(buffer, now=1.0)
    assert waiters == [sentinel]
    assert buffer.waiters == []
    assert buffer.filled


def test_consume_frees_when_done():
    buffered = BufferedSet(memory_budget=4 * MiB)
    buffer = buffered.allocate(1, 0, 0, 1 * MiB, now=0.0)
    buffered.mark_filled(buffer, now=0.0)
    assert not buffered.consume(buffer, 0, 512 * KiB, now=1.0)
    assert buffered.in_use == 1 * MiB  # partially consumed: still held
    assert buffered.consume(buffer, 512 * KiB, 512 * KiB, now=2.0)
    assert buffered.in_use == 0


def test_find_and_find_in_stream():
    buffered = BufferedSet(memory_budget=8 * MiB)
    buffered.allocate(1, 0, 0, 1 * MiB, now=0.0)
    buffered.allocate(2, 0, 10 * MiB, 1 * MiB, now=0.0)
    assert buffered.find_in_stream(1, 512 * KiB, 64 * KiB).stream_id == 1
    assert buffered.find_in_stream(2, 10 * MiB, 64 * KiB).stream_id == 2
    assert buffered.find_in_stream(3, 0, 64 * KiB) is None  # no buffers
    # Another stream's span on the same disk is not this stream's hit.
    assert buffered.find_in_stream(1, 10 * MiB, 64 * KiB) is None
    assert buffered.find_in_stream(2, 1 * MiB - 1, 2) is None  # straddles


def test_release_stream_reclaims_all():
    buffered = BufferedSet(memory_budget=8 * MiB)
    for i in range(3):
        buffered.allocate(1, 0, i * MiB, 1 * MiB, now=0.0)
    buffered.allocate(2, 0, 100 * MiB, 1 * MiB, now=0.0)
    reclaimed = buffered.release_stream(1)
    assert reclaimed == 3 * MiB
    assert buffered.in_use == 1 * MiB
    assert buffered.reclaimed_unread == 3


def test_collect_reclaims_idle_filled_only():
    buffered = BufferedSet(memory_budget=8 * MiB)
    idle = buffered.allocate(1, 0, 0, 1 * MiB, now=0.0)
    buffered.mark_filled(idle, now=0.0)
    in_flight = buffered.allocate(2, 0, 10 * MiB, 1 * MiB, now=0.0)
    fresh = buffered.allocate(3, 0, 20 * MiB, 1 * MiB, now=9.5)
    buffered.mark_filled(fresh, now=9.5)
    reclaimed = buffered.collect(now=10.0, timeout=4.0)
    assert reclaimed == 1 * MiB           # only the idle filled buffer
    assert buffered.find_in_stream(1, 0, 1) is None
    assert buffered.find_in_stream(2, 10 * MiB, 1) is in_flight
    assert buffered.find_in_stream(3, 20 * MiB, 1) is fresh


def test_partial_consumes_keep_one_idle_heap_entry():
    buffered = BufferedSet(memory_budget=4 * MiB)
    buffer = buffered.allocate(1, 0, 0, 1 * MiB, now=0.0)
    buffered.mark_filled(buffer, now=0.0)
    for step in range(1000):
        assert not buffered.consume(buffer, step * KiB, KiB,
                                    now=step * 0.001)
    assert len(buffered._idle_heap) == 1


def test_collect_rekeys_a_buffer_read_since_it_filled():
    buffered = BufferedSet(memory_budget=4 * MiB)
    buffer = buffered.allocate(1, 0, 0, 1 * MiB, now=0.0)
    buffered.mark_filled(buffer, now=0.0)
    buffered.consume(buffer, 0, 64 * KiB, now=3.0)
    # Filled at 0 but read at 3: not idle for 4 s at 4.5.
    assert buffered.collect(now=4.5, timeout=4.0) == 0
    assert buffered._idle_heap == [(3.0, buffer.buffer_id)]
    assert buffered.collect(now=7.0, timeout=4.0) == 1 * MiB
    assert buffered._idle_heap == []


def test_consume_head_serves_only_the_oldest_filled_buffer():
    buffered = BufferedSet(memory_budget=4 * MiB)
    first = buffered.allocate(7, 0, 0, 256 * KiB, now=0.0)
    second = buffered.allocate(7, 0, 256 * KiB, 256 * KiB, now=0.0)
    # In flight: declined, nothing changes.
    assert buffered.consume_head(7, 64 * KiB, now=1.0) is None
    assert first.consumed_until == 0 and first.last_access == 0.0
    buffered.mark_filled(first, now=1.0)
    buffered.mark_filled(second, now=1.0)
    assert buffered.consume_head(7, 64 * KiB, now=2.0) is first
    assert (first.consumed_until, first.last_access) == (64 * KiB, 2.0)
    # The last byte is in the second buffer: declined (the caller
    # falls back to find_in_stream and the walk).
    assert buffered.consume_head(7, 320 * KiB, now=3.0) is None
    # Finishing the head releases it; the next buffer becomes the head.
    assert buffered.consume_head(7, 256 * KiB, now=3.0) is first
    assert buffered.find_in_stream(7, 0, 1) is None
    assert buffered.consume_head(7, 320 * KiB, now=4.0) is second
    assert buffered.consume_head(8, 64 * KiB, now=4.0) is None


def test_on_change_callback():
    deltas = []
    buffered = BufferedSet(memory_budget=4 * MiB,
                           on_change=deltas.append)
    buffer = buffered.allocate(1, 0, 0, 1 * MiB, now=0.0)
    buffered.mark_filled(buffer, now=0.0)
    buffered.consume(buffer, 0, 1 * MiB, now=1.0)
    assert deltas == [1, -1]


def test_peak_tracking():
    buffered = BufferedSet(memory_budget=8 * MiB)
    a = buffered.allocate(1, 0, 0, 2 * MiB, now=0.0)
    buffered.allocate(1, 0, 2 * MiB, 2 * MiB, now=0.0)
    buffered.mark_filled(a, now=0.0)
    buffered.consume(a, 0, 2 * MiB, now=0.0)
    assert buffered.peak_in_use == 4 * MiB
    assert buffered.in_use == 2 * MiB


def test_validation():
    with pytest.raises(ValueError):
        BufferedSet(memory_budget=-1)
    buffered = BufferedSet(memory_budget=1 * MiB)
    with pytest.raises(ValueError):
        buffered.allocate(1, 0, 0, 0, now=0.0)


@given(sizes=st.lists(st.integers(min_value=1, max_value=256),
                      min_size=1, max_size=60))
@settings(max_examples=40)
def test_property_in_use_never_exceeds_budget(sizes):
    budget = 4096
    buffered = BufferedSet(memory_budget=budget)
    live = []
    for index, size in enumerate(sizes):
        if buffered.can_allocate(size):
            buffer = buffered.allocate(1, 0, index * 1000, size, now=0.0)
            live.append(buffer)
        elif live:
            victim = live.pop(0)
            buffered.mark_filled(victim, now=0.0)
            buffered.consume(victim, victim.offset, victim.size, now=0.0)
        assert 0 <= buffered.in_use <= budget
    assert buffered.in_use == sum(b.size for b in live)


# ---------------------------------------------------------------------------
# DispatchSet
# ---------------------------------------------------------------------------

def test_admit_up_to_width():
    dispatch = DispatchSet(width=2, requests_per_residency=4)
    streams = [stream() for _ in range(3)]
    for s in streams:
        dispatch.enqueue(s)
    assert dispatch.admit_next() is streams[0]
    assert dispatch.admit_next() is streams[1]
    assert dispatch.admit_next() is None  # full
    assert dispatch.waiting_count == 1
    assert dispatch.free_slots == 0


def test_enqueue_idempotent():
    dispatch = DispatchSet(width=1, requests_per_residency=1)
    s = stream()
    dispatch.enqueue(s)
    dispatch.enqueue(s)
    assert dispatch.waiting_count == 1
    dispatch.admit_next()
    dispatch.enqueue(s)  # already a member: no-op
    assert dispatch.waiting_count == 0


def test_residency_accounting_and_rotation():
    dispatch = DispatchSet(width=1, requests_per_residency=2)
    s = stream()
    dispatch.enqueue(s)
    dispatch.admit_next()
    dispatch.record_issue(s, 0)
    assert not dispatch.residency_expired(s)
    dispatch.record_issue(s, 1 * MiB)
    assert dispatch.residency_expired(s)
    dispatch.rotate_out(s)
    assert s.state == StreamState.BUFFERED
    assert dispatch.free_slots == 1
    assert dispatch.rotations == 1


def test_residency_resets_on_readmission():
    dispatch = DispatchSet(width=1, requests_per_residency=1)
    s = stream()
    dispatch.enqueue(s)
    dispatch.admit_next()
    dispatch.record_issue(s, 0)
    dispatch.rotate_out(s)
    dispatch.enqueue(s)
    dispatch.admit_next()
    assert s.issued_in_residency == 0
    assert s.total_issued == 1


def test_record_issue_requires_membership():
    dispatch = DispatchSet(width=1, requests_per_residency=1)
    with pytest.raises(ValueError):
        dispatch.record_issue(stream(), 0)


def test_round_robin_order():
    dispatch = DispatchSet(width=1, requests_per_residency=1,
                           policy=RoundRobinPolicy())
    first, second = stream(start=0), stream(start=100 * MiB)
    dispatch.enqueue(first)
    dispatch.enqueue(second)
    assert dispatch.admit_next() is first


def test_offset_aware_prefers_nearby():
    dispatch = DispatchSet(width=1, requests_per_residency=1,
                           policy=OffsetAwarePolicy())
    dispatch.last_offset[0] = 100 * MiB
    far = stream(start=0)
    near = stream(start=99 * MiB)
    dispatch.enqueue(far)
    dispatch.enqueue(near)
    assert dispatch.admit_next() is near


def test_drop_waiting():
    dispatch = DispatchSet(width=1, requests_per_residency=1)
    s = stream()
    dispatch.enqueue(s)
    dispatch.drop_waiting(s)
    assert dispatch.waiting_count == 0
    dispatch.drop_waiting(s)  # idempotent


def test_dispatch_validation():
    with pytest.raises(ValueError):
        DispatchSet(width=0, requests_per_residency=1)
    with pytest.raises(ValueError):
        DispatchSet(width=1, requests_per_residency=0)


def test_make_replacement_policy():
    assert isinstance(make_replacement_policy("rr"), RoundRobinPolicy)
    assert isinstance(make_replacement_policy("round-robin"),
                      RoundRobinPolicy)
    assert isinstance(make_replacement_policy("offset"), OffsetAwarePolicy)
    with pytest.raises(ValueError):
        make_replacement_policy("lifo")
