"""The stream-aware storage server (Figure 9's architecture).

Request path::

    client → [classifier] ──direct──────────────→ device
                 │ (sequential stream)
                 ▼
           [stream queue] ←── pending requests
                 │
           [dispatch set: ≤ D streams, N issues each, policy rotation]
                 │ R-sized coalesced reads
                 ▼
               device ──fills──→ [buffered set: ≤ M bytes] ──completes──→ client

The completion path gives priority to the issue path: a filled buffer
first admits/pumps waiting streams (so disks never idle on completion
processing) and then completes the client requests it covers — the
paper's Section 4.2 ordering.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Optional, Set

from repro import obs
from repro.core.buffered_set import BufferedSet, StreamBuffer
from repro.core.classifier import SequentialClassifier
from repro.core.dispatch import DispatchSet
from repro.core.gc import GarbageCollector
from repro.core.params import ServerParams
from repro.core.policies import ReplacementPolicy
from repro.core.stream import StreamQueue
from repro.faults.errors import AdmissionShedError, is_transient
from repro.io import BlockDevice, IOKind, IORequest
from repro.sim import Simulator
from repro.sim.events import Event
from repro.sim.stats import StatsRegistry

__all__ = ["ServerReport", "StreamServer"]

#: CPU time to complete one client request from a staged buffer.
COMPLETION_COPY_S = 10e-6
#: Retry backoff of the ``max_retries`` policy (DESIGN.md §6): retry n
#: waits ``min(RETRY_BACKOFF_S × 2^(n-1), RETRY_BACKOFF_CAP_S)``, times
#: ``1 ± RETRY_BACKOFF_JITTER`` from a per-server
#: ``random.Random(RETRY_SEED)``.
RETRY_BACKOFF_S = 2e-3
RETRY_BACKOFF_CAP_S = 0.25
RETRY_BACKOFF_JITTER = 0.5
RETRY_SEED = 0
#: Retry-after hint of a shed request (DESIGN.md §9): ``SHED_BACKOFF_S``
#: times ``1 ± SHED_BACKOFF_JITTER`` from a per-server
#: ``random.Random(ADMISSION_SEED)``, scaled by dispatch-set load.
SHED_BACKOFF_S = 5e-3
SHED_BACKOFF_JITTER = 0.5
ADMISSION_SEED = 0


@dataclass(frozen=True)
class ServerReport:
    """Diagnostic snapshot of a running :class:`StreamServer`.

    ``staged_hit_fraction`` is the share of client requests completed
    from the buffered set — the paper's "serviced directly from memory"
    category (§5.5); high values mean the coalescing is doing its job.
    """

    live_streams: int
    dispatched_streams: int
    waiting_streams: int
    live_buffers: int
    memory_in_use: int
    memory_peak: int
    completed_requests: int
    completed_bytes: int
    staged_hit_fraction: float
    direct_fraction: float
    readahead_issued_bytes: int
    detected_streams: int
    gc_cycles: int
    quarantined_streams: int = 0
    shed_requests: int = 0

    def __str__(self) -> str:
        return (
            f"streams: {self.live_streams} live "
            f"({self.dispatched_streams} dispatched, "
            f"{self.waiting_streams} waiting), "
            f"buffers: {self.live_buffers} "
            f"({self.memory_in_use / 2**20:.1f} MB in use, "
            f"peak {self.memory_peak / 2**20:.1f} MB), "
            f"completed: {self.completed_requests} reqs "
            f"({self.staged_hit_fraction:.0%} staged, "
            f"{self.direct_fraction:.0%} direct)")


class StreamServer:
    """Host-level sequential-stream server over any block device.

    Parameters
    ----------
    sim:
        Owning simulator.
    device:
        Downstream :class:`~repro.io.BlockDevice` — a raw drive, a
        controller, or a whole storage node.
    params:
        The D/R/N/M configuration (see :class:`ServerParams`).
    policy:
        Dispatch-set replacement policy (default round-robin).
    """

    def __init__(self, sim: Simulator, device: BlockDevice,
                 params: Optional[ServerParams] = None,
                 policy: Optional[ReplacementPolicy] = None,
                 classifier: Optional[SequentialClassifier] = None,
                 name: str = "server"):
        self.sim = sim
        self.device = device
        self.params = params or ServerParams()
        self.name = name
        self.capacity_bytes = device.capacity_bytes
        #: Pluggable for the ablation variants (CoarseBitmapClassifier).
        self.classifier = classifier or SequentialClassifier(self.params)
        self.buffered = BufferedSet(self.params.memory_budget,
                                    on_change=self._buffers_changed)
        self.dispatch = DispatchSet(
            width=self.params.effective_dispatch_width,
            requests_per_residency=self.params.requests_per_residency,
            policy=policy)
        self.gc = GarbageCollector(self)
        self.stats = StatsRegistry()
        self._memory_waiters: list[Event] = []
        # Precomputed event/process names + hot metric objects: submit,
        # staged completion and pump run once per request, and the
        # f-string + registry probe per call were measurable.
        self._srv_name = f"{name}.srv"
        self._direct_name = f"{name}.direct"
        self._pump_name = f"{name}.pump"
        self._mem_name = f"{name}.mem"
        self._copy_s = COMPLETION_COPY_S
        #: (request, event) per staged hit whose copy is in progress, in
        #: the order their copy timeouts fire (see _finish_later); every
        #: copy timeout shares the one bound callback.
        self._copies: deque = deque()
        self._copy_done_cb = self._copy_done
        stats = self.stats
        self._c_direct = stats.counter("direct")
        self._c_staged_hits = stats.counter("staged_hits")
        self._c_completed = stats.counter("completed")
        self._c_readahead_issued = stats.counter("readahead_issued")
        self._c_attached = stats.counter("attached")
        self._c_reclaimed_misses = stats.counter("reclaimed_misses")
        # Fault/degradation policy state (DESIGN.md §6). All counters
        # stay zero when the policies are off (the default), and a
        # fault-free submission is then one submit-and-wait, so
        # fault-free runs are bit-identical to the policy-free server.
        self._max_retries = self.params.max_retries
        self._retry_rng = random.Random(RETRY_SEED)
        self._c_device_errors = stats.counter("device_errors")
        #: Client stream ids barred from coalescing after repeated
        #: fetch failures; their requests take the direct path.
        self._quarantined: Set[int] = set()
        self._c_retries = stats.counter("retries")
        self._c_quarantined = stats.counter("quarantined_streams")
        self._c_quarantine_bypass = stats.counter("quarantine_bypass")
        # Open-loop admission control (DESIGN.md §9). Off by default:
        # the off path adds one cached-boolean test to submit() and the
        # routing body (_accept) is untouched, so fault-free runs stay
        # bit-identical to the historical server.
        self._admission_limit = self.params.admission_limit
        self._admission_on = self._admission_limit > 0
        self._admission_queue_depth = self.params.admission_queue_depth
        self._in_service = 0
        self._admission_queue: deque = deque()
        self._admission_rng = random.Random(ADMISSION_SEED)
        self._c_shed = stats.counter("admission_shed")
        self._c_admission_queued = stats.counter("admission_queued")
        # Ambient observability, captured once. Every hook below guards
        # on the cached boolean, so the default (obs off) adds exactly
        # one false test per hook site to the hot path.
        self._obs = obs.current()
        self._obs_on = self._obs.enabled
        if self._obs_on:
            telemetry = self._obs.telemetry_for(sim)
            if telemetry is not None:
                telemetry.watch_server(self, prefix=name)
                telemetry.start()
        self.write_coalescer = None
        if self.params.coalesce_writes:
            from repro.core.writeback import (
                WriteCoalescer,
                WriteCoalescerParams,
            )
            self.write_coalescer = WriteCoalescer(
                sim, device,
                WriteCoalescerParams(
                    coalesce_bytes=self.params.write_coalesce_bytes,
                    memory_budget=self.params.write_memory_budget),
                name=f"{name}.wback")

    # -- host cost-model mirroring ------------------------------------------
    def _buffers_changed(self, delta: int) -> None:
        register = getattr(self.device, "register_buffers", None)
        if register is not None:
            register(delta)
        if delta < 0 and self._memory_waiters:
            waiters, self._memory_waiters = self._memory_waiters, []
            for waiter in waiters:
                waiter.succeed()

    # -- observability hooks ------------------------------------------------
    def _obs_phase(self, request: IORequest, name: str) -> None:
        """Open the request's server phase span and make it the parent
        for the layers below (phases tile the client root: exactly one
        per request, closed in ``_finish`` / the failure paths)."""
        span = self._obs.begin_child(request, name, "server", self.sim.now)
        request.annotations["obs.phase"] = span
        self._obs.link(request, span)

    def _obs_fail(self, request: IORequest, exc: Exception) -> None:
        """Close the request's phase span on a failure completion."""
        span = request.annotations.pop("obs.phase", None)
        if span is not None:
            span.set_arg("error", type(exc).__name__)
            self._obs.spans.end(span, self.sim.now)

    # -- BlockDevice protocol ---------------------------------------------------
    def submit(self, request: IORequest) -> Event:
        """Accept a client request; returns its completion event.

        With admission control off (the default) this is a straight
        hand-off to the routing body (:meth:`_accept`) — one boolean
        test, bit-identical to the historical server. With it on, at
        most ``admission_limit`` client requests are in service; the
        overflow waits in a bounded FIFO, and when that is full too the
        oldest waiting request is shed (DESIGN.md §9).
        """
        if request.submit_time == 0.0:  # repro.io.stamp_submit, inlined
            request.submit_time = self.sim.now
        event = self.sim.event(self._srv_name)
        if not self._admission_on:
            return self._accept(request, event)
        if self._in_service < self._admission_limit:
            self._admit(request, event)
            return event
        queue = self._admission_queue
        if self._admission_queue_depth > 0:
            if len(queue) >= self._admission_queue_depth:
                # FIFO shedding: drop the *oldest* waiting request so
                # the queue holds the freshest work (a stale request's
                # client has likely given up on it anyway).
                old_request, old_event = queue.popleft()
                self._shed(old_request, old_event)
            queue.append((request, event))
            self._c_admission_queued.add(request.size)
            return event
        self._shed(request, event)
        return event

    # -- admission control (DESIGN.md §9) -----------------------------------
    def _admit(self, request: IORequest, event: Event) -> None:
        """Count the request in service; release when its event fires.

        The release callback rides the completion event itself (fired
        on success *and* failure), so every exit path — staged hit,
        direct relay, quarantine drain, fetch abort — releases the
        slot without per-site bookkeeping. The write-coalescer branch
        returns its own event; the callback follows it there.
        """
        self._in_service += 1
        out = self._accept(request, event)
        if out is not event:
            out.callbacks.append(
                lambda fired, target=event: self._mirror_completion(
                    fired, target))
        out.callbacks.append(self._admission_release)

    def _mirror_completion(self, fired: Event, target: Event) -> None:
        """Relay a substitute completion onto the event the client holds."""
        if fired.ok:
            target.succeed(fired.value)
        else:
            target.fail(fired.value)

    def _admission_release(self, _event: Event) -> None:
        self._in_service -= 1
        queue = self._admission_queue
        while queue and self._in_service < self._admission_limit:
            request, event = queue.popleft()
            self._admit(request, event)

    def _shed(self, request: IORequest, event: Event) -> None:
        """Fail a request at the admission edge with a backoff hint."""
        retry_after = SHED_BACKOFF_S * (1.0 + SHED_BACKOFF_JITTER * (
            2.0 * self._admission_rng.random() - 1.0))
        # Scale the hint by dispatch-set load: the deeper the backlog,
        # the longer a resubmit should wait.
        retry_after *= 1.0 + self.dispatch.load_factor
        self._c_shed.add(request.size)
        if self._obs_on:
            self._obs.instant_for(
                request, "server.shed", "mark", self.sim.now,
                args={"retry_after_s": retry_after})
        event.fail(AdmissionShedError(
            f"{request!r} shed at admission "
            f"(in-service limit {self._admission_limit})",
            retry_after_s=retry_after))

    def _accept(self, request: IORequest, event: Event) -> Event:
        """Route an admitted request; returns the client-facing event."""
        if request.kind is not IOKind.READ:
            if self.write_coalescer is not None:
                return self.write_coalescer.write(request)
            if self._obs_on:
                self._obs_phase(request, "server.direct")
            self._issue_direct(request, event)
            return event
        if self.params.read_ahead == 0:
            if self._obs_on:
                self._obs_phase(request, "server.direct")
            self._issue_direct(request, event)
            return event
        if request.stream_id is not None \
                and request.stream_id in self._quarantined:
            # Quarantined client: its fetch path proved unreliable, so
            # bypass classification/coalescing entirely.
            self._c_quarantine_bypass.add(request.size)
            if self._obs_on:
                self._obs_phase(request, "server.direct")
            self._issue_direct(request, event)
            return event
        stream = self.classifier.route(request, self.sim.now)
        if not self.gc.running:
            self.gc.ensure_running()
        if stream is None:
            if self._obs_on:
                self._obs_phase(request, "server.direct")
            self._issue_direct(request, event)
            return event
        end = request.offset + request.size
        if end <= stream.fetch_next:
            sim = self.sim
            if self.buffered.consume_head(stream.stream_id, end,
                                          sim.now) is not None:
                # Head-buffer hit: the common case, with no lookup and
                # no walk (DESIGN.md §4). _finish_later, inlined.
                if self._obs_on:
                    self._obs_phase(request, "server.memhit")
                self._c_staged_hits.add(request.size)
                self._copies.append((request, event))
                sim.after(self._copy_s, self._copy_done_cb)
                return event
            # Otherwise find the buffer holding the request's last byte
            # (fills are in order, so once it fills everything before
            # it has too). The buffer — not the filled_until counter —
            # is the source of truth: GC may have reclaimed staged data
            # the counter still remembers.
            buffer = self.buffered.find_in_stream(
                stream.stream_id, end - 1, 1)
            if buffer is None:
                # Data was fetched but reclaimed before this read (GC,
                # memory pressure): fall back to a direct read.
                self._c_reclaimed_misses.add(request.size)
                if self._obs_on:
                    self._obs_phase(request, "server.direct")
                self._issue_direct(request, event)
            elif buffer.filled:
                if self._obs_on:
                    self._obs_phase(request, "server.memhit")
                self._complete_from_memory(stream, request, event)
            else:
                # The covering fetch is in flight: wait for it.
                if self._obs_on:
                    self._obs_phase(request, "server.stage")
                buffer.waiters.append((request, event))
                self._c_attached.add(request.size)
        else:
            # Beyond the fetch frontier: queue on the stream and make
            # sure it is (or becomes) dispatched.
            if self._obs_on:
                self._obs_phase(request, "server.dispatchq")
            stream.pending.append((request, event))
            if not self.dispatch.is_member(stream):
                self.dispatch.enqueue(stream)
            self._admit_streams()
        return event

    # -- direct path ------------------------------------------------------------
    def _issue_direct(self, request: IORequest, event: Event) -> None:
        self._c_direct.add(request.size)
        self.sim.process(self._relay(request, event),
                         name=self._direct_name)

    def _relay(self, request: IORequest, event: Event):
        try:
            yield from self._submit_with_policy(request)
        except Exception as exc:  # device fault: surface to client
            if self._obs_on:
                self._obs_fail(request, exc)
            event.fail(exc)
            return
        self._finish(request, event)

    # -- fault policies (DESIGN.md §6) -------------------------------------
    def _backoff_delay(self, attempt: int) -> float:
        """Exponential backoff with seeded multiplicative jitter."""
        delay = min(RETRY_BACKOFF_S * (2 ** (attempt - 1)),
                    RETRY_BACKOFF_CAP_S)
        return delay * (1.0 + RETRY_BACKOFF_JITTER * (
            2.0 * self._retry_rng.random() - 1.0))

    def _submit_with_policy(self, request: IORequest):
        """Device submission with bounded transient retries.

        Yield-from helper shared by the direct path and the read-ahead
        fetch path. Permanent errors (and transient errors once
        ``max_retries`` is exhausted) propagate to the caller; every
        failed attempt lands in the ``device_errors`` counter. With
        ``max_retries == 0`` this is one submit-and-wait.
        """
        attempt = 0
        while True:
            try:
                value = yield self.device.submit(request)
            except Exception as exc:
                self._c_device_errors.add(request.size)
                if attempt < self._max_retries and is_transient(exc):
                    attempt += 1
                    self._c_retries.add(request.size)
                    if self._obs_on:
                        self._obs.instant_for(
                            request, "server.retry", "mark", self.sim.now,
                            args={"attempt": attempt,
                                  "error": type(exc).__name__})
                    yield self.sim.timeout(self._backoff_delay(attempt))
                    continue
                raise
            return value

    # -- staged completions --------------------------------------------------------
    def _complete_from_memory(self, stream: StreamQueue, request: IORequest,
                              event: Event) -> None:
        self._consume(stream, request)
        self._c_staged_hits.add(request.size)
        self._finish_later(request, event)

    def _consume(self, stream: StreamQueue, request: IORequest) -> None:
        """Advance consumption over the stream's buffers (in order)."""
        end = request.end
        now = self.sim.now
        consume = self.buffered.consume
        for buffer in self.buffered.stream_buffers(stream.stream_id):
            offset = buffer.offset
            if offset >= end:
                break
            consume(buffer, offset, min(buffer.end, end) - offset, now)

    def _finish(self, request: IORequest, event: Event) -> None:
        request.complete_time = self.sim.now
        self._c_completed.add(request.size)
        if self._obs_on:
            span = request.annotations.pop("obs.phase", None)
            if span is not None:
                self._obs.spans.end(span, self.sim.now)
        event.succeed(request)

    # -- dispatching --------------------------------------------------------------
    def _admit_streams(self) -> None:
        """Fill free dispatch slots and start their pumps."""
        while True:
            stream = self.dispatch.admit_next()
            if stream is None:
                return
            self.sim.process(self._pump(stream), name=self._pump_name)

    def _pump(self, stream: StreamQueue):
        """One dispatch-set residency: issue up to N read-ahead requests."""
        params = self.params
        while (self.dispatch.is_member(stream)
               and not self.dispatch.residency_expired(stream)):
            size = min(params.read_ahead,
                       self.capacity_bytes - stream.fetch_next)
            if size <= 0:
                break  # stream ran off the end of the disk
            while not self.buffered.can_allocate(size):
                waiter = self.sim.event(self._mem_name)
                self._memory_waiters.append(waiter)
                yield waiter
                if not self.dispatch.is_member(stream):
                    return
            offset = stream.fetch_next
            buffer = self.buffered.allocate(stream.stream_id,
                                            stream.disk_id, offset, size,
                                            self.sim.now)
            stream.fetch_next = offset + size
            self.dispatch.record_issue(stream, offset)
            fetch = IORequest(kind=IOKind.READ, disk_id=stream.disk_id,
                              offset=offset, size=size,
                              stream_id=stream.client_id)
            fetch.annotations["core.readahead"] = stream.stream_id
            fetch_span = None
            if self._obs_on:
                # A coalesced fetch serves many client requests, so it
                # roots its own trace instead of borrowing one client's
                # (keeps client phase spans pairwise disjoint).
                fetch_span = self._obs.spans.begin(
                    "server.fetch", "readahead", self.sim.now,
                    args={"stream": stream.stream_id, "offset": offset,
                          "size": size})
                self._obs.link(fetch, fetch_span)
            self._c_readahead_issued.add(size)
            try:
                yield from self._submit_with_policy(fetch)
            except Exception as exc:  # device fault mid-fetch
                if fetch_span is not None:
                    fetch_span.set_arg("error", type(exc).__name__)
                    self._obs.spans.end(fetch_span, self.sim.now)
                self._abort_fetch(stream, buffer, exc)
                self._record_fetch_failure(stream, exc)
                break
            if fetch_span is not None:
                self._obs.spans.end(fetch_span, self.sim.now)
            stream.fetch_failures = 0
            self._buffer_filled(stream, buffer, fetch_span)
        self._rotate(stream)

    def _record_fetch_failure(self, stream: StreamQueue,
                              exc: Exception) -> None:
        """Count a failed (retry-exhausted) fetch; quarantine at the
        threshold."""
        stream.fetch_failures += 1
        threshold = self.params.quarantine_threshold
        if threshold and stream.fetch_failures >= threshold:
            self._quarantine(stream, exc)

    def _quarantine(self, stream: StreamQueue, exc: Exception) -> None:
        """Evict a repeatedly failing stream from the coalescing machinery.

        The stream leaves the dispatch set and admission queue, its
        staged pages are reclaimed, its classifier entry is dropped, and
        its client id is barred from re-classification — subsequent
        requests from that client take the direct path (which still
        applies the retry policy per request). Any requests still parked
        on the stream fail with the triggering error: the fetch path
        that would have served them is the thing that just proved
        broken.
        """
        self._c_quarantined.add()
        if self._obs_on:
            self._obs.spans.instant(
                "server.quarantine", "fault", self.sim.now,
                args={"stream": stream.stream_id,
                      "error": type(exc).__name__})
        if stream.client_id is not None:
            self._quarantined.add(stream.client_id)
        while stream.pending:
            _request, event = stream.pending.popleft()
            if self._obs_on:
                self._obs_fail(_request, exc)
            event.fail(exc)
        reclaimed = self.buffered.release_stream(stream.stream_id)
        self.stats.counter("quarantine_reclaimed").add(reclaimed)
        self.dispatch.rotate_out(stream)
        self.dispatch.drop_waiting(stream)
        self.classifier.drop_stream(stream)

    def _abort_fetch(self, stream: StreamQueue, buffer: StreamBuffer,
                     exc: Exception) -> None:
        """A read-ahead fetch failed: fail its waiters, drop the buffer.

        Pending requests beyond the failed range fail too — their data
        can only arrive through the fetch path that just broke; the
        stream itself survives and may be re-dispatched by new requests.
        """
        for _request, event in self.buffered.discard(buffer):
            if self._obs_on:
                self._obs_fail(_request, exc)
            event.fail(exc)
        while stream.pending:
            _request, event = stream.pending.popleft()
            if self._obs_on:
                self._obs_fail(_request, exc)
            event.fail(exc)
        self.classifier.unpark(stream)
        stream.fetch_next = min(stream.fetch_next, buffer.offset)

    def _buffer_filled(self, stream: StreamQueue,
                       buffer: StreamBuffer,
                       fetch_span=None) -> None:
        """Completion path: issue-path work first, then client completions.

        Under tracing, every client request this fill unblocks is
        joined to the fetch that paid for it: the request's open phase
        span gets a ``fetch_trace`` arg naming the fetch's trace, and
        the fetch span counts its ``unblocked`` requests — the link the
        report CLI's read-ahead join table aggregates into the §5.5
        cost picture (fetches root their own traces, so without the
        tag the causality would be unrecoverable from an export).
        """
        waiters = self.buffered.mark_filled(buffer, self.sim.now)
        if self.buffered.find_in_stream(stream.stream_id, buffer.offset,
                                        1) is buffer:
            stream.filled_until = max(stream.filled_until, buffer.end)
        # Issue path gets priority (Section 4.2): admit/refill before
        # completing clients.
        self._admit_streams()
        unblocked = 0
        for request, event in waiters:
            self._consume(stream, request)
            self._c_staged_hits.add(request.size)
            if fetch_span is not None:
                unblocked += 1
                self._obs_join_fetch(request, fetch_span)
            self._finish_later(request, event)
        while stream.pending:
            request, event = stream.pending[0]
            if request.end > stream.filled_until:
                break
            stream.pending.popleft()
            self._consume(stream, request)
            self._c_staged_hits.add(request.size)
            if fetch_span is not None:
                unblocked += 1
                self._obs_join_fetch(request, fetch_span)
            self._finish_later(request, event)
        if not stream.pending:
            # Demand drained: a stream the GC parked is droppable again.
            self.classifier.unpark(stream)
        if fetch_span is not None:
            fetch_span.set_arg("unblocked", unblocked)

    def _obs_join_fetch(self, request: IORequest, fetch_span) -> None:
        """Tag an unblocked request's phase span with its fetch's trace."""
        span = request.annotations.get("obs.phase")
        if span is not None:
            span.set_arg("fetch_trace", fetch_span.trace_id)

    def _finish_later(self, request: IORequest, event: Event) -> None:
        """Model the memory-to-client copy, then complete the request.

        The copy never waits on anything, so it is one timeout, not a
        Process (DESIGN.md §4, "No Process for a hop that never
        waits"). Every copy timeout has the same delay and ``sim.now``
        never decreases, so they fire in the order they were created:
        the request rides a FIFO and one shared callback takes it off.
        """
        self._copies.append((request, event))
        self.sim.after(self._copy_s, self._copy_done_cb)

    def _copy_done(self, _copy: Event) -> None:
        """:meth:`_finish` for the oldest copy in progress."""
        request, event = self._copies.popleft()
        now = self.sim.now
        request.complete_time = now
        self._c_completed.add(request.size)
        if self._obs_on:
            span = request.annotations.pop("obs.phase", None)
            if span is not None:
                self._obs.spans.end(span, now)
        event.succeed(request)

    def _rotate(self, stream: StreamQueue) -> None:
        """End of residency: leave the dispatch set, requeue if needed.

        A stream with clients still waiting competes for a slot again
        immediately; an idle one re-enters through ``submit`` the next
        time a request outruns its staged data.
        """
        self.dispatch.rotate_out(stream)
        if stream.has_demand and stream.fetch_next < self.capacity_bytes:
            self.dispatch.enqueue(stream)
        elif stream.has_demand:
            # The stream ran off the end of the disk with clients still
            # queued: read-ahead cannot serve them, so hand them to the
            # direct path rather than leaving them parked forever.
            while stream.pending:
                request, event = stream.pending.popleft()
                if self._obs_on:
                    # The open phase was "server.dispatchq" but the
                    # request is now served by the device: rename it so
                    # attribution charges the device phases, not staging
                    # (mapped parent + mapped children would double
                    # count).
                    span = request.annotations.get("obs.phase")
                    if span is not None:
                        span.name = "server.direct"
                self._issue_direct(request, event)
            self.classifier.unpark(stream)
        self._admit_streams()

    # -- reporting -------------------------------------------------------------------
    def throughput(self, elapsed: float) -> float:
        """Client-visible completed bytes per second."""
        return self.stats.counter("completed").throughput(elapsed)

    def report(self) -> "ServerReport":
        """Point-in-time diagnostic snapshot (see :class:`ServerReport`)."""
        completed = self.stats.counter("completed")
        staged = self.stats.counter("staged_hits")
        direct = self.stats.counter("direct")
        return ServerReport(
            live_streams=self.classifier.live_streams,
            dispatched_streams=len(self.dispatch.members),
            waiting_streams=self.dispatch.waiting_count,
            live_buffers=len(self.buffered),
            memory_in_use=self.buffered.in_use,
            memory_peak=self.buffered.peak_in_use,
            completed_requests=completed.count,
            completed_bytes=completed.total_bytes,
            staged_hit_fraction=(staged.count / completed.count
                                 if completed.count else 0.0),
            direct_fraction=(direct.count / completed.count
                             if completed.count else 0.0),
            readahead_issued_bytes=self.stats.counter(
                "readahead_issued").total_bytes,
            detected_streams=self.classifier.detected,
            gc_cycles=self.gc.cycles,
            quarantined_streams=self._c_quarantined.count,
            shed_requests=self._c_shed.count,
        )

    @property
    def memory_in_use(self) -> int:
        """Bytes currently staged in the buffered set."""
        return self.buffered.in_use

    def __repr__(self) -> str:
        return (f"<StreamServer D={self.dispatch.width} "
                f"R={self.params.read_ahead} "
                f"N={self.params.requests_per_residency} "
                f"M={self.params.memory_budget} "
                f"streams={self.classifier.live_streams}>")
