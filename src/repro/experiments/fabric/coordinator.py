"""Fabric coordinator: work queue and straggler-aware dispatch.

The coordinator owns one listening (or dialing) socket per fabric and a
single-threaded ``selectors`` event loop. Per ``run_tasks`` call it
pushes ``task`` messages to idle workers and collects ``result``
messages until every task has a value. It keeps no cache: the caller
(``run_sweep``) looks every point up in its
:class:`~repro.experiments.executor.SweepCache` before dispatch and
stores every value after, so the fabric only ships points and returns
values.

Dispatch policy (the straggler-aware part, after arXiv 1805.06156):

* every completed point's latency updates its worker's EWMA and a
  bounded window whose running **median** is the fabric's notion of a
  normal point (:class:`~repro.sim.stats.StragglerTracker`, the
  estimator the simulated hedged mirror uses too);
* new tasks go to the idle worker with the lowest EWMA (ties broken by
  worker id, so scheduling is reproducible given identical timings);
* when the queue is empty but workers are idle, the oldest in-flight
  task whose age exceeds ``max(_HEDGE_MIN_S, _HEDGE_K x median)`` is
  **hedged** — re-dispatched to an idle worker, at most two copies.
  Only dialed workers hedge: spawned workers are copies of one
  interpreter on one host, so there a long task is a long point, not a
  slow worker, and its copy would only hold a worker into the next
  sweep (DESIGN.md §8);
* **first result wins**: a task's first arriving value is recorded and
  later duplicates are discarded. Point functions are pure and
  deterministic (the executor's core contract, pinned by the
  determinism suite), so every copy computes the *same bits* and the
  discard can never change the output — which is exactly why a fabric
  run is byte-identical to a serial one regardless of hedge timing. A
  mismatching duplicate is counted (``duplicate_mismatches``) and
  logged loudly: it means a point function broke the purity contract.

Failure handling: a worker EOF re-queues its in-flight assignments
(bounded by ``MAX_REQUEUES`` per task, so a point that *kills* workers
cannot loop forever); a worker ``error`` reply — the point function
raised — aborts the run with :class:`FabricError`, mirroring the
in-process loop, where a raising point surfaces to the caller.
``run_sweep`` answers any :class:`FabricError` by recomputing the
sweep in-process.

Telemetry: per-worker queue depth, completion/hedge counters and
the coordinator's pending depth are recorded into
:class:`repro.obs.telemetry.TimeSeries` ring buffers (wall-clock
timestamps) and exported in the ``repro.obs`` JSONL schema, so
``python -m repro.obs.report`` renders a fabric trace with the same
machinery as a simulation trace.
"""

from __future__ import annotations

import hmac
import itertools
import logging
import os
import selectors
import socket
import subprocess
import sys
import tempfile
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.fabric.protocol import (AUTH_ENV, Address,
                                               FrameBuffer, FrameError,
                                               WorkerSpec, auth_proof,
                                               connect, fabric_secret,
                                               format_address, parse_spec,
                                               send_msg)
from repro.sim.eventcore import backend_token
from repro.sim.stats import StragglerTracker

_log = logging.getLogger("repro.fabric")

__all__ = ["Fabric", "FabricError", "MAX_REQUEUES"]

#: Times one task may be re-queued after losing its worker before the
#: run aborts — a point that reliably kills its worker must not melt
#: the whole fabric down retrying forever.
MAX_REQUEUES = 3

#: Straggler threshold ``max(_HEDGE_MIN_S, _HEDGE_K x median)`` of a
#: hedging fabric.
_HEDGE_K = 3.0
_HEDGE_MIN_S = 1.0

#: Handshake budget for spawned/dialed workers.
_HELLO_TIMEOUT_S = 30.0


class FabricError(RuntimeError):
    """The fabric cannot finish this run; the caller should fall back."""


class _Worker:
    """Coordinator-side connection state for one worker process."""

    __slots__ = ("ident", "sock", "frames", "task", "dispatched_at",
                 "completed", "hedges_won", "pid", "host", "process")

    def __init__(self, ident: int, sock: socket.socket,
                 process: Optional[subprocess.Popen] = None):
        self.ident = ident
        self.sock = sock
        self.frames = FrameBuffer()
        self.task: Optional[int] = None
        self.dispatched_at = 0.0
        self.completed = 0
        self.hedges_won = 0
        self.pid: Optional[int] = None
        self.host = ""
        self.process = process

    @property
    def idle(self) -> bool:
        return self.task is None

    def __repr__(self) -> str:
        return (f"<worker {self.ident} pid={self.pid} "
                f"task={self.task}>")


class Fabric:
    """A pool of fabric workers shared across ``run_sweep`` calls.

    ``Fabric("4")`` spawns four local workers over a private socket on
    first use; ``Fabric("hostA:7070,hostB:7070")`` dials workers
    started with ``python -m repro.experiments.fabric worker --listen``.
    The connection set persists across sweeps (workers keep their warm
    imports); ``close()`` tears everything down.

    Dialed workers hedge stragglers; spawned ones do not. The shared
    auth secret is ``REPRO_FABRIC_SECRET`` as set when the fabric is
    built; spawned workers inherit the environment as it is when they
    start.
    """

    def __init__(self, spec: str):
        self.spec: WorkerSpec = parse_spec(spec)
        self.spec_text = spec
        self.hedging = not self.spec.spawn
        self._secret = fabric_secret()
        self._selector: Optional[selectors.BaseSelector] = None
        self._listener: Optional[socket.socket] = None
        self._listen_address: Optional[Address] = None
        self._socket_dir: Optional[tempfile.TemporaryDirectory] = None
        self._workers: Dict[int, _Worker] = {}
        self._ident = itertools.count(1)
        self._runs = itertools.count(1)
        self._started = False
        #: Per-worker compute-latency EWMAs (keyed by ident; unproven
        #: workers look fast, so they get work immediately) and the
        #: window whose median sets the hedge threshold.
        self._stragglers = StragglerTracker()
        # Lifetime counters (across runs); surfaced by stats().
        self.completed = 0
        self.hedges_issued = 0
        self.hedges_won = 0
        self.requeued = 0
        self.duplicate_results = 0
        self.duplicate_mismatches = 0
        self.workers_lost = 0
        self._telemetry_series: Dict[str, Any] = {}
        self._telemetry_t0 = time.monotonic()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Spawn/dial workers and complete handshakes (idempotent).

        Separated from :meth:`run_tasks` so callers timing throughput
        can exclude process startup.
        """
        if not self._started:
            self._selector = selectors.DefaultSelector()
            if self.spec.spawn:
                self._open_listener()
            self._started = True
        self._ensure_workers()
        if not self._workers:
            raise FabricError(
                f"no fabric workers reachable for spec "
                f"{self.spec_text!r}")

    def close(self) -> None:
        """Shut down workers and release sockets (idempotent)."""
        for worker in list(self._workers.values()):
            try:
                send_msg(worker.sock, {"type": "shutdown"})
            except OSError:
                pass
        deadline = time.monotonic() + 5.0
        for worker in list(self._workers.values()):
            self._drop_worker(worker, requeue=False)
            process = worker.process
            if process is not None:
                try:
                    process.wait(timeout=max(0.1,
                                             deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        if self._listener is not None:
            try:
                self._selector.unregister(self._listener)
            except (KeyError, ValueError):
                pass
            self._listener.close()
            self._listener = None
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        if self._socket_dir is not None:
            self._socket_dir.cleanup()
            self._socket_dir = None
        self._started = False

    def __enter__(self) -> "Fabric":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- worker management --------------------------------------------------

    def _open_listener(self) -> None:
        """Listen for locally spawned workers: Unix socket when the
        platform has one, loopback TCP otherwise."""
        if hasattr(socket, "AF_UNIX"):
            self._socket_dir = tempfile.TemporaryDirectory(
                prefix="repro-fabric-")
            path = os.path.join(self._socket_dir.name, "coordinator.sock")
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(path)
            self._listen_address = ("unix", path)
        else:  # pragma: no cover - non-POSIX
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.bind(("127.0.0.1", 0))
            host, port = listener.getsockname()
            self._listen_address = ("tcp", (host, port))
        listener.listen(self.spec.spawn)
        listener.setblocking(False)
        self._selector.register(listener, selectors.EVENT_READ,
                                data="listener")
        self._listener = listener

    def _spawn_worker(self) -> subprocess.Popen:
        """Start one local worker process pointed at our listener."""
        env = dict(os.environ)
        # Replay the parent's sys.path: point functions must resolve by
        # reference in a fresh interpreter too.
        env["PYTHONPATH"] = os.pathsep.join(
            entry for entry in sys.path if entry)
        command = [sys.executable, "-m", "repro.experiments.fabric",
                   "worker", "--connect",
                   format_address(self._listen_address)]
        return subprocess.Popen(command, env=env,
                                stdin=subprocess.DEVNULL)

    def _ensure_workers(self) -> None:
        """Bring the connection set up to spec (respawning local workers
        lost since the previous run; dial-out workers are not revived —
        their host may simply be gone)."""
        for worker in list(self._workers.values()):
            process = worker.process
            if process is not None and process.poll() is not None:
                self._drop_worker(worker, requeue=False)
        if self.spec.spawn:
            missing = self.spec.spawn - len(self._workers)
            if missing > 0:
                self._accept_spawned(
                    [self._spawn_worker() for _ in range(missing)])
        elif not self._workers:
            for address in self.spec.addresses:
                try:
                    sock = connect(address, timeout=_HELLO_TIMEOUT_S)
                except OSError as exc:
                    _log.warning("fabric: cannot reach worker at %s: %s",
                                 format_address(address), exc)
                    continue
                self._adopt(sock)

    def _accept_spawned(self, processes: List[subprocess.Popen]) -> None:
        """Accept one connection per spawned process within the
        handshake budget; unclaimed processes are killed.

        Processes connect in whatever order they start, so each
        connection is paired with the process whose pid its hello
        names, never by position.
        """
        expected = len(processes)
        deadline = time.monotonic() + _HELLO_TIMEOUT_S
        accepted = 0
        unclaimed = {process.pid: process for process in processes}
        while accepted < expected and time.monotonic() < deadline:
            try:
                sock, _peer = self._listener.accept()
            except BlockingIOError:
                self._selector.select(timeout=0.05)
                continue
            self._adopt(sock, unclaimed)
            accepted += 1
        for process in unclaimed.values():
            process.kill()
        if accepted < expected:
            _log.warning("fabric: only %d/%d spawned workers connected "
                         "within %gs", accepted, expected,
                         _HELLO_TIMEOUT_S)

    def _adopt(self, sock: socket.socket,
               spawned: Optional[Dict[int, subprocess.Popen]] = None) \
            -> None:
        """Handshake a new connection and register it (or refuse it).

        ``spawned`` maps pid -> process for spawned workers still
        waiting for their connection; the one whose pid the hello
        names is claimed by this worker.
        """
        from repro.experiments.fabric.protocol import recv_msg
        sock.settimeout(_HELLO_TIMEOUT_S)
        try:
            hello = recv_msg(sock)
        except (OSError, FrameError) as exc:
            _log.warning("fabric: worker handshake failed: %s", exc)
            sock.close()
            return
        if hello is None or hello.get("type") != "hello":
            _log.warning("fabric: worker sent %r instead of hello; "
                         "refusing", hello)
            sock.close()
            return
        ours = backend_token()
        theirs = hello.get("eventcore")
        if theirs != ours:
            # Mixed kernels would mix cache fingerprints: the keys this
            # coordinator computes embed *its* backend token, so a value
            # computed on another backend must never satisfy them.
            _log.warning(
                "fabric: refusing worker pid=%s on event core %r "
                "(coordinator runs %r)", hello.get("pid"), theirs, ours)
            try:
                send_msg(sock, {"type": "shutdown"})
            except OSError:
                pass
            sock.close()
            return
        if self._secret is not None:
            if not self._authenticate(sock, hello):
                return
        elif hello.get("auth"):
            # The worker holds a secret we do not: it will refuse our
            # first task anyway, so fail fast with a clear reason.
            _log.warning(
                "fabric: refusing worker pid=%s: it requires "
                "authentication but %s is unset here",
                hello.get("pid"), AUTH_ENV)
            try:
                send_msg(sock, {"type": "shutdown"})
            except OSError:
                pass
            sock.close()
            return
        sock.settimeout(None)
        sock.setblocking(False)
        pid = hello.get("pid")
        process = spawned.pop(pid, None) if spawned is not None else None
        worker = _Worker(next(self._ident), sock, process=process)
        worker.pid = pid
        worker.host = hello.get("host", "")
        self._workers[worker.ident] = worker
        self._selector.register(sock, selectors.EVENT_READ, data=worker)

    def _authenticate(self, sock: socket.socket, hello: dict) -> bool:
        """Mutual challenge/response with a just-helloed worker.

        We prove knowledge of the secret first (HMAC over the worker's
        hello nonce), the worker answers with its HMAC over our fresh
        nonce. Any failure closes the socket before a single task byte
        flows; returns whether the worker may join the fabric.
        """
        from repro.experiments.fabric.protocol import recv_msg

        def refuse(reason: str) -> bool:
            _log.warning("fabric: refusing worker pid=%s: %s",
                         hello.get("pid"), reason)
            try:
                send_msg(sock, {"type": "shutdown"})
            except OSError:
                pass
            sock.close()
            return False

        worker_nonce = hello.get("nonce")
        if not isinstance(worker_nonce, str) or not worker_nonce:
            return refuse("hello carries no auth nonce "
                          "(worker predates authentication?)")
        challenge_nonce = os.urandom(16).hex()
        try:
            send_msg(sock, {
                "type": "challenge", "nonce": challenge_nonce,
                "proof": auth_proof(self._secret, "coordinator",
                                    worker_nonce)})
            reply = recv_msg(sock)
        except (OSError, FrameError) as exc:
            _log.warning("fabric: worker auth handshake failed: %s", exc)
            sock.close()
            return False
        if reply is None or reply.get("type") != "auth":
            return refuse(f"expected auth reply, got "
                          f"{None if reply is None else reply.get('type')!r}")
        mac = reply.get("mac")
        expected = auth_proof(self._secret, "worker", challenge_nonce)
        if not isinstance(mac, str) \
                or not hmac.compare_digest(mac, expected):
            return refuse("bad auth proof (secret mismatch)")
        return True

    def _drop_worker(self, worker: _Worker, requeue: bool) -> None:
        """Unregister a dead/closing worker; optionally re-queue its
        in-flight task (run-time state lives in the run context)."""
        if worker.ident in self._workers:
            del self._workers[worker.ident]
        try:
            self._selector.unregister(worker.sock)
        except (KeyError, ValueError):
            pass
        worker.sock.close()
        if requeue:
            self.workers_lost += 1

    # -- telemetry ----------------------------------------------------------

    def _series(self, name: str, kind: str):
        series = self._telemetry_series.get(name)
        if series is None:
            from repro.obs.telemetry import TimeSeries
            series = TimeSeries(name, kind=kind, capacity=4096)
            self._telemetry_series[name] = series
        return series

    def _record(self, name: str, kind: str, value: float) -> None:
        self._series(name, kind).record(
            time.monotonic() - self._telemetry_t0, value)

    def export_telemetry(self, path: str,
                         meta: Optional[Dict[str, Any]] = None) -> int:
        """Write counters/gauges as a ``repro.obs`` JSONL event log."""
        import json
        header: Dict[str, Any] = {"type": "meta", "spans": 0,
                                  "dropped": 0, "fabric": self.spec_text,
                                  "workers": len(self._workers)}
        if meta:
            header.update(meta)
        lines = [json.dumps(header, sort_keys=True)]
        for name in sorted(self._telemetry_series):
            series = self._telemetry_series[name]
            lines.append(json.dumps({
                "type": "series", "name": name, "kind": series.kind,
                "samples": [[t, v] for t, v in series.samples()],
            }, sort_keys=True))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        return len(lines)

    def stats(self) -> Dict[str, Any]:
        """Lifetime dispatch counters (for ``runner --json``)."""
        return {
            "spec": self.spec_text,
            "workers": len(self._workers),
            "completed": self.completed,
            "hedges_issued": self.hedges_issued,
            "hedges_won": self.hedges_won,
            "requeued": self.requeued,
            "workers_lost": self.workers_lost,
            "duplicate_results": self.duplicate_results,
            "duplicate_mismatches": self.duplicate_mismatches,
        }

    def prometheus_metrics(self) -> List[Tuple[str, str, float]]:
        """Fleet + per-worker rows for the Prometheus dump.

        ``(name, kind, value)`` rows suitable for the ``extra``
        argument of :func:`repro.obs.export.export_prometheus`: the
        lifetime fabric counters, then per worker its completion and
        hedge-win counters and its dispatch-latency EWMA — the numbers
        that previously only surfaced as raw ``--fabric-trace`` events.
        """
        rows: List[Tuple[str, str, float]] = []
        for name, value in self.stats().items():
            if isinstance(value, (int, float)):
                kind = "gauge" if name == "workers" else "counter"
                rows.append((f"fabric.{name}", kind, float(value)))
        for ident in sorted(self._workers):
            worker = self._workers[ident]
            prefix = f"fabric.w{ident}"
            rows.extend([
                (f"{prefix}.completed", "counter",
                 float(worker.completed)),
                (f"{prefix}.hedges_won", "counter",
                 float(worker.hedges_won)),
                (f"{prefix}.ewma_seconds", "gauge",
                 self._stragglers.ewma(ident)),
            ])
        return rows

    def export_prometheus(self, path: str) -> int:
        """Write :meth:`prometheus_metrics` as a Prometheus text file."""
        from repro.obs.export import export_prometheus
        return export_prometheus(None, path,
                                 extra=self.prometheus_metrics())

    # -- the run loop -------------------------------------------------------

    def run_tasks(self, tasks: List[Tuple[Any, Any, dict]],
                  trace: Optional[Dict[str, Any]] = None,
                  obs_context: Optional[Any] = None) -> List[Any]:
        """Execute ``(point_fn, scale, params)`` tasks; values in order.

        With ``trace`` (an obs span/telemetry config dict, DESIGN.md
        §10) every task runs traced on its worker and ships spans +
        telemetry back with its result; the payloads are merged into
        ``obs_context`` in task order — deterministic regardless of
        completion order — tagged with the computing worker's ident.
        Raises :class:`FabricError` when the fabric cannot produce
        every value.
        """
        self.start()

        # The run nonce isolates runs sharing one fabric: a hedge copy
        # still computing when its run finishes delivers its result
        # *during a later run*, and that late frame must never be
        # mistaken for the later run's same-numbered task.
        run_id = next(self._runs)
        messages = []
        for index, (fn, scale, params) in enumerate(tasks):
            message = {
                "type": "task", "task": index, "run": run_id,
                "fn": f"{fn.__module__}:{fn.__qualname__}",
                "scale": [scale.name, scale.duration, scale.warmup],
                "params": dict(params),
            }
            if trace:
                message["trace"] = dict(trace)
            messages.append(message)

        run = _RunState(self, messages)
        try:
            values = run.execute()
        finally:
            # Whatever happened, no worker may stay marked busy with a
            # task id from a finished run.
            for worker in self._workers.values():
                worker.task = None
        if obs_context is not None:
            # Task order, not arrival order: the merged trace's span
            # ids are then a pure function of the task list, identical
            # across runs whatever the workers' relative speeds.
            for index in range(len(messages)):
                entry = run.obs_payloads.get(index)
                if entry is not None:
                    ident, payload = entry
                    obs_context.ingest_payload(payload, worker=ident)
        return values


class _RunState:
    """One ``run_tasks`` call: queue, in-flight map, results."""

    def __init__(self, fabric: Fabric, messages: List[dict]):
        self.fabric = fabric
        self.messages = messages
        self.run_id = messages[0]["run"] if messages else 0
        self.pending = deque(range(len(messages)))
        #: task -> live worker idents it is assigned to
        self.assigned: Dict[int, List[int]] = {}
        self.dispatched_at: Dict[int, float] = {}
        self.results: Dict[int, Any] = {}
        self.requeues: Dict[int, int] = {}
        #: task -> (worker ident, obs payload) for traced tasks; like
        #: results, first arrival wins.
        self.obs_payloads: Dict[int, Tuple[int, dict]] = {}

    # -- dispatch -----------------------------------------------------------

    def _dispatch(self, worker: _Worker, task: int,
                  hedge: bool = False) -> None:
        fabric = self.fabric
        try:
            send_msg(worker.sock, self.messages[task])
        except OSError:
            self._lose_worker(worker)
            if not hedge:
                self.pending.appendleft(task)
            return
        now = time.monotonic()
        worker.task = task
        worker.dispatched_at = now
        self.assigned.setdefault(task, []).append(worker.ident)
        self.dispatched_at.setdefault(task, now)
        fabric._record(f"fabric.w{worker.ident}.inflight", "gauge", 1.0)
        fabric._record("fabric.queue_depth", "gauge", len(self.pending))
        if hedge:
            fabric.hedges_issued += 1
            fabric._record("fabric.hedges_issued", "counter",
                           fabric.hedges_issued)

    def _fill_idle(self) -> None:
        """Assign queued tasks, then consider hedging stragglers."""
        fabric = self.fabric
        workers = fabric._workers
        while self.pending:
            fastest = fabric._stragglers.fastest(
                ident for ident, w in workers.items() if w.idle)
            if fastest is None:
                return
            task = self.pending.popleft()
            if task in self.results:
                continue
            self._dispatch(workers[fastest], task)
        self._maybe_hedge()

    def _maybe_hedge(self) -> None:
        fabric = self.fabric
        if not fabric.hedging:
            return
        workers = fabric._workers
        idle = [workers[ident] for ident in fabric._stragglers.rank(
            ident for ident, w in workers.items() if w.idle)]
        if not idle:
            return
        threshold = fabric._stragglers.threshold(_HEDGE_K, _HEDGE_MIN_S)
        now = time.monotonic()
        # Oldest in-flight tasks first; at most two copies each.
        candidates = sorted(
            (task for task, workers in self.assigned.items()
             if task not in self.results and len(workers) == 1),
            key=lambda task: self.dispatched_at[task])
        for task in candidates:
            if not idle:
                return
            if now - self.dispatched_at[task] <= threshold:
                return  # sorted: everything later is younger
            self._dispatch(idle.pop(0), task, hedge=True)

    # -- events -------------------------------------------------------------

    def _lose_worker(self, worker: _Worker) -> None:
        """A worker connection died: re-queue its assignment."""
        fabric = self.fabric
        task = worker.task
        fabric._drop_worker(worker, requeue=True)
        if task is None or task in self.results:
            return
        workers = self.assigned.get(task, [])
        if worker.ident in workers:
            workers.remove(worker.ident)
        if workers:
            return  # a hedge copy is still running it
        self.assigned.pop(task, None)
        self.dispatched_at.pop(task, None)  # age restarts on re-dispatch
        count = self.requeues.get(task, 0) + 1
        self.requeues[task] = count
        if count > MAX_REQUEUES:
            raise FabricError(
                f"task {task} lost its worker {count} times; giving up")
        fabric.requeued += 1
        fabric._record("fabric.requeued", "counter", fabric.requeued)
        _log.warning("fabric: worker died mid-point; re-queueing task "
                     "%d (attempt %d)", task, count)
        self.pending.appendleft(task)

    def _on_message(self, worker: _Worker, message: dict) -> None:
        fabric = self.fabric
        kind = message.get("type")
        if kind == "error":
            if message.get("run") != self.run_id:
                _log.warning("fabric: late error from a previous run "
                             "(worker pid=%s): %s", worker.pid,
                             message.get("error"))
                return
            raise FabricError(
                f"point task {message.get('task')} raised on worker "
                f"pid={worker.pid}: {message.get('error')}")
        if kind != "result":
            raise FrameError(f"unexpected worker message {kind!r}")

        if message.get("run") != self.run_id:
            # Straggling hedge copy from a finished run: the worker is
            # busy with *our* task (queued behind the old one), so it
            # stays marked busy.
            fabric.duplicate_results += 1
            return
        task = message.get("task")
        worker.task = None
        fabric._record(f"fabric.w{worker.ident}.inflight", "gauge", 0.0)
        fabric._stragglers.observe(worker.ident,
                                   float(message.get("elapsed", 0.0)))
        if task is None or task >= len(self.messages):
            raise FrameError(f"result for unknown task {task!r}")
        if task in self.results:
            # A hedge lost the race. Purity makes the copies
            # bit-identical, so dropping the late one is a no-op on
            # output; verify anyway and scream if the contract broke.
            fabric.duplicate_results += 1
            if message.get("value") != self.results[task]:
                fabric.duplicate_mismatches += 1
                _log.error(
                    "fabric: NON-DETERMINISTIC POINT: task %d returned "
                    "%r and %r from different workers", task,
                    self.results[task], message.get("value"))
            return
        assignments = self.assigned.get(task, [])
        if len(assignments) > 1 and assignments \
                and assignments[0] != worker.ident:
            worker.hedges_won += 1
            fabric.hedges_won += 1
        value = message.get("value")
        self.results[task] = value
        worker.completed += 1
        fabric.completed += 1
        fabric._record(f"fabric.w{worker.ident}.completed", "counter",
                       worker.completed)
        payload = message.get("obs")
        if payload is not None:
            self.obs_payloads[task] = (worker.ident, payload)

    # -- main loop ----------------------------------------------------------

    def execute(self) -> List[Any]:
        fabric = self.fabric
        total = len(self.messages)
        self._fill_idle()
        while len(self.results) < total:
            if not fabric._workers:
                if fabric.spec.spawn:
                    # Local workers are ours to revive; the per-task
                    # requeue budget still bounds a point that kills
                    # every process it lands on.
                    fabric._ensure_workers()
                if not fabric._workers:
                    raise FabricError(
                        "all fabric workers died with "
                        f"{total - len(self.results)} task(s) "
                        f"outstanding")
                self._fill_idle()
            events = fabric._selector.select(timeout=0.05)
            for key, _mask in events:
                if key.data == "listener":
                    # Late spawn connecting outside start(): adopt it.
                    try:
                        sock, _peer = key.fileobj.accept()
                    except OSError:
                        continue
                    fabric._adopt(sock)
                    continue
                worker = key.data
                try:
                    data = worker.sock.recv(65536)
                except (BlockingIOError, InterruptedError):
                    continue
                except OSError:
                    data = b""
                if not data:
                    self._lose_worker(worker)
                    continue
                try:
                    messages = worker.frames.feed(data)
                except FrameError as exc:
                    _log.warning("fabric: dropping worker %s: %s",
                                 worker, exc)
                    self._lose_worker(worker)
                    continue
                for message in messages:
                    self._on_message(worker, message)
            self._fill_idle()
        fabric._record("fabric.queue_depth", "gauge", 0.0)
        return [self.results[index] for index in range(total)]
