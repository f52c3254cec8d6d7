"""Fabric worker: pull points off the wire, compute or reuse, stream back.

One worker process serves one coordinator connection at a time. Its
loop is the strictly alternating half of the protocol (see
:mod:`repro.experiments.fabric.protocol`):

1. receive a ``task``;
2. on a cache-enabled task, try the worker-local
   :class:`~repro.experiments.executor.SweepCache` first, then one
   ``cache_get`` round-trip to the coordinator (whose store is warmed by
   every other worker — the *shared* half of the content-addressed
   cache), and only then compute;
3. answer with ``result`` (or ``error`` if the point function raised).

Points are computed through :func:`repro.experiments.executor._invoke`,
so ``REPRO_POINT_TIMEOUT`` means exactly what it means in the pool: an
overrunning point yields NaN, and NaN results are never written to any
cache tier. Freshly computed non-NaN values are written to the local
store before the result goes back, so a later sweep on this host hits
without a network round-trip.
"""

from __future__ import annotations

import hmac
import logging
import math
import os
import socket
import time
from typing import Any, Dict, Optional

from repro.experiments.base import ExperimentScale
from repro.experiments.fabric.protocol import (AUTH_ENV, FrameError,
                                               auth_proof, fabric_secret,
                                               recv_msg, send_msg)
from repro.sim.eventcore import backend_token

_log = logging.getLogger("repro.fabric.worker")

__all__ = ["handle_task", "resolve_point_fn", "serve_connection"]


def resolve_point_fn(spec: str):
    """Import ``"module:qualname"`` back into the callable it names.

    The inverse of the coordinator's serialization. Mirrors pickle's
    by-reference lookup (the pool's transport), so exactly the point
    functions that work with ``--jobs`` work with the fabric: top-level
    callables in importable modules.
    """
    module_name, sep, qualname = spec.partition(":")
    if not sep:
        raise ValueError(f"malformed point-fn reference {spec!r}")
    import importlib
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise TypeError(f"{spec!r} resolved to non-callable {obj!r}")
    return obj


def _contains_nan(value: Any) -> bool:
    if isinstance(value, dict):
        return any(isinstance(v, float) and math.isnan(v)
                   for v in value.values())
    return isinstance(value, float) and math.isnan(value)


def _peer_cache_get(sock: socket.socket, key: str):
    """One ``cache_get`` round-trip; (hit, value).

    A ``shutdown`` arriving instead of the reply ends the process —
    the coordinator is tearing the fabric down mid-task.
    """
    send_msg(sock, {"type": "cache_get", "key": key})
    reply = recv_msg(sock)
    if reply is None or reply.get("type") == "shutdown":
        raise SystemExit(0)
    if reply.get("type") != "cache_value":
        raise FrameError(
            f"expected cache_value, got {reply.get('type')!r}")
    return bool(reply.get("hit")), reply.get("value")


def _invoke_traced(task: tuple, trace: Dict[str, Any]) -> tuple:
    """Compute one point under a worker-local obs context.

    Activates an :class:`~repro.obs.ObsContext` configured from the
    coordinator's ``trace`` field around the point invocation, so every
    instrumented component the point builds records into it — exactly
    what the serial ``--trace-out`` path does in-process. Returns
    ``(value, payload)`` where ``payload`` is the context's packed
    spans + telemetry (DESIGN.md §10 wire form) ready to ride back in
    the result message.
    """
    from repro import obs
    from repro.experiments.executor import _invoke
    reserved = trace.get("span_reserved")
    with obs.activated(obs.ObsContext(
            span_capacity=trace.get("span_capacity"),
            telemetry_interval=trace.get("telemetry_interval"),
            telemetry_capacity=trace.get("telemetry_capacity"),
            span_reserved=dict(reserved) if reserved else None)) as context:
        value = _invoke(task)
    # No simulator handle survives the point, so flush still-open spans
    # at the latest timestamp the trace itself knows about (an open
    # span may start after every closed end, so take both into
    # account — a flush time below a span's start would export a
    # negative duration).
    last = max((span.end if span.end is not None else span.start
                for span in context.spans.spans), default=0.0)
    context.spans.close_open(last)
    return value, context.pack_payload()


def handle_task(sock: socket.socket, message: Dict[str, Any],
                cache) -> None:
    """Serve one ``task`` message; always answers exactly once."""
    task_id = message.get("task")
    try:
        point_fn = resolve_point_fn(message["fn"])
        scale = ExperimentScale(*message["scale"])
        params = dict(message.get("params") or {})
        key: Optional[str] = message.get("key")
        trace = message.get("trace")
        # A traced task must actually *run* — a cache hit would return
        # the right value but no spans — so tracing disables both cache
        # tiers regardless of what the task says.
        use_cache = bool(message.get("cache")) and key is not None \
            and cache is not None and not trace
        started = time.monotonic()
        value = None
        obs_payload = None
        source = "compute"
        if use_cache:
            hit, value = cache.get(key)
            if hit:
                source = "local-cache"
            else:
                hit, value = _peer_cache_get(sock, key)
                if hit:
                    source = "peer-cache"
                    cache.put(key, value)
        if source == "compute":
            if trace:
                value, obs_payload = _invoke_traced(
                    (point_fn, scale, params), trace)
            else:
                from repro.experiments.executor import _invoke
                value = _invoke((point_fn, scale, params))
            if use_cache and not _contains_nan(value):
                cache.put(key, value)
    except SystemExit:
        raise
    except BaseException as exc:  # noqa: BLE001 - reported, not fatal
        _log.warning("point task %s failed: %s: %s", task_id,
                     type(exc).__name__, exc)
        send_msg(sock, {"type": "error", "task": task_id,
                        "run": message.get("run"),
                        "error": f"{type(exc).__name__}: {exc}"})
        return
    reply = {"type": "result", "task": task_id,
             "run": message.get("run"),
             "key": message.get("key"), "value": value,
             "source": source,
             "elapsed": time.monotonic() - started}
    if obs_payload is not None:
        reply["obs"] = obs_payload
    send_msg(sock, reply)


def serve_connection(sock: socket.socket, cache=None) -> None:
    """Run the worker protocol over an established connection.

    With ``REPRO_FABRIC_SECRET`` set the first coordinator message
    must be a valid ``challenge`` (its proof HMACs our hello nonce);
    anything else — including a bare ``task`` from an unauthenticated
    coordinator — closes the connection before any point runs.
    """
    if cache is None:
        from repro.experiments.executor import SweepCache
        cache = SweepCache()
    secret = fabric_secret()
    nonce = os.urandom(16).hex()
    send_msg(sock, {"type": "hello", "pid": os.getpid(),
                    "host": socket.gethostname(),
                    "eventcore": backend_token(),
                    "nonce": nonce,
                    "auth": secret is not None})
    message = recv_msg(sock)
    if secret is not None:
        if message is None or message.get("type") == "shutdown":
            return  # the coordinator refused us first; nothing to do
        if message.get("type") != "challenge":
            _log.warning(
                "coordinator sent %r before authenticating; closing",
                message.get("type"))
            return
        proof = message.get("proof")
        expected = auth_proof(secret, "coordinator", nonce)
        if not isinstance(proof, str) \
                or not hmac.compare_digest(proof, expected):
            _log.warning("coordinator failed authentication; closing")
            return
        send_msg(sock, {"type": "auth",
                        "mac": auth_proof(secret, "worker",
                                          str(message.get("nonce")))})
        message = recv_msg(sock)
    elif message is not None and message.get("type") == "challenge":
        _log.warning("coordinator requires authentication but %s is "
                     "unset here; closing", AUTH_ENV)
        return
    while True:
        if message is None or message.get("type") == "shutdown":
            return
        if message.get("type") == "task":
            handle_task(sock, message, cache)
        else:
            raise FrameError(
                f"unexpected coordinator message {message.get('type')!r}")
        message = recv_msg(sock)


def main(connect_to: Optional[str] = None,
         listen_on: Optional[str] = None) -> int:
    """Worker entry point: ``--connect`` (one session) or ``--listen``
    (serve coordinators until killed)."""
    from repro.experiments.fabric import protocol

    if connect_to:
        sock = protocol.connect(protocol.parse_address(connect_to),
                                timeout=30.0)
        try:
            serve_connection(sock)
        finally:
            sock.close()
        return 0

    address = protocol.parse_address(listen_on or "")
    kind, where = address
    if kind == "unix":
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind(where)
    server.listen(1)
    _log.info("fabric worker pid=%d listening on %s", os.getpid(),
              protocol.format_address(address))
    try:
        while True:
            sock, _peer = server.accept()
            try:
                serve_connection(sock)
            except (FrameError, ConnectionError) as exc:
                _log.warning("coordinator session ended abnormally: %s",
                             exc)
            finally:
                sock.close()
    finally:
        server.close()
