"""Fabric worker: pull points off the wire, compute, stream back.

One worker process serves one coordinator connection at a time. Its
loop is the strictly alternating half of the protocol (see
:mod:`repro.experiments.fabric.protocol`): receive a ``task``, compute
it, answer with ``result`` (or ``error`` if the point function raised).

A worker keeps no cache. The coordinator's ``run_sweep`` looks every
point up in its :class:`~repro.experiments.executor.SweepCache` before
dispatch and stores every value after, so a task that reaches a worker
is one nobody has a value for. Points are computed through
:func:`repro.experiments.executor._invoke`, so ``REPRO_POINT_TIMEOUT``
means exactly what it means in-process: an overrunning point yields
NaN, which ``run_sweep`` never stores.
"""

from __future__ import annotations

import hmac
import logging
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
    by-reference lookup: top-level callables in importable modules.
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


def handle_task(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Serve one ``task`` message; always answers exactly once."""
    task_id = message.get("task")
    try:
        point_fn = resolve_point_fn(message["fn"])
        scale = ExperimentScale(*message["scale"])
        params = dict(message.get("params") or {})
        trace = message.get("trace")
        started = time.monotonic()
        obs_payload = None
        if trace:
            value, obs_payload = _invoke_traced(
                (point_fn, scale, params), trace)
        else:
            from repro.experiments.executor import _invoke
            value = _invoke((point_fn, scale, params))
    except BaseException as exc:  # noqa: BLE001 - reported, not fatal
        _log.warning("point task %s failed: %s: %s", task_id,
                     type(exc).__name__, exc)
        send_msg(sock, {"type": "error", "task": task_id,
                        "run": message.get("run"),
                        "error": f"{type(exc).__name__}: {exc}"})
        return
    reply = {"type": "result", "task": task_id,
             "run": message.get("run"), "value": value,
             "elapsed": time.monotonic() - started}
    if obs_payload is not None:
        reply["obs"] = obs_payload
    send_msg(sock, reply)


def serve_connection(sock: socket.socket) -> None:
    """Run the worker protocol over an established connection.

    With ``REPRO_FABRIC_SECRET`` set the first coordinator message
    must be a valid ``challenge`` (its proof HMACs our hello nonce);
    anything else — including a bare ``task`` from an unauthenticated
    coordinator — closes the connection before any point runs.
    """
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
            handle_task(sock, message)
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
