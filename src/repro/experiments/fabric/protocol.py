"""Wire protocol of the sweep fabric: framing, messages, addresses.

The fabric speaks length-prefixed JSON over a stream socket (TCP or
``AF_UNIX``): each message is a 4-byte big-endian payload length
followed by that many bytes of UTF-8 JSON. JSON keeps the protocol
debuggable with ``socat`` and versionable without a schema compiler;
the length prefix makes framing trivial and rejects garbage (an
oversized length means a confused peer, not a 4 GiB allocation).

Message shapes (``type`` field):

=============  =========  ==============================================
type           direction  payload
=============  =========  ==============================================
``hello``      w -> c     ``pid``, ``host``, ``eventcore`` (backend
                          token; the coordinator refuses workers whose
                          kernel backend differs from its own — mixed
                          backends would mix cache fingerprints),
                          ``nonce`` (worker's challenge material),
                          ``auth`` (bool: the worker holds a secret and
                          demands mutual authentication)
``challenge``  c -> w     ``nonce`` (coordinator's challenge material),
                          ``proof`` — HMAC-SHA256 over the *worker's*
                          hello nonce keyed by the shared secret; sent
                          only by coordinators holding a secret, and
                          always before any ``task`` bytes flow
``auth``       w -> c     ``mac`` — the worker's HMAC over the
                          coordinator's challenge nonce; closes the
                          mutual handshake
``task``       c -> w     ``task`` (id), ``run`` (run nonce), ``fn``
                          ("module:qualname"), ``scale`` ({name,
                          duration, warmup}), ``params``, optional
                          ``trace`` — obs config ({span_capacity,
                          span_reserved, telemetry_interval,
                          telemetry_capacity}): run the point under a
                          worker-local ObsContext and ship the
                          observations back
``result``     w -> c     ``task``, ``run``, ``value``, ``elapsed``
                          (worker wall seconds), optional ``obs``
                          (traced tasks only; DESIGN.md §10):
                          ``spans`` — packed span records
                          ([id, trace, parent, name, cat, start, end,
                          args], parents before children), ``dropped``
                          + ``dropped_by_category`` — worker-side
                          capacity shed, ``series`` — telemetry rows
                          ({name, kind, samples: [[t, v], ...]})
``error``      w -> c     ``task``, ``run``, ``error`` — the point
                          function raised; the worker itself is still
                          healthy
``shutdown``   c -> w     none; the worker exits its serve loop
=============  =========  ==============================================

The worker side is strictly alternating: after ``hello`` it receives
exactly one coordinator message at a time and answers every ``task``
with exactly one ``result`` or ``error``. The coordinator never sends
``task`` to a busy worker, so there is no interleaving to disambiguate.
Workers keep no cache: the coordinator's sweep cache is the only one.

Worker addresses (``parse_spec``): a bare integer ``"4"`` asks the
coordinator to spawn that many local worker processes over a private
socket (the executor's ``--jobs 4`` fabric); a comma list
``"hostA:7070,hostB:7070"`` (or Unix-socket paths) dials out to workers
started with ``python -m repro.experiments.fabric worker --listen
ADDR``.

Authentication (:func:`auth_proof`): when both sides export
``REPRO_FABRIC_SECRET`` the hello is followed by a
challenge/response — each side proves knowledge of the shared secret
by HMAC-ing the *other* side's fresh nonce (so a recorded handshake
replays nothing), and either side closes the connection before any
task bytes flow if the peer's proof does not verify. An empty
environment value means "no secret": the fabric stays open, matching
the trusted-transport default documented in the ROADMAP.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import socket
import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = [
    "AUTH_ENV",
    "MAX_MESSAGE",
    "FrameError",
    "WorkerSpec",
    "auth_proof",
    "connect",
    "fabric_secret",
    "format_address",
    "parse_address",
    "parse_spec",
    "recv_msg",
    "send_msg",
]

#: Environment variable holding the fabric's shared authentication
#: secret. Unset or empty means authentication is off.
AUTH_ENV = "REPRO_FABRIC_SECRET"


def fabric_secret() -> Optional[str]:
    """The process's fabric secret, or None when auth is off."""
    secret = os.environ.get(AUTH_ENV, "")
    return secret or None


def auth_proof(secret: str, role: str, nonce: str) -> str:
    """HMAC-SHA256 proof that ``role`` knows ``secret`` for ``nonce``.

    The role tag ("coordinator" / "worker") keeps the two directions
    of the mutual handshake from being mirrors of each other: a proof
    recorded from one side can never satisfy the other side's check.
    """
    return hmac.new(secret.encode("utf-8"),
                    f"{role}:{nonce}".encode("utf-8"),
                    hashlib.sha256).hexdigest()

_HEADER = struct.Struct("!I")

#: Upper bound on one message's payload. Generous (a FULL-scale figure
#: series is a few KiB) while still catching a desynchronized peer that
#: feeds the length field random bytes.
MAX_MESSAGE = 64 * 1024 * 1024


class FrameError(ConnectionError):
    """The peer sent bytes that cannot be a protocol frame."""


def send_msg(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Write one length-prefixed JSON message (blocking)."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes, or None on a clean EOF at a frame
    boundary. EOF mid-frame raises: the peer died mid-message."""
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count and not chunks:
                return None
            raise FrameError(
                f"peer closed mid-frame ({count - remaining}/{count} "
                f"bytes received)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_msg(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one message (blocking); None on clean EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE:
        raise FrameError(f"frame length {length} exceeds "
                         f"MAX_MESSAGE={MAX_MESSAGE}; desynchronized peer?")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise FrameError("peer closed between header and payload")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise FrameError(f"undecodable frame payload: {exc}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise FrameError(f"frame is not a typed message: {message!r}")
    return message


# -- frame buffering for non-blocking sockets --------------------------------

class FrameBuffer:
    """Incremental decoder for the coordinator's non-blocking sockets.

    ``feed`` bytes as they arrive; ``messages`` yields every complete
    frame accumulated so far. Raises :class:`FrameError` on the same
    conditions as :func:`recv_msg`.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        self._buffer.extend(data)
        messages: List[Dict[str, Any]] = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return messages
            (length,) = _HEADER.unpack(bytes(self._buffer[:_HEADER.size]))
            if length > MAX_MESSAGE:
                raise FrameError(
                    f"frame length {length} exceeds MAX_MESSAGE="
                    f"{MAX_MESSAGE}; desynchronized peer?")
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return messages
            payload = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            try:
                message = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise FrameError(
                    f"undecodable frame payload: {exc}") from None
            if not isinstance(message, dict) or "type" not in message:
                raise FrameError(
                    f"frame is not a typed message: {message!r}")
            messages.append(message)


# -- addresses ---------------------------------------------------------------

#: A worker endpoint: ("tcp", (host, port)) or ("unix", path).
Address = Tuple[str, Union[Tuple[str, int], str]]


def parse_address(text: str) -> Address:
    """``host:port`` -> TCP; anything with a path separator -> Unix."""
    text = text.strip()
    if not text:
        raise ValueError("empty worker address")
    if "/" in text:
        return ("unix", text)
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"worker address {text!r} is neither host:port nor a "
            f"Unix-socket path")
    return ("tcp", (host or "127.0.0.1", int(port)))


def format_address(address: Address) -> str:
    kind, where = address
    if kind == "unix":
        return str(where)
    host, port = where  # type: ignore[misc]
    return f"{host}:{port}"


def connect(address: Address, timeout: Optional[float] = None) \
        -> socket.socket:
    """Open a blocking stream connection to ``address``."""
    kind, where = address
    if kind == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(timeout)
    try:
        sock.connect(where)
    except BaseException:
        sock.close()
        raise
    sock.settimeout(None)
    return sock


@dataclass(frozen=True)
class WorkerSpec:
    """Parsed fabric spec: ``Fabric("4")`` or an address list.

    Exactly one of ``spawn`` (local worker count) or ``addresses``
    (remote endpoints to dial) is set.
    """

    spawn: int = 0
    addresses: Tuple[Address, ...] = ()

    @property
    def count(self) -> int:
        return self.spawn or len(self.addresses)


def parse_spec(text: str) -> WorkerSpec:
    """Parse a fabric spec: an integer spawns local workers, a comma
    list of addresses dials out."""
    text = text.strip()
    if not text:
        raise ValueError("empty fabric spec")
    if text.isdigit():
        count = int(text)
        if count < 1:
            raise ValueError(f"fabric worker count must be >= 1: {text!r}")
        return WorkerSpec(spawn=count)
    addresses = tuple(parse_address(part)
                      for part in text.split(",") if part.strip())
    if not addresses:
        raise ValueError(f"fabric spec {text!r} names no workers")
    return WorkerSpec(addresses=addresses)
