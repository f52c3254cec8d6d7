"""The fault taxonomy shared by injectors and policies.

Every injected failure is a :class:`DeviceError`; the split that
policies care about is *transient* vs *permanent*:

* **Transient** faults (a recoverable media hiccup, a dropped command, a
  per-request probabilistic failure) are worth retrying — the stream
  server's bounded exponential-backoff retry targets exactly these.
* **Permanent** faults (an unrecoverable media defect, a dead disk)
  never heal; retrying wastes a disk's time, so policies surface them
  immediately and degrade around the failed component instead.

:class:`AdmissionShedError` is raised by the *server*, not a device:
the bounded admission queue was full and the request was shed at the
edge before touching any device. It is transient by construction — the client
should back off for the deterministic-jitter hint in ``retry_after_s``
and resubmit.
"""

from __future__ import annotations

__all__ = [
    "AdmissionShedError",
    "DeviceError",
    "DiskDeadError",
    "MediaError",
    "PermanentDeviceError",
    "TransientDeviceError",
    "TransientMediaError",
    "is_transient",
]


class DeviceError(IOError):
    """Base of every injected or policy-raised storage fault."""


class TransientDeviceError(DeviceError):
    """A fault that may not recur: retrying is reasonable."""


class PermanentDeviceError(DeviceError):
    """A fault that will recur on every retry: degrade instead."""


class MediaError(PermanentDeviceError):
    """Unrecoverable media defect over an LBA range."""


class TransientMediaError(TransientDeviceError):
    """Recoverable media error (ECC retry succeeds eventually)."""


class DiskDeadError(PermanentDeviceError):
    """The whole disk stopped responding (death at time *T*)."""


class AdmissionShedError(TransientDeviceError):
    """Shed at the server's admission edge; retry after ``retry_after_s``.

    The request never reached a device: the server's in-service limit
    was hit and its bounded waiting queue was full, so the oldest
    waiting request was dropped (FIFO shedding keeps the queue fresh).
    ``retry_after_s`` carries the server's deterministic-jitter backoff
    hint, scaled by dispatch-set load.
    """

    def __init__(self, message: str, retry_after_s: float = 0.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


def is_transient(exc: BaseException) -> bool:
    """Should a retry policy consider ``exc`` retryable?"""
    return isinstance(exc, TransientDeviceError)
