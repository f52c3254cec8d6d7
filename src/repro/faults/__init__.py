"""Fault injection and degradation: seeded plans, device wrappers.

See DESIGN.md §6 ("Fault model & degradation policies"). The package is
self-contained — it depends only on :mod:`repro.io` and the simulator —
so a :class:`FaultyDevice` can wrap any layer boundary: drive,
controller, node, striped volume, or the whole server's downstream
device.
"""

from repro.faults.device import FaultyDevice, StragglerDevice
from repro.faults.errors import (
    AdmissionShedError,
    DeviceError,
    DiskDeadError,
    MediaError,
    PermanentDeviceError,
    TransientDeviceError,
    TransientMediaError,
    is_transient,
)
from repro.faults.plan import (
    DiskDeath,
    FaultOutcome,
    FaultPlan,
    MediaFault,
    RandomFaults,
    StragglerProfile,
)

__all__ = [
    "AdmissionShedError",
    "DeviceError",
    "DiskDeath",
    "DiskDeadError",
    "FaultOutcome",
    "FaultPlan",
    "FaultyDevice",
    "MediaError",
    "MediaFault",
    "PermanentDeviceError",
    "RandomFaults",
    "StragglerDevice",
    "StragglerProfile",
    "TransientDeviceError",
    "TransientMediaError",
    "is_transient",
]
