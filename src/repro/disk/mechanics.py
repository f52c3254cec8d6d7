"""Mechanical timing: seeks, rotation, media transfer.

The seek model is the classic square-root curve
``seek(d) = a + b * sqrt(d)`` (d = cylinder distance, d > 0), calibrated
from two published numbers every datasheet provides: the single-cylinder
seek time and the average (random) seek time. For uniformly random start
and target cylinders the normalised distance ``x = d / C`` has density
``2(1 - x)``, whose expected ``sqrt(x)`` is ``8/15`` — that pins ``a`` and
``b`` exactly and yields a realistic full-stroke time for free.
"""

from __future__ import annotations

import enum
import math
from typing import Optional

from repro.disk.geometry import DiskGeometry
from repro.sim.rng import PCG64
from repro.units import SECTOR_BYTES

__all__ = ["Mechanics", "RotationMode", "SeekModel"]

#: E[sqrt(x)] for x with density 2(1-x) on [0,1]: the mean normalised
#: sqrt-distance of a uniformly random seek.
_EXPECTED_SQRT_DISTANCE = 8.0 / 15.0


class RotationMode(enum.Enum):
    """How rotational latency is charged on non-contiguous accesses."""

    #: Sample uniformly in [0, rotation_time) from a seeded RNG.
    UNIFORM = "uniform"
    #: Always charge the expected value, rotation_time / 2 (deterministic).
    EXPECTED = "expected"
    #: Track the platter's angular position: latency is the actual wait
    #: for the target sector to pass under the head. Deterministic and
    #: the most faithful; requires the caller to pass the current time
    #: and target LBA.
    POSITIONED = "positioned"


class SeekModel:
    """Square-root seek-time curve calibrated to datasheet numbers.

    Parameters
    ----------
    single_cylinder_time:
        Seek time for a one-cylinder move (seconds).
    average_time:
        Average seek time over uniformly random moves (seconds).
    max_cylinders:
        Total cylinder count of the drive.
    """

    def __init__(self, single_cylinder_time: float, average_time: float,
                 max_cylinders: int):
        if single_cylinder_time <= 0 or average_time <= 0:
            raise ValueError("seek times must be positive")
        if average_time < single_cylinder_time:
            raise ValueError(
                f"average seek {average_time} below single-cylinder "
                f"{single_cylinder_time}")
        if max_cylinders < 2:
            raise ValueError(f"max_cylinders must be >= 2: {max_cylinders}")
        self.max_cylinders = max_cylinders
        root_full = math.sqrt(max_cylinders)
        # Solve a + b = single (d = 1) and
        #       a + b * root_full * 8/15 = average.
        denominator = root_full * _EXPECTED_SQRT_DISTANCE - 1.0
        self._b = (average_time - single_cylinder_time) / denominator
        self._a = single_cylinder_time - self._b
        self.single_cylinder_time = single_cylinder_time
        self.average_time = average_time

    def seek_time(self, distance: int) -> float:
        """Seconds to move the head ``distance`` cylinders (0 → 0.0)."""
        if distance < 0:
            raise ValueError(f"negative seek distance: {distance}")
        if distance == 0:
            return 0.0
        return self._a + self._b * math.sqrt(distance)

    @property
    def full_stroke_time(self) -> float:
        """Seek time across the whole cylinder range."""
        return self.seek_time(self.max_cylinders - 1)

    def __repr__(self) -> str:
        return (f"<SeekModel single={self.single_cylinder_time * 1e3:.2f}ms "
                f"avg={self.average_time * 1e3:.2f}ms "
                f"full={self.full_stroke_time * 1e3:.2f}ms>")


class Mechanics:
    """Rotational and transfer timing bound to a geometry.

    Parameters
    ----------
    geometry:
        The drive's zoned layout.
    rpm:
        Spindle speed.
    seek_model:
        Calibrated :class:`SeekModel`.
    rotation_mode:
        Deterministic vs sampled rotational latency.
    seed:
        Seed for the rotational-latency RNG (UNIFORM mode): a
        non-negative integer, or ``None`` for OS entropy. The draws
        equal ``numpy.random.default_rng(seed).uniform``'s
        (:mod:`repro.sim.rng`).
    track_switch_time:
        Extra settle time charged per track boundary crossed during a
        multi-track media transfer.
    """

    def __init__(self, geometry: DiskGeometry, rpm: float,
                 seek_model: SeekModel,
                 rotation_mode: RotationMode = RotationMode.UNIFORM,
                 seed: Optional[int] = 0,
                 track_switch_time: float = 0.0):
        if rpm <= 0:
            raise ValueError(f"rpm must be positive, got {rpm}")
        if track_switch_time < 0:
            raise ValueError("track_switch_time must be >= 0")
        self.geometry = geometry
        self.rpm = rpm
        self.seek_model = seek_model
        self.rotation_mode = rotation_mode
        self.track_switch_time = track_switch_time
        self._rng = PCG64(seed)

    @property
    def rotation_time(self) -> float:
        """Seconds per revolution."""
        return 60.0 / self.rpm

    def rotational_latency(self, now: Optional[float] = None,
                           target_lba: Optional[int] = None) -> float:
        """Latency for a non-contiguous access (mode-dependent).

        POSITIONED mode needs the current simulated time and the target
        LBA: all platters spin in phase from t=0, so the head angle is
        ``(now / T) mod 1`` and the target sector's angle is its index
        within its track over the track's sector count.
        """
        if self.rotation_mode is RotationMode.EXPECTED:
            return self.rotation_time / 2.0
        if self.rotation_mode is RotationMode.POSITIONED:
            if now is None or target_lba is None:
                raise ValueError(
                    "POSITIONED rotation needs now and target_lba")
            return self._positioned_latency(now, target_lba)
        return self._rng.uniform(0.0, self.rotation_time)

    def _positioned_latency(self, now: float, target_lba: int) -> float:
        # Internal call: target_lba was validated at submit time, so use
        # the geometry's unchecked last-zone fast path.
        zone = self.geometry._zone_of_lba_unchecked(target_lba)
        sector_in_track = ((target_lba - zone.start_lba)
                           % zone.sectors_per_track)
        target_angle = sector_in_track / zone.sectors_per_track
        head_angle = (now / self.rotation_time) % 1.0
        wait_fraction = (target_angle - head_angle) % 1.0
        return wait_fraction * self.rotation_time

    def media_rate_at(self, lba: int) -> float:
        """Sustained media transfer rate (bytes/s) at ``lba``'s zone."""
        spt = self.geometry.sectors_per_track_at(lba)
        return spt * SECTOR_BYTES / self.rotation_time

    def transfer_time(self, start_lba: int, nsectors: int) -> float:
        """Media time to stream ``nsectors`` starting at ``start_lba``.

        Uses the start zone's rate for the whole span (spans crossing a
        zone boundary are rare and the rate step is small), plus track
        switch settles. Crossings are counted against *absolute* track
        boundaries, so a sequential run read in sub-track chunks pays
        the same switches as one large read.
        """
        if nsectors <= 0:
            raise ValueError(f"nsectors must be positive, got {nsectors}")
        # Hot path (once per media transfer): the drive validated the
        # range at submit, so skip the redundant LBA re-check.
        zone = self.geometry._zone_of_lba_unchecked(start_lba)
        spt = zone.sectors_per_track
        base = nsectors * self.rotation_time / spt
        # Count crossings against absolute track boundaries, including
        # the entry boundary when the run starts exactly on one — so a
        # sequential run read in chunks that tile track boundaries pays
        # the same switches as one large read.
        in_zone = start_lba - zone.start_lba
        entry_track = (in_zone - 1) // spt if in_zone > 0 else 0
        end_track = (in_zone + nsectors - 1) // spt
        return base + (end_track - entry_track) * self.track_switch_time

    def seek_between(self, from_lba: int, to_lba: int) -> float:
        """Seek time between the cylinders of two LBAs."""
        from_cyl = self.geometry.cylinder_of_lba(from_lba)
        to_cyl = self.geometry.cylinder_of_lba(to_lba)
        return self.seek_model.seek_time(abs(to_cyl - from_cyl))
