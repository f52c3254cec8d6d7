"""Non-sequential workloads: classifier negatives and mixed loads."""

from __future__ import annotations

import itertools
import random
from typing import List, Optional, Sequence

from repro.io import IOKind, IORequest
from repro.units import KiB, SECTOR_BYTES

__all__ = ["random_requests", "zipf_requests"]


def _align(offset: int, granule: int) -> int:
    return offset - offset % granule


def random_requests(count: int, disk_ids: Sequence[int], capacity: int,
                    request_size: int = 4 * KiB,
                    seed: Optional[int] = 0,
                    kind: IOKind = IOKind.READ) -> List[IORequest]:
    """Uniformly random requests across the given disks.

    These exercise the classifier's negative path: no region should
    accumulate enough set bits to be declared sequential.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1: {count}")
    if request_size <= 0 or request_size % SECTOR_BYTES:
        raise ValueError(f"bad request_size: {request_size}")
    rng = random.Random(seed)
    highest = capacity - request_size
    requests = []
    for _ in range(count):
        disk_id = rng.choice(disk_ids)
        offset = _align(rng.randrange(highest), request_size)
        requests.append(IORequest(kind=kind, disk_id=disk_id,
                                  offset=offset, size=request_size))
    return requests


def zipf_requests(count: int, disk_ids: Sequence[int], capacity: int,
                  request_size: int = 4 * KiB, skew: float = 1.2,
                  hot_regions: int = 1000,
                  seed: Optional[int] = 0) -> List[IORequest]:
    """Zipf-skewed requests over ``hot_regions`` fixed hot spots.

    Models metadata/index traffic sharing a disk with streams: heavily
    skewed but not sequential. The region of rank ``k`` (1-based) is
    drawn with weight ``k ** -skew``, a Zipf law truncated at
    ``hot_regions``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1: {count}")
    if skew <= 1.0:
        raise ValueError(f"zipf skew must be > 1: {skew}")
    if hot_regions < 1:
        raise ValueError(f"hot_regions must be >= 1: {hot_regions}")
    rng = random.Random(seed)
    region_size = capacity // hot_regions
    region_size = max(_align(region_size, request_size), request_size)
    # Shuffle hot-region placement so rank-1 isn't always offset 0.
    placement = list(range(hot_regions))
    rng.shuffle(placement)
    cum_weights = list(itertools.accumulate(
        rank ** -skew for rank in range(1, hot_regions + 1)))
    requests = []
    for _ in range(count):
        region = rng.choices(placement, cum_weights=cum_weights)[0]
        offset = min(region * region_size, capacity - request_size)
        disk_id = rng.choice(disk_ids)
        requests.append(IORequest(kind=IOKind.READ, disk_id=disk_id,
                                  offset=_align(offset, request_size),
                                  size=request_size))
    return requests
