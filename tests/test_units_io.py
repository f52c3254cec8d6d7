"""Tests for unit helpers and the I/O request model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.io import IOKind, IORequest, stamp_submit
from repro.units import (
    GiB,
    KiB,
    MiB,
    SECTOR_BYTES,
    bytes_to_mb,
    format_rate,
    format_size,
    mb_per_s,
    parse_size,
    sector_bytes,
    sectors,
)


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------

def test_parse_size_suffixes():
    assert parse_size("64K") == 64 * KiB
    assert parse_size("8M") == 8 * MiB
    assert parse_size("1G") == GiB
    assert parse_size("512") == 512
    assert parse_size("512B") == 512
    assert parse_size("2KiB") == 2048
    assert parse_size("1.5K") == 1536
    assert parse_size(4096) == 4096


def test_parse_size_rejects_garbage():
    for bad in ("abc", "1X", "-5K", ""):
        with pytest.raises(ValueError):
            parse_size(bad)
    with pytest.raises(ValueError):
        parse_size(-1)
    with pytest.raises(ValueError):
        parse_size("0.3B")  # not a whole byte count


def test_format_size_round_numbers():
    assert format_size(64 * KiB) == "64K"
    assert format_size(8 * MiB) == "8M"
    assert format_size(GiB) == "1G"
    assert format_size(100) == "100B"
    assert format_size(1536) == "1.5K"


@given(st.integers(min_value=0, max_value=2**50))
def test_format_parse_roundtrip_when_exact(nbytes):
    text = format_size(nbytes)
    if "." not in text:  # exact representations round-trip
        assert parse_size(text) == nbytes


def test_rates():
    assert bytes_to_mb(MiB) == 1.0
    assert mb_per_s(10 * MiB, 2.0) == pytest.approx(5.0)
    assert mb_per_s(10 * MiB, 0.0) == 0.0
    assert format_rate(50 * MiB) == "50.0 MB/s"


def test_sector_conversions():
    assert sectors(1024) == 2
    assert sector_bytes(2) == 1024
    with pytest.raises(ValueError):
        sectors(1000)  # unaligned
    with pytest.raises(ValueError):
        sector_bytes(-1)


# ---------------------------------------------------------------------------
# IORequest
# ---------------------------------------------------------------------------

def read(offset=0, size=64 * KiB, disk=0, stream=None):
    return IORequest(kind=IOKind.READ, disk_id=disk, offset=offset,
                     size=size, stream_id=stream)


def test_request_geometry_helpers():
    request = read(offset=128 * KiB, size=64 * KiB)
    assert request.end == 192 * KiB
    assert request.is_read
    assert request.overlaps(100 * KiB, 50 * KiB)
    assert not request.overlaps(0, 128 * KiB)
    assert request.contains(130 * KiB, 10 * KiB)
    assert not request.contains(100 * KiB, 64 * KiB)


def test_request_adjacency():
    first = read(offset=0, size=64 * KiB)
    second = read(offset=64 * KiB, size=64 * KiB)
    assert second.adjacent_after(first)
    assert not first.adjacent_after(second)
    other_disk = read(offset=64 * KiB, size=64 * KiB, disk=1)
    assert not other_disk.adjacent_after(first)


def test_request_validation():
    with pytest.raises(ValueError):
        read(offset=-512)
    with pytest.raises(ValueError):
        read(size=0)
    with pytest.raises(ValueError):
        read(offset=100)  # unaligned
    with pytest.raises(ValueError):
        read(size=1000)   # unaligned


def test_request_derive_links_parent():
    parent = read(offset=0, size=64 * KiB, stream=5)
    child = parent.derive(0, 1 * MiB)
    assert child.parent is parent
    assert child.stream_id == 5
    assert child.size == 1 * MiB
    assert child.request_id != parent.request_id


def test_request_ids_unique():
    ids = {read().request_id for _ in range(100)}
    assert len(ids) == 100


def test_request_defaults():
    request = IORequest(IOKind.READ, 2, 4 * KiB, 8 * KiB)
    assert (request.kind, request.disk_id, request.offset, request.size) \
        == (IOKind.READ, 2, 4 * KiB, 8 * KiB)
    assert request.stream_id is None
    assert request.submit_time == 0.0 and request.complete_time == 0.0
    assert request.parent is None
    assert request.annotations == {}
    # Every request gets its own annotations dict.
    assert read().annotations is not read().annotations
    explicit = IORequest(IOKind.WRITE, 0, 0, 512, request_id=7,
                         annotations={"a": 1})
    assert explicit.request_id == 7 and explicit.annotations == {"a": 1}


def test_request_ids_strictly_increase():
    ids = [read().request_id for _ in range(50)]
    assert ids == sorted(set(ids))


@pytest.mark.parametrize("offset, size, message", [
    (-512, 512, "negative offset: -512"),
    (0, 0, "non-positive size: 0"),
    (0, -512, "non-positive size: -512"),
    (100, 512, "request not sector-aligned: offset=100 size=512"),
    (0, 1000, "request not sector-aligned: offset=0 size=1000"),
    # Checked in that order: the offset sign first, then the size.
    (-1, 0, "negative offset: -1"),
    (1, 0, "non-positive size: 0"),
])
def test_request_validation_messages(offset, size, message):
    with pytest.raises(ValueError) as raised:
        IORequest(IOKind.READ, 0, offset, size)
    assert str(raised.value) == message


def test_request_replace_eq_and_repr():
    import dataclasses
    request = read(offset=64 * KiB, size=64 * KiB, stream=3)
    copy = dataclasses.replace(request)
    assert copy == request and copy is not request
    assert copy.request_id == request.request_id
    grown = dataclasses.replace(request, size=128 * KiB)
    assert grown != request
    assert grown.end == 192 * KiB and grown.request_id == request.request_id
    with pytest.raises(ValueError, match="not sector-aligned"):
        dataclasses.replace(request, size=100)
    assert repr(request) == (f"<IO#{request.request_id} read d0 "
                             f"[{64 * KiB}, {128 * KiB}) s=3>")


def test_request_end_follows_noop_back_merge():
    from repro.host.schedulers import make_scheduler
    noop = make_scheduler("noop")
    carrier = read(offset=0, size=64 * KiB)
    follower = read(offset=64 * KiB, size=64 * KiB)
    noop.add(carrier, 0.0)
    noop.add(follower, 0.0)
    assert carrier.size == 128 * KiB
    assert carrier.end == 128 * KiB
    assert carrier.annotations["merged"] == [follower]


def test_stamp_submit_first_wins():
    request = read()
    stamp_submit(request, 5.0)
    stamp_submit(request, 9.0)  # later layer: ignored
    assert request.submit_time == 5.0
    request.complete_time = 6.0
    assert request.latency == pytest.approx(1.0)


def test_request_latency():
    request = read()
    request.submit_time = 1.0
    request.complete_time = 1.5
    assert request.latency == pytest.approx(0.5)
