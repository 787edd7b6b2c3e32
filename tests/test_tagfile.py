"""Binary tag file format: exact round trips and corruption detection."""
import struct

import numpy as np
import pytest

from spptag.errors import (
    TagFileError,
    TagFileMagicError,
    TagFileTruncatedError,
    TagFileUnsortedError,
    TagFileVersionError,
)
from spptag.model import TimeTagStream
from spptag.tagfile import (
    HEADER_SIZE,
    MAGIC,
    RECORD_SIZE,
    read_tags,
    write_tags,
)


def random_stream(seed: int, n: int = 500, duration_ps: int = 10**9):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.integers(0, duration_ps, n))
    channels = rng.integers(0, 3, n).astype(np.uint8)
    return TimeTagStream(times, channels, duration_ps)


def pack_file(times, channels, duration_ps, channel_count=None,
              version=1, resolution=1, magic=MAGIC):
    if channel_count is None:
        channel_count = (max(channels) + 1) if len(channels) else 0
    out = struct.pack("<8sIIIIQ", magic, version, resolution, channel_count,
                      0, duration_ps)
    for t, c in zip(times, channels):
        out += struct.pack("<QB7x", t, c)
    return out


class TestRoundTrip:
    def test_arrays_survive(self, tmp_path):
        stream = random_stream(0)
        path = tmp_path / "t.spptag"
        write_tags(path, stream)
        back = read_tags(path)
        np.testing.assert_array_equal(back.times_ps, stream.times_ps)
        np.testing.assert_array_equal(back.channels, stream.channels)
        assert back.duration_ps == stream.duration_ps
        assert back.times_ps.dtype == np.int64
        assert back.channels.dtype == np.uint8

    def test_bytes_survive(self, tmp_path):
        path_a = tmp_path / "a.spptag"
        path_b = tmp_path / "b.spptag"
        write_tags(path_a, random_stream(1))
        write_tags(path_b, read_tags(path_a))
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.spptag"
        write_tags(path, TimeTagStream([], [], 10**6))
        assert path.stat().st_size == HEADER_SIZE
        back = read_tags(path)
        assert len(back) == 0 and back.duration_ps == 10**6

    def test_matches_hand_packed_bytes(self, tmp_path):
        times = [5, 10, 10, 99]
        channels = [2, 0, 1, 0]
        stream = TimeTagStream(times, channels, 100)
        path = tmp_path / "t.spptag"
        write_tags(path, stream)
        assert path.read_bytes() == pack_file(times, channels, 100)


class TestHeader:
    def test_layout(self, tmp_path):
        stream = random_stream(2, n=7, duration_ps=12345)
        path = tmp_path / "t.spptag"
        write_tags(path, stream)
        raw = path.read_bytes()
        assert len(raw) == HEADER_SIZE + 7 * RECORD_SIZE
        magic, version, resolution, nch, reserved, duration = struct.unpack(
            "<8sIIIIQ", raw[:HEADER_SIZE])
        assert magic == b"SPPTAG01"
        assert version == 1
        assert resolution == 1
        assert nch == int(stream.channels.max()) + 1
        assert reserved == 0
        assert duration == 12345

    def test_records_little_endian(self, tmp_path):
        stream = TimeTagStream([0x0102030405060708], [3], 2**62)
        path = tmp_path / "t.spptag"
        write_tags(path, stream)
        body = path.read_bytes()[HEADER_SIZE:]
        assert body[:8] == bytes([8, 7, 6, 5, 4, 3, 2, 1])
        assert body[8] == 3
        assert body[9:] == bytes(7)


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(pack_file([1], [0], 10, magic=b"NOTATAGF"))
        with pytest.raises(TagFileMagicError):
            read_tags(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(pack_file([1], [0], 10, version=9))
        with pytest.raises(TagFileVersionError):
            read_tags(path)

    def test_bad_resolution(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(pack_file([1], [0], 10, resolution=16))
        with pytest.raises(TagFileVersionError):
            read_tags(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(MAGIC + b"\x01\x00")
        with pytest.raises(TagFileTruncatedError):
            read_tags(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(pack_file([1, 2], [0, 0], 10)[:-8])
        with pytest.raises(TagFileTruncatedError):
            read_tags(path)

    def test_unsorted_reports_offset(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(pack_file([50, 20, 60], [0, 0, 0], 100))
        with pytest.raises(TagFileUnsortedError) as err:
            read_tags(path)
        assert err.value.offset == HEADER_SIZE + RECORD_SIZE

    @pytest.mark.parametrize("channels,channel_count", [([5], 3), ([5, 9], 0)],
                             ids=["above_count", "zero_count"])
    def test_channel_above_declared_count(self, tmp_path, channels, channel_count):
        path = tmp_path / "bad"
        path.write_bytes(pack_file([1] * len(channels), channels, 10,
                                   channel_count=channel_count))
        with pytest.raises(TagFileError):
            read_tags(path)

    def test_time_beyond_duration(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(pack_file([50], [0], 10))
        with pytest.raises(TagFileError):
            read_tags(path)

    def test_time_overflows_signed(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(pack_file([2**63], [0], 2**63 + 10))
        with pytest.raises(TagFileError):
            read_tags(path)

    def test_zero_duration(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(pack_file([], [], 0))
        with pytest.raises(TagFileError):
            read_tags(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_tags(tmp_path / "nope.spptag")
