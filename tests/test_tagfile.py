"""Binary tag file format: exact round trips and corruption detection."""
import io
import os
import struct
import tracemalloc

import numpy as np
import pytest
from helpers import assert_as_checked, at_each_block
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spptag import config, tagfile
from spptag.errors import TagFileError
from spptag.model import BLOCK, TimeTagStream
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


@st.composite
def tag_streams(draw):
    """Sorted streams with many equal times and channels that stay empty."""
    duration = draw(st.integers(1, 2**63 - 1))
    top = draw(st.sampled_from([min(duration, 30), duration]))
    times = sorted(draw(st.lists(st.integers(0, top), max_size=40)))
    channels = draw(st.lists(st.sampled_from([0, 1, 2, 7, 255]),
                             min_size=len(times), max_size=len(times)))
    return TimeTagStream(times, channels, duration)


# one file per example, overwritten by the next
PER_EXAMPLE_FILE = settings(max_examples=200, deadline=None,
                            suppress_health_check=[HealthCheck.function_scoped_fixture])


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

    @PER_EXAMPLE_FILE
    @given(stream=tag_streams())
    def test_write_read_is_identity(self, tmp_path, stream):
        path = tmp_path / "t.spptag"
        for _ in at_each_block(tagfile):
            write_tags(path, stream)
            assert read_tags(path) == stream

    @PER_EXAMPLE_FILE
    @given(stream=tag_streams())
    def test_read_stream_is_the_checked_one(self, tmp_path, stream):
        # the read scans the records for order itself; its stream skips the constructor's scan
        path = tmp_path / "t.spptag"
        for _ in at_each_block(tagfile):
            write_tags(path, stream)
            assert_as_checked(read_tags(path))

    def test_matches_hand_packed_bytes(self, tmp_path):
        times = [5, 10, 10, 99]
        channels = [2, 0, 1, 0]
        stream = TimeTagStream(times, channels, 100)
        path = tmp_path / "t.spptag"
        write_tags(path, stream)
        assert path.read_bytes() == pack_file(times, channels, 100)

    def test_pipe_reads_like_a_file(self, monkeypatch):
        # a pipe has no size to preallocate from; these 7 records fit its buffer
        monkeypatch.setattr(tagfile, "BLOCK", 2)
        stream = random_stream(3, n=7)
        read_end, write_end = os.pipe()
        with open(write_end, "wb") as fh:
            fh.write(pack_file(stream.times_ps.tolist(), stream.channels.tolist(),
                               stream.duration_ps))
        try:
            assert read_tags(f"/dev/fd/{read_end}") == stream
        finally:
            os.close(read_end)


class TestMemory:
    def test_read_peak_below_twice_the_file(self, tmp_path):
        # the int64 times and uint8 channels, one block of records and the
        # block's checks; holding the file's bytes would take 16 B/tag more
        n = 200_000
        path = tmp_path / "big.spptag"
        write_tags(path, random_stream(8, n=n, duration_ps=10**12))
        tracemalloc.start()
        try:
            read_tags(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * n + 2 * BLOCK * RECORD_SIZE + 64 * 1024


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
        with pytest.raises(TagFileError, match="not a tag file"):
            read_tags(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(pack_file([1], [0], 10, version=9))
        with pytest.raises(TagFileError, match="format version 9"):
            read_tags(path)

    def test_bad_resolution(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(pack_file([1], [0], 10, resolution=16))
        with pytest.raises(TagFileError, match="resolution 16 ps"):
            read_tags(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(MAGIC + b"\x01\x00")
        with pytest.raises(TagFileError, match="header needs 32 bytes"):
            read_tags(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(pack_file([1, 2], [0, 0], 10)[:-8])
        with pytest.raises(TagFileError, match="not a whole number of records"):
            read_tags(path)

    def test_unsorted_reports_offset(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(pack_file([50, 20, 60], [0, 0, 0], 100))
        with pytest.raises(TagFileError,
                           match=f"byte offset {HEADER_SIZE + RECORD_SIZE} breaks"):
            read_tags(path)

    def test_unsorted_pair_across_a_block_edge_reports_the_later_record(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(tagfile, "BLOCK", 2)
        path = tmp_path / "bad"
        path.write_bytes(pack_file([10, 20, 15, 30], [0, 0, 0, 0], 100))
        with pytest.raises(TagFileError,
                           match=f"byte offset {HEADER_SIZE + 2 * RECORD_SIZE} breaks"):
            read_tags(path)

    def test_ordering_in_a_later_block_outranks_a_channel_in_an_earlier_one(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(tagfile, "BLOCK", 2)
        times = [1, 2, 3, 4, 5, 6, 7, 1]  # record 7, in block 3, breaks ordering
        channels = [0, 0, 9, 0, 0, 0, 0, 0]  # record 2, in block 1, exceeds the count
        path = tmp_path / "bad"
        path.write_bytes(pack_file(times, channels, 100, channel_count=3))
        with pytest.raises(TagFileError,
                           match=f"byte offset {HEADER_SIZE + 7 * RECORD_SIZE} breaks"):
            read_tags(path)

    def test_file_shorter_than_its_size_on_opening(self, monkeypatch):
        class Shrunk(io.BytesIO):  # reports one record more than it holds
            def seek(self, pos, whence=io.SEEK_SET):
                return super().seek(pos, whence) + RECORD_SIZE * (whence == io.SEEK_END)

        raw = pack_file([1, 2], [0, 0], 10)
        monkeypatch.setattr(tagfile, "open", lambda path, mode: Shrunk(raw), raising=False)
        with pytest.raises(TagFileError, match="file ended"):
            read_tags("t.spptag")

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

    @PER_EXAMPLE_FILE
    @given(stream=tag_streams(), data=st.data())
    def test_mutations_read_back_or_raise_tag_file_error(self, tmp_path, stream, data):
        path = tmp_path / "t.spptag"
        write_tags(path, stream)
        raw = bytearray(path.read_bytes())
        for at, mask in data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1),
                                                     st.integers(1, 255)), max_size=4)):
            raw[at] ^= mask
        path.write_bytes(raw[:data.draw(st.just(len(raw)) | st.integers(0, len(raw)))])

        def outcome():
            try:
                return read_tags(path)
            except TagFileError as err:
                return str(err)

        whole = outcome()
        for _ in at_each_block(tagfile):
            assert outcome() == whole

    @pytest.mark.parametrize("pipe", [False, True], ids=["file", "pipe"])
    def test_record_budget_checked_before_any_allocation(self, tmp_path, monkeypatch, pipe):
        # a pipe is read up to one record past the budget, so its count reads one over
        monkeypatch.setattr(tagfile, "MAX_TAGS", 5)
        raw = pack_file(list(range(7)), [0] * 7, 10)
        path = tmp_path / "t.spptag"
        path.write_bytes(raw)
        if pipe:
            read_end, write_end = os.pipe()
            with open(write_end, "wb") as fh:
                fh.write(raw)
            path = f"/dev/fd/{read_end}"
        monkeypatch.setattr(np, "empty", None)  # any allocation would fail as a TypeError
        try:
            with pytest.raises(TagFileError, match=f"^{path}: {6 if pipe else 7} records, "
                                                   "above the budget of 5$"):
                read_tags(path)
        finally:
            if pipe:
                os.close(read_end)

    def test_record_budget_reads_every_simulated_run(self):
        assert tagfile.MAX_TAGS >= config.MAX_RUN_TAGS

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_tags(tmp_path / "nope.spptag")
