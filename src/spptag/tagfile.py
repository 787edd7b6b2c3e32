"""Binary time-tag files.

Layout, all little-endian:

    bytes 0-7    magic "SPPTAG01"
    bytes 8-11   u32 format version (1)
    bytes 12-15  u32 time resolution in picoseconds (1)
    bytes 16-19  u32 channel count (tags carry channels below this)
    bytes 20-23  u32 reserved, written as zero
    bytes 24-31  u64 total observation time [ps]

then one 16-byte record per tag, in nondecreasing time order:

    u64 time [ps], u8 channel, 7 zero pad bytes

Writing and reading are exact inverses byte for byte.  Both work through
the records BLOCK at a time, so either holds the stream's arrays (9 bytes a
tag) plus one block of records.  A read holds at most MAX_TAGS records.
"""
import io
import struct

import numpy as np

from .errors import TagFileError
from .model import BLOCK, TimeTagStream

MAGIC = b"SPPTAG01"
VERSION = 1
HEADER = struct.Struct("<8sIIIIQ")
HEADER_SIZE = HEADER.size  # 32
RECORD_SIZE = 16
MAX_TAGS = 2**27  # records a read holds, 9 B each: twice config.MAX_RUN_TAGS

_RECORD_DTYPE = np.dtype([("time", "<u8"), ("channel", "u1"), ("pad", "V7")])


def write_tags(path, stream: TimeTagStream) -> None:
    """Write a tag stream; channel count in the header is max channel + 1.

    Records are built and written a block at a time, so writing needs
    little memory beyond the stream itself.
    """
    channel_count = int(stream.channels.max()) + 1 if len(stream) else 0
    header = HEADER.pack(MAGIC, VERSION, 1, channel_count, 0,
                         stream.duration_ps)
    records = np.zeros(min(len(stream), BLOCK), dtype=_RECORD_DTYPE)
    with open(path, "wb") as fh:
        fh.write(header)
        for start in range(0, len(stream), BLOCK):
            block = records[:min(BLOCK, len(stream) - start)]
            block["time"] = stream.times_ps[start:start + block.size]
            block["channel"] = stream.channels[start:start + block.size]
            block.tofile(fh)


def read_tags(path) -> TimeTagStream:
    """Read a tag file into the stream it holds, a block of records at a time."""
    with open(path, "rb") as fh:
        if not fh.seekable():  # a pipe: its bytes, up to a record past the budget, tell its size
            fh = io.BytesIO(fh.read(HEADER_SIZE + RECORD_SIZE * (MAX_TAGS + 1)))
        head = fh.read(HEADER_SIZE)
        if len(head) >= len(MAGIC) and head[: len(MAGIC)] != MAGIC:
            raise TagFileError(f"not a tag file: magic {head[:8]!r}")
        if len(head) < HEADER_SIZE:
            raise TagFileError(
                f"header needs {HEADER_SIZE} bytes, file has {len(head)}")
        _, version, resolution, channel_count, _, duration_ps = HEADER.unpack(head)
        if version != VERSION:
            raise TagFileError(f"unsupported format version {version}")
        if resolution != 1:
            raise TagFileError(f"unsupported time resolution {resolution} ps")
        body_size = fh.seek(0, io.SEEK_END) - HEADER_SIZE
        fh.seek(HEADER_SIZE)
        if body_size % RECORD_SIZE:
            raise TagFileError(
                f"body of {body_size} bytes is not a whole number of records")
        n = body_size // RECORD_SIZE
        if n > MAX_TAGS:
            raise TagFileError(f"{path}: {n} records, above the budget of {MAX_TAGS}")
        times = np.empty(n, dtype=np.int64)
        utimes = times.view(np.uint64)  # the file's unsigned times, checked before use
        channels = np.empty(n, dtype=np.uint8)
        records = np.empty(min(n, BLOCK), dtype=_RECORD_DTYPE)
        for start in range(0, n, BLOCK):
            block = records[:min(BLOCK, n - start)]
            if fh.readinto(block) != block.nbytes:
                raise TagFileError(f"file ended inside its first {start + block.size} records")
            utimes[start:start + block.size] = block["time"]
            channels[start:start + block.size] = block["channel"]
            prior = max(start - 1, 0)  # with the previous block's last time: edges too
            window = utimes[prior:start + block.size]
            bad = np.flatnonzero(window[1:] < window[:-1])
            if bad.size:
                offset = HEADER_SIZE + RECORD_SIZE * (prior + int(bad[0]) + 1)
                raise TagFileError(f"record at byte offset {offset} breaks time ordering")
    if n:
        if utimes[-1] > np.iinfo(np.int64).max:
            raise TagFileError("tag time overflows signed 64-bit range")
        if channels.max() >= channel_count:
            raise TagFileError(
                f"channel {channels.max()} outside declared count {channel_count}")
        if utimes[-1] > duration_ps:
            raise TagFileError("tag time beyond stated observation time")
    if duration_ps <= 0:
        raise TagFileError("observation time must be positive")
    return TimeTagStream(times, channels, duration_ps)
