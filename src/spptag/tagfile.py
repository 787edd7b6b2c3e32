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

Writing and reading are exact inverses byte for byte.
"""
import struct
from pathlib import Path

import numpy as np

from .errors import (
    TagFileError,
    TagFileMagicError,
    TagFileTruncatedError,
    TagFileUnsortedError,
    TagFileVersionError,
)
from .model import TimeTagStream

MAGIC = b"SPPTAG01"
VERSION = 1
HEADER = struct.Struct("<8sIIIIQ")
HEADER_SIZE = HEADER.size  # 32
RECORD_SIZE = 16

_RECORD_DTYPE = np.dtype([("time", "<u8"), ("channel", "u1"), ("pad", "V7")])


def write_tags(path, stream: TimeTagStream) -> None:
    """Write a tag stream; channel count in the header is max channel + 1."""
    channel_count = int(stream.channels.max()) + 1 if len(stream) else 0
    header = HEADER.pack(MAGIC, VERSION, 1, channel_count, 0,
                         stream.duration_ps)
    records = np.zeros(len(stream), dtype=_RECORD_DTYPE)
    records["time"] = stream.times_ps
    records["channel"] = stream.channels
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(records.tobytes())


def read_tags(path) -> TimeTagStream:
    data = Path(path).read_bytes()
    if len(data) >= len(MAGIC) and data[: len(MAGIC)] != MAGIC:
        raise TagFileMagicError(f"not a tag file: magic {data[:8]!r}")
    if len(data) < HEADER_SIZE:
        raise TagFileTruncatedError(
            f"header needs {HEADER_SIZE} bytes, file has {len(data)}")
    _, version, resolution, channel_count, _, duration_ps = HEADER.unpack(
        data[:HEADER_SIZE])
    if version != VERSION:
        raise TagFileVersionError(f"unsupported format version {version}")
    if resolution != 1:
        raise TagFileVersionError(f"unsupported time resolution {resolution} ps")
    body = data[HEADER_SIZE:]
    if len(body) % RECORD_SIZE:
        raise TagFileTruncatedError(
            f"body of {len(body)} bytes is not a whole number of records")
    records = np.frombuffer(body, dtype=_RECORD_DTYPE)
    times = records["time"]
    channels = records["channel"]
    if times.size:
        bad = np.nonzero(times[1:] < times[:-1])[0]  # unsigned-safe
        if bad.size:
            offset = HEADER_SIZE + RECORD_SIZE * (int(bad[0]) + 1)
            raise TagFileUnsortedError(offset)
        if times[-1] > np.iinfo(np.int64).max:
            raise TagFileError("tag time overflows signed 64-bit range")
        if channels.max() >= channel_count:
            raise TagFileError(
                f"channel {channels.max()} outside declared count {channel_count}")
        if times[-1] > duration_ps:
            raise TagFileError("tag time beyond stated observation time")
    if duration_ps <= 0:
        raise TagFileError("observation time must be positive")
    return TimeTagStream(times.astype(np.int64), channels.copy(), duration_ps)
