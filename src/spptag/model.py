"""Core types: biphoton delay densities, RNG streams, time-tag containers.

Conventions used throughout the package:

* physics works in nanoseconds (float), hardware tags in integer picoseconds
* every random draw goes through a counter-based Philox generator addressed
  by an explicit (seed, stream_id) pair, and all non-uniform variates are
  produced from uniforms by inverse-CDF transforms, so a given RngSpec yields
  byte-identical results regardless of platform or call interleaving
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import special

PS_PER_NS = 1000.0


class Shape(enum.Enum):
    """Functional form of the signal-idler delay density."""

    DOUBLE_EXPONENTIAL = "double_exponential"
    EXPONENTIAL_DECAY = "exponential_decay"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class RngSpec:
    """Addressable random stream: Philox keyed by (seed, stream_id).

    The same spec always reproduces the same sequence.  Derived stages get
    their own child streams instead of sharing one generator, which keeps
    partitioned generation deterministic.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in uint64")
        if not 0 <= self.stream_id < 2**64:
            raise ValueError("stream_id must fit in uint64")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, k: int) -> "RngSpec":
        # 16 bits of fan-out per nesting level; two levels in practice
        return RngSpec(self.seed, (self.stream_id * 65536 + k) % 2**64)


def as_generator(rng: RngSpec | np.random.Generator) -> np.random.Generator:
    if isinstance(rng, RngSpec):
        return rng.generator()
    return rng


@dataclass(frozen=True)
class BiphotonAmplitude:
    """Normalized signal-idler delay density, parametrized by its FWHM.

    shape      functional form
    fwhm_ns    full width at half maximum of the density [ns]
    offset_ns  center (symmetric shapes) or onset (exponential decay) [ns]
    """

    shape: Shape
    fwhm_ns: float
    offset_ns: float = 0.0

    def __post_init__(self):
        if not self.fwhm_ns > 0:
            raise ValueError("fwhm_ns must be positive")

    @property
    def tau0_ns(self) -> float:
        """Decay constant of the exponential forms [ns]."""
        if self.shape is Shape.DOUBLE_EXPONENTIAL:
            return self.fwhm_ns / (2.0 * np.log(2.0))
        if self.shape is Shape.EXPONENTIAL_DECAY:
            return self.fwhm_ns / np.log(2.0)
        raise ValueError("tau0 undefined for Gaussian shape")

    @property
    def sigma_ns(self) -> float:
        """Gaussian standard deviation [ns]."""
        if self.shape is not Shape.GAUSSIAN:
            raise ValueError("sigma defined only for Gaussian shape")
        return self.fwhm_ns / (2.0 * np.sqrt(2.0 * np.log(2.0)))


def evaluate_density(amp: BiphotonAmplitude, tau_ns):
    """Delay density f(tau) [1/ns]; integrates to 1 over the real line.

    Accepts scalar or array tau.
    """
    tau = np.asarray(tau_ns, dtype=float)
    x = tau - amp.offset_ns
    if amp.shape is Shape.DOUBLE_EXPONENTIAL:
        t0 = amp.tau0_ns
        out = np.exp(-np.abs(x) / t0) / (2.0 * t0)
    elif amp.shape is Shape.EXPONENTIAL_DECAY:
        t0 = amp.tau0_ns
        out = np.where(x >= 0.0, np.exp(-np.clip(x, 0.0, None) / t0) / t0, 0.0)
    elif amp.shape is Shape.GAUSSIAN:
        s = amp.sigma_ns
        out = np.exp(-0.5 * (x / s) ** 2) / (s * np.sqrt(2.0 * np.pi))
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown shape {amp.shape}")
    if np.isscalar(tau_ns):
        return float(out)
    return out


def sample_delay(amp: BiphotonAmplitude, rng: RngSpec | np.random.Generator,
                 size: int | None = None):
    """Draw signal-idler delays [ns] by inverse CDF from uniform variates.

    With size=None returns a single float.  Passing an RngSpec restarts the
    stream, so repeated calls with the same spec repeat the same values; pass
    a live Generator to continue a stream.
    """
    gen = as_generator(rng)
    n = 1 if size is None else int(size)
    u = np.clip(gen.random(n), 1e-15, 1.0 - 1e-15)
    if amp.shape is Shape.DOUBLE_EXPONENTIAL:
        t0 = amp.tau0_ns
        # Laplace inverse CDF, branch at the median
        out = np.where(u < 0.5,
                       t0 * np.log(2.0 * u),
                       -t0 * np.log(2.0 * (1.0 - u)))
    elif amp.shape is Shape.EXPONENTIAL_DECAY:
        out = -amp.tau0_ns * np.log1p(-u)
    else:
        out = amp.sigma_ns * special.ndtri(u)
    out = out + amp.offset_ns
    if size is None:
        return float(out[0])
    return out


class TimeTagStream:
    """Multi-channel detection record over a fixed observation time.

    times_ps    int64 array, nondecreasing
    channels    uint8 array, same length
    duration_ps total observation time; all tags lie in [0, duration]
    """

    def __init__(self, times_ps, channels, duration_ps: int):
        times = np.ascontiguousarray(times_ps, dtype=np.int64)
        chans = np.ascontiguousarray(channels, dtype=np.uint8)
        if times.shape != chans.shape or times.ndim != 1:
            raise ValueError("times and channels must be 1-d arrays of equal length")
        if times.size and np.any(np.diff(times) < 0):
            raise ValueError("tag times must be nondecreasing")
        duration_ps = int(duration_ps)
        if duration_ps <= 0:
            raise ValueError("duration must be positive")
        if times.size and (times[0] < 0 or times[-1] > duration_ps):
            raise ValueError("tag times must lie within [0, duration]")
        self.times_ps = times
        self.channels = chans
        self.duration_ps = duration_ps

    @classmethod
    def from_channel_times(cls, per_channel: dict[int, np.ndarray],
                           duration_ps: int) -> "TimeTagStream":
        """Merge per-channel time arrays into one time-ordered stream.

        Ties in time are broken by channel number so merging is deterministic.
        """
        times = []
        chans = []
        for ch in sorted(per_channel):
            t = np.asarray(per_channel[ch], dtype=np.int64)
            times.append(t)
            chans.append(np.full(t.size, ch, dtype=np.uint8))
        if times:
            t_all = np.concatenate(times)
            c_all = np.concatenate(chans)
            order = np.lexsort((c_all, t_all))
            t_all = t_all[order]
            c_all = c_all[order]
        else:
            t_all = np.empty(0, dtype=np.int64)
            c_all = np.empty(0, dtype=np.uint8)
        return cls(t_all, c_all, duration_ps)

    def __len__(self) -> int:
        return int(self.times_ps.size)

    def channel_times(self, channel: int | tuple[int, ...]) -> np.ndarray:
        """Sorted tag times [ps] on one channel (or merged over several)."""
        if isinstance(channel, (tuple, list, set, frozenset)):
            mask = np.isin(self.channels, np.fromiter(channel, dtype=np.uint8))
        else:
            mask = self.channels == channel
        return self.times_ps[mask]

    def count(self, channel) -> int:
        return int(self.channel_times(channel).size)

    def rate(self, channel) -> float:
        """Mean count rate on a channel [1/s]."""
        return self.count(channel) / (self.duration_ps * 1e-12)

    @property
    def channel_ids(self) -> np.ndarray:
        return np.unique(self.channels)

    def __eq__(self, other):
        return (isinstance(other, TimeTagStream)
                and self.duration_ps == other.duration_ps
                and np.array_equal(self.times_ps, other.times_ps)
                and np.array_equal(self.channels, other.channels))

    def __repr__(self):
        return (f"TimeTagStream({len(self)} tags, "
                f"{self.duration_ps * 1e-12:.3g} s, "
                f"channels={list(self.channel_ids)})")


class TemporalWaveform:
    """Histogram of herald-relative arrival times with Poisson errors.

    counts are float so rescaled or averaged waveforms stay representable.
    """

    def __init__(self, start_ns: float, bin_width_ns: float,
                 counts, errors=None):
        if bin_width_ns <= 0:
            raise ValueError("bin width must be positive")
        self.start_ns = float(start_ns)
        self.bin_width_ns = float(bin_width_ns)
        self.counts = np.asarray(counts, dtype=float)
        if errors is None:
            errors = np.sqrt(np.clip(self.counts, 0.0, None))
        self.errors = np.asarray(errors, dtype=float)
        if self.errors.shape != self.counts.shape:
            raise ValueError("errors must match counts shape")

    def centers_ns(self) -> np.ndarray:
        n = self.counts.size
        return self.start_ns + (np.arange(n) + 0.5) * self.bin_width_ns

    def total(self) -> float:
        return float(self.counts.sum())

    def __len__(self) -> int:
        return int(self.counts.size)

    def __eq__(self, other):
        return (isinstance(other, TemporalWaveform)
                and self.start_ns == other.start_ns
                and self.bin_width_ns == other.bin_width_ns
                and np.array_equal(self.counts, other.counts)
                and np.array_equal(self.errors, other.errors))
