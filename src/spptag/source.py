"""Photon-pair source: Poisson emission with contamination processes.

Idler ("herald") arrivals form a homogeneous Poisson process; each carries a
signal partner delayed by a draw from the biphoton delay density.  Two noise
processes ride along: occasional second pairs within a coherence time of a
primary (multipair contamination) and unpaired broadband photons in either
arm.  Everything is generated from exponential-gap and inverse-CDF transforms
of Philox uniforms so runs are reproducible bit for bit, including when the
observation time is generated in independent segments.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .model import PS_PER_NS, BiphotonAmplitude, RngSpec, sample_delay


class PairKind(enum.IntEnum):
    TRUE_PAIR = 0
    MULTIPAIR_EXTRA = 1
    BACKGROUND_SIGNAL = 2
    BACKGROUND_IDLER = 3


@dataclass(frozen=True)
class SourceConfig:
    """Emission rates and contamination strengths.

    pair_rate              true pair emission rate [1/s]
    amplitude              signal-idler delay density
    multipair_prob         chance a primary pair drags an extra pair with it
    background_rate_signal unpaired photon rate entering the signal arm [1/s]
    background_rate_idler  unpaired photon rate entering the idler arm [1/s]
    """

    pair_rate: float
    amplitude: BiphotonAmplitude
    multipair_prob: float = 0.0
    background_rate_signal: float = 0.0
    background_rate_idler: float = 0.0

    def __post_init__(self):
        if self.pair_rate < 0:
            raise ValueError("pair_rate must be nonnegative")
        if not 0.0 <= self.multipair_prob < 1.0:
            raise ValueError("multipair_prob must lie in [0, 1)")
        if self.background_rate_signal < 0 or self.background_rate_idler < 0:
            raise ValueError("background rates must be nonnegative")


class PairEvents:
    """Column store of emission events, sorted by idler time.

    For pair kinds both times are physical.  BACKGROUND_SIGNAL events have no
    idler partner; their idler_ps holds the nearest idler-arm emission time
    (the modulation trigger reference), or 0 when none exists.
    BACKGROUND_IDLER events have no signal partner; signal_ps mirrors
    idler_ps and is never used downstream.
    """

    def __init__(self, idler_ps, signal_ps, kind):
        self.idler_ps = np.ascontiguousarray(idler_ps, dtype=np.int64)
        self.signal_ps = np.ascontiguousarray(signal_ps, dtype=np.int64)
        self.kind = np.ascontiguousarray(kind, dtype=np.uint8)
        if not (self.idler_ps.shape == self.signal_ps.shape == self.kind.shape):
            raise ValueError("column length mismatch")

    def __len__(self):
        return int(self.idler_ps.size)

    def select(self, mask) -> "PairEvents":
        return PairEvents(self.idler_ps[mask], self.signal_ps[mask], self.kind[mask])

    def count_kind(self, kind: PairKind) -> int:
        return int(np.count_nonzero(self.kind == kind))

    def idler_arm_times(self) -> np.ndarray:
        """Emission times of photons physically present in the idler arm [ps]."""
        mask = ((self.kind == PairKind.TRUE_PAIR)
                | (self.kind == PairKind.MULTIPAIR_EXTRA)
                | (self.kind == PairKind.BACKGROUND_IDLER))
        return np.sort(self.idler_ps[mask])

    def __eq__(self, other):
        return (isinstance(other, PairEvents)
                and np.array_equal(self.idler_ps, other.idler_ps)
                and np.array_equal(self.signal_ps, other.signal_ps)
                and np.array_equal(self.kind, other.kind))


def poisson_times(rate_per_s: float, t0_ps: float, t1_ps: float,
                  gen: np.random.Generator) -> np.ndarray:
    """Homogeneous Poisson arrivals on [t0, t1) as int64 ps, via exponential gaps."""
    if rate_per_s <= 0.0 or t1_ps <= t0_ps:
        return np.empty(0, dtype=np.int64)
    rate_per_ps = rate_per_s * 1e-12
    span = float(t1_ps - t0_ps)
    expected = span * rate_per_ps
    chunk = max(int(expected + 6.0 * np.sqrt(expected + 1.0)) + 16, 64)
    t = float(t0_ps)
    out = []
    while True:
        u = gen.random(chunk)
        gaps = -np.log1p(-u) / rate_per_ps
        times = t + np.cumsum(gaps)
        inside = times < t1_ps
        out.append(times[inside])
        if not inside.all():
            break
        t = float(times[-1])
    arr = np.concatenate(out)
    return np.rint(arr).astype(np.int64)


def _generate_segment(config: SourceConfig, t0_ps: int, t1_ps: int,
                      duration_ps: int, stream: RngSpec):
    """Raw event columns for one time segment; references not yet assigned.

    Draw order inside the segment stream is fixed: idler arrivals, pair
    delays, multipair flags, multipair offsets, multipair delays, signal-arm
    background, idler-arm background.
    """
    gen = stream.generator()
    amp = config.amplitude
    fwhm_ps = amp.fwhm_ns * PS_PER_NS

    idlers = poisson_times(config.pair_rate, t0_ps, t1_ps, gen)
    delays_ns = np.asarray(sample_delay(amp, gen, size=idlers.size), dtype=float)
    signals = idlers + np.rint(delays_ns * PS_PER_NS).astype(np.int64)

    if config.multipair_prob > 0.0 and idlers.size:
        flagged = gen.random(idlers.size) < config.multipair_prob
        primaries = idlers[flagged]
        offs = np.rint((2.0 * gen.random(primaries.size) - 1.0) * fwhm_ps)
        extra_idlers = primaries + offs.astype(np.int64)
        extra_delays = np.asarray(sample_delay(amp, gen, size=primaries.size))
        extra_signals = extra_idlers + np.rint(extra_delays * PS_PER_NS).astype(np.int64)
    else:
        extra_idlers = np.empty(0, dtype=np.int64)
        extra_signals = np.empty(0, dtype=np.int64)

    bg_sig = poisson_times(config.background_rate_signal, t0_ps, t1_ps, gen)
    bg_idl = poisson_times(config.background_rate_idler, t0_ps, t1_ps, gen)

    # drop any event with a physical time outside the observation window
    pair_ok = (signals >= 0) & (signals <= duration_ps)
    idlers, signals = idlers[pair_ok], signals[pair_ok]
    extra_ok = ((extra_signals >= 0) & (extra_signals <= duration_ps)
                & (extra_idlers >= 0) & (extra_idlers <= duration_ps))
    extra_idlers, extra_signals = extra_idlers[extra_ok], extra_signals[extra_ok]

    idler_col = np.concatenate([idlers, extra_idlers, bg_sig, bg_idl])
    signal_col = np.concatenate([signals, extra_signals, bg_sig, bg_idl])
    kind_col = np.concatenate([
        np.full(idlers.size, PairKind.TRUE_PAIR, dtype=np.uint8),
        np.full(extra_idlers.size, PairKind.MULTIPAIR_EXTRA, dtype=np.uint8),
        np.full(bg_sig.size, PairKind.BACKGROUND_SIGNAL, dtype=np.uint8),
        np.full(bg_idl.size, PairKind.BACKGROUND_IDLER, dtype=np.uint8),
    ])
    return idler_col, signal_col, kind_col


def _finalize(idler_col, signal_col, kind_col) -> PairEvents:
    """Assign background trigger references, then sort by idler time."""
    is_bg_sig = kind_col == PairKind.BACKGROUND_SIGNAL
    arm_mask = ((kind_col == PairKind.TRUE_PAIR)
                | (kind_col == PairKind.MULTIPAIR_EXTRA)
                | (kind_col == PairKind.BACKGROUND_IDLER))
    herald_times = np.sort(idler_col[arm_mask])
    if is_bg_sig.any():
        t = signal_col[is_bg_sig]
        if herald_times.size == 0:
            refs = np.zeros(t.size, dtype=np.int64)
        else:
            # nearest idler-arm emission: the gate is triggered per herald
            right = np.searchsorted(herald_times, t)
            left = np.clip(right - 1, 0, herald_times.size - 1)
            right = np.clip(right, 0, herald_times.size - 1)
            d_left = np.abs(t - herald_times[left])
            d_right = np.abs(herald_times[right] - t)
            refs = np.where(d_right < d_left, herald_times[right], herald_times[left])
        idler_col = idler_col.copy()
        idler_col[is_bg_sig] = refs
    order = np.lexsort((kind_col, signal_col, idler_col))
    return PairEvents(idler_col[order], signal_col[order], kind_col[order])


def generate_pairs(config: SourceConfig, duration_ps: int,
                   rng: RngSpec, segments: int = 1) -> PairEvents:
    """Simulate source emission over [0, duration].

    With segments > 1 the observation time is split into equal slices drawn
    from independent child streams; the result is identical to generating the
    slices separately and concatenating, which is the hook for parallel
    generation.
    """
    duration_ps = int(duration_ps)
    if duration_ps <= 0:
        raise ValueError("duration must be positive")
    if segments < 1:
        raise ValueError("segments must be >= 1")
    cols = []
    edges = np.linspace(0, duration_ps, segments + 1).astype(np.int64)
    for k in range(segments):
        cols.append(_generate_segment(config, int(edges[k]), int(edges[k + 1]),
                                      duration_ps, rng.child(k)))
    idler_col = np.concatenate([c[0] for c in cols])
    signal_col = np.concatenate([c[1] for c in cols])
    kind_col = np.concatenate([c[2] for c in cols])
    return _finalize(idler_col, signal_col, kind_col)
