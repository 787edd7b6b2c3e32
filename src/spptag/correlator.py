"""Time-tag correlation analysis.

All pair counting is exact (every tag pair inside the requested delay window
is counted once) and vectorized through searchsorted; normalization follows
the accidental-rate convention g(tau) = counts / (r_a * r_b * bin * T), with
no accidental subtraction anywhere.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError
from .model import BLOCK, PS_PER_NS, RngSpec, TemporalWaveform, TimeTagStream, as_generator

log = logging.getLogger(__name__)


def _counts_per_anchor(t_a: np.ndarray, t_b: np.ndarray,
                       lo_off: int, hi_off: int) -> tuple[np.ndarray, np.ndarray]:
    """Index ranges of b-tags inside [a + lo_off, a + hi_off) per a-tag."""
    lo = np.searchsorted(t_b, t_a + lo_off, side="left")
    hi = np.searchsorted(t_b, t_a + hi_off, side="left")
    return lo, hi


def _has_partner(t_a: np.ndarray, t_b: np.ndarray, window_ps: int) -> np.ndarray:
    """Per a-tag: is there a b-tag inside [a - window, a + window)?

    The first b-tag at or after a - window decides; a-tags go a block at a
    time so long runs need little scratch memory.
    """
    out = np.zeros(t_a.size, dtype=bool)
    if t_b.size == 0:
        return out
    for start in range(0, t_a.size, BLOCK):
        edge = t_a[start:start + BLOCK] - window_ps
        first = np.take(t_b, np.searchsorted(t_b, edge, side="left"), mode="clip")
        inside = first >= edge
        edge += 2 * window_ps
        inside &= first < edge
        out[start:start + inside.size] = inside
    return out


def _pair_delays(t_a: np.ndarray, t_b: np.ndarray,
                 lo_off: int, hi_off: int) -> np.ndarray:
    """Delays t_b - t_a of every pair within the window, unsorted [ps]."""
    lo, hi = _counts_per_anchor(t_a, t_b, lo_off, hi_off)
    lens = hi - lo
    m = int(lens.sum())
    if m == 0:
        return np.empty(0, dtype=np.int64)
    start = np.repeat(lo, lens)
    grp = np.repeat(np.cumsum(lens) - lens, lens)
    b_idx = start + (np.arange(m) - grp)
    return t_b[b_idx] - np.repeat(t_a, lens)


@dataclass
class CorrelationHistogram:
    """Raw coincidence counts versus delay, plus what normalization needs."""

    bin_width_ps: int
    tau_min_ps: int
    counts: np.ndarray
    n_a: int
    n_b: int
    total_time_ps: int

    @property
    def tau_max_ps(self) -> int:
        return self.tau_min_ps + self.bin_width_ps * self.counts.size

    @property
    def rate_a(self) -> float:
        return self.n_a / (self.total_time_ps * 1e-12)

    @property
    def rate_b(self) -> float:
        return self.n_b / (self.total_time_ps * 1e-12)

    def centers_ns(self) -> np.ndarray:
        edges = self.tau_min_ps + self.bin_width_ps * np.arange(self.counts.size)
        return (edges + 0.5 * self.bin_width_ps) / PS_PER_NS


def coincidence_histogram(stream: TimeTagStream, ch_a, ch_b, bin_width_ps: int,
                          tau_min_ps: int, tau_max_ps: int) -> CorrelationHistogram:
    """Histogram of delays (t_b - t_a) over [tau_min, tau_max).

    ch_b may be a tuple of channels, merged before pairing.
    """
    bin_width_ps = int(bin_width_ps)
    tau_min_ps = int(tau_min_ps)
    tau_max_ps = int(tau_max_ps)
    if bin_width_ps <= 0:
        raise ValueError("bin width must be positive")
    if (tau_max_ps - tau_min_ps) % bin_width_ps or tau_max_ps <= tau_min_ps:
        raise ValueError("window must span a positive whole number of bins")
    set_a = {ch_a} if np.isscalar(ch_a) else set(ch_a)
    set_b = {ch_b} if np.isscalar(ch_b) else set(ch_b)
    if set_a & set_b:
        raise AnalysisError("channel sets must be disjoint for pair counting")
    t_a = stream.channel_times(ch_a)
    t_b = stream.channel_times(ch_b)
    if t_a.size == 0 or t_b.size == 0:
        log.warning("empty channel in coincidence histogram (%s vs %s)", ch_a, ch_b)
    n_bins = (tau_max_ps - tau_min_ps) // bin_width_ps
    delays = _pair_delays(t_a, t_b, tau_min_ps, tau_max_ps)
    k = (delays - tau_min_ps) // bin_width_ps
    counts = np.bincount(k, minlength=n_bins).astype(np.int64)
    return CorrelationHistogram(bin_width_ps, int(tau_min_ps), counts,
                                int(t_a.size), int(t_b.size),
                                stream.duration_ps)


@dataclass
class GCurve:
    """Normalized cross-correlation g(tau) with Poisson errors."""

    tau_ns: np.ndarray
    values: np.ndarray
    errors: np.ndarray
    low_stats: np.ndarray
    bin_width_ps: int


LOW_STATS_COUNTS = 10


def normalize(hist: CorrelationHistogram) -> GCurve:
    """Accidental-rate normalization: g = counts / (r_a r_b bin T).

    Bins with fewer than 10 counts are flagged low-statistics.  Poisson
    errors; empty bins get the one-count error scale so they stay usable in
    weighted fits.
    """
    if hist.n_a == 0 or hist.n_b == 0:
        raise AnalysisError("normalization undefined: a channel has no tags")
    denom = (hist.rate_a * hist.rate_b * (hist.bin_width_ps * 1e-12)
             * (hist.total_time_ps * 1e-12))
    values = hist.counts / denom
    errors = np.sqrt(np.maximum(hist.counts, 1)) / denom
    low = hist.counts < LOW_STATS_COUNTS
    return GCurve(hist.centers_ns(), values, errors, low, hist.bin_width_ps)


@dataclass
class ZeroDelayG2:
    """Zero-delay autocorrelation estimate over a +-window range."""

    value: float
    error: float
    n_pairs: int


def auto_g2_zero(stream: TimeTagStream, ch_a, ch_b,
                 window_ps: int) -> ZeroDelayG2:
    """g(0) between two detector channels of one split field.

    Counts every pair with |t_b - t_a| inside the window (half-open on the
    right) and normalizes by the accidental rate over 2*window.
    """
    window_ps = int(window_ps)
    if window_ps <= 0:
        raise ValueError("window must be positive")
    t_a = stream.channel_times(ch_a)
    t_b = stream.channel_times(ch_b)
    if t_a.size == 0 or t_b.size == 0:
        raise AnalysisError("zero-delay g2 undefined: empty channel")
    lo, hi = _counts_per_anchor(t_a, t_b, -window_ps, window_ps)
    pairs = int((hi - lo).sum())
    t_s = stream.duration_ps * 1e-12
    denom = (t_a.size / t_s) * (t_b.size / t_s) * (2 * window_ps * 1e-12) * t_s
    return ZeroDelayG2(pairs / denom, np.sqrt(max(pairs, 1)) / denom, pairs)


def split_channel(stream: TimeTagStream, channel: int,
                  rng: RngSpec | np.random.Generator,
                  out_channels: tuple[int, int] = (0, 1)) -> TimeTagStream:
    """Randomly route one channel's tags to two pseudo-detectors.

    Statistically equivalent to sending the field through a 50:50 splitter
    onto two ideal detectors; used to measure an autocorrelation when only
    one physical detector watched the field.
    """
    gen = as_generator(rng)
    t = stream.channel_times(channel)
    if t.size == 0:
        raise AnalysisError(f"channel {channel} is empty, nothing to split")
    to_a = gen.random(t.size) < 0.5
    return TimeTagStream.from_channel_times(
        {out_channels[0]: t[to_a], out_channels[1]: t[~to_a]},
        stream.duration_ps)


@dataclass
class CauchySchwarzResult:
    """Time-resolved classicality test C(tau) = g_ir(tau)^2 / (g_ii g_rr)."""

    tau_ns: np.ndarray
    c_values: np.ndarray
    c_errors: np.ndarray
    low_stats: np.ndarray
    bin_width_ps: int
    cross: GCurve
    g_ii0: ZeroDelayG2
    g_rr0: ZeroDelayG2


def cauchy_schwarz(stream: TimeTagStream, herald_ch: int, reemit_chs: tuple[int, int],
                   bin_width_ps: int, tau_min_ps: int, tau_max_ps: int,
                   rng: RngSpec | np.random.Generator,
                   auto_window_ps: int = 10_000_000) -> CauchySchwarzResult:
    """Classical-bound curve from one three-channel stream.

    The cross-correlation is herald against both reemit detectors merged.
    g_ii(0) comes from a software split of the herald channel (the rng draws
    the routing), g_rr(0) from the two reemit detectors, both over
    +-auto_window where the marginals are flat.  Classical light obeys
    C <= 1; errors propagate in quadrature from the three factors.
    """
    hist = coincidence_histogram(stream, herald_ch, reemit_chs, bin_width_ps,
                                 tau_min_ps, tau_max_ps)
    cross = normalize(hist)
    halves = split_channel(stream, herald_ch, rng, out_channels=(0, 1))
    g_ii = auto_g2_zero(halves, 0, 1, auto_window_ps)
    g_rr = auto_g2_zero(stream, reemit_chs[0], reemit_chs[1], auto_window_ps)
    if g_ii.value <= 0 or g_rr.value <= 0:
        raise AnalysisError("zero-delay autocorrelation vanished; C undefined")
    c = cross.values**2 / (g_ii.value * g_rr.value)
    rel = np.zeros_like(c)
    nonzero = cross.values > 0
    rel[nonzero] = np.sqrt(
        (2 * cross.errors[nonzero] / cross.values[nonzero]) ** 2
        + (g_ii.error / g_ii.value) ** 2 + (g_rr.error / g_rr.value) ** 2)
    c_err = np.where(nonzero, c * rel,
                     cross.errors**2 / (g_ii.value * g_rr.value))
    return CauchySchwarzResult(cross.tau_ns, c, c_err, cross.low_stats,
                               hist.bin_width_ps, cross, g_ii, g_rr)


@dataclass
class HeraldedG2:
    """Conditional zero-delay autocorrelation of the heralded field.

    value = N_abh * N_h / (N_ah * N_bh) over windows centered on heralds.
    """

    value: float
    error: float
    n_heralds: int
    n_a: int
    n_b: int
    n_ab: int


def heralded_g2_zero(stream: TimeTagStream, herald_ch: int = 0,
                     ch_a: int = 1, ch_b: int = 2,
                     window_ps: int = 150_000) -> HeraldedG2:
    """Three-detector conditional g2(0) with a +-window around each herald.

    Counts heralds accompanied by a tag on a, on b, and on both; the
    conditional normalization cancels the herald rate, so an ideal heralded
    single photon gives exactly zero (no herald ever sees both halves).
    """
    window_ps = int(window_ps)
    if window_ps <= 0:
        raise ValueError("window must be positive")
    heralds = stream.channel_times(herald_ch)
    if heralds.size == 0:
        raise AnalysisError("no heralds in stream")
    t_a = stream.channel_times(ch_a)
    t_b = stream.channel_times(ch_b)
    has_a = _has_partner(heralds, t_a, window_ps)
    has_b = _has_partner(heralds, t_b, window_ps)
    n_h = int(heralds.size)
    n_a = int(np.count_nonzero(has_a))
    n_b = int(np.count_nonzero(has_b))
    n_ab = int(np.count_nonzero(has_a & has_b))
    if n_a == 0 or n_b == 0:
        raise AnalysisError("a signal channel never fired inside the window")
    value = n_ab * n_h / (n_a * n_b)
    # dominant counting errors in quadrature; the triple count dominates
    rel = np.sqrt(1.0 / max(n_ab, 1) + 1.0 / n_a + 1.0 / n_b)
    error = (value if n_ab else n_h / (n_a * n_b)) * rel
    return HeraldedG2(value, error, n_h, n_a, n_b, n_ab)


def reconstruct_waveform(stream: TimeTagStream, herald_ch, signal_chs,
                         bin_width_ps: int, tau_min_ps: int,
                         tau_max_ps: int) -> TemporalWaveform:
    """Histogram of signal arrivals relative to heralds (the TCSPC waveform)."""
    hist = coincidence_histogram(stream, herald_ch, signal_chs, bin_width_ps,
                                 tau_min_ps, tau_max_ps)
    if hist.counts.sum() == 0:
        log.warning("waveform reconstruction found no coincidences")
    return TemporalWaveform(tau_min_ps / PS_PER_NS, bin_width_ps / PS_PER_NS,
                            hist.counts.astype(float))


def cosine_similarity(a, b) -> float:
    """Cosine similarity of two waveforms (or raw vectors) on one grid."""
    if isinstance(a, TemporalWaveform) and isinstance(b, TemporalWaveform):
        if (a.bin_width_ns != b.bin_width_ns or a.start_ns != b.start_ns
                or len(a) != len(b)):
            raise ValueError("waveforms live on different grids")
        va, vb = a.counts, b.counts
    else:
        va = np.asarray(a, dtype=float)
        vb = np.asarray(b, dtype=float)
        if va.shape != vb.shape:
            raise ValueError("vectors must have the same shape")
    norm = np.linalg.norm(va) * np.linalg.norm(vb)
    if norm == 0:
        raise AnalysisError("cosine similarity undefined for a zero vector")
    return float(np.dot(va, vb) / norm)


def expected_waveform(density_fn, start_ns: float, bin_width_ns: float,
                      n_bins: int) -> np.ndarray:
    """Bin-averaged template of an analytic density, for shape comparisons."""
    edges = start_ns + bin_width_ns * np.arange(n_bins + 1)
    fine = np.linspace(edges[:-1], edges[1:], 33, axis=1)
    return np.trapezoid(density_fn(fine), fine, axis=1) / bin_width_ns
