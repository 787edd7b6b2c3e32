"""Time-tag correlation analysis.

Every analysis counts the tag pairs, anchor a on one channel set and partner
b on a disjoint one, with t_b - t_a in a window [lo, hi) of integer ps; each
pair counts exactly once.  One primitive, _windows, serves them all on the
merged, time-ordered stream, with no per-channel copies.  A partner lies
within reach = max(|lo|, |hi - 1|), so the anchor's stream neighbour on that
side does too: the neighbour gaps drop the anchors with both neighbours
farther (exact; about 4 in 5 heralds on the desk bench at 150 ns).  Two
searchsorted calls give each remaining anchor its stream index range, and a
running count of partner tags turns ranges into pair counts; histograms
keep the delays of the partner tags inside.  Cost: O(n) over n tags,
O(k log n) for the k anchors kept, O(m) for the m tags in histogram windows.
Memory: a few bytes per tag (channel masks, the running count) plus O(k)
and O(m) index arrays; anything wider per tag (gaps, cast copies, routing
uniforms) is worked through BLOCK tags at a time.

Every binned result is a CorrelationHistogram, with int64 counts: the
herald-relative waveform (reconstruct_waveform) and the cross-correlation
behind C(tau) (cauchy_schwarz) alike.  coincidence_histogram is its one
constructor and bounds its bins (MAX_BINS) and the pairs it expands
(MAX_PAIRS) before allocating either.

Window edges: coincidence_histogram, reconstruct_waveform and the cross-
correlation of cauchy_schwarz count [tau_min, tau_max); auto_g2_zero (g_ii
and g_rr of cauchy_schwarz) counts [-W, +W); heralded_g2_zero counts
[-W, +W], both edges included.  Normalization is accidental-rate only;
nothing is subtracted.  Histograms divide by r_a * r_b * bin * T, and
auto_g2_zero by the exact accidental count of uniform tags over [0, T],
n_a * n_b * (w/T) * (2 - w/T) with w = min(W, T), which is 2W r_a r_b T to
first order in W/T.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError
from .model import BLOCK, PS_PER_NS, RngSpec, TimeTagStream, as_generator

log = logging.getLogger(__name__)

MAX_BINS = 2**24  # 128 MiB of int64 counts
MAX_PAIRS = 2**24  # (anchor, window tag) pairs a histogram expands into index arrays
INT64_MAX = np.iinfo(np.int64).max


def _windows(stream: TimeTagStream, ch_a, ch_b,
             lo: int, hi: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Count the ch_a tags and find the windows of those that can pair.

    Returns (n_a, first, last, t_a): for each ch_a tag with a neighbour
    within reach, the stream index range [first, last) of the tags with
    t_a + lo <= t < t_a + hi, and its time t_a.  No delay between two tags
    lies outside [-top, top], top = min(T, int64 max) for duration T, so the
    edges are clamped to it.  Each range end counts the tags at or before
    t_a + edge - 1, a sum that saturates at int64 max, past every tag.
    """
    if np.intersect1d(ch_a, ch_b).size:
        raise AnalysisError("channel sets must be disjoint for pair counting")
    top = min(stream.duration_ps, INT64_MAX)
    lo, hi = (min(max(x - 1, -top - 1), top) for x in (lo, hi))  # now inclusive edges
    reach = max(abs(lo + 1), abs(hi))
    t = stream.times_ps
    near = np.zeros(t.size + 1, dtype=bool)  # near[i]: tags i - 1 and i within reach
    for start in range(1, t.size, BLOCK):
        stop = min(start + BLOCK, t.size)
        np.less_equal(t[start:stop] - t[start - 1:stop - 1], reach, out=near[start:stop])
    is_a = stream.channel_mask(ch_a)
    t_a = t[is_a & (near[:-1] | near[1:])]  # gap to the previous or the next tag
    first, last = (np.searchsorted(t, np.minimum(t_a, INT64_MAX - d) + d if d > 0 else t_a + d,
                                   side="right") for d in (lo, hi))
    return int(np.count_nonzero(is_a)), first, last, t_a


def _partners(is_b: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Per window [first, last) of stream indices: how many tags it has in is_b."""
    running = np.zeros(is_b.size + 1, dtype=np.min_scalar_type(is_b.size))
    for start in range(0, is_b.size, BLOCK):  # a whole-array cumsum copies is_b to running's type
        block = running[start + 1:start + 1 + BLOCK]
        np.cumsum(is_b[start:start + BLOCK], dtype=running.dtype, out=block)
        block += running[start]
    return running[last] - running[first]


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
    n_bins = (tau_max_ps - tau_min_ps) // bin_width_ps
    if n_bins > MAX_BINS:
        raise ValueError(f"histogram of {n_bins} bins exceeds the limit of {MAX_BINS}")
    n_a, first, lens, t_a = _windows(stream, ch_a, ch_b, tau_min_ps, tau_max_ps)
    lens -= first  # window lengths, in the window ends' array
    is_b = stream.channel_mask(ch_b)
    n_b = int(np.count_nonzero(is_b))
    if n_a == 0 or n_b == 0:
        log.warning("empty channel in coincidence histogram (%s vs %s)", ch_a, ch_b)
    n_pairs = int(lens.sum())
    if n_pairs > MAX_PAIRS:
        raise ValueError(f"histogram windows hold {n_pairs} tag pairs, "
                         f"above the limit of {MAX_PAIRS}")
    idx = np.repeat(first - np.cumsum(lens) + lens, lens) + np.arange(n_pairs)
    keep = is_b[idx]
    delays = stream.times_ps[idx[keep]] - np.repeat(t_a, lens)[keep]
    counts = np.bincount((delays - tau_min_ps) // bin_width_ps, minlength=n_bins)
    return CorrelationHistogram(bin_width_ps, tau_min_ps, counts.astype(np.int64),
                                n_a, n_b, stream.duration_ps)


LOW_STATS_COUNTS = 10


def normalize(hist: CorrelationHistogram) -> tuple[np.ndarray, np.ndarray]:
    """Accidental-rate normalization g = counts / (r_a r_b bin T), and its errors.

    Poisson errors; empty bins get the one-count error scale so they stay
    usable in weighted fits.
    """
    if hist.n_a == 0 or hist.n_b == 0:
        raise AnalysisError("normalization undefined: a channel has no tags")
    denom = (hist.rate_a * hist.rate_b * (hist.bin_width_ps * 1e-12)
             * (hist.total_time_ps * 1e-12))
    return hist.counts / denom, np.sqrt(np.maximum(hist.counts, 1)) / denom


@dataclass
class ZeroDelayG2:
    """Zero-delay autocorrelation estimate over a +-window range."""

    value: float
    error: float
    n_pairs: int


def auto_g2_zero(stream: TimeTagStream, ch_a, ch_b,
                 window_ps: int) -> ZeroDelayG2:
    """g(0) between two detector channels of one split field.

    Counts every pair with t_b - t_a in [-window, +window) and divides by
    the count of independent uniform tags (module docstring), so
    uncorrelated tags give 1 however wide the window.
    """
    window_ps = int(window_ps)
    if window_ps <= 0:
        raise ValueError("window must be positive")
    n_a, first, last = _windows(stream, ch_a, ch_b, -window_ps, window_ps)[:3]
    is_b = stream.channel_mask(ch_b)
    n_b = int(np.count_nonzero(is_b))
    if n_a == 0 or n_b == 0:
        raise AnalysisError("zero-delay g2 undefined: empty channel")
    pairs = int(_partners(is_b, first, last).sum())
    x = min(window_ps, stream.duration_ps) / stream.duration_ps
    denom = n_a * n_b * x * (2.0 - x)
    return ZeroDelayG2(pairs / denom, math.sqrt(max(pairs, 1)) / denom, pairs)


def split_channel(stream: TimeTagStream, channel: int,
                  rng: RngSpec | np.random.Generator) -> TimeTagStream:
    """Randomly route one channel's tags to pseudo-detectors 0 and 1.

    Statistically equivalent to sending the field through a 50:50 splitter
    onto two ideal detectors; used to measure an autocorrelation when only
    one physical detector watched the field.
    """
    gen = as_generator(rng)
    t = stream.channel_times(channel)
    if t.size == 0:
        raise AnalysisError(f"channel {channel} is empty, nothing to split")
    chans = np.empty(t.size, dtype=np.uint8)
    for start in range(0, t.size, BLOCK):  # one uniform per tag, in time order
        block = chans[start:start + BLOCK]
        np.greater_equal(gen.random(block.size), 0.5, out=block)  # below 0.5 goes to 0
    if np.any(t[1:] == t[:-1]):  # ties in time go in channel order
        chans = chans[np.lexsort((chans, t))]
    return TimeTagStream(t, chans, stream.duration_ps)


@dataclass
class CauchySchwarzResult:
    """Time-resolved classicality test C(tau) = g_ir(tau)^2 / (g_ii g_rr).

    low_stats flags the bins of fewer than LOW_STATS_COUNTS coincidences.
    """

    tau_ns: np.ndarray
    c_values: np.ndarray
    c_errors: np.ndarray
    low_stats: np.ndarray
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
    g, g_err = normalize(hist)
    g_ii = auto_g2_zero(split_channel(stream, herald_ch, rng), 0, 1, auto_window_ps)
    g_rr = auto_g2_zero(stream, reemit_chs[0], reemit_chs[1], auto_window_ps)
    if g_ii.value <= 0 or g_rr.value <= 0:
        raise AnalysisError("zero-delay autocorrelation vanished; C undefined")
    c = g**2 / (g_ii.value * g_rr.value)
    rel = np.zeros_like(c)
    nonzero = g > 0
    rel[nonzero] = np.sqrt(
        (2 * g_err[nonzero] / g[nonzero]) ** 2
        + (g_ii.error / g_ii.value) ** 2 + (g_rr.error / g_rr.value) ** 2)
    c_err = np.where(nonzero, c * rel, g_err**2 / (g_ii.value * g_rr.value))
    return CauchySchwarzResult(hist.centers_ns(), c, c_err,
                               hist.counts < LOW_STATS_COUNTS, g_ii, g_rr)


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


def heralded_g2_zero(stream: TimeTagStream, herald_ch: int, ch_a: int, ch_b: int,
                     window_ps: int) -> HeraldedG2:
    """Three-detector conditional g2(0) over [-W, +W] around each herald.

    Both window edges are included.  Counts heralds accompanied by a tag on
    a, on b, and on both; the conditional normalization cancels the herald
    rate, so an ideal heralded single photon gives exactly zero (no herald
    ever sees both halves).
    """
    window_ps = int(window_ps)
    if window_ps <= 0:
        raise ValueError("window must be positive")
    n_h, first, last = _windows(stream, herald_ch, (ch_a, ch_b),
                                -window_ps, window_ps + 1)[:3]
    if n_h == 0:
        raise AnalysisError("no heralds in stream")
    has_a = _partners(stream.channels == ch_a, first, last) > 0
    has_b = _partners(stream.channels == ch_b, first, last) > 0
    n_a, n_b, n_ab = (int(np.count_nonzero(x)) for x in (has_a, has_b, has_a & has_b))
    if n_a == 0 or n_b == 0:
        raise AnalysisError("a signal channel never fired inside the window")
    value = n_ab * n_h / (n_a * n_b)
    # dominant counting errors in quadrature; the triple count dominates
    rel = math.sqrt(1.0 / max(n_ab, 1) + 1.0 / n_a + 1.0 / n_b)
    error = (value if n_ab else n_h / (n_a * n_b)) * rel
    return HeraldedG2(value, error, n_h, n_a, n_b, n_ab)


def reconstruct_waveform(stream: TimeTagStream, herald_ch, signal_chs,
                         bin_width_ps: int, tau_min_ps: int,
                         tau_max_ps: int) -> CorrelationHistogram:
    """Histogram of signal arrivals relative to heralds (the TCSPC waveform)."""
    hist = coincidence_histogram(stream, herald_ch, signal_chs, bin_width_ps,
                                 tau_min_ps, tau_max_ps)
    if hist.counts.sum() == 0:
        log.warning("waveform reconstruction found no coincidences")
    return hist


def cosine_similarity(a, b) -> float:
    """Cosine similarity of two vectors of the same shape."""
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
