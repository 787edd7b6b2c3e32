"""Time-tag correlation analysis.

Every analysis counts the tag pairs, anchor a on one channel set and partner
b on a disjoint one, with t_b - t_a in a window [lo, hi) of integer ps; each
pair counts exactly once.  One primitive, _windows, serves them all on the
merged, time-ordered stream, with no per-channel copies, one BLOCK of stream
positions at a time.  A partner lies within reach = max(|lo|, |hi - 1|), so
the anchor's nearest tag of either set on that side does too: the gaps
between those tags drop the anchors with both neighbours farther (exact).
Each remaining anchor's window edges start from its own stream index: a walk
of up to WALK tags outward, where the mean tag spacing puts an edge that near,
then a binary search for the edges still moving.  _Rank turns the ranges into
partner counts, for indices in any order: the partners of the blocks before
an index, counted once up front, plus those before it in its block, one
popcount of the block's partner bits, packed 8 to a byte beside a count to
each byte's end, kept for the few blocks asked last.  Histograms expand a
block's (anchor, window tag) pairs BLOCK at a time.  Cost: O(n) over n tags
per sweep, plus O(k w) for the k anchors whose windows hold w = WALK tags or
fewer, O(k' log BLOCK) for the k' anchors whose windows hold more, and O(m)
for the m tags in histogram windows.  Memory: O(BLOCK) beyond the stream and
the result, a few MB at BLOCK = 2**16, whatever the window, and while
cauchy_schwarz counts g_ii, the 1 B per tag of labels of its software split.

Every binned result is a CorrelationHistogram, with int64 counts: the
herald-relative waveform (reconstruct_waveform) and the cross-correlation
behind C(tau) (cauchy_schwarz) alike.  coincidence_histogram is its one
constructor and bounds its bins (MAX_BINS) before allocating them, and the
pairs it expands (MAX_PAIRS), which bounds its time.

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
from functools import lru_cache

import numpy as np

from .errors import AnalysisError
from .model import (BLOCK, PS_PER_NS, AnalysisConfig, RngSpec, TimeTagStream, as_generator,
                    in_channels)

log = logging.getLogger(__name__)

MAX_BINS = 2**24  # 128 MiB of int64 counts
MAX_PAIRS = 2**24  # (anchor, window tag) pairs a histogram expands before it gives up
INT64_MAX = np.iinfo(np.int64).max


def _pairing(ch_a, ch_b) -> np.ndarray:
    """The channels of anchors and partners together; the two sets must be disjoint."""
    if np.intersect1d(ch_a, ch_b).size:
        raise AnalysisError("channel sets must be disjoint for pair counting")
    return np.union1d(ch_a, ch_b)


def _split(stream: TimeTagStream, channel: int, gen: np.random.Generator) -> TimeTagStream:
    """The stream as a 50:50 splitter onto detectors 0 and 1 sees channel: each of its
    tags draws a uniform from gen, in stream order a BLOCK at a time, and takes label 1
    at 0.5 or more, 0 below; every other tag takes label 2.  The times are shared."""
    labels = np.full(len(stream), 2, dtype=np.uint8)
    for start in range(0, len(stream), BLOCK):
        on = np.flatnonzero(stream.channels[start:start + BLOCK] == channel) + start
        labels[on] = gen.random(on.size) >= 0.5
    return TimeTagStream(stream.times_ps, labels, stream.duration_ps)


WALK = 4  # tags an edge search steps outward from its anchor before it searches
RECENT = 4  # blocks a _Rank keeps packed: the blocks of a block's window starts and ends


def _windows(stream: TimeTagStream, ch_a, pairing, lo: int, hi: int):
    """Per BLOCK of stream positions, the windows of the ch_a anchors that can pair.

    pairing holds the channels of anchors and partners.  Yields (n_a, n_b, first,
    last, t_a): the block's anchor and partner counts, and for each anchor with a
    pairing tag within reach (a block's last pairing tag counts as near), the stream
    index range [first, last) of the tags with t_a + lo <= t < t_a + hi.  Edges are
    clamped to [-top, top], top = min(T, int64 max), which holds every delay, and
    each range end, the tags at or before t_a + edge - 1, saturates.
    """
    top = min(stream.duration_ps, INT64_MAX)
    lo, hi = (min(max(x - 1, -top - 1), top) for x in (lo, hi))  # now inclusive edges
    reach = max(abs(lo + 1), abs(hi))
    t, previous = stream.times_ps, -reach - 1  # the last pairing tag's time before the block
    for start in range(0, t.size, BLOCK):
        chans = stream.channels[start:start + BLOCK]
        is_a, pair = in_channels(chans, ch_a), in_channels(chans, pairing)
        n_a, n_pair = np.count_nonzero(is_a), np.count_nonzero(pair)
        at = slice(None) if n_pair == pair.size else np.flatnonzero(pair)  # a view when all pair
        t_p = t[start:start + BLOCK][at]
        near = np.ones(t_p.size + 1, dtype=bool)  # near[k]: pairing tags k - 1 and k within reach
        near[0] = t_p.size > 0 and int(t_p[0]) - previous <= reach
        np.less_equal(np.diff(t_p), reach, out=near[1:-1])
        previous = int(t_p[-1]) if t_p.size else previous
        kept = np.flatnonzero(is_a[at] & (near[:-1] | near[1:]))  # faster than a mask
        p, t_a = start + (kept if n_pair == pair.size else at[kept]), t_p[kept]  # index, time
        first, last = _edge(t, p, t_a, lo), _edge(t, p, t_a, hi)
        del kept, p  # held through the yield, they would add to the histograms' peak
        yield int(n_a), int(n_pair - n_a), first, last, t_a


def _edge(t: np.ndarray, p: np.ndarray, t_a: np.ndarray, d: int) -> np.ndarray:
    """The count of tags at or before t_a + d, saturating, for the anchors at stream
    indices p: a walk of up to WALK tags from p, up for d >= 0 and down below, where
    the anchors' mean spacing puts the edge that near, then a binary search."""
    end = np.minimum(t_a, INT64_MAX - d) + d if d > 0 else t_a + d
    step = 1 if d >= 0 else -1
    nxt, moving = p + step, slice(None)  # the next tag out from each anchor
    if p.size and abs(d) * int(p[-1] - p[0]) < WALK * int(t_a[-1] - t_a[0]):
        short = np.less_equal if step > 0 else np.greater  # the next tag is before the edge
        for walked in range(WALK):  # off the stream, take repeats its end tag: on to the search
            out = np.flatnonzero(short(t.take(nxt[moving], mode="clip"), end[moving]))
            moving = moving[out] if walked else out
            nxt[moving] += step
    edge, ends = nxt + (step < 0), end[moving]
    if ends.size:  # the edges lie between those of the first and last
        r0, r1 = np.searchsorted(t, ends[[0, -1]], side="right")
        edge[moving] = np.searchsorted(t[r0:r1], ends, side="right") + r0
    return edge


class _Rank:
    """The count of channel tags below stream index q, for indices in any order."""

    def __init__(self, stream: TimeTagStream, channel):
        channels = stream.channels  # the cache below must not hold self, or it outlives a call
        counts = [np.count_nonzero(in_channels(channels[start:start + BLOCK], channel))
                  for start in range(0, len(stream), BLOCK)]
        self.before = np.cumsum([0, *counts], dtype=np.int64)  # one past the last block too

        def packed(b):  # block b, a bit a tag from each byte's low bit, then a zero byte
            on = in_channels(channels[b * BLOCK:(b + 1) * BLOCK], channel)
            bits = np.append(np.packbits(on, bitorder="little"), np.uint8(0))
            return bits, np.cumsum(np.bitwise_count(bits), dtype=np.int32)  # to each byte's end
        self.packed = lru_cache(RECENT)(packed)

    def __call__(self, q: np.ndarray) -> np.ndarray:
        blocks = q // BLOCK
        out = self.before[blocks]
        ends = [*(np.flatnonzero(blocks[1:] != blocks[:-1]) + 1).tolist(), q.size]
        for i, j in zip([0, *ends], ends if q.size else ()):  # runs of indices in one block
            b = int(blocks[i])
            bits, upto = self.packed(b)
            r = q[i:j] - b * BLOCK  # the tags through r's byte, less those from r on
            out[i:j] += upto[r >> 3] - np.bitwise_count(bits[r >> 3] >> (r & 7).astype(np.uint8))
        return out


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
    bin_width_ps, tau_min_ps, tau_max_ps = int(bin_width_ps), int(tau_min_ps), int(tau_max_ps)
    if bin_width_ps <= 0:
        raise ValueError("bin width must be positive")
    if (tau_max_ps - tau_min_ps) % bin_width_ps or tau_max_ps <= tau_min_ps:
        raise ValueError("window must span a positive whole number of bins")
    n_bins = (tau_max_ps - tau_min_ps) // bin_width_ps
    if n_bins > MAX_BINS:
        raise ValueError(f"histogram of {n_bins} bins exceeds the limit of {MAX_BINS}")
    pairing = _pairing(ch_a, ch_b)
    counts = np.zeros(n_bins, dtype=np.int64)
    n_a = n_b = n_pairs = 0
    for na, nb, first, last, t_a in _windows(stream, ch_a, pairing, tau_min_ps, tau_max_ps):
        n_a, n_b, lens = n_a + na, n_b + nb, last - first
        if n_pairs + lens.sum() <= MAX_PAIRS:  # past the limit only the count goes on
            _add_delays(counts, stream, ch_b, first, lens, t_a, tau_min_ps, bin_width_ps)
        n_pairs += int(lens.sum())
    if n_pairs > MAX_PAIRS:
        raise ValueError(f"histogram windows hold {n_pairs} tag pairs, "
                         f"above the limit of {MAX_PAIRS}")
    if n_a == 0 or n_b == 0:
        log.warning("empty channel in coincidence histogram (%s vs %s)", ch_a, ch_b)
    return CorrelationHistogram(bin_width_ps, tau_min_ps, counts, n_a, n_b, stream.duration_ps)


def _add_delays(counts, stream, ch_b, first, lens, t_a, tau_min_ps, bin_width_ps) -> None:
    """Bin the delays from t_a of the ch_b tags in windows [first, first + lens),
    laid end to end and expanded BLOCK tags at a time."""
    ends = np.cumsum(lens)
    starts = ends - lens
    for p0 in range(0, int(ends[-1]) if ends.size else 0, BLOCK):
        p1 = min(p0 + BLOCK, int(ends[-1]))
        w0, w1 = np.searchsorted(ends, p0, side="right"), np.searchsorted(starts, p1)
        piece = np.minimum(ends[w0:w1], p1) - np.maximum(starts[w0:w1], p0)
        idx = np.repeat(first[w0:w1] - starts[w0:w1], piece) + np.arange(p0, p1)
        keep = in_channels(stream.channels[idx], ch_b)
        delays = stream.times_ps[idx[keep]] - np.repeat(t_a[w0:w1], piece)[keep]
        np.add.at(counts, (delays - tau_min_ps) // bin_width_ps, 1)


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
    pairing = _pairing(ch_a, ch_b)
    window_ps = int(window_ps)
    if window_ps <= 0:
        raise ValueError("window must be positive")
    below = _Rank(stream, ch_b)
    n_a = n_b = pairs = 0
    for na, nb, first, last, _ in _windows(stream, ch_a, pairing, -window_ps, window_ps):
        n_a, n_b = n_a + na, n_b + nb
        pairs += int(below(last).sum() - below(first).sum())
    if n_a == 0 or n_b == 0:
        raise AnalysisError("zero-delay g2 undefined: empty channel")
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
    split = _split(stream, channel, as_generator(rng))
    on = split.channels < 2
    t, chans = stream.times_ps[on], split.channels[on]
    if t.size == 0:
        raise AnalysisError(f"channel {channel} is empty, nothing to split")
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
                   auto_window_ps: int = AnalysisConfig.cs_window_ps) -> CauchySchwarzResult:
    """Classical-bound curve from one three-channel stream.

    The cross-correlation is herald against both reemit detectors merged.
    g_ii(0) comes from a software split of the herald channel, the stream
    relabelled with the routing split_channel draws, g_rr(0) from the two
    reemit detectors, both over +-auto_window where the marginals are flat.
    Classical light obeys C <= 1; errors propagate in quadrature from the
    three factors.
    """
    hist = coincidence_histogram(stream, herald_ch, reemit_chs, bin_width_ps,
                                 tau_min_ps, tau_max_ps)
    g, g_err = normalize(hist)
    g_ii = auto_g2_zero(_split(stream, herald_ch, as_generator(rng)), 0, 1, auto_window_ps)
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
    pairing = _pairing(herald_ch, (ch_a, ch_b))
    below_a, below_b = _Rank(stream, ch_a), _Rank(stream, ch_b)
    n_h = n_a = n_b = n_ab = 0
    for n, _, first, last, _ in _windows(stream, herald_ch, pairing, -window_ps, window_ps + 1):
        has_a, has_b = (rank(first) < rank(last) for rank in (below_a, below_b))
        n_h += n
        n_a += int(np.count_nonzero(has_a))
        n_b += int(np.count_nonzero(has_b))
        n_ab += int(np.count_nonzero(has_a & has_b))
    if n_h == 0:
        raise AnalysisError("no heralds in stream")
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
