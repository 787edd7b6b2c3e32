"""Correlator tests against all-pairs brute-force oracles.

Every counting operation is checked for exact equality with nested-loop
reference implementations on small streams, then for statistical behavior
on Poisson and correlated synthetic data.
"""
import tracemalloc

import numpy as np
import pytest
from helpers import (
    SMALL_BLOCKS,
    assert_as_checked,
    at_each_block,
    searchsorted_histogram,
    searchsorted_pairs,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from spptag import AnalysisError, BiphotonAmplitude, RngSpec, Shape, TimeTagStream, correlator
from spptag.config import default_config
from spptag.correlator import (
    LOW_STATS_COUNTS,
    MAX_BINS,
    CorrelationHistogram,
    auto_g2_zero,
    cauchy_schwarz,
    coincidence_histogram,
    cosine_similarity,
    expected_waveform,
    heralded_g2_zero,
    normalize,
    reconstruct_waveform,
    split_channel,
)
from spptag.model import BLOCK, AnalysisConfig, evaluate_density, sample_delay
from spptag.optics import run_experiment
from spptag.source import poisson_times

SECOND = 10**12


def brute_histogram(t_a, t_b, bin_w, tmin, tmax):
    counts = np.zeros((tmax - tmin) // bin_w, dtype=np.int64)
    for a in t_a:
        for b in t_b:
            d = int(b) - int(a)
            if tmin <= d < tmax:
                counts[(d - tmin) // bin_w] += 1
    return counts


def brute_pairs_within(t_a, t_b, w):
    return sum(1 for a in t_a for b in t_b if -w <= int(b) - int(a) < w)


def brute_pairs_by_rows(t_a, t_b, w, rows=1024):
    """brute_pairs_within over every (a, b) pair, vectorized a block of anchors at a time."""
    total = 0
    for i in range(0, t_a.size, rows):
        d = t_b[None, :] - t_a[i:i + rows, None]
        total += int(np.count_nonzero((d >= -w) & (d < w)))
    return total


def brute_heralded_counts(h, t_a, t_b, w):
    n_a = n_b = n_ab = 0
    for x in h:
        a = any(x - w <= t <= x + w for t in t_a)
        b = any(x - w <= t <= x + w for t in t_b)
        n_a += a
        n_b += b
        n_ab += a and b
    return n_a, n_b, n_ab


def random_stream(rng_spec, n_per_channel=300, duration=10**9, channels=(0, 1, 2)):
    gen = rng_spec.generator()
    per = {}
    for ch in channels:
        t = np.sort((gen.random(n_per_channel) * duration).astype(np.int64))
        per[ch] = t
    return TimeTagStream.from_channel_times(per, duration)


class TestCoincidenceHistogram:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_brute_force(self, seed):
        s = random_stream(RngSpec(110, seed))
        hist = coincidence_histogram(s, 0, 1, 1000, -50_000, 50_000)
        expected = brute_histogram(s.channel_times(0), s.channel_times(1),
                                   1000, -50_000, 50_000)
        np.testing.assert_array_equal(hist.counts, expected)

    def test_merged_b_channels_match_brute_force(self):
        s = random_stream(RngSpec(111))
        hist = coincidence_histogram(s, 0, (1, 2), 2000, -40_000, 40_000)
        t_b = np.sort(np.concatenate([s.channel_times(1), s.channel_times(2)]))
        expected = brute_histogram(s.channel_times(0), t_b, 2000, -40_000, 40_000)
        np.testing.assert_array_equal(hist.counts, expected)

    def test_window_validation(self):
        s = random_stream(RngSpec(113))
        with pytest.raises(ValueError):
            coincidence_histogram(s, 0, 1, 1000, -500, 700)   # not whole bins
        with pytest.raises(ValueError):
            coincidence_histogram(s, 0, 1, 0, -1000, 1000)
        with pytest.raises(ValueError, match=f"{MAX_BINS + 1} bins"):
            coincidence_histogram(s, 0, 1, 1, 0, MAX_BINS + 1)
        # one bin spanning the stream: each of 5000 anchors pairs with all 10000 tags
        big = random_stream(RngSpec(114), n_per_channel=5000, channels=(0, 1))
        with pytest.raises(ValueError, match="50000000 tag pairs"):
            coincidence_histogram(big, 0, 1, 2 * 10**9, -10**9, 10**9)
        with pytest.raises(AnalysisError):
            coincidence_histogram(s, 0, (0, 1), 1000, -1000, 1000)

    def test_pair_limit_message_counts_every_window(self, monkeypatch):
        # windows wider than the stream: each of 300 anchors sees all 900 tags; with
        # small blocks the first blocks are expanded before the limit is passed
        s = random_stream(RngSpec(115))
        monkeypatch.setattr(correlator, "MAX_PAIRS", 1000)
        for _ in at_each_block(correlator):
            with pytest.raises(ValueError, match="270000 tag pairs, above the limit of 1000"):
                coincidence_histogram(s, 0, (1, 2), 4 * 10**9, -2 * 10**9, 2 * 10**9)

    def test_empty_channel_flagged_not_fatal(self):
        s = TimeTagStream([100, 200], [0, 0], 10**6)
        hist = coincidence_histogram(s, 0, 1, 100, -1000, 1000)
        assert hist.counts.sum() == 0 and hist.n_b == 0


class TestNormalize:
    def test_independent_poisson_is_unity(self):
        gen = RngSpec(120).generator()
        per = {ch: poisson_times(50_000.0, 0, SECOND, gen) for ch in (0, 1)}
        s = TimeTagStream.from_channel_times(per, SECOND)
        g, err = normalize(coincidence_histogram(s, 0, 1, 10_000, -500_000, 500_000))
        # ~25 pairs per bin, 2500 total: mean-of-bins sigma is ~0.02
        assert abs(g.mean() - 1.0) < 0.08
        assert np.all(np.abs(g - 1.0) < 6 * err)

    def test_peak_position_invariant_under_longer_observation(self):
        gen = RngSpec(121).generator()
        h = poisson_times(5000.0, 0, SECOND // 10, gen)
        amp = BiphotonAmplitude(Shape.DOUBLE_EXPONENTIAL, 50.0)
        sig = np.sort(h + np.rint(sample_delay(amp, gen, size=h.size) * 1000).astype(np.int64))
        sig = sig[(sig >= 0)]
        short = TimeTagStream.from_channel_times({0: h, 1: sig}, SECOND // 10)
        padded = TimeTagStream.from_channel_times({0: h, 1: sig}, SECOND)
        g_short, _ = normalize(coincidence_histogram(short, 0, 1, 1000, -200_000, 200_000))
        g_pad, _ = normalize(coincidence_histogram(padded, 0, 1, 1000, -200_000, 200_000))
        assert np.argmax(g_short) == np.argmax(g_pad)
        # appending empty observation time scales g up by the duration ratio
        ratio = g_pad[np.argmax(g_pad)] / g_short[np.argmax(g_short)]
        assert ratio == pytest.approx(10.0, rel=1e-9)

    def test_zero_rate_errors(self):
        s = TimeTagStream([100], [0], 10**6)
        hist = coincidence_histogram(s, 0, 1, 100, -1000, 1000)
        with pytest.raises(AnalysisError):
            normalize(hist)


class TestAutoG2:
    def test_pair_count_matches_brute_force(self):
        s = random_stream(RngSpec(130), n_per_channel=200)
        res = auto_g2_zero(s, 0, 1, 25_000)
        assert res.n_pairs == brute_pairs_within(s.channel_times(0),
                                                 s.channel_times(1), 25_000)

    def test_independent_poisson_near_unity(self):
        gen = RngSpec(131).generator()
        per = {ch: poisson_times(20_000.0, 0, SECOND, gen) for ch in (0, 1)}
        s = TimeTagStream.from_channel_times(per, SECOND)
        res = auto_g2_zero(s, 0, 1, 10_000_000)
        assert abs(res.value - 1.0) < 3.5 * res.error
        assert res.error < 0.05
        assert type(res.value) is float and type(res.error) is float

    @pytest.mark.parametrize("window_ps", [SECOND // 4, SECOND, 2**62])
    def test_independent_poisson_unity_for_any_window(self, window_ps):
        # uniform tags put n_a n_b (w/T)(2 - w/T) pairs in [-W, W), w = min(W, T);
        # 2W n_a n_b / T would read 0.875 at W = T/4
        gen = RngSpec(132).generator()
        per = {ch: poisson_times(20_000.0, 0, SECOND, gen) for ch in (0, 1)}
        s = TimeTagStream.from_channel_times(per, SECOND)
        assert abs(auto_g2_zero(s, 0, 1, window_ps).value - 1.0) < 0.02

    def test_empty_channel_raises(self):
        s = TimeTagStream([100], [0], 10**6)
        with pytest.raises(AnalysisError):
            auto_g2_zero(s, 0, 1, 1000)


class TestSplitChannel:
    def test_partition_preserves_tags(self):
        s = random_stream(RngSpec(140), n_per_channel=500, channels=(3,))
        halves = split_channel(s, 3, RngSpec(141))
        a = halves.channel_times(0)
        b = halves.channel_times(1)
        assert a.size + b.size == 500
        np.testing.assert_array_equal(np.sort(np.concatenate([a, b])),
                                      s.channel_times(3))
        assert abs(a.size - 250) < 4.5 * np.sqrt(125)

    def test_deterministic(self):
        s = random_stream(RngSpec(142), channels=(0,))
        h1 = split_channel(s, 0, RngSpec(143))
        h2 = split_channel(s, 0, RngSpec(143))
        assert h1 == h2


class TestHeraldedG2:
    def test_counts_match_brute_force(self):
        s = random_stream(RngSpec(150), n_per_channel=150)
        res = heralded_g2_zero(s, 0, 1, 2, window_ps=100_000)
        n_a, n_b, n_ab = brute_heralded_counts(
            s.channel_times(0), s.channel_times(1), s.channel_times(2), 100_000)
        assert (res.n_a, res.n_b, res.n_ab) == (n_a, n_b, n_ab)
        assert res.value == pytest.approx(n_ab * 150 / (n_a * n_b))

    def test_counts_match_window_search_across_blocks(self):
        # a long stream (150k heralds) against a per-channel window search
        s = random_stream(RngSpec(169), n_per_channel=150_000, duration=10**11)
        w = 300_000
        res = heralded_g2_zero(s, 0, 1, 2, window_ps=w)
        h = s.channel_times(0)

        def has(t):
            return np.searchsorted(t, h + w, side="right") > np.searchsorted(t, h - w)

        has_a, has_b = has(s.channel_times(1)), has(s.channel_times(2))
        assert 0 < has_a.sum() < h.size
        assert (res.n_a, res.n_b, res.n_ab) == (has_a.sum(), has_b.sum(), (has_a & has_b).sum())

    @pytest.mark.parametrize("edge", [1, -1], ids=["plus_w", "minus_w"])
    def test_tags_exactly_on_the_window_edge_count(self, edge):
        w, h = 1000, 1_000_000
        s = TimeTagStream.from_channel_times(
            {0: [h], 1: [h + edge * w], 2: [h + edge * w]}, 2 * h)
        res = heralded_g2_zero(s, 0, 1, 2, window_ps=w)
        assert (res.n_a, res.n_b, res.n_ab) == (1, 1, 1)

    @pytest.mark.parametrize("edge", [1, -1], ids=["plus_w", "minus_w"])
    def test_tags_one_ps_outside_the_window_do_not_count(self, edge):
        w, h = 1000, 1_000_000
        s = TimeTagStream.from_channel_times(
            {0: [h], 1: [h + edge * (w + 1)], 2: [h]}, 2 * h)
        with pytest.raises(AnalysisError):
            heralded_g2_zero(s, 0, 1, 2, window_ps=w)

    def test_ideal_heralded_photon_gives_zero(self):
        # one signal per herald, alternately routed: no window sees both
        n = 2000
        h = (np.arange(n, dtype=np.int64) + 1) * 1_000_000
        sig = h + 25_000
        per = {0: h, 1: sig[::2], 2: sig[1::2]}
        s = TimeTagStream.from_channel_times(per, h[-1] + 1_000_000)
        res = heralded_g2_zero(s, 0, 1, 2, window_ps=150_000)
        assert res.value == 0.0
        assert res.n_ab == 0 and res.n_a == n // 2

    def test_every_window_full_gives_unity(self):
        n = 500
        h = (np.arange(n, dtype=np.int64) + 1) * 1_000_000
        per = {0: h, 1: h + 10_000, 2: h - 10_000}
        s = TimeTagStream.from_channel_times(per, h[-1] + 1_000_000)
        res = heralded_g2_zero(s, 0, 1, 2, window_ps=50_000)
        assert res.value == 1.0

    def test_poisson_control_near_unity(self):
        # rates sized so ~40 heralds see both channels fire
        gen = RngSpec(151).generator()
        per = {0: poisson_times(5000.0, 0, 2 * SECOND, gen),
               1: poisson_times(200_000.0, 0, 2 * SECOND, gen),
               2: poisson_times(200_000.0, 0, 2 * SECOND, gen)}
        s = TimeTagStream.from_channel_times(per, 2 * SECOND)
        res = heralded_g2_zero(s, 0, 1, 2, window_ps=150_000)
        assert abs(res.value - 1.0) < 3.5 * res.error
        assert res.error < 0.35
        assert type(res.value) is float and type(res.error) is float

    def test_one_signal_channel_twice_raises(self):
        # a tag on a would count as a tag on both: g2 would read n_h / n_a
        s = random_stream(RngSpec(151), n_per_channel=150)
        with pytest.raises(AnalysisError, match="differ"):
            heralded_g2_zero(s, 0, 1, 1, window_ps=100_000)
        with pytest.raises(AnalysisError, match="differ"):
            heralded_g2_zero(s, 0, np.uint8(2), 2, window_ps=100_000)

    def test_no_heralds_raises(self):
        s = TimeTagStream([100], [1], 10**6)
        with pytest.raises(AnalysisError):
            heralded_g2_zero(s, 0, 1, 2, window_ps=1000)


class TestWindowsBeyondTheStream:
    """No delay exceeds the duration, so any wider window counts every pair,
    up to the largest int64 window."""

    @pytest.mark.parametrize("w", [2**63 - 2, 2**63 - 1])
    def test_same_counts_as_a_window_of_2_pow_62(self, w):
        s = random_stream(RngSpec(152), n_per_channel=50)
        wide = heralded_g2_zero(s, 0, 1, 2, window_ps=2**62)
        res = heralded_g2_zero(s, 0, 1, 2, window_ps=w)
        assert (res.n_heralds, res.n_a, res.n_b, res.n_ab) == (
            wide.n_heralds, wide.n_a, wide.n_b, wide.n_ab) == (50, 50, 50, 50)
        assert auto_g2_zero(s, 0, 1, w).n_pairs == auto_g2_zero(s, 0, 1, 2**62).n_pairs == 2500

    @pytest.mark.parametrize("duration", [2**63 - 1, 2**64 - 1], ids=["T_2pow63", "T_2pow64"])
    @pytest.mark.parametrize("w", [2**62, 2**63 - 2, 2**63 - 1],
                             ids=["w_2pow62", "w_2pow63_less_2", "w_2pow63_less_1"])
    def test_windows_near_the_int64_top_count_exactly(self, duration, w):
        # anchor + window passes int64 max: the window end must saturate, not wrap
        s = TimeTagStream([0, 10, 20, 2**62 - 1, 2**63 - 2, 2**63 - 1], [0, 1, 2, 0, 1, 2],
                          duration)
        h, t_a, t_b = (s.channel_times(ch).tolist() for ch in (0, 1, 2))
        res = heralded_g2_zero(s, 0, 1, 2, window_ps=w)
        assert (res.n_a, res.n_b, res.n_ab) == brute_heralded_counts(h, t_a, t_b, w)
        cs = cauchy_schwarz(s, 0, (1, 2), 10, -50, 50, RngSpec(1), auto_window_ps=w)
        assert cs.g_rr0.n_pairs == brute_pairs_within(t_a, t_b, w)
        halves = split_channel(s, 0, RngSpec(1))
        assert cs.g_ii0.n_pairs == brute_pairs_within(
            halves.channel_times(0).tolist(), halves.channel_times(1).tolist(), w) == 1
        lo = w - 20
        hist = coincidence_histogram(s, 0, (1, 2), 10, lo, lo + 20)
        np.testing.assert_array_equal(hist.counts, brute_histogram(h, t_a + t_b, 10, lo, lo + 20))


class TestCauchySchwarz:
    def _correlated_stream(self, seed, duration=SECOND):
        gen = RngSpec(seed).generator()
        h = poisson_times(2000.0, 0, duration, gen)
        amp = BiphotonAmplitude(Shape.DOUBLE_EXPONENTIAL, 50.0)
        delays = np.rint(sample_delay(amp, gen, size=h.size) * 1000).astype(np.int64)
        sig = h + delays
        ok = (sig >= 0) & (sig <= duration)
        sig = sig[ok]
        route = gen.random(sig.size) < 0.5
        per = {0: h,
               1: np.sort(sig[route]),
               2: np.sort(sig[~route])}
        return TimeTagStream.from_channel_times(per, duration)

    def test_violation_on_pair_source(self):
        # background-free stream: the 5 sigma margin needs a wide auto window
        s = self._correlated_stream(160, duration=5 * SECOND)
        res = cauchy_schwarz(s, 0, (1, 2), 1000, -400_000, 400_000, RngSpec(161),
                             auto_window_ps=50_000_000)
        peak = np.argmax(res.c_values)
        assert abs(res.tau_ns[peak]) < 10.0
        assert res.c_values[peak] > 1 + 5 * res.c_errors[peak]
        # far tails are classical-compatible on aggregate
        tail = np.abs(res.tau_ns) > 200.0
        assert np.isfinite(res.c_values[tail]).all()
        hist = coincidence_histogram(s, 0, (1, 2), 1000, -400_000, 400_000)
        np.testing.assert_array_equal(res.tau_ns, hist.centers_ns())
        np.testing.assert_array_equal(res.low_stats, hist.counts < LOW_STATS_COUNTS)
        assert res.low_stats.any() and not res.low_stats.all()

    def test_autocorrelations_near_unity(self):
        s = self._correlated_stream(162)
        res = cauchy_schwarz(s, 0, (1, 2), 1000, -400_000, 400_000, RngSpec(163))
        assert abs(res.g_ii0.value - 1.0) < 4 * res.g_ii0.error
        assert abs(res.g_rr0.value - 1.0) < 4 * res.g_rr0.error

    def test_routing_draws_as_split_channel_draws(self):
        # a live generator leaves cauchy_schwarz where split_channel leaves it
        s = self._correlated_stream(168, duration=SECOND // 10)
        gen, same = RngSpec(169).generator(), RngSpec(169).generator()
        res = cauchy_schwarz(s, 0, (1, 2), 2000, -20_000, 20_000, gen)
        assert res.g_ii0 == auto_g2_zero(split_channel(s, 0, same), 0, 1, 10_000_000)
        assert gen.random() == same.random()

    def test_deterministic_given_rng(self):
        s = self._correlated_stream(164)
        r1 = cauchy_schwarz(s, 0, (1, 2), 2000, -200_000, 200_000, RngSpec(165))
        r2 = cauchy_schwarz(s, 0, (1, 2), 2000, -200_000, 200_000, RngSpec(165))
        np.testing.assert_array_equal(r1.c_values, r2.c_values)

    def test_classical_poisson_respects_bound(self):
        # independent coherent-state stand-in: C <= 1 within 5 sigma everywhere
        for seed in range(20):
            gen = RngSpec(166, seed).generator()
            per = {ch: poisson_times(100_000.0, 0, SECOND, gen) for ch in (0, 1, 2)}
            s = TimeTagStream.from_channel_times(per, SECOND)
            res = cauchy_schwarz(s, 0, (1, 2), 1000, -100_000, 100_000, RngSpec(167, seed))
            peak = np.argmax(res.c_values)
            assert res.c_values[peak] <= 1.0 + 5.0 * res.c_errors[peak]


@st.composite
def tie_streams(draw, span=120):
    """Small streams on channels 0-3 over span ps: many equal times, often an
    empty channel, and many tag pairs exactly a window edge apart."""
    n = draw(st.integers(0, 40))
    times = sorted(draw(st.lists(st.integers(0, span), min_size=n, max_size=n)))
    chans = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return TimeTagStream(times, chans, 200)


# tie streams, and dense ones over 8 ps, where a window a few ps wide holds more tags than
# a walk covers
STREAMS = tie_streams() | tie_streams(span=8)
# half widths from one tag wide (ties are 0 ps apart) to beyond the 200 ps streams
WIDTHS = st.integers(1, 40) | st.integers(41, 250)


@st.composite
def windows(draw):
    """(bin, lo, hi) with hi - lo a whole number of bins: around 0, wholly after
    the anchor (lo > 0) or wholly before it (hi <= 0)."""
    bin_w, n_bins = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    span = bin_w * n_bins
    lo = draw(st.integers(-60, 60) | st.integers(1, 60) | st.integers(-60 - span, -span))
    return bin_w, lo, lo + span


WALKS = (0, 1)  # besides correlator.WALK


def at_each_block_and_walk():
    """at_each_block, then at block sizes 7 and BLOCK each walk length of WALKS:
    at 0 the search finds every window edge, at 1 a one-tag walk hands most
    of the edges it starts on to the search."""
    yield from at_each_block(correlator)
    for walk in WALKS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(correlator, "WALK", walk)
            yield from at_each_block(correlator, (7, BLOCK))


class TestPropertiesAgainstBruteForce:
    """Each property holds at every block size and walk length: at the small
    blocks a stream crosses many block edges, and windows from one tag wide
    to wider than the whole stream reach across many blocks."""

    @settings(max_examples=150, deadline=None)
    @given(s=STREAMS, win=windows(), merged=st.booleans())
    def test_histogram(self, s, win, merged):
        bin_w, lo, hi = win
        ch_b = (1, 2) if merged else 1
        expected = brute_histogram(s.channel_times(0), s.channel_times(ch_b), bin_w, lo, hi)
        for _ in at_each_block_and_walk():
            hist = coincidence_histogram(s, 0, ch_b, bin_w, lo, hi)
            np.testing.assert_array_equal(hist.counts, expected)
            assert (hist.n_a, hist.n_b) == (s.count(0), s.count(ch_b))

    @settings(max_examples=150, deadline=None)
    @given(s=STREAMS, w=WIDTHS)
    def test_auto_g2_pairs(self, s, w):
        t_a, t_b = s.channel_times(1), s.channel_times(2)
        for _ in at_each_block_and_walk():
            if t_a.size == 0 or t_b.size == 0:
                with pytest.raises(AnalysisError):
                    auto_g2_zero(s, 1, 2, w)
            else:
                assert auto_g2_zero(s, 1, 2, w).n_pairs == brute_pairs_within(t_a, t_b, w)

    @settings(max_examples=150, deadline=None)
    @given(s=STREAMS, w=WIDTHS)
    def test_heralded_counts(self, s, w):
        h, t_a, t_b = (s.channel_times(ch) for ch in (0, 1, 2))
        n_a, n_b, n_ab = brute_heralded_counts(h, t_a, t_b, w)
        for _ in at_each_block_and_walk():
            if h.size == 0 or n_a == 0 or n_b == 0:
                with pytest.raises(AnalysisError):
                    heralded_g2_zero(s, 0, 1, 2, window_ps=w)
            else:
                res = heralded_g2_zero(s, 0, 1, 2, window_ps=w)
                assert (res.n_heralds, res.n_a, res.n_b, res.n_ab) == (h.size, n_a, n_b, n_ab)

    @settings(max_examples=150, deadline=None)
    @given(s=STREAMS, channel=st.sampled_from([0, 3, (1, 2)]), data=st.data())
    def test_rank_in_any_order(self, s, channel, data):
        q = np.array(data.draw(st.permutations(range(len(s) + 1))), dtype=np.int64)
        on = np.isin(s.channels, channel)
        expected = [int(np.count_nonzero(on[:k])) for k in q]
        # blocks of 9 and 17 tags end partway through a byte of packed bits
        for _ in at_each_block(correlator, SMALL_BLOCKS + (9, 17, BLOCK)):
            rank = correlator._Rank(s, channel)
            assert rank(q).tolist() == expected  # one call, the indices shuffled
            assert [int(rank(q[i:i + 1])[0]) for i in range(q.size)] == expected

    @settings(max_examples=150, deadline=None)
    @given(s=tie_streams(), w=WIDTHS, seed=st.integers(0, 2**32))
    def test_split_and_cauchy_schwarz_pairs(self, s, w, seed):
        h = s.channel_times(0)
        to_a = RngSpec(seed).generator().random(h.size) < 0.5
        g_ii = brute_pairs_within(h[to_a], h[~to_a], w)
        g_rr = brute_pairs_within(s.channel_times(1), s.channel_times(2), w)
        for _ in at_each_block(correlator):
            if h.size:
                # the same stream from_channel_times builds: ties go in channel order
                assert split_channel(s, 0, RngSpec(seed)) == TimeTagStream.from_channel_times(
                    {0: h[to_a], 1: h[~to_a]}, s.duration_ps)
            try:
                res = cauchy_schwarz(s, 0, (1, 2), 10, -50, 50, RngSpec(seed),
                                     auto_window_ps=w)
            except AnalysisError:
                assert 0 in (to_a.sum(), (~to_a).sum(), s.count(1), s.count(2), g_ii, g_rr)
                continue
            assert (res.g_ii0.n_pairs, res.g_rr0.n_pairs) == (g_ii, g_rr)
            # g_ii counted in place equals auto_g2_zero of the split stream
            assert res.g_ii0 == auto_g2_zero(split_channel(s, 0, RngSpec(seed)), 0, 1, w)


class TestPartnerCounts:
    """Windows of DIRECT tags or fewer are counted straight from the channels, longer ones
    by _Rank; both must give _Rank's counts, and no _Rank is built without a long window."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(s=STREAMS, data=st.data())
    def test_direct_counts_match_rank(self, s, data):
        n = len(s)
        k = data.draw(st.integers(0, 30))
        first = np.array(data.draw(st.lists(st.integers(0, n), min_size=k, max_size=k)),
                         dtype=np.int64)
        lens = np.array(data.draw(st.lists(st.integers(0, 6), min_size=k, max_size=k)),
                        dtype=np.int64)
        last = np.minimum(first + lens, n)
        longest = int((last - first).max()) if k else 0
        for direct in (0, 1, 4):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(correlator, "DIRECT", direct)
                for _ in at_each_block(correlator, (7, BLOCK)):
                    partners = correlator._lazy_ranks(s, 1, (0, 2))
                    counts = correlator._partner_counts(s, first, last, partners)
                    for (channel, rank), got in zip(partners, counts):
                        assert (rank.cache_info().currsize > 0) == (longest > direct)
                        below = correlator._Rank(s, channel)
                        assert got.tolist() == (below(last) - below(first)).tolist()

    @pytest.mark.parametrize("direct", [0, 1])
    def test_g2_counts_at_desk_density(self, direct):
        # a 20 s run of the default bench: heralded windows of 150 ns hold a few tags,
        # auto windows of 10 us some more; DIRECT 0 counts every block by _Rank
        s = run_experiment(default_config().experiment, 20 * SECOND, RngSpec(511))
        expected = (heralded_g2_zero(s, 0, 1, 2, 150_000), auto_g2_zero(s, 1, 2, 10_000_000))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(correlator, "DIRECT", direct)
            assert (heralded_g2_zero(s, 0, 1, 2, 150_000),
                    auto_g2_zero(s, 1, 2, 10_000_000)) == expected


class TestRankFreeAtTheCsWindow:
    """At desk density the auto windows of cs_window_ps hold 5-6 tags at most, more than
    WALK but not more than DIRECT: g_rr and the split's g_ii count every block straight
    from the channels and build no _Rank."""

    def test_no_rank_built_and_counts_match_brute_force(self, monkeypatch):
        s = run_experiment(default_config().experiment, 5 * SECOND, RngSpec(513))
        w, built, init = AnalysisConfig().cs_window_ps, [], correlator._Rank.__init__

        def spy(rank, stream, channel):
            built.append(channel)
            init(rank, stream, channel)
        monkeypatch.setattr(correlator._Rank, "__init__", spy)
        g_rr = auto_g2_zero(s, 1, 2, w)
        res = cauchy_schwarz(s, 0, (1, 2), 1000, -25_000, 25_000, RngSpec(5), auto_window_ps=w)
        assert built == []
        h = s.channel_times(0)
        to_a = RngSpec(5).generator().random(h.size) < 0.5  # the split's draws, label 0 below 0.5
        assert g_rr == res.g_rr0
        assert g_rr.n_pairs == brute_pairs_by_rows(s.channel_times(1), s.channel_times(2), w)
        assert res.g_ii0.n_pairs == brute_pairs_by_rows(h[to_a], h[~to_a], w)


class TestRelabelledStreamsAreChecked:
    """_split and split_channel build their streams without the constructor's scan of the
    times; each equals the stream the checking constructor builds from the same arrays."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(s=tie_streams(), channel=st.integers(0, 4), seed=st.integers(0, 2**32))
    def test_split_streams(self, s, channel, seed):
        for _ in at_each_block(correlator):
            assert_as_checked(correlator._split(s, channel, RngSpec(seed).generator()))
            if s.count(channel):
                assert_as_checked(split_channel(s, channel, RngSpec(seed)))
            else:
                with pytest.raises(AnalysisError):
                    split_channel(s, channel, RngSpec(seed))


class TestAgainstPerChannelSearchAtDeskDensity:
    """A 40 s desk-bench stream (151k tags, three real blocks) against binary
    searches in each channel's own times: windows from 1 ns, where most hold
    only their anchor, to 1 ms, where many hold more tags than a walk covers."""

    @pytest.fixture(scope="class")
    def stream(self):
        run = default_config()
        s = run_experiment(run.experiment, duration_ps=40 * SECOND, rng=RngSpec(172, 0))
        assert len(s) > 2 * BLOCK
        return s

    @pytest.mark.parametrize("w", [1000, 150_000, 10_000_000, 300_000_000, 1_000_000_000],
                             ids=["1ns", "150ns", "10us", "300us", "1ms"])
    def test_counts(self, stream, w):
        h, t_a, t_b = (stream.channel_times(ch) for ch in (0, 1, 2))
        if w >= 300_000_000:  # some windows reach past a walk: a search finds their edges
            assert searchsorted_pairs(h, stream.times_ps, 1, w + 1).max() > correlator.WALK
        has_a, has_b = (searchsorted_pairs(h, t, -w, w + 1) > 0 for t in (t_a, t_b))
        res = heralded_g2_zero(stream, 0, 1, 2, window_ps=w)
        assert (res.n_a, res.n_b, res.n_ab) == (has_a.sum(), has_b.sum(), (has_a & has_b).sum())
        assert auto_g2_zero(stream, 1, 2, w).n_pairs == searchsorted_pairs(t_a, t_b, -w, w).sum()
        bin_w = w // 10
        t_ab = np.sort(np.concatenate((t_a, t_b)))
        hist = coincidence_histogram(stream, 0, (1, 2), bin_w, -5 * bin_w, 15 * bin_w)
        np.testing.assert_array_equal(
            hist.counts, searchsorted_histogram(h, t_ab, bin_w, -5 * bin_w, 15 * bin_w))
        assert hist.counts.sum() > 0


class TestWaveform:
    def test_matches_brute_force(self):
        s = random_stream(RngSpec(170), n_per_channel=200)
        w = reconstruct_waveform(s, 0, 1, 1000, -50_000, 50_000)
        expected = brute_histogram(s.channel_times(0), s.channel_times(1),
                                   1000, -50_000, 50_000)
        assert isinstance(w, CorrelationHistogram)
        np.testing.assert_array_equal(w.counts, expected)
        assert w.bin_width_ps == 1000 and w.tau_min_ps == -50_000
        np.testing.assert_array_equal(w.centers_ns(), np.arange(-49.5, 50.0))

    def test_empty_gives_zeros(self):
        s = TimeTagStream([100, 5000], [0, 0], 10**6)
        w = reconstruct_waveform(s, 0, 1, 1000, -10_000, 10_000)
        np.testing.assert_array_equal(w.counts, np.zeros(20, dtype=np.int64))

    def test_shape_recovery(self):
        gen = RngSpec(171).generator()
        h = poisson_times(2000.0, 0, 20 * SECOND, gen)
        amp = BiphotonAmplitude(Shape.DOUBLE_EXPONENTIAL, 50.0)
        sig = h + np.rint(sample_delay(amp, gen, size=h.size) * 1000).astype(np.int64)
        ok = (sig >= 0) & (sig <= 20 * SECOND)
        s = TimeTagStream.from_channel_times({0: h, 1: np.sort(sig[ok])}, 20 * SECOND)
        w = reconstruct_waveform(s, 0, 1, 1000, -150_000, 150_000)
        template = expected_waveform(lambda t: evaluate_density(amp, t),
                                     -150.0, 1.0, 300)
        # 40k coincidences: shape noise caps similarity around 0.998
        assert cosine_similarity(w.counts, template) > 0.995


class TestMemory:
    """The analyses hold no per-tag temporaries: each works through the
    stream and the (anchor, window tag) pairs in blocks, and peaks at a
    fixed few MB above what it was given, however long the stream and wide
    the window."""

    LIMIT = 6_000_000  # bytes; the stream below is 10.1 MB

    @pytest.fixture(scope="class")
    def stream(self):
        # desk-bench rates over 300 s (1.13M tags): 2 kHz heralds, one in
        # five followed by a signal on one of two detectors, and 660 Hz of
        # background on each
        gen = RngSpec(170).generator()
        duration = 300 * SECOND
        h = poisson_times(2000.0, 0, duration, gen)
        amp = BiphotonAmplitude(Shape.DOUBLE_EXPONENTIAL, 50.0)
        sig = h[gen.random(h.size) < 0.22]
        sig = sig + np.rint(sample_delay(amp, gen, size=sig.size) * 1000).astype(np.int64)
        sig = sig[(sig >= 0) & (sig <= duration)]
        route = gen.random(sig.size) < 0.5
        per = {0: h}
        for ch, mine in ((1, route), (2, ~route)):
            per[ch] = np.sort(np.concatenate(
                [sig[mine], poisson_times(660.0, 0, duration, gen)]))
        return TimeTagStream.from_channel_times(per, duration)

    @pytest.mark.parametrize("analysis", [
        lambda s: heralded_g2_zero(s, 0, 1, 2, window_ps=150_000),
        lambda s: cauchy_schwarz(s, 0, (1, 2), 1000, -25_000, 25_000, RngSpec(171)),
        lambda s: reconstruct_waveform(s, 0, (1, 2), 1000, -25_000, 75_000),
        # 0.9M window tags: expanded whole, they took 30 B each
        lambda s: reconstruct_waveform(s, 0, (1, 2), 1000, -100_000_000, 100_000_000),
    ], ids=["heralded_g2", "cauchy_schwarz", "waveform", "waveform_100us"])
    def test_peak_at_most_the_stream(self, stream, analysis):
        assert len(stream) >= 1_000_000
        analysis(stream)  # first calls import and cache; only the second is measured
        tracemalloc.start()
        try:
            analysis(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.LIMIT


class TestCosineSimilarity:
    def test_identical_and_scaled(self):
        assert cosine_similarity([1, 2, 3], np.array([2.0, 4.0, 6.0])) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_zero_vector(self):
        with pytest.raises(AnalysisError):
            cosine_similarity([0.0, 0.0], [1.0, 1.0])


class TestExpectedWaveform:
    def test_bin_average_matches_quadrature(self):
        from scipy import integrate
        amp = BiphotonAmplitude(Shape.DOUBLE_EXPONENTIAL, 50.0)
        tpl = expected_waveform(lambda t: evaluate_density(amp, t), -10.0, 5.0, 4)
        for k in range(4):
            lo = -10.0 + 5.0 * k
            val, _ = integrate.quad(lambda t: evaluate_density(amp, t), lo, lo + 5.0,
                                    points=[0.0] if lo < 0 < lo + 5 else None)
            assert tpl[k] == pytest.approx(val / 5.0, rel=1e-4)
