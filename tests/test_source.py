"""Pair-source generation tests.

Oracles: exponential-gap KS against the analytic CDF, Laplace-delay KS, and
a brute-force nearest-neighbor check for background trigger references,
also across the slices of a streamed run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from spptag import BiphotonAmplitude, RngSpec, Shape
from spptag.source import (
    PairEvents,
    PairKind,
    SourceConfig,
    generate_pairs,
    herald_references,
    poisson_times,
    segment_edges,
    stream_pairs,
)

AMP = BiphotonAmplitude(Shape.DOUBLE_EXPONENTIAL, 50.0)
SECOND = 10**12


def _cfg(**kw):
    base = dict(pair_rate=2000.0, amplitude=AMP)
    base.update(kw)
    return SourceConfig(**base)


def _whole_run(config, duration_ps, rng, segments=None) -> PairEvents:
    return PairEvents.concatenate(stream_pairs(config, duration_ps, rng, segments))


class TestPoissonTimes:
    def test_gap_distribution(self):
        gen = RngSpec(31, 0).generator()
        t = poisson_times(2000.0, 0, 10 * SECOND, gen)
        gaps_s = np.diff(t) * 1e-12
        res = stats.kstest(gaps_s, stats.expon(scale=1 / 2000.0).cdf)
        assert res.pvalue > 0.01

    def test_count_matches_rate(self):
        gen = RngSpec(32, 0).generator()
        t = poisson_times(2000.0, 0, 10 * SECOND, gen)
        n = t.size
        assert abs(n - 20000) < 4.5 * np.sqrt(20000)

    def test_bounds_and_order(self):
        gen = RngSpec(33, 0).generator()
        t = poisson_times(5e5, 2 * SECOND, 3 * SECOND, gen)
        assert t[0] >= 2 * SECOND and t[-1] < 3 * SECOND
        assert np.all(np.diff(t) >= 0)

    def test_zero_rate(self):
        gen = RngSpec(34, 0).generator()
        assert poisson_times(0.0, 0, SECOND, gen).size == 0

    @pytest.mark.parametrize("t0", [10**15, 10**17])
    def test_late_window_is_an_exact_shift(self, t0):
        span = 10 * SECOND
        late = poisson_times(5e4, t0, t0 + span, RngSpec(35).generator())
        early = poisson_times(5e4, 0, span, RngSpec(35).generator())
        np.testing.assert_array_equal(late - t0, early)


class TestSegmentEdges:
    @pytest.mark.parametrize("duration", [12345678901234567, 2**63 - 1])
    def test_last_edge_is_the_duration_exactly(self, duration):
        # float64 rounds both durations up; 2**63 - 1 to 2**63, which int64 cannot hold
        edges = segment_edges(duration)
        assert edges.dtype == np.int64 and edges[0] == 0 and edges[-1] == duration
        assert edges.size == -(-duration // (100 * SECOND)) + 1
        assert np.all(np.diff(edges) > 0)


class TestGeneratePairs:
    def test_rate_sanity(self):
        ev = _whole_run(_cfg(), 10 * SECOND, RngSpec(41))
        n_true = ev.count_kind(PairKind.TRUE_PAIR)
        assert abs(n_true - 20000) < 4.5 * np.sqrt(20000)

    def test_delay_distribution(self):
        ev = _whole_run(_cfg(), 30 * SECOND, RngSpec(42))
        mask = ev.kind == PairKind.TRUE_PAIR
        delays_ns = (ev.signal_ps[mask] - ev.idler_ps[mask]) / 1000.0
        t0 = AMP.tau0_ns
        cdf = lambda x: np.where(x < 0, 0.5 * np.exp(x / t0), 1 - 0.5 * np.exp(-x / t0))
        res = stats.kstest(delays_ns, cdf)
        assert res.pvalue > 0.01

    def test_multipair_fraction(self):
        q = 0.01
        ev = _whole_run(_cfg(multipair_prob=q), 50 * SECOND, RngSpec(43))
        n_true = ev.count_kind(PairKind.TRUE_PAIR)
        n_extra = ev.count_kind(PairKind.MULTIPAIR_EXTRA)
        expected = q * n_true
        assert abs(n_extra - expected) < 4.5 * np.sqrt(expected)

    def test_background_rates(self):
        ev = _whole_run(_cfg(background_rate_signal=500.0, background_rate_idler=300.0),
                        10 * SECOND, RngSpec(44))
        nb_s = ev.count_kind(PairKind.BACKGROUND_SIGNAL)
        nb_i = ev.count_kind(PairKind.BACKGROUND_IDLER)
        assert abs(nb_s - 5000) < 4.5 * np.sqrt(5000)
        assert abs(nb_i - 3000) < 4.5 * np.sqrt(3000)

    def test_true_pairs_in_idler_order(self):
        ev = _whole_run(_cfg(multipair_prob=0.02, background_rate_signal=1000.0),
                        2 * SECOND, RngSpec(45), segments=2)
        idlers = ev.idler_ps[ev.kind == PairKind.TRUE_PAIR]
        assert np.all(np.diff(idlers) >= 0)

    def test_kinds_in_draw_order_within_each_slice(self):
        # the optics chain finds the signal arm and its background by position
        cfg = _cfg(multipair_prob=0.05, background_rate_signal=800.0,
                   background_rate_idler=300.0)
        for ev in stream_pairs(cfg, 3 * SECOND, RngSpec(50), segments=3):
            assert set(np.unique(ev.kind)) == set(PairKind)
            assert np.all(np.diff(ev.kind.astype(int)) >= 0)

    def test_times_within_observation(self):
        ev = _whole_run(_cfg(), 1 * SECOND, RngSpec(46))
        assert ev.idler_ps.min() >= 0 and ev.idler_ps.max() <= SECOND
        assert ev.signal_ps.min() >= 0 and ev.signal_ps.max() <= SECOND

    def test_determinism(self):
        a = _whole_run(_cfg(multipair_prob=0.01, background_rate_signal=100.0),
                       SECOND, RngSpec(47, 5))
        b = _whole_run(_cfg(multipair_prob=0.01, background_rate_signal=100.0),
                       SECOND, RngSpec(47, 5))
        assert a == b
        c = _whole_run(_cfg(multipair_prob=0.01, background_rate_signal=100.0),
                       SECOND, RngSpec(47, 6))
        assert a != c

    def test_partition_matches_manual_concatenation(self):
        cfg = _cfg(multipair_prob=0.02, background_rate_signal=800.0,
                   background_rate_idler=200.0)
        rng = RngSpec(48, 9)
        combined = _whole_run(cfg, 3 * SECOND, rng, segments=3)
        manual = PairEvents.concatenate(
            generate_pairs(cfg, 3 * SECOND, rng, segments=3, segment=k) for k in range(3))
        bg = manual.kind == PairKind.BACKGROUND_SIGNAL
        manual.idler_ps[bg] = herald_references(manual.signal_ps[bg],
                                                np.sort(manual.idler_arm_times()))
        assert bg.any() and combined == manual

    def test_empty_source(self):
        ev = _whole_run(_cfg(pair_rate=0.0), SECOND, RngSpec(49))
        assert len(ev) == 0


class TestBackgroundReferences:
    def test_nearest_idler_arm_emission(self):
        cfg = _cfg(pair_rate=100.0, background_rate_signal=200.0,
                   background_rate_idler=50.0)
        ev = _whole_run(cfg, SECOND, RngSpec(51))
        arm = np.sort(ev.idler_arm_times())
        mask = ev.kind == PairKind.BACKGROUND_SIGNAL
        for t, ref in zip(ev.signal_ps[mask], ev.idler_ps[mask]):
            best = arm[np.argmin(np.abs(arm - t))]
            assert abs(ref - t) == abs(best - t)

    @pytest.mark.parametrize("rates, duration, segments", [
        ((50_000.0, 20_000.0, 5_000.0), SECOND // 20, 3),
        # slices without heralds: references reach past the next slice
        ((2.0, 100.0, 0.0), 3 * SECOND, 12),
    ])
    def test_nearest_over_the_whole_run_across_slices(self, rates, duration, segments):
        pair_rate, bg_signal, bg_idler = rates
        cfg = _cfg(pair_rate=pair_rate, multipair_prob=0.05,
                   background_rate_signal=bg_signal, background_rate_idler=bg_idler)
        ev = _whole_run(cfg, duration, RngSpec(53), segments=segments)
        arm = np.sort(ev.idler_arm_times())
        mask = ev.kind == PairKind.BACKGROUND_SIGNAL
        bg, refs = ev.signal_ps[mask], ev.idler_ps[mask]
        assert arm.size and bg.size < 5000 and arm.size < 5000
        # brute force: full distance matrix, earliest herald on a tie
        dist = np.abs(arm[None, :] - bg[:, None])
        np.testing.assert_array_equal(refs, arm[np.argmin(dist, axis=1)])

    def test_no_heralds_gives_zero_reference(self):
        cfg = _cfg(pair_rate=0.0, background_rate_signal=100.0)
        ev = _whole_run(cfg, SECOND, RngSpec(52))
        mask = ev.kind == PairKind.BACKGROUND_SIGNAL
        assert mask.all()
        assert np.all(ev.idler_ps[mask] == 0)


def _references_by_one_search(times, heralds):
    """herald_references as one np.searchsorted of every time and an np.where."""
    if heralds.size == 0:
        return np.zeros(times.size, dtype=np.int64)
    at = np.searchsorted(heralds, times)
    right, left = heralds.take(at, mode="clip"), heralds.take(at - 1, mode="clip")
    return np.where(right - times < times - left, right, left)


class TestHeraldReferences:
    # times from before the first herald to after the last, many equal to a herald or
    # to each other, and no heralds at all
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(heralds=st.lists(st.integers(0, 200), max_size=30).map(sorted),
           times=st.lists(st.integers(-20, 220), max_size=60).map(sorted))
    def test_matches_one_search(self, heralds, times):
        heralds, times = (np.array(x, dtype=np.int64) for x in (heralds, times))
        got = herald_references(times, heralds)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _references_by_one_search(times, heralds))

    def test_desk_sized_slice(self):
        gen = RngSpec(55).generator()
        # about the heralds and signal background of a 100 s desk slice and its look-ahead
        heralds = poisson_times(2e6, 0, SECOND // 5, gen)
        times = poisson_times(2.25e6, 0, SECOND // 10, gen)
        np.testing.assert_array_equal(herald_references(times, heralds),
                                      _references_by_one_search(times, heralds))


class TestValidation:
    def test_config_bounds(self):
        with pytest.raises(ValueError):
            _cfg(pair_rate=-1.0)
        with pytest.raises(ValueError):
            _cfg(multipair_prob=1.0)
        with pytest.raises(ValueError):
            _cfg(background_rate_signal=-5.0)

    def test_generate_arguments(self):
        with pytest.raises(ValueError):
            generate_pairs(_cfg(), 0, RngSpec(1), segment=0)
        with pytest.raises(ValueError):
            generate_pairs(_cfg(), SECOND, RngSpec(1), segments=0, segment=0)
        with pytest.raises(ValueError, match="segment must lie"):
            generate_pairs(_cfg(), SECOND, RngSpec(1), segments=2, segment=2)

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            PairEvents([1, 2], [1], [0, 0])
