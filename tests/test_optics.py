"""Optics-chain tests: modulation, sample, beamsplitter, detector.

Oracles: pure-python greedy dead-time filter, KS tests of survivor delay
distributions against target analytic CDFs, binomial bounds on thinning,
and a closed-form thinning and dead-time model of the streamed bench.
"""
import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from spptag import BiphotonAmplitude, RngSpec, Shape
from spptag.config import default_config
from spptag.model import U_CLIP, evaluate_density, normal_quantile, sample_delay
from spptag.optics import (
    DetectorConfig,
    DetectorState,
    ExperimentConfig,
    ModulationFunction,
    ModulationKind,
    SampleConfig,
    apply_modulation,
    apply_sample,
    beamsplit,
    detect,
    run_experiment,
    stream_experiment,
    _dead_time_filter_mask,
    _jitter_reach_ps,
)
from spptag.source import PairEvents, PairKind, SourceConfig, stream_pairs
from spptag.spectrum import SpectrumConfig
from spptag.tagfile import write_tags

AMP = BiphotonAmplitude(Shape.DOUBLE_EXPONENTIAL, 50.0)
SECOND = 10**12


def synthetic_events(n, rng_spec, spacing_ps=500_000, kind=PairKind.TRUE_PAIR):
    """Events with herald grid and delays drawn from the source density."""
    heralds = (np.arange(n, dtype=np.int64) + 1) * spacing_ps
    delays = sample_delay(AMP, rng_spec, size=n)
    times = heralds + np.rint(delays * 1000.0).astype(np.int64)
    return PairEvents(heralds, times, np.full(n, kind, dtype=np.uint8))


class TestModulation:
    @pytest.mark.parametrize("kind, field, value", [
        (ModulationKind.IDENTITY, "edge_ns", 5.0),
        (ModulationKind.HEAVISIDE, "target_fwhm_ns", 12.0),
        (ModulationKind.GAUSSIAN, "edge_ns", -1.0),
    ])
    def test_field_of_another_kind_refused(self, kind, field, value):
        # it would be dropped by a config round trip
        with pytest.raises(ValueError, match=field):
            ModulationFunction(kind, **{field: value})

    def test_identity_is_exact_passthrough(self):
        ev = synthetic_events(1000, RngSpec(60))
        out = apply_modulation(ev, ModulationFunction.identity(), RngSpec(61))
        assert out == ev

    def test_heaviside_exact_edge(self):
        ev = synthetic_events(20000, RngSpec(62))
        out = apply_modulation(ev, ModulationFunction.heaviside(0.0), RngSpec(63))
        # p is exactly 0 or 1, so survivors are exactly the post-edge events
        expected = ev.select(ev.t_rel_ns() >= 0.0)
        assert out == expected
        assert out.t_rel_ns().min() >= 0.0

    @pytest.mark.parametrize("edge_ns", [-3.25, 0.0, 7.5])
    def test_heaviside_keeps_the_events_past_the_edge_and_draws_nothing(self, edge_ns):
        # m^2 is 0 or 1, so no uniform u in [0, 1) changes whether u < m^2
        ev = synthetic_events(5000, RngSpec(64))
        gen = RngSpec(65).generator()
        out = apply_modulation(ev, ModulationFunction.heaviside(edge_ns), gen)
        kept = [i for i in range(len(ev))
                if (int(ev.signal_ps[i]) - int(ev.idler_ps[i])) / 1000.0 >= edge_ns]
        assert 0 < len(kept) < len(ev)
        assert out == PairEvents(ev.idler_ps[kept], ev.signal_ps[kept], ev.kind[kept])
        np.testing.assert_array_equal(gen.random(4), RngSpec(65).generator().random(4))

    def test_heaviside_inclusive_at_edge(self):
        heralds = np.array([1_000_000, 2_000_000], dtype=np.int64)
        times = heralds + np.array([5_000, 4_999])
        ev = PairEvents(heralds, times, np.zeros(2, dtype=np.uint8))
        out = apply_modulation(ev, ModulationFunction.heaviside(5.0), RngSpec(1))
        assert len(out) == 1 and out.signal_ps[0] == 1_005_000

    def test_gaussian_drive_peaks_at_density_ratio_maximum(self):
        # the ratio is symmetric with twin maxima at +-sigma^2/tau0 = +-8.0 ns
        m = ModulationFunction.gaussian_target(40.0)
        t_star = m.target.sigma_ns**2 / AMP.tau0_ns
        assert t_star == pytest.approx(8.0, rel=1e-12)
        assert abs(m.peak_ns(AMP)) == pytest.approx(t_star, rel=1e-12)
        np.testing.assert_array_equal(m.amplitude([-t_star, t_star], AMP), 1.0)
        assert np.all(m.amplitude([-t_star - 0.1, 0.0, t_star + 0.1], AMP) < 1.0)
        assert m.unreachable_mass(AMP) == 0.0

    def test_derived_drive_reproduces_target_pointwise(self):
        grid = np.arange(-300.0, 300.0, 0.1)
        m = ModulationFunction.gaussian_target(40.0)
        predicted = evaluate_density(AMP, grid) * m.amplitude(grid, AMP) ** 2
        scale = evaluate_density(m.target, 0.0) / predicted[np.argmin(np.abs(grid))]
        np.testing.assert_allclose(predicted * scale,
                                   evaluate_density(m.target, grid), atol=1e-12)

    def test_gaussian_modulated_survivors_follow_target(self):
        ev = synthetic_events(200_000, RngSpec(66))
        m = ModulationFunction.gaussian_target(40.0)
        out = apply_modulation(ev, m, RngSpec(67), source=AMP)
        t_rel = out.t_rel_ns()
        sigma = 40.0 / (2 * np.sqrt(2 * np.log(2)))
        res = stats.kstest(t_rel, stats.norm(scale=sigma).cdf)
        assert res.pvalue > 0.01
        # surviving fraction is 1/max-ratio ~ 0.528
        assert len(out) / len(ev) == pytest.approx(0.528, abs=0.01)

    def test_gaussian_needs_source(self):
        ev = synthetic_events(10, RngSpec(68))
        with pytest.raises(ValueError, match="needs the source amplitude"):
            apply_modulation(ev, ModulationFunction.gaussian_target(40.0), RngSpec(69))

    def test_clipped_mass_for_unreachable_target(self):
        # one-sided input cannot make mass before its onset
        decay = BiphotonAmplitude(Shape.EXPONENTIAL_DECAY, 50.0)
        m = ModulationFunction.gaussian_target(30.0, -10.0)
        expected = stats.norm(loc=-10.0, scale=m.target.sigma_ns).cdf(0.0)
        assert m.unreachable_mass(decay) == pytest.approx(expected, rel=1e-12)
        assert m.amplitude(-1e-9, decay) == 0.0 < m.amplitude(0.0, decay)

    def test_gaussian_target_validation(self):
        with pytest.raises(ValueError):
            ModulationFunction.gaussian_target(0.0)
        # the target/source ratio of a target at least as wide grows without bound
        ev = synthetic_events(10, RngSpec(68))
        for fwhm_ns in (60.0, 61.0):
            with pytest.raises(ValueError, match="narrower than a gaussian source"):
                apply_modulation(ev, ModulationFunction.gaussian_target(fwhm_ns), RngSpec(69),
                                 source=BiphotonAmplitude(Shape.GAUSSIAN, 60.0))

    @pytest.mark.parametrize("fwhm_ns, center_ns", [(1e6, 0.0), (40.0, 1e12)])
    def test_far_target_passes_no_photon(self, fwhm_ns, center_ns):
        # the drive is 1 far from every photon, and exactly 0 at each of them
        ev = synthetic_events(10_000, RngSpec(68))
        m = ModulationFunction.gaussian_target(fwhm_ns, center_ns)
        assert abs(m.peak_ns(AMP)) > 1e9
        assert len(apply_modulation(ev, m, RngSpec(69), source=AMP)) == 0

    def test_source_ignored_by_other_kinds(self):
        ev = synthetic_events(1000, RngSpec(60))
        m = ModulationFunction.heaviside(3.0)
        assert (apply_modulation(ev, m, RngSpec(61), source=AMP)
                == apply_modulation(ev, m, RngSpec(61)))


def _log_density(amp: BiphotonAmplitude, t) -> np.ndarray:
    """Log delay density, written out: scipy.stats' Laplace logpdf underflows
    beyond about 700 decay constants."""
    x = np.asarray(t, dtype=float) - amp.offset_ns
    if amp.shape is Shape.GAUSSIAN:
        return -0.5 * (x / amp.sigma_ns) ** 2 - np.log(amp.sigma_ns * np.sqrt(2 * np.pi))
    if amp.shape is Shape.DOUBLE_EXPONENTIAL:
        return -np.abs(x) / amp.tau0_ns - np.log(2 * amp.tau0_ns)
    return np.where(x >= 0, -x / amp.tau0_ns - np.log(amp.tau0_ns), -np.inf)


class TestGaussianDriveProperties:
    @settings(max_examples=150, deadline=None)
    @given(shape=st.sampled_from(Shape), source_fwhm=st.floats(1.0, 200.0),
           offset=st.floats(-50.0, 50.0), target_fwhm=st.floats(1.0, 200.0),
           shift=st.floats(-2.0, 2.0))
    def test_closed_form_drive(self, shape, source_fwhm, offset, target_fwhm, shift):
        source = BiphotonAmplitude(shape, source_fwhm, offset)
        # the target centre within two of its widths of the source offset
        m = ModulationFunction.gaussian_target(target_fwhm, offset + shift * target_fwhm)
        if shape is Shape.GAUSSIAN and not target_fwhm < source_fwhm:
            with pytest.raises(ValueError, match="narrower than a gaussian source"):
                m.peak_ns(source)
            return
        peak = m.peak_ns(source)
        assert m.amplitude(peak, source) == 1.0
        c, sigma = m.target.offset_ns, m.target.sigma_ns
        lo = offset if shape is Shape.EXPONENTIAL_DECAY else -np.inf
        t = np.linspace(max(c - 12 * sigma, lo), max(c + 12 * sigma, lo), 20_001)
        drive = m.amplitude(t, source)
        assert np.all((0.0 <= drive) & (drive <= 1.0))
        # source * m^2 = target / M wherever the source has density
        log_m = _log_density(m.target, peak) - _log_density(source, peak)
        seen = drive > 1e-150
        np.testing.assert_allclose(
            _log_density(source, t[seen]) + 2 * np.log(drive[seen]),
            _log_density(m.target, t[seen]) - log_m, rtol=0, atol=1e-8)
        # so a fraction (1 - unreachable mass) / M survives
        survival = np.trapezoid(evaluate_density(source, t) * drive**2, t)
        expected = (1.0 - m.unreachable_mass(source)) * np.exp(-log_m)
        assert survival == pytest.approx(expected, rel=1e-6, abs=1e-12)


class TestSample:
    def test_conversion_fraction(self):
        ev = synthetic_events(40000, RngSpec(70))
        out = apply_sample(ev.signal_ps, SampleConfig(795.0, 0.44), RngSpec(71))
        n, p = 40000, 0.44
        assert abs(len(out) - n * p) < 4.5 * np.sqrt(n * p * (1 - p))
        assert np.isin(out, ev.signal_ps).all() and np.all(np.diff(out) > 0)

    def test_wavelength_outside_spectrum_raises(self):
        spec = SpectrumConfig(grid_lo_nm=600.0, grid_hi_nm=1000.0)
        with pytest.raises(ValueError, match="outside the characterized spectrum"):
            SampleConfig(1550.0, 0.5, spectrum=spec)
        ev = synthetic_events(10, RngSpec(73))
        out = apply_sample(ev.signal_ps, SampleConfig(795.0, 1.0, spectrum=spec), RngSpec(74))
        assert len(out) == 10

    def test_thinning_order_commutes_in_distribution(self):
        # the bench samples after modulating; the background is drawn already
        # sampled, before modulation, which is sound only if the order of the
        # two thinnings does not matter (Lewis & Shedler 1979)
        m = ModulationFunction.gaussian_target(40.0)
        sample = SampleConfig(795.0, 0.44)
        ev = synthetic_events(150_000, RngSpec(75))
        modulated = apply_modulation(ev, m, RngSpec(76), source=AMP)
        a = apply_sample(modulated.signal_ps - modulated.idler_ps, sample, RngSpec(77))
        sampled = ev.select(apply_sample(np.arange(len(ev)), sample, RngSpec(77)))
        b = apply_modulation(sampled, m, RngSpec(76), source=AMP).t_rel_ns()
        res = stats.ks_2samp(a / 1000.0, b)
        assert res.pvalue > 0.01
        assert abs(len(a) - len(b)) < 4.5 * np.sqrt(len(a))

    def test_sample_config_validation(self):
        with pytest.raises(ValueError):
            SampleConfig(795.0, 1.2)
        with pytest.raises(ValueError):
            SampleConfig(795.0, 0.5, background_suppression=-0.1)
        with pytest.raises(ValueError):
            SampleConfig(0.0, 0.5)


class TestBeamsplit:
    def test_disjoint_partition(self):
        photons = synthetic_events(5000, RngSpec(80)).signal_ps
        a, b = beamsplit(photons, 0.5, RngSpec(81))
        assert len(a) + len(b) == len(photons)
        merged = np.sort(np.concatenate([a, b]))
        np.testing.assert_array_equal(merged, np.sort(photons))

    def test_ratio_fraction(self):
        photons = synthetic_events(40000, RngSpec(82)).signal_ps
        a, _ = beamsplit(photons, 0.3, RngSpec(83))
        assert abs(len(a) - 12000) < 4.5 * np.sqrt(40000 * 0.3 * 0.7)

    def test_degenerate_ratios(self):
        photons = synthetic_events(100, RngSpec(84)).signal_ps
        a, b = beamsplit(photons, 1.0, RngSpec(85))
        assert len(a) == 100 and len(b) == 0
        with pytest.raises(ValueError):
            beamsplit(photons, 1.5, RngSpec(86))

    @pytest.mark.parametrize("ratio", [-0.1, 1.5, math.nan])
    def test_experiment_rejects_ratio_outside_unit_interval(self, ratio):
        with pytest.raises(ValueError, match="split_ratio"):
            ExperimentConfig(SourceConfig(1000.0, AMP), split_ratio=ratio)


def _greedy_dead_time(times, dead, last=None):
    """Tags kept by a non-paralyzable dead time, one at a time; last is a fire before times."""
    kept = []
    for t in times:
        if last is None or t - last >= dead:
            kept.append(t)
            last = t
    return np.array(kept, dtype=np.int64)


class TestDetect:
    def test_dead_time_matches_greedy_oracle(self):
        gen = RngSpec(90).generator()
        # dense clustered times force multi-event pileups
        times = np.sort((gen.random(3000) * 1e6).astype(np.int64))
        for dead in (0, 100, 1000, 5000, 50_000):
            mask = _dead_time_filter_mask(times, dead)
            np.testing.assert_array_equal(times[mask], _greedy_dead_time(times, dead))

    @settings(max_examples=300, deadline=None)
    @given(times=st.lists(st.integers(0, 60), max_size=40).map(sorted),
           dead=st.integers(0, 15), back=st.none() | st.integers(0, 20))
    def test_dead_time_mask_matches_greedy_oracle_with_ties(self, times, dead, back):
        # times from 0 to 60 ps: many ties, runs of every length and gaps of exactly
        # the dead time; back puts a carried last fire that far before the first tag
        times = np.array(times, dtype=np.int64)
        last = None if back is None or not times.size else int(times[0]) - back
        mask = _dead_time_filter_mask(times, dead, last)
        np.testing.assert_array_equal(times[mask], _greedy_dead_time(times, dead, last))

    def test_dead_time_carries_across_windows(self):
        gen = RngSpec(98).generator()
        times = np.sort((gen.random(3000) * 1e6).astype(np.int64))
        cfg = DetectorConfig(efficiency=1.0, dark_rate=0.0, jitter_sigma_ps=0.0,
                             dead_time_ps=1000)
        state, tags = DetectorState(), []
        cuts = [0, *np.sort(gen.integers(0, 10**6, 6)).tolist(), 10**6 + 1]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            window = times[(times >= lo) & (times < hi)]
            tags.append(detect(window, cfg, 10**6, gen, until_ps=hi, state=state))
        np.testing.assert_array_equal(np.concatenate(tags), _greedy_dead_time(times, 1000))

    def test_efficiency_thinning(self):
        times = np.arange(1, 40001, dtype=np.int64) * 1_000_000
        cfg = DetectorConfig(efficiency=0.5, dark_rate=0.0, jitter_sigma_ps=0.0,
                             dead_time_ps=0)
        out = detect(times, cfg, times[-1] + 1_000_000, RngSpec(91))
        assert abs(len(out) - 20000) < 4.5 * np.sqrt(10000)

    def test_dark_counts_only(self):
        cfg = DetectorConfig(efficiency=1.0, dark_rate=500.0, jitter_sigma_ps=0.0,
                             dead_time_ps=0)
        out = detect(np.empty(0, dtype=np.int64), cfg, 10 * SECOND, RngSpec(92))
        assert abs(len(out) - 5000) < 4.5 * np.sqrt(5000)

    def test_jitter_distribution(self):
        times = np.arange(1, 100_001, dtype=np.int64) * 1_000_000
        cfg = DetectorConfig(efficiency=1.0, dark_rate=0.0, jitter_sigma_ps=350.0,
                             dead_time_ps=0)
        out = detect(times, cfg, times[-1] + 10_000_000, RngSpec(93))
        assert len(out) == times.size
        shifts = np.sort(out) - times  # both sorted, grid spacing >> jitter
        res = stats.kstest(shifts, stats.norm(scale=350.0).cdf)
        assert res.pvalue > 0.01

    def test_coupled_draws_efficiency_monotone(self):
        times = np.arange(1, 20001, dtype=np.int64) * 1_000_000
        base = dict(dark_rate=0.0, jitter_sigma_ps=350.0, dead_time_ps=0)
        lo = detect(times, DetectorConfig(efficiency=0.3, **base),
                    times[-1] + 10_000_000, RngSpec(94))
        hi = detect(times, DetectorConfig(efficiency=0.6, **base),
                    times[-1] + 10_000_000, RngSpec(94))
        assert np.isin(lo, hi).all()

    def test_output_sorted_and_bounded(self):
        gen = RngSpec(95).generator()
        times = np.sort((gen.random(5000) * SECOND).astype(np.int64))
        out = detect(times, DetectorConfig(), SECOND, RngSpec(96))
        assert out.dtype == np.int64 and np.all(np.diff(out) >= 0)
        assert out.min() >= 0 and out.max() <= SECOND

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError):
            detect(np.array([5, 1], dtype=np.int64), DetectorConfig(), SECOND, RngSpec(97))

    def test_detector_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(efficiency=1.5)
        with pytest.raises(ValueError):
            DetectorConfig(dark_rate=-1.0)


class TestRunExperiment:
    CFG = ExperimentConfig(source=SourceConfig(pair_rate=2000.0, amplitude=AMP))

    def test_channel_rates(self):
        stream = run_experiment(self.CFG, 5 * SECOND, RngSpec(100))
        assert set(stream.channel_ids) == {0, 1, 2}
        # ideal herald detector: ~2000/s; signal arms: 2000*0.5*0.5 + 100 dark
        assert abs(stream.rate(0) - 2000.0) < 4.5 * np.sqrt(2000 / 5)
        for ch in (1, 2):
            assert abs(stream.rate(ch) - 600.0) < 4.5 * np.sqrt(600 / 5)

    def test_deterministic(self):
        a = run_experiment(self.CFG, SECOND, RngSpec(101, 3))
        b = run_experiment(self.CFG, SECOND, RngSpec(101, 3))
        assert a == b

    def test_stage_streams_isolated(self):
        # changing detector 2 must not move a single tag on channels 0 and 1
        quiet = DetectorConfig(efficiency=0.9, dark_rate=0.0)
        alt = ExperimentConfig(source=self.CFG.source,
                               detectors=(self.CFG.detectors[0],
                                          self.CFG.detectors[1], quiet))
        a = run_experiment(self.CFG, SECOND, RngSpec(102))
        b = run_experiment(alt, SECOND, RngSpec(102))
        np.testing.assert_array_equal(a.channel_times(0), b.channel_times(0))
        np.testing.assert_array_equal(a.channel_times(1), b.channel_times(1))
        assert not np.array_equal(a.channel_times(2), b.channel_times(2))

    def test_heaviside_kills_pre_edge_exactly(self):
        cfg = ExperimentConfig(
            source=SourceConfig(pair_rate=2000.0, amplitude=AMP),
            modulation=ModulationFunction.heaviside(0.0))
        rng = RngSpec(103)
        pairs = PairEvents.concatenate(stream_pairs(cfg.source, SECOND, rng.child(0)))
        signal = pairs.select(pairs.kind != PairKind.BACKGROUND_IDLER)
        survivors = apply_modulation(signal, cfg.modulation, rng.child(1))
        assert survivors.t_rel_ns().min() >= 0.0
        assert len(survivors) > 0


def _desk_rates(exp: ExperimentConfig) -> dict[int, float]:
    """Tag rate per channel [1/s] of the desk bench with a step at the delay centre.

    Poisson streams thinned independently stay Poisson: each rate is a
    product of pass probabilities, then the non-paralyzable dead-time
    correction r / (1 + r tau).  The step passes half of the pairs (the
    delay density is symmetric) and half of the background (its herald
    reference is as often before it as after it).  A multipair extra lands
    inside the ideal herald detector's dead time of its primary.
    """
    src, sample, dets = exp.source, exp.sample, exp.detectors
    assert dets[0].efficiency == 1.0 and dets[0].dark_rate == 0.0

    def dead(rate, det):
        return rate / (1.0 + rate * det.dead_time_ps * 1e-12)

    signal = (src.pair_rate * (1.0 + src.multipair_prob) * 0.5 * sample.overall_conversion
              + src.background_rate_signal * 0.5 * sample.overall_conversion
              * sample.background_suppression)
    rates = {0: dead(src.pair_rate + src.background_rate_idler, dets[0])}
    for ch, share in ((1, exp.split_ratio), (2, 1.0 - exp.split_ratio)):
        rates[ch] = dead(signal * share * dets[ch].efficiency + dets[ch].dark_rate, dets[ch])
    return rates


def _microsecond_bench(jitter_ps: tuple[float, float, float]) -> ExperimentConfig:
    """Microsecond delays and detector jitter at MHz rates."""
    return ExperimentConfig(
        source=SourceConfig(pair_rate=1e6, multipair_prob=0.1,
                            amplitude=BiphotonAmplitude(Shape.GAUSSIAN, 5000.0),
                            background_rate_signal=1e6),
        detectors=tuple(DetectorConfig(eff, dark, sigma, 1000) for eff, dark, sigma
                        in zip((1.0, 0.5, 0.5), (0.0, 1e4, 1e4), jitter_ps)))


class TestStreamedRun:
    DESK = replace(default_config().experiment,
                   modulation=ModulationFunction.heaviside(0.0))

    def test_channel_counts_match_thinning_model(self):
        duration = 200 * SECOND
        stream = run_experiment(self.DESK, duration, RngSpec(104), segments=2)
        for ch, rate in _desk_rates(self.DESK).items():
            want = rate * duration * 1e-12
            assert abs(stream.count(ch) - want) < 5 * math.sqrt(want), (ch, stream.count(ch), want)

    @pytest.mark.parametrize("jitter_ps", [(1e6, 2e6, 0.0), (0.0, 0.0, 0.0)])
    def test_sorted_across_slice_edges(self, jitter_ps):
        # over 200 us slices each slice edge sees photons and tags of the
        # next slice land before it
        stream = run_experiment(_microsecond_bench(jitter_ps), 5 * SECOND // 1000,
                                RngSpec(105), segments=25)
        assert len(stream) > 5000
        assert not np.any(np.diff(stream.times_ps) < 0)

    def test_unreachable_mass_warned_once_per_run(self, caplog):
        # a one-sided source has no density before its onset, where the target has some
        decay = replace(self.DESK.source,
                        amplitude=BiphotonAmplitude(Shape.EXPONENTIAL_DECAY, 50.0))
        m = ModulationFunction.gaussian_target(30.0, -10.0)
        exp = replace(self.DESK, source=decay, modulation=m)
        with caplog.at_level("WARNING", logger="spptag.optics"):
            run_experiment(exp, 3 * SECOND, RngSpec(107), segments=3)
        unreachable = stats.norm.cdf(10.0 / m.target.sigma_ns)
        assert [r.getMessage() for r in caplog.records] == [
            f"target waveform has {unreachable:.3g} unreachable mass"]

    def test_memory_stays_flat_as_the_run_grows(self):
        peaks = []
        for seconds in (100, 400):
            tracemalloc.start()
            run_experiment(self.DESK, seconds * SECOND, RngSpec(106))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 2.5 * peaks[0], peaks

    def test_golden_tag_file(self, tmp_path):
        # byte output is fixed per (seed, stream, version): a change here
        # means a change in what every seeded run produces
        stream = run_experiment(self.DESK, 3 * SECOND, RngSpec(2026, 7), segments=3)
        write_tags(tmp_path / "golden.spptag", stream)
        digest = hashlib.sha256((tmp_path / "golden.spptag").read_bytes()).hexdigest()
        assert digest == "045d5ff535ada70b479c96795eb262f34b05b59375ee778c6514eb358e6c327a"

    # darks on every detector, more multipairs and an idler-arm background, so
    # every thinning, dark-count insertion and background reference is exercised
    NOISY = replace(DESK, source=replace(DESK.source, multipair_prob=0.05,
                                         background_rate_idler=3000.0),
                    detectors=tuple(replace(d, dark_rate=5000.0) for d in DESK.detectors))

    @pytest.mark.parametrize("modulation, digest", [
        (ModulationFunction.gaussian_target(30.0),
         "79623501f17754da7685a2f27022c6e26b903523946da9d93666cab1eb5adccd"),
        (ModulationFunction.identity(),
         "ef00ded5d3041bd1db7dac74084e709d080654bccf736e0bc7b51bde285ed014"),
        (ModulationFunction.heaviside(-3.25),
         "e6e3acac006c08614c19a3d9806e8946347bd37d1a4f64dafcf4426ee48a9ef5"),
    ], ids=["gaussian", "identity", "heaviside"])
    def test_golden_tag_file_of_a_noisy_bench(self, tmp_path, modulation, digest):
        stream = run_experiment(replace(self.NOISY, modulation=modulation), 3 * SECOND,
                                RngSpec(2026, 7), segments=3)
        write_tags(tmp_path / "golden.spptag", stream)
        assert hashlib.sha256((tmp_path / "golden.spptag").read_bytes()).hexdigest() == digest


class TestStreamExperiment:
    RUNS = {  # name -> (config, duration [ps])
        "plain": (TestRunExperiment.CFG, SECOND),
        "desk": (TestStreamedRun.DESK, 3 * SECOND),
        "microsecond jitter": (_microsecond_bench((1e6, 2e6, 0.0)), 5 * SECOND // 1000),
    }

    @pytest.mark.parametrize("segments", [1, 3, 25])
    @pytest.mark.parametrize("name", RUNS)
    def test_slices_are_ordered_and_make_the_run(self, name, segments):
        cfg, duration = self.RUNS[name]
        slices = list(stream_experiment(cfg, duration, RngSpec(108), segments))
        assert len(slices) == segments
        for tags in slices:
            assert tags.duration_ps == duration
            assert not np.any(np.diff(tags.times_ps) < 0)
        ends = [(s.times_ps[0], s.times_ps[-1]) for s in slices if len(s)]
        for (_, last), (first, _) in zip(ends, ends[1:]):
            assert last <= first
        whole = run_experiment(cfg, duration, RngSpec(108), segments)
        np.testing.assert_array_equal(np.concatenate([s.times_ps for s in slices]),
                                      whole.times_ps)
        np.testing.assert_array_equal(np.concatenate([s.channels for s in slices]),
                                      whole.channels)

    def test_memory_stays_flat_for_a_consumer_keeping_nothing(self):
        # 10 s slices, so both runs have middle slices, which may hold the next
        # source slice (a run of one slice never does); the warm-up run makes
        # the lazy imports before tracing starts
        run_experiment(TestStreamedRun.DESK, SECOND, RngSpec(106))
        peaks = []
        for seconds in (100, 400):
            tracemalloc.start()
            for _ in stream_experiment(TestStreamedRun.DESK, seconds * SECOND, RngSpec(106),
                                       segments=seconds // 10):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    @pytest.mark.parametrize("sigma_ps", [0.0, 350.0, 1e6])
    def test_jitter_reach_bounds_every_shift(self, sigma_ps):
        # the flush of a slice trusts that no jitter shift reaches this far
        u = np.array([0.0, U_CLIP, 0.5, 1.0 - U_CLIP, 1.0])
        shifts = np.abs(np.rint(sigma_ps * normal_quantile(u)))
        reach = _jitter_reach_ps(DetectorConfig(jitter_sigma_ps=sigma_ps))
        assert shifts.max() < reach <= shifts.max() + 2
