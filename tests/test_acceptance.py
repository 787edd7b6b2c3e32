"""Acceptance gate: every headline quantitative result at its tolerance.

One test per criterion, grouped by deliverable.  Expensive streams are
simulated once per module at pinned seeds; every threshold below was chosen
against the statistics of those runs, so a pass here is a statement about
the physics and the estimators, not about luck.
"""
import struct
from dataclasses import replace

import numpy as np
import pytest

from helpers import riemann_hom_coincidence
from spptag.cli import _arrangements, main
from spptag.config import default_config, format_config, parse_config
from spptag.correlator import (
    cauchy_schwarz,
    coincidence_histogram,
    cosine_similarity,
    expected_waveform,
    heralded_g2_zero,
    reconstruct_waveform,
)
from spptag.hom import fit_coherence_time, hom_coincidence, hom_visibility
from spptag.model import (
    PS_PER_NS,
    BiphotonAmplitude,
    RngSpec,
    Shape,
    TimeTagStream,
    evaluate_density,
)
from spptag.optics import (
    DetectorConfig,
    ModulationFunction,
    SampleConfig,
    apply_modulation,
    run_experiment,
)
from spptag.source import PairEvents, PairKind, poisson_times, stream_pairs
from spptag.source import segment_count as _segments_for
from spptag.spectrum import (
    ArrayGeometry,
    FanoParameters,
    bethe_hole_transmittance,
    bethe_transmittance,
    fano_transmittance,
    fit_fano,
    spp_resonance_wavelength,
)
from spptag.tagfile import HEADER_SIZE, read_tags, write_tags

SECOND_PS = 10**12
GEOM = ArrayGeometry()


def simulate(arrangement, duration_s, seed):
    """Stream 0 of seed for one (modulated, converted) bench arrangement."""
    [(_, _, stream)] = _arrangements(duration_s * SECOND_PS, seed, [("", *arrangement)])
    return stream


@pytest.fixture(scope="module")
def table1():
    """Heralded g2(0) in the four bench arrangements, 500 s each."""
    rows = {}
    for label, _, stream in _arrangements(500 * SECOND_PS, 20260822, [
            ("unshaped_incident", False, False),
            ("shaped_incident", True, False),
            ("unshaped_reemitted", False, True),
            ("shaped_reemitted", True, True)]):
        rows[label] = heralded_g2_zero(stream, 0, 1, 2, window_ps=150_000)
    return rows


@pytest.fixture(scope="module")
def reemitted_stream():
    """Unshaped reemitted bench, 1200 s: the workhorse nonclassical record."""
    return simulate((False, True), 1200, 424242)


@pytest.fixture(scope="module")
def unshaped_wave_stream():
    return simulate((False, True), 1200, 777000)


class TestHeraldedG2:
    def test_unshaped_incident_matches_benchmark(self, table1):
        res = table1["unshaped_incident"]
        assert res.n_ab >= 100, "needs enough double coincidences to mean anything"
        assert abs(res.value - 0.019) <= 3 * res.error, \
            f"g2 = {res.value:.5f} +/- {res.error:.5f}"

    def test_shaping_preserves_purity(self, table1):
        a = table1["unshaped_incident"]
        b = table1["shaped_incident"]
        combined = np.hypot(a.error, b.error)
        assert abs(a.value - b.value) <= 3 * combined, \
            f"unshaped {a.value:.5f} vs shaped {b.value:.5f}"

    def test_conversion_preserves_purity(self, table1):
        for pre, post in [("unshaped_incident", "unshaped_reemitted"),
                          ("shaped_incident", "shaped_reemitted")]:
            a, b = table1[pre], table1[post]
            combined = np.hypot(a.error, b.error)
            assert b.value <= a.value + 3 * combined, \
                f"{post} {b.value:.5f} above {pre} {a.value:.5f}"
            assert b.value < 0.05

    def test_all_arrangements_deeply_nonclassical(self, table1):
        for label, res in table1.items():
            assert res.value + 5 * res.error < 0.5, \
                f"{label}: {res.value:.5f} +/- {res.error:.5f}"


class TestClassicalBound:
    def test_violation_in_every_bin_near_zero(self, reemitted_stream):
        res = cauchy_schwarz(reemitted_stream, 0, (1, 2), 1000,
                             -24 * 1000, 24 * 1000, RngSpec(424242, 9))
        margins = (res.c_values - 1) / res.c_errors
        assert np.all(margins > 5), f"weakest bin at {margins.min():.1f} sigma"

    def test_peak_drops_with_coarser_binning(self, reemitted_stream):
        peaks = []
        for bin_ns in (1, 2, 4, 8):
            res = cauchy_schwarz(reemitted_stream, 0, (1, 2), bin_ns * 1000,
                                 -24 * 1000, 24 * 1000, RngSpec(424242, 9))
            peaks.append(float(res.c_values.max()))
        assert peaks == sorted(peaks, reverse=True), peaks

    def test_far_tails_classical(self, reemitted_stream):
        cs, es = [], []
        for lo, hi in [(50_000_000, 60_000_000), (-60_000_000, -50_000_000)]:
            res = cauchy_schwarz(reemitted_stream, 0, (1, 2), 1_000_000,
                                 lo, hi, RngSpec(424242, 9))
            cs.append(res.c_values)
            es.append(res.c_errors)
        cs, es = np.concatenate(cs), np.concatenate(es)
        mean = cs.mean()
        err = np.sqrt(np.sum(es**2)) / cs.size
        assert abs(mean - 1) <= 3 * err, f"tail C = {mean:.4f} +/- {err:.4f}"

    def test_classical_control_stays_bounded(self):
        worst = -np.inf
        for seed in range(100):
            gen = np.random.default_rng(seed + 31000)
            per = {ch: poisson_times(100_000.0, 0, SECOND_PS, gen)
                   for ch in range(3)}
            stream = TimeTagStream.from_channel_times(per, SECOND_PS)
            res = cauchy_schwarz(stream, 0, (1, 2), 1000, -24 * 1000,
                                 24 * 1000, RngSpec(seed, 1))
            worst = max(worst, float(np.max((res.c_values - 1) / res.c_errors)))
        assert worst < 5, f"classical stream reached {worst:.2f} sigma"


WAVEFORM_BIN_PS = 1000
WAVEFORM_LO_PS, WAVEFORM_HI_PS = -75_000, 75_000


def waveform_and_template(stream, modulation):
    wf = reconstruct_waveform(stream, 0, (1, 2), WAVEFORM_BIN_PS,
                              WAVEFORM_LO_PS, WAVEFORM_HI_PS)
    amp = default_config().experiment.source.amplitude

    def density(t):
        return evaluate_density(amp, t) * modulation.amplitude(t, amp) ** 2

    n_bins = (WAVEFORM_HI_PS - WAVEFORM_LO_PS) // WAVEFORM_BIN_PS
    template = expected_waveform(density, WAVEFORM_LO_PS / PS_PER_NS,
                                 WAVEFORM_BIN_PS / PS_PER_NS, n_bins)
    return wf, template


class TestWaveformImprinting:
    def test_unmodulated_waveform_matches_source(self, unshaped_wave_stream):
        n_heralds = int(np.sum(unshaped_wave_stream.channels == 0))
        assert n_heralds >= 1_000_000
        wf, template = waveform_and_template(unshaped_wave_stream,
                                             ModulationFunction.identity())
        assert cosine_similarity(wf.counts, template) >= 0.99

    def test_step_edge_waveform(self):
        stream = simulate((True, True), 1200, 777001)
        wf, template = waveform_and_template(stream,
                                             ModulationFunction.heaviside(0.0))
        assert cosine_similarity(wf.counts, template) >= 0.99

    def test_step_edge_kills_all_early_photons_at_modulator(self):
        # stage-level exactness: no survivor precedes the programmed edge
        src = default_config().experiment.source
        pairs = PairEvents.concatenate(stream_pairs(src, 60 * SECOND_PS, RngSpec(88, 0)))
        signal = pairs.select(pairs.kind != PairKind.BACKGROUND_IDLER)
        out = apply_modulation(signal, ModulationFunction.heaviside(0.0), RngSpec(88, 1))
        assert out.signal_ps.size > 0
        assert np.all(out.t_rel_ns() >= 0.0)

    def test_gaussian_target_reshapes_wavepacket(self):
        # bench with the derived 40 ns gaussian drive in place
        mod = ModulationFunction.gaussian_target(40.0)  # on the unshaped reemitted bench
        exp = replace(default_config().experiment, modulation=mod)
        stream = run_experiment(exp, 1200 * SECOND_PS, RngSpec(777002, 0),
                                segments=_segments_for(1200 * SECOND_PS))
        wf, template = waveform_and_template(stream, mod)
        assert cosine_similarity(wf.counts, template) >= 0.99
        target = BiphotonAmplitude(Shape.GAUSSIAN, 40.0)
        pure = expected_waveform(
            lambda t: evaluate_density(target, t), WAVEFORM_LO_PS / PS_PER_NS,
            WAVEFORM_BIN_PS / PS_PER_NS,
            (WAVEFORM_HI_PS - WAVEFORM_LO_PS) // WAVEFORM_BIN_PS)
        assert cosine_similarity(wf.counts, pure) >= 0.99

    def test_derived_drive_efficiency_and_maxima(self):
        # reshaping 50 ns two-sided exponential into a 40 ns gaussian:
        # transmission peaks where target/source is largest, symmetric pair
        amp = BiphotonAmplitude(Shape.DOUBLE_EXPONENTIAL, 50.0)
        grid = np.arange(-300.0, 300.05, 0.1)
        values = ModulationFunction.gaussian_target(40.0).amplitude(grid, amp)
        passed = np.trapezoid(evaluate_density(amp, grid) * values**2, grid)
        # the drive saturates at unity where target/source peaks, t = sigma^2/tau0,
        # so throughput = source/target there
        tau0 = 50.0 / (2 * np.log(2))
        sigma = 40.0 / 2.3548200450309493
        t_star = sigma**2 / tau0
        target = BiphotonAmplitude(Shape.GAUSSIAN, 40.0)
        eff = evaluate_density(amp, t_star) / evaluate_density(target, t_star)
        assert passed == pytest.approx(eff, rel=1e-3)
        assert eff == pytest.approx(0.528, abs=0.001)
        assert values.max() == 1.0
        top = grid[np.isclose(values, values.max(), rtol=1e-12)]
        assert top.size == 2
        assert top[0] == pytest.approx(-t_star, abs=0.05)
        assert top[1] == pytest.approx(+t_star, abs=0.05)


HOM_AMP = BiphotonAmplitude(Shape.DOUBLE_EXPONENTIAL, 50.0)


class TestTwoPhotonInterference:
    @pytest.mark.parametrize("delay_ns", [8.0, 42.5])
    def test_detuning_curves_match_quadrature_oracle(self, delay_ns):
        for detuning in np.linspace(0.0, 12.0, 13):
            got = hom_coincidence(HOM_AMP, detuning, delay_ns)
            want = riemann_hom_coincidence(HOM_AMP, detuning, delay_ns)
            assert got == pytest.approx(want, abs=1e-6), \
                f"detuning {detuning} MHz"

    def test_zero_detuning_closed_forms(self):
        tau0 = HOM_AMP.tau0_ns
        for delay in (0.0, 5.0, 20.0, 60.0):
            x = delay / tau0
            assert hom_visibility(HOM_AMP, delay) == pytest.approx(
                np.exp(-x) * (1 + x), rel=1e-9)
        gauss = BiphotonAmplitude(Shape.GAUSSIAN, 50.0)
        for delay in (0.0, 15.0, 40.0):
            assert hom_visibility(gauss, delay) == pytest.approx(
                np.exp(-delay**2 / (2 * gauss.sigma_ns**2)), abs=1e-8)
        decay = BiphotonAmplitude(Shape.EXPONENTIAL_DECAY, 50.0)
        assert hom_visibility(decay, 0.0) == pytest.approx(0.0, abs=1e-10)
        assert hom_visibility(decay, decay.tau0_ns) == pytest.approx(
            2 / np.e, abs=1e-8)

    def test_half_depth_detuning(self):
        from scipy.optimize import brentq
        v0 = hom_visibility(HOM_AMP, 0.0)
        half = brentq(
            lambda d: (1 - 2 * hom_coincidence(HOM_AMP, d, 0.0)) - 0.5 * v0,
            0.1, 50.0)
        assert half == pytest.approx(4.41, abs=0.05)

    def test_width_fit_round_trip(self):
        delays = np.linspace(0.0, 60.0, 13)
        vis = np.array([hom_visibility(HOM_AMP, d) for d in delays])
        fwhm, _ = fit_coherence_time(delays, vis, Shape.DOUBLE_EXPONENTIAL)
        assert fwhm == pytest.approx(50.0, rel=1e-6)

    def test_width_fit_with_noise(self):
        delays = np.linspace(0.0, 60.0, 13)
        vis = np.array([hom_visibility(HOM_AMP, d) for d in delays])
        rng = np.random.default_rng(42)
        noisy = vis + 0.02 * rng.standard_normal(vis.size)
        fwhm, err = fit_coherence_time(delays, noisy, Shape.DOUBLE_EXPONENTIAL)
        assert fwhm == pytest.approx(50.0, rel=0.05)
        assert 0 < err < 5.0


class TestHoleArraySpectrum:
    def test_direct_transmittance_values(self):
        assert bethe_hole_transmittance(GEOM, 795.0) == pytest.approx(
            0.0937, abs=2e-4)
        assert bethe_transmittance(GEOM, 795.0) == pytest.approx(
            0.0159, abs=2e-4)

    def test_resonance_positions(self):
        glass = spp_resonance_wavelength(GEOM, (1, 0), "glass")
        air = spp_resonance_wavelength(GEOM, (1, 0), "air")
        assert 680.0 < glass < 710.0
        assert 425.0 < air < 450.0
        assert glass > air

    def test_angle_behavior(self):
        normal = spp_resonance_wavelength(GEOM, (1, 0), "glass", 0.0, "tm")
        minus = spp_resonance_wavelength(GEOM, (1, 0), "glass", 8.0, "tm")
        plus = spp_resonance_wavelength(GEOM, (-1, 0), "glass", 8.0, "tm")
        assert minus < normal < plus
        te = spp_resonance_wavelength(GEOM, (1, 0), "glass", 10.0, "te")
        te0 = spp_resonance_wavelength(GEOM, (1, 0), "glass", 0.0, "te")
        assert abs(te - te0) / te0 < 0.01

    def test_carrier_wavelength_transmittance(self):
        assert fano_transmittance(GEOM, 795.0) == pytest.approx(0.34, abs=0.02)

    def test_peak_transmittance(self):
        p = FanoParameters()
        wl = np.linspace(700.0, 900.0, 4001)
        total = fano_transmittance(GEOM, wl, p)
        i = int(np.argmax(total))
        assert wl[i] == pytest.approx(808.4, abs=1.0)
        assert total[i] == pytest.approx(0.36, abs=0.005)
        assert np.all((total >= 0) & (total <= 1))

    def test_lineshape_fit_round_trip(self):
        truth = FanoParameters(806.0, 96.0, 20.0, 0.36)
        wl = np.linspace(650.0, 1000.0, 50)
        t = fano_transmittance(GEOM, wl, truth)
        fit = fit_fano(wl, t, GEOM)
        assert fit.params.resonance_nm == pytest.approx(806.0, rel=1e-6)
        assert fit.params.fwhm_nm == pytest.approx(96.0, rel=1e-6)
        rng = np.random.default_rng(7)
        noisy = t * (1 + 0.02 * rng.standard_normal(t.size))
        fit = fit_fano(wl, noisy, GEOM)
        assert fit.params.resonance_nm == pytest.approx(806.0, rel=0.05)
        assert fit.params.peak_transmittance == pytest.approx(0.36, rel=0.05)


def brute_pair_delays(t_a, t_b, tmin, tmax, bin_w):
    n_bins = (tmax - tmin) // bin_w
    counts = np.zeros(n_bins, dtype=np.int64)
    for a in t_a:
        for b in t_b:
            d = int(b) - int(a)
            if tmin <= d < tmax:
                counts[(d - tmin) // bin_w] += 1
    return counts


class TestExactness:
    def test_histogram_equals_brute_force(self):
        gen = np.random.default_rng(123)
        dur = 1_000_000
        per = {0: poisson_times(2e8, 0, dur, gen),
               1: poisson_times(1e8, 0, dur, gen),
               2: poisson_times(1e8, 0, dur, gen)}
        stream = TimeTagStream.from_channel_times(per, dur)
        hist = coincidence_histogram(stream, 0, (1, 2), 500, -20_000, 20_000)
        brute = brute_pair_delays(stream.channel_times(0),
                                  np.sort(np.concatenate(
                                      [stream.channel_times(1),
                                       stream.channel_times(2)])),
                                  -20_000, 20_000, 500)
        np.testing.assert_array_equal(hist.counts, brute)

    def test_heralded_counting_equals_brute_force(self):
        gen = np.random.default_rng(321)
        dur = 10_000_000
        per = {0: poisson_times(5e7, 0, dur, gen),
               1: poisson_times(3e7, 0, dur, gen),
               2: poisson_times(3e7, 0, dur, gen)}
        stream = TimeTagStream.from_channel_times(per, dur)
        res = heralded_g2_zero(stream, 0, 1, 2, window_ps=1000)
        h = stream.channel_times(0)
        t_a, t_b = stream.channel_times(1), stream.channel_times(2)
        n_a = n_b = n_ab = 0
        for t in h:
            in_a = np.any(np.abs(t_a - t) <= 1000)
            in_b = np.any(np.abs(t_b - t) <= 1000)
            n_a += in_a
            n_b += in_b
            n_ab += in_a and in_b
        assert (res.n_a, res.n_b, res.n_ab) == (n_a, n_b, n_ab)

    def test_ideal_bench_conditional_g2_is_zero(self):
        run = default_config()
        src = replace(run.experiment.source, pair_rate=200.0,
                      multipair_prob=0.0, background_rate_signal=0.0,
                      background_rate_idler=0.0)
        exp = replace(run.experiment, source=src,
                      sample=SampleConfig(795.0, 1.0, 1.0),
                      detectors=(DetectorConfig(1.0, 0.0, 350.0, 0),
                                 DetectorConfig(0.5, 0.0, 350.0, 0),
                                 DetectorConfig(0.5, 0.0, 350.0, 0)))
        stream = run_experiment(exp, 100 * SECOND_PS, RngSpec(5150, 0))
        res = heralded_g2_zero(stream, 0, 1, 2, window_ps=150_000)
        assert res.n_heralds > 10_000
        assert res.value == 0.0 and res.n_ab == 0

    def test_simulation_is_deterministic(self):
        run = default_config()
        a = run_experiment(run.experiment, SECOND_PS, RngSpec(99, 0), segments=2)
        b = run_experiment(run.experiment, SECOND_PS, RngSpec(99, 0), segments=2)
        np.testing.assert_array_equal(a.times_ps, b.times_ps)
        np.testing.assert_array_equal(a.channels, b.channels)

    def test_tag_file_round_trip_is_byte_exact(self, tmp_path):
        run = default_config()
        stream = run_experiment(run.experiment, SECOND_PS, RngSpec(4, 0))
        path_a, path_b = tmp_path / "a.spptag", tmp_path / "b.spptag"
        write_tags(path_a, stream)
        write_tags(path_b, read_tags(path_a))
        raw = path_a.read_bytes()
        assert raw == path_b.read_bytes()
        magic, version, resolution, nch, _, duration = struct.unpack(
            "<8sIIIIQ", raw[:HEADER_SIZE])
        assert (magic, version, resolution) == (b"SPPTAG01", 1, 1)
        assert duration == SECOND_PS

    def test_config_round_trip_is_exact(self):
        run = default_config()
        assert parse_config(format_config(run)) == run

    def test_cli_pipeline(self, tmp_path, capsys):
        out = tmp_path / "t.spptag"
        assert main(["simulate", "--duration", "2s", "--seed", "8",
                     "--out", str(out)]) == 0
        assert main(["analyze", "g2", "--tags", str(out)]) == 0
        assert "heralded g2(0)" in capsys.readouterr().out
