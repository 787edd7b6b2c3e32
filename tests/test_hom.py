"""Two-photon interference tests.

Oracles: closed-form visibilities derived by hand for all three shapes, an
aligned midpoint Riemann sum (helpers module) for the general integral, and
a Lorentzian characteristic function for the detuning profile.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import riemann_hom_coincidence
from spptag import BiphotonAmplitude, FitError, RngSpec, Shape
from spptag.hom import (
    fit_coherence_time,
    hom_coincidence,
    hom_curve,
    hom_similarity,
    hom_visibility,
)

DEXP = BiphotonAmplitude(Shape.DOUBLE_EXPONENTIAL, 50.0)
DECAY = BiphotonAmplitude(Shape.EXPONENTIAL_DECAY, 50.0)
GAUSS = BiphotonAmplitude(Shape.GAUSSIAN, 50.0)


class TestClosedForms:
    @pytest.mark.parametrize("delay", [0.0, 10.0, 25.0, 50.0, 100.0])
    def test_double_exponential_visibility(self, delay):
        x = delay / DEXP.tau0_ns
        assert hom_visibility(DEXP, delay) == pytest.approx(
            np.exp(-x) * (1 + x), abs=1e-8)

    @pytest.mark.parametrize("delay", [0.0, 15.0, 40.0])
    def test_gaussian_visibility(self, delay):
        s = GAUSS.sigma_ns
        assert hom_visibility(GAUSS, delay) == pytest.approx(
            np.exp(-delay**2 / (2 * s**2)), abs=1e-8)

    @pytest.mark.parametrize("delay", [5.0, 36.07, 72.13, 150.0])
    def test_exponential_decay_visibility(self, delay):
        x = delay / DECAY.tau0_ns
        assert hom_visibility(DECAY, delay) == pytest.approx(
            2 * x * np.exp(-2 * x) * np.exp(x), abs=1e-8)

    def test_exponential_decay_vanishes_at_zero_delay(self):
        # one-sided packets never overlap after the swap: V(0) = 0
        assert hom_visibility(DECAY, 0.0) == pytest.approx(0.0, abs=1e-10)
        assert hom_coincidence(DECAY, 0.0, 0.0) == pytest.approx(0.5, abs=1e-10)

    def test_exponential_decay_peak_visibility(self):
        # maximum 2/e at delay = tau0
        t0 = DECAY.tau0_ns
        assert hom_visibility(DECAY, t0) == pytest.approx(2 / np.e, abs=1e-8)

    def test_detuning_profile_double_exp(self):
        # P_c(Delta, 0) = (1 - 1/(1 + omega^2 tau0^2)) / 2
        for mhz in (0.0, 2.0, 4.41, 10.0, 30.0):
            omega = 2 * np.pi * 1e-3 * mhz
            expected = 0.5 * (1 - 1 / (1 + (omega * DEXP.tau0_ns) ** 2))
            assert hom_coincidence(DEXP, mhz, 0.0) == pytest.approx(expected, abs=1e-8)

    def test_half_dip_frequency_near_4p4_mhz(self):
        # dip half-depth where omega tau0 = 1: f = 1/(2 pi tau0)
        f_half = 1e3 / (2 * np.pi * DEXP.tau0_ns)
        assert hom_coincidence(DEXP, f_half, 0.0) == pytest.approx(0.25, abs=1e-6)
        assert f_half == pytest.approx(4.41, abs=0.02)


class TestAgainstRiemannOracle:
    @pytest.mark.parametrize("amp", [DEXP, DECAY, GAUSS])
    @pytest.mark.parametrize("mhz,delay", [
        (0.0, 0.0), (0.0, 8.0), (3.0, 8.0), (10.0, 42.5), (30.0, 42.5),
    ])
    def test_matches_midpoint_sum(self, amp, mhz, delay):
        ours = hom_coincidence(amp, mhz, delay)
        oracle = riemann_hom_coincidence(amp, mhz, delay)
        assert ours == pytest.approx(oracle, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from(Shape),
           fwhm=st.floats(5.0, 200.0),
           offset=st.floats(-50.0, 50.0),
           delay=st.floats(-150.0, 250.0),
           mhz=st.floats(0.0, 30.0))
    def test_matches_midpoint_sum_any_width(self, shape, fwhm, offset, delay, mhz):
        amp = BiphotonAmplitude(shape, fwhm, offset)
        assert hom_coincidence(amp, mhz, delay) == pytest.approx(
            riemann_hom_coincidence(amp, mhz, delay), abs=1e-6)


class TestLimitsAndInvariants:
    @pytest.mark.parametrize("amp", [DEXP, GAUSS])
    def test_perfect_dip_for_symmetric_shapes(self, amp):
        assert hom_coincidence(amp, 0.0, 0.0) == pytest.approx(0.0, abs=1e-9)
        assert hom_visibility(amp, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_infinite_detuning(self):
        assert hom_coincidence(DEXP, np.inf, 12.0) == 0.5

    def test_large_detuning_approaches_half(self):
        assert hom_coincidence(DEXP, 5000.0, 0.0) == pytest.approx(0.5, abs=1e-4)

    @pytest.mark.parametrize("amp", [DEXP, GAUSS])
    def test_visibility_monotone_for_symmetric_shapes(self, amp):
        delays = np.linspace(0.0, 150.0, 31)
        vis = np.array([hom_visibility(amp, d) for d in delays])
        assert np.all(np.diff(vis) <= 1e-12)
        np.testing.assert_allclose(
            vis, [hom_visibility(amp, -d) for d in delays], atol=1e-9)

    def test_probability_bounds(self):
        for amp in (DEXP, DECAY, GAUSS):
            for mhz in (0.0, 5.0, 20.0):
                for delay in (-1e5, -30.0, 0.0, 8.0, 42.5):
                    pc = hom_coincidence(amp, mhz, delay)
                    assert 0.0 - 1e-12 <= pc <= 1.0
        # far before the onset a one-sided packet cannot overlap at all
        for mhz in (0.0, 5.0, 20.0):
            assert hom_coincidence(DECAY, mhz, -1e5) == 0.5

    def test_offset_shifts_delay_axis(self):
        shifted = BiphotonAmplitude(Shape.DOUBLE_EXPONENTIAL, 50.0, offset_ns=20.0)
        assert hom_visibility(shifted, 28.0) == pytest.approx(
            hom_visibility(DEXP, 8.0), abs=1e-9)


class TestHomCurve:
    def test_curve_and_similarity(self):
        det = np.linspace(-30.0, 30.0, 21)
        a = hom_curve(DEXP, det, 8.0)
        b = hom_curve(DEXP, det, 8.0)
        assert hom_similarity(a, b) == pytest.approx(1.0, abs=1e-12)
        assert a.coincidence.shape == det.shape

    def test_grid_mismatch_raises(self):
        a = hom_curve(DEXP, [0.0, 5.0], 8.0)
        b = hom_curve(DEXP, [0.0, 6.0], 8.0)
        with pytest.raises(ValueError):
            hom_similarity(a, b)


class TestFitCoherenceTime:
    DELAYS = np.array([5.0, 10.0, 20.0, 30.0, 45.0, 60.0, 80.0, 100.0])

    def test_noise_free_round_trip(self):
        vis = np.array([hom_visibility(DEXP, d) for d in self.DELAYS])
        fwhm, err = fit_coherence_time(self.DELAYS, vis, Shape.DOUBLE_EXPONENTIAL)
        assert fwhm == pytest.approx(50.0, rel=1e-6)
        assert err < 0.1

    def test_noisy_round_trip_single_seed(self):
        gen = RngSpec(180).generator()
        vis = np.array([hom_visibility(DEXP, d) for d in self.DELAYS])
        noisy = vis * (1 + 0.02 * gen.standard_normal(vis.size))
        fwhm, _ = fit_coherence_time(self.DELAYS, noisy, Shape.DOUBLE_EXPONENTIAL,
                                     errors=0.02 * vis)
        assert fwhm == pytest.approx(50.0, rel=0.02)

    def test_rejects_degenerate_input(self):
        with pytest.raises(FitError):
            fit_coherence_time([5.0], [0.9], Shape.DOUBLE_EXPONENTIAL)
