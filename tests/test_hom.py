"""Two-photon interference tests.

Oracles: closed-form visibilities derived by hand for all three shapes, an
aligned midpoint Riemann sum (helpers module) for the general integral, and
a Lorentzian characteristic function for the detuning profile.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit

from helpers import riemann_hom_coincidence
from spptag import BiphotonAmplitude, FitError, RngSpec, Shape
from spptag.hom import (
    fit_coherence_time,
    hom_coincidence,
    hom_curve,
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
    def test_curve_is_repeatable_with_one_point_per_detuning(self):
        det = np.linspace(-30.0, 30.0, 21)
        a = hom_curve(DEXP, det, 8.0)
        b = hom_curve(DEXP, det, 8.0)
        np.testing.assert_array_equal(a.coincidence, b.coincidence)
        assert a.coincidence.shape == det.shape


class TestBroadcasting:
    # offset 12.5 ns: delays on both sides of the center and of the decay onset
    DETUNINGS = np.array([-np.inf, -20.0, -4.41, 0.0, 1e-6, 3.0, 12.0, 5000.0, np.inf])
    DELAYS = np.array([-300.0, -40.0, 0.0, 12.5 - 1e-9, 12.5, 12.5 + 1e-9, 20.0, 55.0, 400.0])

    @pytest.mark.parametrize("shape", Shape)
    def test_grid_matches_per_point_calls(self, shape):
        amp = BiphotonAmplitude(shape, 50.0, 12.5)
        grid = hom_coincidence(amp, self.DETUNINGS[:, None], self.DELAYS[None, :])
        points = [[hom_coincidence(amp, m, d) for d in self.DELAYS] for m in self.DETUNINGS]
        assert grid.shape == (self.DETUNINGS.size, self.DELAYS.size)
        np.testing.assert_array_max_ulp(grid, np.array(points), maxulp=2)
        np.testing.assert_array_equal(grid[[0, -1]], 0.5)  # infinite detuning

    # numpy squares a scalar with libm pow, which misrounds about 1 square in 1000, and an
    # array exactly: the Gaussian and two-sided forms then differ in the last bit or two
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(shape=st.sampled_from(Shape), fwhm=st.floats(1.0, 500.0),
           offset=st.floats(-50.0, 50.0),
           points=st.lists(st.tuples(st.floats(-50.0, 50.0) | st.sampled_from([np.inf, 1e300]),
                                     st.floats(-500.0, 500.0)), min_size=1, max_size=10))
    def test_scalar_calls_match_the_array_call(self, shape, fwhm, offset, points):
        amp = BiphotonAmplitude(shape, fwhm, offset)
        scalars = [hom_coincidence(amp, m, d) for m, d in points]
        array = hom_coincidence(amp, *np.array(points).T)
        if shape is Shape.EXPONENTIAL_DECAY:  # no square: bit for bit
            assert scalars == array.tolist()
        else:
            np.testing.assert_array_max_ulp(array, scalars, maxulp=2)

    @pytest.mark.parametrize("amp", [DEXP, DECAY, GAUSS])
    def test_curve_is_one_broadcast_call(self, amp):
        curve = hom_curve(amp, self.DETUNINGS, 8.0)
        np.testing.assert_array_equal(curve.coincidence,
                                      hom_coincidence(amp, self.DETUNINGS, 8.0))

    @pytest.mark.parametrize("amp", [DEXP, DECAY, GAUSS])
    def test_visibility_over_delays(self, amp):
        vis = hom_visibility(amp, self.DELAYS)
        np.testing.assert_array_max_ulp(
            vis, np.array([hom_visibility(amp, d) for d in self.DELAYS]), maxulp=2)

    @pytest.mark.parametrize("amp", [DEXP, DECAY, GAUSS])
    def test_scalars_give_floats(self, amp):
        assert isinstance(hom_coincidence(amp, 3.0, 8.0), float)
        assert isinstance(hom_coincidence(amp, np.inf, -8.0), float)
        assert isinstance(hom_visibility(amp, 8.0), float)

    @pytest.mark.parametrize("fwhm", [1e-200, 1e160, 1e300])
    def test_double_exponential_width_out_of_range(self, fwhm):
        amp = BiphotonAmplitude(Shape.DOUBLE_EXPONENTIAL, fwhm)
        with pytest.raises(ValueError, match="fwhm_ns"):
            hom_coincidence(amp, 0.0, 0.0)

    def test_gaussian_limits(self):
        # squares beyond the double range reach the limit of no overlap
        wide = BiphotonAmplitude(Shape.GAUSSIAN, 1e300)
        np.testing.assert_array_equal(hom_coincidence(wide, [0.0, 0.5], 0.0), [0.0, 0.5])
        np.testing.assert_array_equal(hom_coincidence(GAUSS, [0.0, 1e300], 0.0), [0.0, 0.5])

    @pytest.mark.parametrize("shape", list(Shape))
    @pytest.mark.parametrize("fwhm", [1e-150, 50.0])
    def test_products_beyond_double_range_are_no_overlap(self, shape, fwhm):
        # delays far beyond the width, where detuning x delay or delay / width may
        # overflow: the limit 1/2, no nan and no warning (the suite raises warnings)
        amp = BiphotonAmplitude(shape, fwhm)
        pc = hom_coincidence(amp, np.array([[0.0], [1.0], [1e100], [1e300]]),
                             [1e11, 1e300, 1e308])
        np.testing.assert_array_equal(pc, np.full((4, 3), 0.5))


class TestInfiniteDelay:
    """At an infinite delay the packets do not overlap: P_c is 1/2, also at zero detuning,
    where the phase omega * d is 0 * inf = nan and once hid the limit."""

    @pytest.mark.parametrize("shape", list(Shape))
    @pytest.mark.parametrize("delay", [np.inf, -np.inf])
    @pytest.mark.parametrize("detuning", [0.0, 5.0, np.inf])
    def test_limit_is_one_half(self, shape, delay, detuning):
        amp = BiphotonAmplitude(shape, 50.0, 12.5)
        assert hom_coincidence(amp, detuning, delay) == 0.5
        np.testing.assert_array_equal(
            hom_coincidence(amp, [detuning, 0.0], [delay, 0.0])[0], 0.5)

    @pytest.mark.parametrize("shape", list(Shape))
    def test_nan_inputs_give_nan(self, shape):
        amp = BiphotonAmplitude(shape, 50.0, 12.5)
        for detuning, delay in [(np.nan, 0.0), (np.nan, np.inf), (np.nan, -np.inf),
                                (0.0, np.nan), (5.0, np.nan), (np.inf, np.nan)]:
            assert np.isnan(hom_coincidence(amp, detuning, delay))


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
        fwhm, _ = fit_coherence_time(self.DELAYS, noisy, Shape.DOUBLE_EXPONENTIAL)
        assert fwhm == pytest.approx(50.0, rel=0.02)

    def test_rejects_degenerate_input(self):
        with pytest.raises(FitError):
            fit_coherence_time([5.0], [0.9], Shape.DOUBLE_EXPONENTIAL)

    def test_rejects_a_nonpositive_width(self):
        # zero visibility away from zero delay drives the width toward zero, where the
        # visibility and its slope underflow to zero and no width is determined
        with pytest.raises(FitError, match="do not determine"):
            fit_coherence_time([10.0, 20.0, 30.0], [0.0, 0.0, 0.0], Shape.DOUBLE_EXPONENTIAL)

    def test_a_trial_step_through_zero_width_fails_and_is_damped(self):
        # the first trial step from the start width crosses zero; a truth of 22.5 ns
        fwhm, err = fit_coherence_time([20.616, 29.063, 29.54, 37.861],
                                       [0.6184, 0.4631, 0.4801, 0.3143], Shape.DOUBLE_EXPONENTIAL)
        assert fwhm == pytest.approx(22.45, abs=0.005)
        assert err == pytest.approx(0.40, abs=0.005)

    def test_rejects_points_that_leave_the_width_free(self):
        # every shape has the same visibility at zero delay, whatever its width
        with pytest.raises(FitError, match="do not determine"):
            fit_coherence_time([0.0, 0.0], [0.5, 0.5], Shape.DOUBLE_EXPONENTIAL)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(shape=st.sampled_from(Shape), fwhm=st.floats(5.0, 200.0),
           points=st.integers(5, 25), noise=st.floats(0.0, 0.02),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_curve_fit(self, shape, fwhm, points, noise, seed):
        """Same start point as curve_fit (MINPACK): the same width and error."""
        delays = np.linspace(0.0, 1.5 * fwhm, points)
        vis = hom_visibility(BiphotonAmplitude(shape, fwhm), delays)
        vis = vis * (1.0 + noise * np.random.default_rng(seed).standard_normal(points))
        popt, pcov = curve_fit(
            lambda d, w: hom_visibility(BiphotonAmplitude(shape, w), d), delays, vis,
            p0=[max(2.0 * float(np.mean(delays)), 1.0)], maxfev=200)
        fwhm_fit, err = fit_coherence_time(delays, vis, shape)
        assert fwhm_fit == pytest.approx(popt[0], rel=1e-6)
        # without noise both errors are round-off: below 1e-8 of the width they need not agree
        assert err == pytest.approx(np.sqrt(pcov[0, 0]), rel=1e-4, abs=1e-8 * popt[0])
