"""Hole-array transmission: direct term, plasmon resonances, Fano lineshape."""
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, curve_fit

from spptag.errors import DomainError, FitError
from spptag.spectrum import (
    GOLD,
    ArrayGeometry,
    FanoParameters,
    PermittivityTable,
    bethe_hole_transmittance,
    _fano_channels,
    _resonance_wavelength_for_index,
    bethe_transmittance,
    fano_spectrum,
    fano_transmittance,
    fit_fano,
    gold_permittivity,
    spp_effective_index,
    spp_resonance_wavelength,
    spp_resonance_wavelengths,
)

GEOM = ArrayGeometry(pitch_nm=430.0, hole_diameter_nm=200.0,
                     film_thickness_nm=100.0, taper_angle_deg=17.0)


def constant_table(eps: complex) -> PermittivityTable:
    wl = np.array([100.0, 3000.0])
    return PermittivityTable(wl, np.array([eps, eps]))


class TestBethe:
    def test_hole_formula_by_hand(self):
        # independent arithmetic: T = (64 / 27 pi^2) (2 pi r / wl)^4
        wl = 795.0
        kr = 2.0 * np.pi * 100.0 / wl
        want = 64.0 / (27.0 * np.pi**2) * kr**4
        assert bethe_hole_transmittance(GEOM, wl) == pytest.approx(want, rel=1e-12)

    def test_array_is_hole_times_open_fraction(self):
        wl = np.linspace(500.0, 1200.0, 11)
        hole = bethe_hole_transmittance(GEOM, wl)
        frac = np.pi * 100.0**2 / 430.0**2
        np.testing.assert_allclose(bethe_transmittance(GEOM, wl), hole * frac,
                                   rtol=1e-12)

    def test_inverse_fourth_power_scaling(self):
        t1 = bethe_transmittance(GEOM, 600.0)
        t2 = bethe_transmittance(GEOM, 1200.0)
        assert t1 / t2 == pytest.approx(16.0, rel=1e-12)

    def test_reference_values(self):
        assert bethe_hole_transmittance(GEOM, 795.0) == pytest.approx(0.0937, abs=2e-4)
        assert bethe_transmittance(GEOM, 795.0) == pytest.approx(0.0159, abs=2e-4)

    def test_positive_wavelength_required(self):
        with pytest.raises(ValueError):
            bethe_transmittance(GEOM, 0.0)

    def test_non_finite_result_rejected(self):
        with pytest.raises(ValueError, match="small-hole law"):
            bethe_hole_transmittance(GEOM, 1e-300)


class TestGeometry:
    def test_hole_must_fit_in_cell(self):
        with pytest.raises(ValueError):
            ArrayGeometry(pitch_nm=430.0, hole_diameter_nm=430.0)
        with pytest.raises(ValueError):
            ArrayGeometry(hole_diameter_nm=0.0)

    def test_descriptor_validation(self):
        with pytest.raises(ValueError):
            ArrayGeometry(film_thickness_nm=-1.0)
        with pytest.raises(ValueError):
            ArrayGeometry(taper_angle_deg=60.0)

    def test_open_area_fraction(self):
        assert GEOM.open_area_fraction == pytest.approx(
            np.pi * 0.25 * (200.0 / 430.0) ** 2, rel=1e-12)


class TestPermittivity:
    def test_nodes_are_exact(self):
        table = GOLD
        mid = table.wavelength_nm[20]
        assert table.permittivity(mid) == table.epsilon[20]

    def test_gold_near_infrared(self):
        eps = gold_permittivity(795.0)
        assert -25.0 < eps.real < -22.0
        assert 1.2 < eps.imag < 1.8

    def test_metallic_across_red(self):
        wl = np.linspace(600.0, 1500.0, 50)
        eps = gold_permittivity(wl)
        assert np.all(eps.real < -8.0)
        assert np.all(eps.imag > 0.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            gold_permittivity(120.0)
        with pytest.raises(DomainError):
            gold_permittivity(2500.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PermittivityTable(np.array([2.0, 1.0]), np.array([1j, 1j]))
        with pytest.raises(ValueError):
            PermittivityTable(np.array([1.0, 2.0]), np.array([1j]))

    def test_bound_mode_above_light_line(self):
        wl = np.linspace(550.0, 1500.0, 40)
        assert np.all(spp_effective_index(wl, "glass") > np.sqrt(2.25))
        assert np.all(spp_effective_index(wl, "air") > 1.0)


class TestResonance:
    """Closed forms hold exactly once the mode index stops moving."""

    def test_normal_incidence_closed_form(self):
        table = constant_table(-25.0 + 1.5j)
        n = spp_effective_index(1000.0, "glass", table)
        for order in [(1, 0), (0, 1), (1, 1), (2, 1)]:
            wl = spp_resonance_wavelength(GEOM, order, "glass", 0.0, "tm", table)
            want = 430.0 * n / np.hypot(*order)
            assert wl == pytest.approx(want, rel=1e-9)

    def test_tm_split_closed_form(self):
        table = constant_table(-25.0 + 1.5j)
        n = spp_effective_index(1000.0, "glass", table)
        s = np.sin(np.radians(12.0))
        plus = spp_resonance_wavelength(GEOM, (-1, 0), "glass", 12.0, "tm", table)
        minus = spp_resonance_wavelength(GEOM, (1, 0), "glass", 12.0, "tm", table)
        assert minus == pytest.approx(430.0 * (n - s), rel=1e-9)
        assert plus == pytest.approx(430.0 * (n + s), rel=1e-9)

    def test_te_closed_form(self):
        table = constant_table(-25.0 + 1.5j)
        n = spp_effective_index(1000.0, "glass", table)
        s = np.sin(np.radians(12.0))
        wl = spp_resonance_wavelength(GEOM, (1, 0), "glass", 12.0, "te", table)
        assert wl == pytest.approx(430.0 * np.sqrt(n**2 - s**2), rel=1e-9)

    def test_gold_glass_fundamental(self):
        wl = spp_resonance_wavelength(GEOM, (1, 0), "glass")
        assert 680.0 < wl < 710.0

    def test_gold_air_fundamental(self):
        wl = spp_resonance_wavelength(GEOM, (1, 0), "air")
        assert 425.0 < wl < 450.0

    def test_glass_redder_than_air(self):
        glass, air = (spp_resonance_wavelength(GEOM, (1, 0), iface)
                      for iface in ("glass", "air"))
        assert glass > air

    def test_self_consistency_residual(self):
        # solver output must reproduce itself through the dispersion relation
        for iface in ("glass", "air"):
            wl = spp_resonance_wavelength(GEOM, (1, 0), iface)
            n = spp_effective_index(wl, iface)
            assert wl == pytest.approx(430.0 * n, rel=1e-6)

    def test_degenerate_orders_at_normal_incidence(self):
        a = spp_resonance_wavelength(GEOM, (1, 0), "glass", 0.0, "tm")
        b = spp_resonance_wavelength(GEOM, (-1, 0), "glass", 0.0, "tm")
        assert a == pytest.approx(b, rel=1e-9)

    def test_te_barely_moves_with_angle(self):
        normal = spp_resonance_wavelength(GEOM, (1, 0), "glass", 0.0, "te")
        tilted = spp_resonance_wavelength(GEOM, (1, 0), "glass", 10.0, "te")
        assert abs(tilted - normal) / normal < 0.01

    def test_tm_split_brackets_normal_incidence(self):
        normal = spp_resonance_wavelength(GEOM, (1, 0), "glass", 0.0, "tm")
        minus = spp_resonance_wavelength(GEOM, (1, 0), "glass", 8.0, "tm")
        plus = spp_resonance_wavelength(GEOM, (-1, 0), "glass", 8.0, "tm")
        assert minus < normal < plus

    def test_batch_matches_singles(self):
        orders = [(1, 0), (1, 1)]
        batch = spp_resonance_wavelengths(GEOM, orders, "glass")
        singles = [spp_resonance_wavelength(GEOM, o, "glass") for o in orders]
        np.testing.assert_allclose(batch, singles, rtol=0)

    def test_zero_order_rejected(self):
        with pytest.raises(ValueError):
            spp_resonance_wavelength(GEOM, (0, 0), "glass")

    def test_bad_polarization_rejected(self):
        with pytest.raises(ValueError):
            spp_resonance_wavelength(GEOM, (1, 0), "glass", 0.0, "circular")

    def test_out_of_table_order_raises(self):
        # (3, 3) on glass sits far below the tabulated range
        with pytest.raises(DomainError):
            spp_resonance_wavelength(GEOM, (3, 3), "glass")


class TestResonanceAgainstBrentq:
    """The secant solve lands on a root of target(wl) - wl that brentq brackets."""

    @staticmethod
    def _excess(wl, order, interface, theta_deg, polarization):
        try:
            n_eff = spp_effective_index(wl, interface)
            return _resonance_wavelength_for_index(GEOM, n_eff, order, theta_deg,
                                                   polarization) - wl
        except DomainError:  # no propagating mode at this wavelength
            return np.nan

    @pytest.mark.parametrize("polarization", ["tm", "te"])
    @pytest.mark.parametrize("theta_deg", [0.0, 8.0, 12.0])
    @pytest.mark.parametrize("interface", ["glass", "air"])
    @pytest.mark.parametrize("order", [(1, 0), (1, 1), (2, 1), (-1, 0)])
    def test_matches_brentq_root(self, order, interface, theta_deg, polarization):
        args = (order, interface, theta_deg, polarization)
        grid = np.linspace(GOLD.wavelength_nm[0], GOLD.wavelength_nm[-1], 400)
        ex = np.array([self._excess(wl, *args) for wl in grid])
        brackets = [(a, b) for a, b, fa, fb in zip(grid, grid[1:], ex, ex[1:]) if fa * fb <= 0]
        try:
            got = spp_resonance_wavelength(GEOM, *args)
        except DomainError:
            assert not brackets  # the table holds no root
            return
        a, b = next((a, b) for a, b in brackets if a <= got <= b)
        want = brentq(self._excess, a, b, args=args, xtol=1e-13 * a, rtol=1e-15)
        assert got == pytest.approx(want, rel=1e-9)


class TestFano:
    def test_default_value_near_line_center(self):
        assert fano_transmittance(GEOM, 795.0) == pytest.approx(0.3355, abs=5e-3)

    def test_peak_position_and_height(self):
        wl = np.linspace(700.0, 900.0, 4001)
        spec = fano_spectrum(GEOM, wl)
        i = int(np.argmax(spec.total))
        p = FanoParameters()
        assert spec.wavelength_nm[i] == pytest.approx(p.peak_wavelength_nm, abs=0.5)
        assert spec.total[i] == pytest.approx(p.peak_transmittance, abs=1e-3)

    def test_channels_sum_exactly(self):
        wl = np.linspace(450.0, 1100.0, 301)
        spec = fano_spectrum(GEOM, wl)
        np.testing.assert_array_equal(spec.total, spec.resonant + spec.direct)

    def test_physical_range(self):
        spec = fano_spectrum(GEOM, np.linspace(420.0, 1200.0, 1001))
        assert np.all(spec.total >= 0.0)
        assert np.all(spec.total <= 1.0)

    def test_blue_flank_relaxes_to_direct_term(self):
        # far from resonance the array transmits like bare Bethe holes
        wl = np.linspace(420.0, 470.0, 26)
        spec = fano_spectrum(GEOM, wl)
        assert np.all(np.abs(spec.total - spec.direct) / spec.direct < 0.10)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FanoParameters(fwhm_nm=0.0)
        with pytest.raises(ValueError):
            FanoParameters(q=-1.0)
        with pytest.raises(ValueError):
            FanoParameters(peak_transmittance=1.5)

    def test_peak_below_background_rejected(self):
        params = FanoParameters(peak_transmittance=0.001)
        with pytest.raises(ValueError):
            fano_spectrum(GEOM, np.linspace(700.0, 900.0, 11), params)

    def test_above_unity_rejected(self):
        # low q keeps the resonant term near its maximum even 50 nm out,
        # where the direct term has grown: total crosses unity on the blue wing
        params = FanoParameters(resonance_nm=500.0, q=0.2,
                                peak_transmittance=1.0, fwhm_nm=5.0)
        with pytest.raises(ValueError):
            fano_spectrum(GEOM, np.linspace(450.0, 550.0, 101), params)

    @pytest.mark.parametrize("grid", [
        [800.0], [900.0, 800.0], [800.0, 800.0, 900.0], [[700.0, 800.0], [850.0, 900.0]],
    ])
    def test_grid_must_be_strictly_increasing_and_1d(self, grid):
        with pytest.raises(ValueError, match="need a strictly increasing 1-d wavelength grid"):
            fano_spectrum(GEOM, grid)

    @pytest.mark.parametrize("wl,params", [
        (1e300, FanoParameters()),
        (806.0, FanoParameters(fwhm_nm=1e-300)),  # 0 / 0 at the resonance
        (800.0, FanoParameters(resonance_nm=1e300)),
    ])
    def test_non_finite_result_rejected(self, wl, params):
        with pytest.raises(ValueError, match="non-finite"):
            fano_transmittance(GEOM, wl, params)


class TestScalarInScalarOut:
    def test_real_functions_give_floats(self):
        assert isinstance(bethe_hole_transmittance(GEOM, 795.0), float)
        assert isinstance(bethe_transmittance(GEOM, 795.0), float)
        assert isinstance(spp_effective_index(795.0), float)
        assert isinstance(fano_transmittance(GEOM, 795.0), float)

    def test_permittivity_gives_complex(self):
        assert isinstance(gold_permittivity(795.0), complex)

    def test_arrays_match_scalars(self):
        wl = np.array([600.0, 795.0, 1000.0])
        for f in (gold_permittivity, spp_effective_index,
                  lambda w: bethe_hole_transmittance(GEOM, w),
                  lambda w: fano_transmittance(GEOM, w)):
            np.testing.assert_array_equal(f(wl), [f(w) for w in wl])


class TestFanoFit:
    def test_noise_free_round_trip(self):
        truth = FanoParameters(801.0, 88.0, 17.0, 0.34)
        wl = np.linspace(600.0, 1000.0, 60)
        t = fano_transmittance(GEOM, wl, truth)
        fit = fit_fano(wl, t, GEOM)
        assert fit.params.resonance_nm == pytest.approx(truth.resonance_nm, rel=1e-6)
        assert fit.params.fwhm_nm == pytest.approx(truth.fwhm_nm, rel=1e-6)
        assert fit.params.q == pytest.approx(truth.q, rel=1e-5)
        assert fit.params.peak_transmittance == pytest.approx(
            truth.peak_transmittance, rel=1e-6)
        assert fit.residual_rms < 1e-10

    def test_recovers_under_multiplicative_noise(self):
        truth = FanoParameters(806.0, 96.0, 20.0, 0.36)
        wl = np.linspace(650.0, 1000.0, 50)
        t = fano_transmittance(GEOM, wl, truth)
        rng = np.random.default_rng(42)
        noisy = t * (1.0 + 0.02 * rng.standard_normal(t.size))
        fit = fit_fano(wl, noisy, GEOM)
        assert fit.params.resonance_nm == pytest.approx(truth.resonance_nm, rel=0.05)
        assert fit.params.fwhm_nm == pytest.approx(truth.fwhm_nm, rel=0.05)
        assert fit.params.peak_transmittance == pytest.approx(
            truth.peak_transmittance, rel=0.05)
        assert np.all(np.isfinite(fit.stderr))

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_fano(np.array([700.0, 800.0]), np.array([0.1, 0.2]), GEOM)

    def test_non_finite_model_ends_in_fit_error(self):
        # the squares of the lineshape overflow at the first guess
        with pytest.raises(FitError, match="not finite"):
            fit_fano(np.linspace(1e299, 1e300, 9), np.full(9, 0.1), GEOM)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(resonance=st.floats(700.0, 900.0), fwhm=st.floats(40.0, 150.0),
           q=st.floats(3.0, 25.0), peak=st.floats(0.25, 0.5), points=st.integers(20, 401),
           noise=st.floats(0.0, 0.02), seed=st.integers(0, 2**32 - 1))
    def test_matches_curve_fit(self, resonance, fwhm, q, peak, points, noise, seed):
        """Same start point and bounds as curve_fit (TRF): the same parameters and errors."""
        wl = np.linspace(600.0, 1000.0, points)
        t = fano_transmittance(GEOM, wl, FanoParameters(resonance, fwhm, q, peak))
        t = t * (1.0 + noise * np.random.default_rng(seed).standard_normal(points))
        fit = fit_fano(wl, t, GEOM)
        popt, pcov = _curve_fit_fano(wl, t)
        np.testing.assert_allclose(astuple(fit.params), popt, rtol=1e-6)
        # without noise both errors are round-off: below 1e-8 of the parameter they need not agree
        want = np.sqrt(np.diag(pcov))
        assert np.all(np.abs(fit.stderr - want) <= 1e-4 * want + 1e-8 * np.abs(popt))

    # a wide line through a narrow window and a narrow line near a window's edge, which once
    # ended at the q = 0.05 bound and in a singular J'J; a low-q line at a window's edge; and
    # a line wider than its window, where the last start ends far worse than an earlier one
    @example(751.3, 111.7, 0.265, 179.2, 17.25, 0.333, 210, 0.0044, 2)
    @example(644.9, 508.6, 0.919, 28.7, 16.29, 0.327, 226, 0.0072, 2)
    @example(921.6, 111.5, 0.0, 20.0, 1.0, 0.204, 205, 0.0083, 1439008691)
    @example(1100.0, 454.8, 0.781, 200.0, 25.0, 0.558, 401, 0.02, 289648012)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(lo=st.floats(450.0, 1100.0), width=st.floats(100.0, 750.0), at=st.floats(0.0, 1.0),
           fwhm=st.floats(20.0, 200.0), q=st.floats(1.0, 25.0), peak=st.floats(0.2, 0.6),
           points=st.integers(20, 401), noise=st.floats(0.0, 0.02),
           seed=st.integers(0, 2**32 - 1))
    def test_reaches_curve_fit_minimum(self, lo, width, at, fwhm, q, peak, points, noise, seed):
        """Any window in 450-1200 nm: where TRF fits the data to their noise from fit_fano's
        first start, fit_fano reaches the same minimum or a deeper one.

        Where the line is wider than the window or runs past its edge, the cost is flat along
        some direction and the two stopping rules end apart by up to 1e-4 standard errors.
        """
        wl = np.linspace(lo, min(lo + width, 1200.0), points)
        t = fano_transmittance(GEOM, wl, FanoParameters(wl[0] + at * (wl[-1] - wl[0]),
                                                        fwhm, q, peak))
        t = t * (1.0 + noise * np.random.default_rng(seed).standard_normal(points))
        fit = fit_fano(wl, t, GEOM)
        popt, pcov = _curve_fit_fano(wl, t)
        trf_rms, t_rms = np.sqrt(np.mean((_fano_model(wl, *popt) - t) ** 2)), np.sqrt(np.mean(t**2))
        if trf_rms > (1.5 * noise + 1e-9) * t_rms or fit.residual_rms < (1.0 - 1e-6) * trf_rms:
            return  # TRF missed the line, or stopped in a shallower minimum
        want = np.sqrt(np.diag(pcov))
        assert np.all(np.abs(astuple(fit.params) - popt) <= 1e-6 * np.abs(popt) + 1e-3 * want)
        assert np.all(np.abs(fit.stderr - want) <= 1e-2 * want + 1e-8 * np.abs(popt))


def _fano_model(wl, *p):
    """fit_fano's model, unchecked at trial points."""
    return _fano_channels(GEOM, wl, bethe_transmittance(GEOM, wl), p, strict=False)[0]


def _curve_fit_fano(wl, t):
    """curve_fit (TRF) from fit_fano's first start point, inside fit_fano's bounds."""
    i, span = int(np.argmax(t)), wl[-1] - wl[0]
    return curve_fit(_fano_model, wl, t,
                     p0=(wl[i], max(span / 4.0, 1.0), 10.0, np.clip(t[i], 1e-3, 1.0)),
                     bounds=([wl[0] - span, 1e-3, 0.05, 1e-6],
                             [wl[-1] + span, 10 * span, 1e4, 1.0]))
