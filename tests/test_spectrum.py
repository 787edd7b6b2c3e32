"""Hole-array transmission: direct term, plasmon resonances, Fano lineshape."""
import numpy as np
import pytest

from spptag.errors import DomainError, FitError
from spptag.spectrum import (
    GOLD,
    ArrayGeometry,
    FanoParameters,
    PermittivityTable,
    bethe_hole_transmittance,
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

    def test_explicit_initial_guess(self):
        truth = FanoParameters(806.0, 96.0, 20.0, 0.36)
        wl = np.linspace(650.0, 1000.0, 40)
        t = fano_transmittance(GEOM, wl, truth)
        fit = fit_fano(wl, t, GEOM, initial=FanoParameters(820.0, 60.0, 8.0, 0.3))
        assert fit.params.resonance_nm == pytest.approx(806.0, rel=1e-5)

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_fano(np.array([700.0, 800.0]), np.array([0.1, 0.2]), GEOM)

    def test_non_finite_model_ends_in_fit_error(self):
        # the squares of the lineshape overflow at the first guess
        with pytest.raises(FitError, match="not finite"):
            fit_fano(np.linspace(1e299, 1e300, 9), np.full(9, 0.1), GEOM)
