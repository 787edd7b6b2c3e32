"""Density, sampling, and container tests for the core model.

Oracles: adaptive quadrature for normalization, closed-form CDFs written
here (independently of the package's inverse-CDF code) for KS tests.
"""
import numpy as np
import pytest
from scipy import integrate, stats

from spptag import BiphotonAmplitude, RngSpec, Shape, TimeTagStream, TemporalWaveform
from spptag.model import evaluate_density, sample_delay

FWHM = 50.0


def _cdf_double_exp(x, fwhm, offset=0.0):
    t0 = fwhm / (2.0 * np.log(2.0))
    z = (np.asarray(x, dtype=float) - offset) / t0
    return np.where(z < 0, 0.5 * np.exp(z), 1.0 - 0.5 * np.exp(-z))


def _cdf_exp_decay(x, fwhm, offset=0.0):
    t0 = fwhm / np.log(2.0)
    z = (np.asarray(x, dtype=float) - offset) / t0
    return np.where(z < 0, 0.0, 1.0 - np.exp(-np.clip(z, 0.0, None)))


def _cdf_gauss(x, fwhm, offset=0.0):
    s = fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    return stats.norm.cdf(x, loc=offset, scale=s)


class TestDensity:
    @pytest.mark.parametrize("shape", [Shape.DOUBLE_EXPONENTIAL, Shape.GAUSSIAN])
    def test_normalization_symmetric_shapes(self, shape):
        # integral over +-10 fwhm; the double-exp tail beyond that is 2^-20
        amp = BiphotonAmplitude(shape, FWHM, offset_ns=3.0)
        val, err = integrate.quad(
            lambda t: evaluate_density(amp, t),
            amp.offset_ns - 10 * FWHM, amp.offset_ns + 10 * FWHM,
            points=[amp.offset_ns], limit=200, epsabs=1e-12, epsrel=1e-12)
        assert abs(val - 1.0) < 1e-6

    def test_normalization_exp_decay(self):
        # one-sided shape: tail beyond 10*fwhm is 2^-10 ~ 1e-3, so the tight
        # tolerance needs a wider window; check both facts
        amp = BiphotonAmplitude(Shape.EXPONENTIAL_DECAY, FWHM)
        val10, _ = integrate.quad(lambda t: evaluate_density(amp, t),
                                  0.0, 10 * FWHM, limit=200, epsabs=1e-12)
        assert abs((1.0 - val10) - 2.0 ** -10) < 1e-6
        val25, _ = integrate.quad(lambda t: evaluate_density(amp, t),
                                  0.0, 25 * FWHM, limit=300, epsabs=1e-12)
        assert abs(val25 - 1.0) < 1e-6

    def test_double_exp_peak_value(self):
        # peak = 1/(2 tau0), tau0 = fwhm / (2 ln 2) = 36.067 ns at fwhm 50
        amp = BiphotonAmplitude(Shape.DOUBLE_EXPONENTIAL, FWHM)
        assert amp.tau0_ns == pytest.approx(36.0674, abs=5e-4)
        assert evaluate_density(amp, 0.0) == pytest.approx(1.0 / (2 * 36.0674), rel=1e-4)

    @pytest.mark.parametrize("shape,offset", [
        (Shape.DOUBLE_EXPONENTIAL, 0.0),
        (Shape.DOUBLE_EXPONENTIAL, -7.5),
        (Shape.GAUSSIAN, 12.0),
    ])
    def test_fwhm_is_half_maximum_separation(self, shape, offset):
        amp = BiphotonAmplitude(shape, FWHM, offset_ns=offset)
        peak = evaluate_density(amp, offset)
        assert evaluate_density(amp, offset - FWHM / 2) == pytest.approx(peak / 2, rel=1e-12)
        assert evaluate_density(amp, offset + FWHM / 2) == pytest.approx(peak / 2, rel=1e-12)

    def test_fwhm_exp_decay(self):
        amp = BiphotonAmplitude(Shape.EXPONENTIAL_DECAY, FWHM, offset_ns=2.0)
        peak = evaluate_density(amp, 2.0)
        assert evaluate_density(amp, 2.0 + FWHM) == pytest.approx(peak / 2, rel=1e-12)
        assert evaluate_density(amp, 1.999999) == 0.0

    def test_offset_translates_density(self):
        tau = np.linspace(-200, 200, 401)
        for shape in Shape:
            a0 = BiphotonAmplitude(shape, FWHM)
            a1 = BiphotonAmplitude(shape, FWHM, offset_ns=17.0)
            np.testing.assert_allclose(evaluate_density(a1, tau + 17.0),
                                       evaluate_density(a0, tau), rtol=1e-12)

    def test_scalar_in_scalar_out(self):
        amp = BiphotonAmplitude(Shape.GAUSSIAN, FWHM)
        assert isinstance(evaluate_density(amp, 1.5), float)

    def test_rejects_bad_fwhm(self):
        with pytest.raises(ValueError):
            BiphotonAmplitude(Shape.GAUSSIAN, 0.0)
        with pytest.raises(ValueError):
            BiphotonAmplitude(Shape.GAUSSIAN, -3.0)


class TestSampling:
    N = 100_000

    @pytest.mark.parametrize("shape,cdf", [
        (Shape.DOUBLE_EXPONENTIAL, _cdf_double_exp),
        (Shape.EXPONENTIAL_DECAY, _cdf_exp_decay),
        (Shape.GAUSSIAN, _cdf_gauss),
    ])
    def test_ks_against_analytic_cdf(self, shape, cdf):
        amp = BiphotonAmplitude(shape, FWHM, offset_ns=4.0)
        draws = sample_delay(amp, RngSpec(2024, 1), size=self.N)
        res = stats.kstest(draws, lambda x: cdf(x, FWHM, 4.0))
        assert res.pvalue > 0.01

    def test_empirical_fwhm_double_exp(self):
        # Laplace scale MLE: mean |x - median|; fwhm = 2 ln2 * scale
        amp = BiphotonAmplitude(Shape.DOUBLE_EXPONENTIAL, FWHM)
        draws = sample_delay(amp, RngSpec(2024, 2), size=self.N)
        scale = np.mean(np.abs(draws - np.median(draws)))
        fwhm_hat = 2.0 * np.log(2.0) * scale
        assert 47.0 < fwhm_hat < 53.0

    def test_deterministic_per_spec(self):
        amp = BiphotonAmplitude(Shape.DOUBLE_EXPONENTIAL, FWHM)
        a = sample_delay(amp, RngSpec(7, 3), size=1000)
        b = sample_delay(amp, RngSpec(7, 3), size=1000)
        np.testing.assert_array_equal(a, b)
        c = sample_delay(amp, RngSpec(7, 4), size=1000)
        assert not np.array_equal(a, c)

    def test_scalar_draw(self):
        amp = BiphotonAmplitude(Shape.GAUSSIAN, FWHM)
        x = sample_delay(amp, RngSpec(1))
        assert isinstance(x, float)

    def test_exp_decay_support(self):
        amp = BiphotonAmplitude(Shape.EXPONENTIAL_DECAY, FWHM, offset_ns=-5.0)
        draws = sample_delay(amp, RngSpec(11), size=10_000)
        assert draws.min() >= -5.0


class TestRngSpec:
    def test_same_key_same_stream(self):
        g1 = RngSpec(99, 5).generator()
        g2 = RngSpec(99, 5).generator()
        np.testing.assert_array_equal(g1.random(64), g2.random(64))

    def test_children_distinct(self):
        parent = RngSpec(99, 5)
        seen = set()
        for k in range(16):
            child = parent.child(k)
            seen.add(child.stream_id)
            a = child.generator().random(8)
            b = parent.generator().random(8)
            assert not np.array_equal(a, b)
        assert len(seen) == 16

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RngSpec(-1)
        with pytest.raises(ValueError):
            RngSpec(0, 2**64)


class TestTimeTagStream:
    def test_roundtrip_and_lookup(self):
        s = TimeTagStream([10, 20, 20, 35], [0, 1, 0, 2], duration_ps=100)
        assert len(s) == 4
        np.testing.assert_array_equal(s.channel_times(0), [10, 20])
        np.testing.assert_array_equal(s.channel_times((1, 2)), [20, 35])
        assert s.count(2) == 1
        assert s.rate(0) == pytest.approx(2 / 100e-12)

    def test_merge_sorted_with_channel_tiebreak(self):
        s = TimeTagStream.from_channel_times(
            {2: np.array([5, 40]), 0: np.array([5, 10])}, duration_ps=50)
        np.testing.assert_array_equal(s.times_ps, [5, 5, 10, 40])
        np.testing.assert_array_equal(s.channels, [0, 2, 0, 2])

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeTagStream([10, 5], [0, 0], 100)          # unsorted
        with pytest.raises(ValueError):
            TimeTagStream([-1, 5], [0, 0], 100)          # negative time
        with pytest.raises(ValueError):
            TimeTagStream([5, 200], [0, 0], 100)         # beyond duration
        with pytest.raises(ValueError):
            TimeTagStream([5], [0, 1], 100)              # length mismatch
        with pytest.raises(ValueError):
            TimeTagStream([], [], 0)                     # empty duration

    def test_equality(self):
        a = TimeTagStream([1, 2], [0, 1], 10)
        b = TimeTagStream([1, 2], [0, 1], 10)
        c = TimeTagStream([1, 2], [0, 1], 11)
        assert a == b and a != c


class TestTemporalWaveform:
    def test_centers_and_errors(self):
        w = TemporalWaveform(-10.0, 2.0, [4.0, 9.0, 0.0])
        np.testing.assert_allclose(w.centers_ns(), [-9.0, -7.0, -5.0])
        np.testing.assert_allclose(w.errors, [2.0, 3.0, 0.0])
        assert w.total() == 13.0

    def test_rejects_bad_bin(self):
        with pytest.raises(ValueError):
            TemporalWaveform(0.0, 0.0, [1.0])
