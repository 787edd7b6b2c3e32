"""Density, sampling, and container tests for the core model.

Oracles: adaptive quadrature for normalization, closed-form CDFs written
here (independently of the package's inverse-CDF code) for KS tests.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from helpers import at_each_block
from spptag import BiphotonAmplitude, RngSpec, Shape, TimeTagStream, model
from spptag.errors import FitError
from spptag.model import U_CLIP, evaluate_density, least_squares, normal_quantile, sample_delay

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
        for shape in Shape:
            amp = BiphotonAmplitude(shape, FWHM)
            for tau in (-1.5, 0.0, 1.5):  # both sides of the exponential decay's onset
                assert isinstance(evaluate_density(amp, tau), float)
                assert evaluate_density(amp, tau) == evaluate_density(amp, np.array([tau]))[0]

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

    def test_exp_decay_support(self):
        amp = BiphotonAmplitude(Shape.EXPONENTIAL_DECAY, FWHM, offset_ns=-5.0)
        draws = sample_delay(amp, RngSpec(11), size=10_000)
        assert draws.min() >= -5.0

    def test_normal_quantile_is_clipped_ppf(self):
        u = np.array([0.0, U_CLIP, 0.025, 0.5, 0.975, 1.0 - U_CLIP, 1.0])
        np.testing.assert_allclose(normal_quantile(u),
                                   stats.norm.ppf(np.clip(u, U_CLIP, 1.0 - U_CLIP)),
                                   rtol=1e-12)
        assert normal_quantile(0.0) == normal_quantile(U_CLIP)
        assert normal_quantile(1.0) == normal_quantile(1.0 - U_CLIP)


def _ulps_from_ndtri(u):
    want = special.ndtri(np.clip(u, U_CLIP, 1.0 - U_CLIP))
    return np.abs(normal_quantile(u) - want) / np.spacing(np.abs(want))


class TestNormalQuantile:
    """normal_quantile (AS241 in numpy) against scipy's ndtri."""

    def test_within_8_ulp_over_uniforms(self):
        u = RngSpec(2024).generator().random(10**6)
        assert _ulps_from_ndtri(u).max() <= 8

    def test_within_8_ulp_over_both_tails(self):
        # the clip flattens probabilities below U_CLIP, so this also covers the clip
        p = np.logspace(-300, np.log10(0.5), 20_000)
        assert _ulps_from_ndtri(p).max() <= 8
        assert _ulps_from_ndtri(1.0 - p).max() <= 8
        assert _ulps_from_ndtri(np.logspace(-16, -1, 20_000, base=2.0) + 0.5).max() <= 8

    def test_jitter_shifts_match_ndtri(self):
        # the detector's rint(sigma * x) at sigma = 350 ps, over 10^7 draws in blocks
        gen = RngSpec(350).generator()
        for _ in range(10):
            u = gen.random(10**6)
            np.testing.assert_array_equal(
                np.rint(350.0 * normal_quantile(u)),
                np.rint(350.0 * special.ndtri(np.clip(u, U_CLIP, 1.0 - U_CLIP))))

    def test_scalar_and_nan(self):
        x = normal_quantile(0.975)
        assert isinstance(x, np.float64) and np.ndim(x) == 0
        assert x == pytest.approx(1.959963984540054, rel=1e-15)
        assert np.isnan(normal_quantile(np.nan))
        out = normal_quantile(np.array([[0.5, np.nan], [0.025, 0.975]]))
        assert out.shape == (2, 2) and np.isnan(out[0, 1])
        assert out[0, 0] == 0.0 and out[1, 0] == pytest.approx(-out[1, 1], rel=1e-14)
        assert normal_quantile(np.empty(0)).shape == (0,)


class TestLeastSquares:
    """The solver on problems with known answers; the fits check it against scipy."""

    X = np.linspace(0.0, 1.0, 11)
    Y = 1.0 + 2.0 * X + 0.01 * np.sin(37.0 * X)  # a line and a small misfit

    def test_line_matches_the_normal_equations(self):
        design = np.column_stack([np.ones_like(self.X), self.X])
        x, cov, r = least_squares(lambda p: design @ p - self.Y, [0.0, 0.0])
        want, ssr = np.linalg.lstsq(design, self.Y, rcond=None)[:2]
        np.testing.assert_allclose(x, want, rtol=1e-7)
        np.testing.assert_allclose(r, design @ x - self.Y)
        np.testing.assert_allclose(cov, np.linalg.inv(design.T @ design) * ssr[0] / 9, rtol=1e-6)

    def test_stays_in_the_box(self):
        # the unbounded slope is 2; the box holds it at 1.5 and the intercept refits
        x, _, _ = least_squares(lambda p: p[0] + p[1] * self.X - self.Y, [0.0, 0.0],
                                lo=[-10.0, 0.0], hi=[10.0, 1.5])
        assert x[1] == 1.5
        assert x[0] == pytest.approx(np.mean(self.Y - 1.5 * self.X), rel=1e-6)

    def test_rejects_parameters_that_enter_only_together(self):
        # J has no zero column, but J'J is singular: only the sum is determined
        with pytest.raises(FitError, match="do not determine"):
            least_squares(lambda p: p[0] + p[1] - self.Y, [0.3, 5.0])

    def test_reaches_the_evaluation_cap(self):
        def rosenbrock(p):  # a third, constant residual leaves one degree of freedom
            return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0], 0.0])
        with pytest.raises(FitError, match="no convergence in 12 evaluations"):
            least_squares(rosenbrock, [-1.2, 1.0], max_evals=12)
        assert least_squares(rosenbrock, [-1.2, 1.0])[0] == pytest.approx([1.0, 1.0], rel=1e-6)


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
        np.testing.assert_array_equal(s.channel_times({1, 2}), [20, 35])
        assert s.count(2) == 1
        assert s.rate(0) == pytest.approx(2 / 100e-12)

    @settings(max_examples=200, deadline=None)
    @given(per_channel=st.dictionaries(
        st.integers(0, 7), st.lists(st.integers(0, 6), max_size=12).map(sorted),
        max_size=5))
    def test_merge_sorted_with_channel_tiebreak(self, per_channel):
        # times from 0 to 6 ps on up to five channels: most times are shared
        s = TimeTagStream.from_channel_times(
            {ch: np.array(t, dtype=np.int64) for ch, t in per_channel.items()}, 10)
        brute = sorted((t, ch) for ch, times in per_channel.items() for t in times)
        assert list(zip(s.times_ps.tolist(), s.channels.tolist())) == brute
        assert s.times_ps.dtype == np.int64 and s.channels.dtype == np.uint8

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

    def test_ordering_checked_across_blocks(self):
        for _ in at_each_block(model):
            TimeTagStream(np.arange(1, 10), np.zeros(9), 10)
            for i in range(1, 9):  # one step back at each position, block edges included
                times = np.arange(1, 10)
                times[i] -= 2
                with pytest.raises(ValueError, match="nondecreasing"):
                    TimeTagStream(times, np.zeros(9), 10)

    def test_equality(self):
        a = TimeTagStream([1, 2], [0, 1], 10)
        b = TimeTagStream([1, 2], [0, 1], 10)
        c = TimeTagStream([1, 2], [0, 1], 11)
        assert a == b and a != c


class TestInChannels:
    FORMS = {  # how a caller may name the channels it wants
        "int": lambda v: v[0],
        "numpy int": lambda v: np.int64(v[0]),
        "tuple": tuple,
        "set": set,
        "array": lambda v: np.array(v, dtype=np.int64),
    }

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(channels=st.lists(st.integers(0, 3) | st.integers(0, 255), max_size=40),
           wanted=st.lists(st.integers(0, 3) | st.integers(-2**63, 2**63 - 1),
                           min_size=1, max_size=4),
           form=st.sampled_from(sorted(FORMS)))
    def test_equals_isin(self, channels, wanted, form):
        # values outside uint8 match nothing, as they do for np.isin
        chans = np.array(channels, dtype=np.uint8)
        given_as = self.FORMS[form](wanted)
        expected = np.isin(chans.astype(np.int64), np.array(wanted[:1] if form.endswith("int")
                                                            else wanted, dtype=np.int64))
        np.testing.assert_array_equal(model.in_channels(chans, given_as), expected)
