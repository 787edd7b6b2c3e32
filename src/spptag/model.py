"""Core types: delay densities, RNG streams, analysis windows, time-tag containers, least squares.

Conventions used throughout the package:

* physics works in nanoseconds (float), hardware tags in integer picoseconds
* every random draw goes through a counter-based Philox generator addressed
  by an explicit (seed, stream_id) pair, and all non-uniform variates are
  produced from uniforms by inverse-CDF transforms, so a given RngSpec yields
  byte-identical results per numpy CPU kernel set (ROADMAP item 2), however calls interleave
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError

PS_PER_NS = 1000.0
U_CLIP = 1e-15  # uniforms are clipped to [U_CLIP, 1 - U_CLIP] before inverse CDFs
BLOCK = 1 << 16  # items per block where long arrays are worked through in blocks


class Shape(enum.Enum):
    """Functional form of the signal-idler delay density."""

    DOUBLE_EXPONENTIAL = "double_exponential"
    EXPONENTIAL_DECAY = "exponential_decay"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class RngSpec:
    """Addressable random stream: Philox keyed by (seed, stream_id).

    The same spec always reproduces the same sequence.  Derived stages get
    their own child streams instead of sharing one generator, which keeps
    partitioned generation deterministic.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in uint64")
        if not 0 <= self.stream_id < 2**64:
            raise ValueError("stream_id must fit in uint64")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, k: int) -> "RngSpec":
        # 16 bits of fan-out per nesting level; two levels in practice
        return RngSpec(self.seed, (self.stream_id * 65536 + k) % 2**64)


def check_finite(obj, *names: str) -> None:
    """Raise ValueError naming the first of obj's fields that is not finite."""
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ValueError(f"{name} must be finite")


def check_ps(ps, name: str, top: int = 2**62 - 1, low: float = -math.inf) -> None:
    """Raise ValueError naming name unless low < ps <= top, a span int64 ps tag times allow."""
    if not low < ps <= top:
        raise ValueError(f"{name} gives {ps} ps, outside ({low}, {top}]")


@dataclass(frozen=True)
class AnalysisConfig:
    """Default windows for the analysis commands."""

    bin_ps: int = 1000
    herald_window_ps: int = 150_000
    cs_window_ps: int = 10_000_000

    def __post_init__(self):
        for name in ("bin_ps", "herald_window_ps", "cs_window_ps"):
            check_ps(getattr(self, name), name, 2**63 - 1, low=0)


def as_generator(rng: RngSpec | np.random.Generator) -> np.random.Generator:
    if isinstance(rng, RngSpec):
        return rng.generator()
    return rng


TOL = 1.49012e-8  # MINPACK's default relative tolerance on the cost and on the step
SQRT_EPS = math.sqrt(np.finfo(float).eps)


def least_squares(residual, x0, lo=-np.inf, hi=np.inf, max_evals=1000):
    """Bounded Levenberg-Marquardt (More 1978): (x, covariance, residual at x) for the x
    in [lo, hi] that minimizes sum(residual(x) ** 2).  Forward differences step x by
    sqrt(eps) max(1, |x|); steps solve (J'J + lam diag(J'J)) dx = -J'r with Nielsen's lam,
    hold x at a bound the descent presses on, are clipped to the box, and stop at one that
    lowers the cost or moves x by less than TOL relative (J is kept after it).  The
    covariance is curve_fit's: inv(J'J) times sum(r**2) / (m - n).
    FitError on a cost not finite at x0, a singular J'J, or at max_evals.
    """
    x = np.minimum(np.maximum(np.asarray(x0, dtype=float), lo), hi)
    hi, eye = np.broadcast_to(hi, x.shape), np.eye(x.size)
    with np.errstate(over="ignore", invalid="ignore"):  # a cost that is not finite fails every test
        r = residual(x)
        cost, evals, lam, nu, done = float(r @ r), 1, 1e-3, 2.0, False
        if not math.isfinite(cost):
            raise FitError("sum of squared residuals is not finite at the start point")
        while not done:
            jac = np.empty((r.size, x.size))
            for k in range(x.size):  # backward where the forward point would pass hi
                xk = x.copy()
                h = SQRT_EPS * max(1.0, abs(xk[k]))
                xk[k] += h if xk[k] + h <= hi[k] else -h
                jac[:, k] = (residual(xk) - r) / (xk[k] - x[k])
            a, g, drop, evals = jac.T @ jac, jac.T @ r, 0.0, evals + x.size
            if not a.diagonal().all():  # a zero column of J: inv(a) below raises
                break
            pin = np.where(g > 0, x <= lo, x >= hi)
            m, rhs = np.where(pin | pin[:, None], eye, a), np.where(pin, 0.0, -g)
            while not (drop > 0 or done):  # trial steps, more damped after each that fails
                if evals >= max_evals:
                    raise FitError(f"no convergence in {max_evals} evaluations")
                x_new = x + np.linalg.solve(m * (1.0 + lam * eye), rhs)
                x_new = np.minimum(np.maximum(x_new, lo), hi)
                step, r_new, evals = x_new - x, residual(x_new), evals + 1
                drop, predicted = cost - float(r_new @ r_new), -float((2.0 * g + a @ step) @ step)
                rho = drop / predicted if predicted > 0 else 0.0
                done = (drop < TOL * cost and rho > 0.25
                        or math.sqrt(step @ step) < TOL * (TOL + math.sqrt(x @ x)))
                lam, nu = ((lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0) if drop > 0
                           else (lam * nu, 2.0 * nu))
            if drop > 0:
                x, r, cost = x_new, r_new, cost - drop
    try:
        cov = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise FitError("the data do not determine the parameters") from None
    return x, cov * (cost / (r.size - x.size)), r


@dataclass(frozen=True)
class BiphotonAmplitude:
    """Normalized signal-idler delay density, parametrized by its FWHM.

    shape      functional form
    fwhm_ns    full width at half maximum of the density [ns]
    offset_ns  center (symmetric shapes) or onset (exponential decay) [ns]
    """

    shape: Shape
    fwhm_ns: float
    offset_ns: float = 0.0

    def __post_init__(self):
        check_finite(self, "fwhm_ns", "offset_ns")
        if not self.fwhm_ns > 0:
            raise ValueError("fwhm_ns must be positive")

    @property
    def tau0_ns(self) -> float:
        """Decay constant of the exponential forms [ns]."""
        if self.shape is Shape.DOUBLE_EXPONENTIAL:
            return self.fwhm_ns / (2.0 * np.log(2.0))
        if self.shape is Shape.EXPONENTIAL_DECAY:
            return self.fwhm_ns / np.log(2.0)
        raise ValueError("tau0 undefined for Gaussian shape")

    @property
    def sigma_ns(self) -> float:
        """Gaussian standard deviation [ns]."""
        if self.shape is not Shape.GAUSSIAN:
            raise ValueError("sigma defined only for Gaussian shape")
        return self.fwhm_ns / (2.0 * np.sqrt(2.0 * np.log(2.0)))


def evaluate_density(amp: BiphotonAmplitude, tau_ns):
    """Delay density f(tau) [1/ns]; integrates to 1 over the real line.

    Accepts scalar or array tau; a scalar gives a float.
    """
    x = np.asarray(tau_ns, dtype=float) - amp.offset_ns
    if amp.shape is Shape.GAUSSIAN:
        s = amp.sigma_ns
        return np.exp(-0.5 * (x / s) ** 2) / (s * np.sqrt(2.0 * np.pi))
    t0 = amp.tau0_ns
    if amp.shape is Shape.DOUBLE_EXPONENTIAL:
        return np.exp(-np.abs(x) / t0) / (2.0 * t0)
    # exponential decay: the density times its onset mask
    return np.exp(-np.clip(x, 0.0, None) / t0) / t0 * (x >= 0.0)


def sample_delay(amp: BiphotonAmplitude, rng: RngSpec | np.random.Generator,
                 size: int) -> np.ndarray:
    """Draw `size` signal-idler delays [ns] by inverse CDF from uniform variates.

    Passing an RngSpec restarts the stream, so repeated calls with the same
    spec repeat the same values; pass a live Generator to continue a stream.
    """
    u = as_generator(rng).random(int(size))
    return _delay_quantile(amp, np.clip(u, U_CLIP, 1.0 - U_CLIP))


def delay_range(amp: BiphotonAmplitude) -> tuple[float, float]:
    """Smallest and largest delay [ns] that sample_delay can return."""
    lo, hi = _delay_quantile(amp, np.array([U_CLIP, 1.0 - U_CLIP]))
    return float(lo), float(hi)


def _delay_quantile(amp: BiphotonAmplitude, u: np.ndarray) -> np.ndarray:
    """Inverse CDF of the delay density [ns] at probabilities u in (0, 1)."""
    if amp.shape is Shape.DOUBLE_EXPONENTIAL:
        t0 = amp.tau0_ns
        # Laplace inverse CDF, branch at the median
        out = np.where(u < 0.5,
                       t0 * np.log(2.0 * u),
                       -t0 * np.log(2.0 * (1.0 - u)))
    elif amp.shape is Shape.EXPONENTIAL_DECAY:
        out = -amp.tau0_ns * np.log1p(-u)
    else:
        out = amp.sigma_ns * normal_quantile(u)
    return out + amp.offset_ns


# Wichura's AS241 (PPND16), Appl. Statist. 37, 477 (1988): rational
# approximations (numerator, denominator), highest power first, for
# |p - 1/2| <= 0.425, then in s = sqrt(-log(min(p, 1 - p))) for s <= 5 and s > 5
_CENTRAL = ((2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
             4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
             1.3314166789178437745e+2, 3.3871328727963666080e+0),
            (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
             2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
             4.2313330701600911252e+1, 1.0))
_NEAR_TAIL = ((7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
               1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
               4.63033784615654529590e+0, 1.42343711074968357734e+0),
              (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
               1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
               2.05319162663775882187e+0, 1.0))
_FAR_TAIL = ((2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
              2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
              5.46378491116411436990e+0, 6.65790464350110377720e+0),
             (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
              7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
              5.99832206555887937690e-1, 1.0))
QUANTILE_BLOCK = 1 << 14  # small enough that a block's few buffers stay in cache


def _rational(x: np.ndarray, coeffs, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """numerator(x) / denominator(x) by in-place Horner steps; the result is in num."""
    for poly, acc in zip(coeffs, (num, den)):
        np.multiply(x, poly[0], out=acc)
        for c in poly[1:-1]:
            acc += c
            acc *= x
        acc += poly[-1]
    return np.divide(num, den, out=num)


def normal_quantile(u) -> np.ndarray:
    """Standard normal inverse CDF at u clipped to [U_CLIP, 1 - U_CLIP]: every
    Gaussian draw, and every bound assumed of one, goes through here.  AS241 in
    blocks; only the tails |u - 1/2| > 0.425 take a log.  A scalar gives a scalar.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty(u.shape)
    flat_u, flat_out = u.reshape(-1), out.reshape(-1)
    r, num, den = (np.empty(min(u.size, QUANTILE_BLOCK)) for _ in range(3))
    for start in range(0, u.size, QUANTILE_BLOCK):
        q = flat_out[start:start + QUANTILE_BLOCK]  # p - 1/2 first, then the quantile
        rb, nb, db = r[:q.size], num[:q.size], den[:q.size]
        p = np.clip(flat_u[start:start + QUANTILE_BLOCK], U_CLIP, 1.0 - U_CLIP, out=rb)
        np.subtract(p, 0.5, out=q)
        tail = np.flatnonzero(np.abs(q, out=nb) > 0.425)
        tail_p, tail_q = p[tail], q[tail]  # min(p, 1 - p) from p: p - 1/2 is rounded for small p
        np.multiply(q, q, out=rb)
        np.subtract(0.180625, rb, out=rb)
        q *= _rational(rb, _CENTRAL, nb, db)
        if tail.size:
            s = np.sqrt(-np.log(np.minimum(tail_p, 1.0 - tail_p)))
            x = _rational(s - 1.6, _NEAR_TAIL, *np.empty((2, tail.size)))
            far = np.flatnonzero(s > 5.0)
            if far.size:
                x[far] = _rational(s[far] - 5.0, _FAR_TAIL, *np.empty((2, far.size)))
            q[tail] = np.copysign(x, tail_q)
    return out if out.ndim else out[()]


def in_channels(channels: np.ndarray, channel: int | tuple[int, ...]) -> np.ndarray:
    """Mask of the channel entries equal to one channel or to any of several.

    An OR of equality tests: an order of magnitude faster than np.isin on the
    few channels a stream has, each compared as a Python int (8x faster than a numpy int).
    """
    mask = np.zeros(channels.shape, dtype=bool)
    for ch in channel if np.iterable(channel) else [channel]:
        mask |= channels == int(ch)
    return mask


class TimeTagStream:
    """Multi-channel detection record over a fixed observation time.

    times_ps    int64 array, nondecreasing
    channels    uint8 array, same length
    duration_ps total observation time; all tags lie in [0, duration]
    """

    def __init__(self, times_ps, channels, duration_ps: int):
        times = np.ascontiguousarray(times_ps, dtype=np.int64)
        chans = np.ascontiguousarray(channels, dtype=np.uint8)
        if times.shape != chans.shape or times.ndim != 1:
            raise ValueError("times and channels must be 1-d arrays of equal length")
        for start in range(0, times.size, BLOCK):  # with the previous block's last time
            window = times[max(start - 1, 0):start + BLOCK]
            if np.any(window[1:] < window[:-1]):
                raise ValueError("tag times must be nondecreasing")
        duration_ps = int(duration_ps)
        if duration_ps <= 0:
            raise ValueError("duration must be positive")
        if times.size and (times[0] < 0 or times[-1] > duration_ps):
            raise ValueError("tag times must lie within [0, duration]")
        self.times_ps = times
        self.channels = chans
        self.duration_ps = duration_ps

    @classmethod
    def from_channel_times(cls, per_channel: dict[int, np.ndarray],
                           duration_ps: int) -> "TimeTagStream":
        """Merge per-channel time arrays into one time-ordered stream.

        Channels are concatenated in channel order and one stable sort by
        time merges them, so ties in time go in channel order.
        """
        chans = sorted(per_channel)
        times = [np.asarray(per_channel[ch], dtype=np.int64) for ch in chans]
        t_all = np.concatenate([np.empty(0, dtype=np.int64), *times])
        c_all = np.repeat(np.array(chans, dtype=np.uint8), [t.size for t in times])
        order = np.argsort(t_all, kind="stable")
        return cls(t_all[order], c_all[order], duration_ps)

    def __len__(self) -> int:
        return int(self.times_ps.size)

    def channel_times(self, channel: int | tuple[int, ...]) -> np.ndarray:
        """Sorted tag times [ps] on one channel (or merged over several)."""
        return self.times_ps[in_channels(self.channels, channel)]

    def count(self, channel) -> int:
        return int(self.channel_times(channel).size)

    def rate(self, channel) -> float:
        """Mean count rate on a channel [1/s]."""
        return self.count(channel) / (self.duration_ps * 1e-12)

    @property
    def channel_ids(self) -> np.ndarray:
        return np.unique(self.channels)

    def __eq__(self, other):
        return (isinstance(other, TimeTagStream)
                and self.duration_ps == other.duration_ps
                and np.array_equal(self.times_ps, other.times_ps)
                and np.array_equal(self.channels, other.channels))

    def __repr__(self):
        return (f"TimeTagStream({len(self)} tags, "
                f"{self.duration_ps * 1e-12:.3g} s, "
                f"channels={list(self.channel_ids)})")

