"""Two-photon interference of independently delayed wavepackets.

Coincidence probability behind a balanced beamsplitter for two photons with
real amplitude psi (the square root of the delay density f), relative arm
delay delta, and carrier detuning Delta:

    P_c(Delta, delta) = 1/2 * (1 - O)
    O = integral psi(tau + delta) psi(delta - tau) cos(Omega tau) dtau

with Omega = 2 pi Delta.  The usual normalization N = integral psi^2 dtau is
exactly 1 because f is a normalized density, so it is left out.  The overlap
is elementary for every shape; with d = delta - offset:

    Gaussian            O = exp(-d^2 / 2 sigma^2 - Omega^2 sigma^2 / 2)
    double exponential  O = exp(-a/tau0) [a sinc(Omega a)
                              + (cos(Omega a)/tau0 - Omega sin(Omega a))
                                / (tau0^-2 + Omega^2)] / tau0,   a = |d|
    exponential decay   O = 2 d sinc(Omega d) exp(-d/tau0) / tau0 for d > 0,
                        O = 0 otherwise

where sinc(x) = sin(x) / x.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import FitError
from .model import BiphotonAmplitude, Shape

TWO_PI_MHZ_TO_RAD_PER_NS = 2.0 * np.pi * 1e-3


def hom_coincidence(amp: BiphotonAmplitude, detuning_mhz: float,
                    delay_ns: float = 0.0) -> float:
    """Coincidence probability P_c for one detuning and arm delay.

    detuning_mhz may be inf, giving the distinguishable-photon value 1/2.
    """
    if np.isinf(detuning_mhz):
        return 0.5
    omega = detuning_mhz * TWO_PI_MHZ_TO_RAD_PER_NS
    d = delay_ns - amp.offset_ns
    if amp.shape is Shape.GAUSSIAN:
        s = amp.sigma_ns
        overlap = np.exp(-0.5 * (d / s) ** 2 - 0.5 * (omega * s) ** 2)
    elif amp.shape is Shape.DOUBLE_EXPONENTIAL:
        t0, a = amp.tau0_ns, abs(d)
        tail = ((np.cos(omega * a) / t0 - omega * np.sin(omega * a))
                / (t0 ** -2 + omega ** 2))
        # a * np.sinc(omega a / pi) = sin(omega a) / omega, finite at omega = 0
        overlap = np.exp(-a / t0) * (a * np.sinc(omega * a / np.pi) + tail) / t0
    else:  # exponential decay
        if d <= 0.0:
            # one-sided packets do not overlap after the swap
            return 0.5
        t0 = amp.tau0_ns
        overlap = 2.0 * d * np.sinc(omega * d / np.pi) * np.exp(-d / t0) / t0
    return float(0.5 * (1.0 - overlap))


def hom_visibility(amp: BiphotonAmplitude, delay_ns: float = 0.0) -> float:
    """Dip visibility V = 1 - 2 P_c(0, delay)."""
    return 1.0 - 2.0 * hom_coincidence(amp, 0.0, delay_ns)


@dataclass
class HomCurve:
    """Coincidence probability versus carrier detuning at fixed arm delay."""

    detunings_mhz: np.ndarray
    coincidence: np.ndarray
    delay_ns: float


def hom_curve(amp: BiphotonAmplitude, detunings_mhz,
              delay_ns: float = 0.0) -> HomCurve:
    det = np.asarray(detunings_mhz, dtype=float)
    pc = np.array([hom_coincidence(amp, d, delay_ns) for d in det])
    return HomCurve(det, pc, float(delay_ns))


def hom_similarity(a: HomCurve, b: HomCurve) -> float:
    """Cosine similarity of two coincidence curves on one detuning grid."""
    if a.detunings_mhz.shape != b.detunings_mhz.shape or \
            not np.allclose(a.detunings_mhz, b.detunings_mhz):
        raise ValueError("curves live on different detuning grids")
    norm = np.linalg.norm(a.coincidence) * np.linalg.norm(b.coincidence)
    if norm == 0:
        raise ValueError("cosine similarity undefined for a zero curve")
    return float(np.dot(a.coincidence, b.coincidence) / norm)


def fit_coherence_time(delays_ns, visibilities, shape: Shape,
                       errors=None, initial_fwhm_ns: float | None = None
                       ) -> tuple[float, float]:
    """Least-squares FWHM from measured visibility-versus-delay points.

    Returns (fwhm_ns, standard error).  The model is hom_visibility for the
    given shape with the density centered at zero delay.
    """
    delays = np.asarray(delays_ns, dtype=float)
    vis = np.asarray(visibilities, dtype=float)
    if delays.size != vis.size or delays.size < 2:
        raise FitError("need at least two visibility points")
    if initial_fwhm_ns is None:
        initial_fwhm_ns = max(2.0 * float(np.mean(np.abs(delays))), 1.0)

    def model(d, fwhm):
        amp = BiphotonAmplitude(shape, fwhm)
        return np.array([hom_visibility(amp, x) for x in np.atleast_1d(d)])

    try:
        popt, pcov = optimize.curve_fit(
            model, delays, vis, p0=[initial_fwhm_ns], sigma=errors,
            absolute_sigma=errors is not None, maxfev=200)
    except (RuntimeError, ValueError) as exc:
        raise FitError(f"coherence-time fit failed: {exc}") from exc
    fwhm = float(popt[0])
    err = float(np.sqrt(pcov[0, 0])) if np.isfinite(pcov[0, 0]) else np.inf
    if fwhm <= 0:
        raise FitError("fit converged to a nonpositive width")
    return fwhm, err
