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

from .errors import FitError
from .model import BiphotonAmplitude, Shape, least_squares

TWO_PI_MHZ_TO_RAD_PER_NS = 2.0 * np.pi * 1e-3


def hom_coincidence(amp: BiphotonAmplitude, detuning_mhz, delay_ns=0.0):
    """Coincidence probability P_c at each detuning and arm delay; the two
    broadcast, and scalars give a float.  An infinite detuning, or a phase
    beyond the double range, gives the distinguishable-photon value 1/2.
    """
    omega = np.asarray(detuning_mhz, dtype=float) * TWO_PI_MHZ_TO_RAD_PER_NS
    d = np.asarray(delay_ns, dtype=float) - amp.offset_ns
    with np.errstate(over="ignore", invalid="ignore"):
        # a phase omega * d beyond the double range leaves an overlap of order 1 / omega: none
        far = np.isinf(omega) | np.isinf(omega * d)
    omega = np.where(far, 0.0, omega)
    if amp.shape is Shape.GAUSSIAN:
        s = amp.sigma_ns
        with np.errstate(over="ignore"):  # a square beyond the double range: no overlap
            overlap = np.exp(-0.5 * (d / s) ** 2 - 0.5 * (omega * s) ** 2)
    elif amp.shape is Shape.DOUBLE_EXPONENTIAL:
        t0, a = amp.tau0_ns, np.abs(d)
        # omega ** 2 = inf leaves no tail, and a / t0 = inf no overlap
        with np.errstate(over="ignore"):
            if not all(np.finfo(float).smallest_normal <= p < np.inf for p in (t0**2, t0**-2)):
                raise ValueError(f"fwhm_ns = {amp.fwhm_ns:g}: tau0 ** 2 or its inverse "
                                 "is not a normal double")
            tail = ((np.cos(omega * a) / t0 - omega * np.sin(omega * a))
                    / (t0 ** -2 + omega ** 2))
            # a * np.sinc(omega a / pi) = sin(omega a) / omega, finite at omega = 0
            overlap = np.exp(-a / t0) * (a * np.sinc(omega * a / np.pi) + tail) / t0
    else:  # exponential decay: one-sided packets do not overlap after the swap for d <= 0
        t0, d = amp.tau0_ns, np.maximum(d, 0.0)
        with np.errstate(over="ignore"):
            x = d / t0
        x = np.where(np.isinf(x), 0.0, x)  # x exp(-x) is 0 past the double range, as at x = 0
        overlap = 2.0 * x * np.exp(-x) * np.sinc(omega * d / np.pi)
    return 0.5 * (1.0 - np.where(far, 0.0, overlap))


def hom_visibility(amp: BiphotonAmplitude, delay_ns=0.0):
    """Dip visibility V = 1 - 2 P_c(0, delay) at each delay."""
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
    return HomCurve(det, hom_coincidence(amp, det, delay_ns), float(delay_ns))


def fit_coherence_time(delays_ns, visibilities, shape: Shape) -> tuple[float, float]:
    """Least-squares FWHM from measured visibility-versus-delay points.

    Returns (fwhm_ns, standard error).  The model is hom_visibility for the
    given shape with the density centered at zero delay.
    """
    delays = np.asarray(delays_ns, dtype=float)
    vis = np.asarray(visibilities, dtype=float)
    if delays.size != vis.size or delays.size < 2:
        raise FitError("need at least two visibility points")

    def residuals(p):  # a trial width at or below zero fails, as a cost that is not finite does
        if p[0] <= 0:
            return np.full(delays.size, np.inf)
        return hom_visibility(BiphotonAmplitude(shape, p[0]), delays) - vis

    try:
        p, cov, _ = least_squares(residuals, [max(2.0 * float(np.mean(np.abs(delays))), 1.0)],
                                  max_evals=200)
    except (FitError, ValueError) as exc:
        raise FitError(f"coherence-time fit failed: {exc}") from exc
    return float(p[0]), float(np.sqrt(cov[0, 0]))
