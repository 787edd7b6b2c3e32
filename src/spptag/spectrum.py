"""Transmission spectra of subwavelength hole arrays in metal films.

Three ingredients:

* direct (non-resonant) transmission of a single small hole and of a square
  array of them, in the small-hole limit,
* surface-plasmon grating resonances of the array for either interface,
* a Fano lineshape that superposes the resonant channel on the direct one.
"""
import math
from contextlib import nullcontext
from dataclasses import astuple, dataclass
from typing import Sequence, Union

import numpy as np

from . import _gold
from .errors import DomainError, FitError
from .model import ArrayGeometry, FanoParameters, check_finite, least_squares

EPSILON_AIR = 1.0
EPSILON_GLASS = 2.25

_INTERFACES = {"air": EPSILON_AIR, "glass": EPSILON_GLASS}


@dataclass(frozen=True)
class PermittivityTable:
    """Tabulated complex metal permittivity vs wavelength [nm], ascending."""

    wavelength_nm: np.ndarray
    epsilon: np.ndarray

    def __post_init__(self):
        wl = np.asarray(self.wavelength_nm, dtype=float)
        eps = np.asarray(self.epsilon, dtype=complex)
        if wl.ndim != 1 or wl.size < 2 or eps.shape != wl.shape:
            raise ValueError("need matching 1-d wavelength and epsilon arrays")
        if not np.all(np.diff(wl) > 0):
            raise ValueError("wavelengths must be strictly increasing")
        object.__setattr__(self, "wavelength_nm", wl)
        object.__setattr__(self, "epsilon", eps)

    def permittivity(self, wavelength_nm):
        wl = np.asarray(wavelength_nm, dtype=float)
        lo, hi = self.wavelength_nm[0], self.wavelength_nm[-1]
        w = wl.item() if wl.ndim == 0 else wl  # a scalar compares as a Python float, unreduced
        if (w < lo or w > hi) if wl.ndim == 0 else np.count_nonzero((wl < lo) | (wl > hi)):
            raise DomainError(f"wavelength outside tabulated range [{lo:.1f}, {hi:.1f}] nm")
        # interpolate the permittivity itself, not (n, k)
        re = np.interp(wl, self.wavelength_nm, self.epsilon.real)
        im = np.interp(wl, self.wavelength_nm, self.epsilon.imag)
        return re + 1j * im


GOLD = PermittivityTable(_gold.GOLD_WAVELENGTH_NM, _gold.GOLD_EPSILON)


def gold_permittivity(wavelength_nm):
    """Complex permittivity of evaporated gold at the given wavelength [nm]."""
    return GOLD.permittivity(wavelength_nm)


def bethe_hole_transmittance(geometry: ArrayGeometry, wavelength_nm) -> Union[float, np.ndarray]:
    """Transmittance of one subwavelength hole, normalized to the hole area.

    Small circular aperture in a thin perfect screen: (64/27 pi^2) (k r)^4.
    """
    wl = np.asarray(wavelength_nm, dtype=float)
    scalar = wl.ndim == 0  # worked as a Python float, with no array reductions
    if wl.item() <= 0 if scalar else np.count_nonzero(wl <= 0):
        raise ValueError("wavelength must be positive")
    kr = 2 * np.pi * geometry.hole_radius_nm / (wl.item() if scalar else wl)
    try:  # a Python float's kr ** 4 raises on overflow where an array's gives inf
        with nullcontext() if scalar else np.errstate(over="ignore"):
            t = 64.0 / (27.0 * np.pi**2) * kr**4
    except OverflowError:
        t = np.inf
    if not (math.isfinite(t) if scalar else np.isfinite(t).all()):
        raise ValueError("hole radius over wavelength too large for the small-hole law")
    return np.float64(t) if scalar else t


def bethe_transmittance(geometry: ArrayGeometry, wavelength_nm) -> Union[float, np.ndarray]:
    """Direct transmittance of the hole array, normalized to the unit cell.

    Per-hole Bethe transmittance scaled by the open area fraction; this is
    the non-resonant baseline under the plasmonic peaks.
    """
    return bethe_hole_transmittance(geometry, wavelength_nm) * geometry.open_area_fraction


def spp_effective_index(wavelength_nm, interface: Union[str, float] = "glass",
                        table: PermittivityTable = GOLD):
    """Real part of the bound-mode index at a metal/dielectric interface."""
    eps_d = _INTERFACES[interface] if isinstance(interface, str) else float(interface)
    eps_m = table.permittivity(wavelength_nm)
    return np.real(np.sqrt(eps_m * eps_d / (eps_m + eps_d)))


def _momentum_match(order: tuple, theta_deg: float, polarization: str):
    """Momentum matching on a square lattice: (geometry, mode index) -> wavelength.

    k_spp^2 = (k0 sin(theta) ex + i G)^2 + (k0 sin(theta) ey + j G)^2 with G = 2 pi / pitch
    and (ex, ey) = (1, 0) for tm, (0, 1) for te; solved for the positive k0 root.  The angle
    terms are worked out here, once for every mode index the returned function is given.
    """
    if not -90 < theta_deg < 90:
        raise ValueError(f"theta_deg = {theta_deg:g} must lie in (-90, 90)")
    if polarization not in ("tm", "te"):
        raise ValueError("polarization must be 'tm' or 'te'")
    i, j = order
    s, m = np.sin(np.radians(theta_deg)), float(i if polarization == "tm" else j)
    s_sq, s_m, sm_sq, ij_sq = s**2, s * m, s**2 * m**2, i**2 + j**2

    def wavelength(geometry: ArrayGeometry, n_eff: float) -> float:
        nsq = n_eff**2 - s_sq
        if nsq <= 0:
            raise DomainError("mode index below the in-plane momentum")
        denom = s_m + np.sqrt(sm_sq + nsq * ij_sq)
        if denom <= 0:
            raise DomainError(f"no propagating ({i},{j}) resonance at this angle")
        return geometry.pitch_nm * nsq / denom
    return wavelength


def _resonance_wavelength_for_index(geometry: ArrayGeometry, n_eff: float, order: tuple,
                                    theta_deg: float, polarization: str) -> float:
    """Momentum-matching wavelength for a fixed mode index (_momentum_match)."""
    return _momentum_match(order, theta_deg, polarization)(geometry, n_eff)


def spp_resonance_wavelength(geometry: ArrayGeometry, order: tuple = (1, 0),
                             interface: Union[str, float] = "glass",
                             theta_deg: float = 0.0, polarization: str = "tm",
                             table: PermittivityTable = GOLD) -> float:
    """Self-consistent grating-coupling resonance wavelength [nm].

    The mode index depends on wavelength through the metal permittivity, so
    the momentum-matching wavelength target(wl) is solved for target(wl) = wl
    by secant steps, until a step is below 1e-10 relative or for 200 steps.
    The incidence angle must lie in (-90, 90) degrees.
    """
    i, j = order
    if (i, j) == (0, 0):
        raise ValueError("order (0,0) is the directly transmitted beam")
    eps_d = _INTERFACES[interface] if isinstance(interface, str) else float(interface)
    target = _momentum_match(order, theta_deg, polarization)

    def excess(wl):  # target(wl) - wl
        return target(geometry, spp_effective_index(wl, eps_d, table)) - wl

    # start from a lossless-metal guess slightly above the light line
    wl = geometry.pitch_nm * (np.sqrt(eps_d) + 0.05) / np.hypot(i, j)
    prev = float(np.clip(wl, table.wavelength_nm[0], table.wavelength_nm[-1]))
    g_prev = excess(prev)
    wl = prev + 0.5 * g_prev  # a damped fixed-point step gives the second secant point
    for _ in range(200):
        if not table.wavelength_nm[0] <= wl <= table.wavelength_nm[-1]:
            raise DomainError(f"({i},{j}) resonance iterates outside the permittivity table")
        g = excess(wl)
        if abs(wl - prev) <= 1e-10 * wl or g == g_prev:
            break
        prev, g_prev, wl = wl, g, wl - g * (wl - prev) / (g - g_prev)
    if abs(g) > 1e-6 * wl:
        raise FitError(f"resonance iteration did not converge for order ({i},{j})")
    return wl


def spp_resonance_wavelengths(geometry: ArrayGeometry,
                              orders: Sequence[tuple] = ((1, 0), (1, 1)),
                              interface: Union[str, float] = "glass",
                              theta_deg: float = 0.0, polarization: str = "tm",
                              table: PermittivityTable = GOLD) -> np.ndarray:
    """Resonance wavelengths for several grating orders, one per order."""
    return np.array([spp_resonance_wavelength(geometry, order, interface, theta_deg, polarization,
                                              table) for order in orders])


@dataclass(frozen=True, eq=False)
class TransmissionSpectrum:
    """Sampled array transmittance split into resonant and direct channels."""

    wavelength_nm: np.ndarray
    total: np.ndarray
    resonant: np.ndarray
    direct: np.ndarray


def _fano_channels(geometry: ArrayGeometry, wl: np.ndarray, direct: np.ndarray,
                   p, strict: bool = True):  # p: the FanoParameters fields, in order
    resonance, fwhm, q, peak = p
    half = 0.5 * fwhm
    amplitude = (peak - bethe_transmittance(geometry, resonance + half / q)) / (1.0 + q**2)
    if strict and amplitude < 0:
        raise ValueError("peak transmittance below the direct background")
    x = wl - resonance
    with np.errstate(over="ignore", invalid="ignore"):
        resonant = amplitude * (q * half + x) ** 2 / (half**2 + x**2)
    total = resonant + direct
    if strict and not np.all(np.isfinite(total)):
        raise ValueError("parameters give a non-finite transmittance")
    if strict and np.any(total > 1 + 1e-9):
        raise ValueError("parameters give transmittance above unity")
    return total, resonant


def fano_transmittance(geometry: ArrayGeometry, wavelength_nm,
                       params: FanoParameters = FanoParameters()):
    """Total array transmittance at the given wavelength(s), no grid."""
    wl = np.asarray(wavelength_nm, dtype=float)
    return _fano_channels(geometry, wl, bethe_transmittance(geometry, wl), astuple(params))[0]


def fano_spectrum(geometry: ArrayGeometry, wavelength_nm,
                  params: FanoParameters = FanoParameters()) -> TransmissionSpectrum:
    """Array transmission spectrum: Fano resonance plus direct term.

    The resonant channel is A (q G/2 + x)^2 / ((G/2)^2 + x^2) with
    x = wl - resonance and G the FWHM; A is fixed so the total at the
    lineshape maximum (resonance + G / (2 q)) equals params.peak_transmittance.
    The grid must be 1-d, strictly increasing and at least 2 points long.
    """
    wl = np.asarray(wavelength_nm, dtype=float)
    direct = bethe_transmittance(geometry, wl)
    total, resonant = _fano_channels(geometry, wl, direct, astuple(params))
    if wl.ndim != 1 or wl.size < 2 or not np.all(np.diff(wl) > 0):
        raise ValueError("need a strictly increasing 1-d wavelength grid")
    return TransmissionSpectrum(wl, total, resonant, direct)


@dataclass(frozen=True)
class SpectrumConfig:
    """Hole-array parameters of the sample transmission spectrum.

    Construction builds the spectrum once and drops it, so parameters that
    give no physical spectrum raise ValueError here.
    """

    geometry: ArrayGeometry = ArrayGeometry()
    fano: FanoParameters = FanoParameters()
    grid_lo_nm: float = 420.0
    grid_hi_nm: float = 1200.0
    grid_points: int = 1024

    def __post_init__(self):
        check_finite(self, "grid_lo_nm", "grid_hi_nm")
        if not self.grid_lo_nm < self.grid_hi_nm:
            raise ValueError("need grid_lo_nm < grid_hi_nm")
        if self.grid_points < 2:
            raise ValueError("need at least 2 grid points")
        self.build()

    def build(self) -> TransmissionSpectrum:
        grid = np.linspace(self.grid_lo_nm, self.grid_hi_nm, self.grid_points)
        return fano_spectrum(self.geometry, grid, self.fano)


@dataclass(frozen=True)
class FanoFit:
    params: FanoParameters
    stderr: np.ndarray  # (resonance, fwhm, q, peak) one-sigma errors
    residual_rms: float


def fit_fano(wavelength_nm, transmittance, geometry: ArrayGeometry) -> FanoFit:
    """Least-squares Fano fit of a measured array transmission spectrum.

    Wavelengths must increase.  Up to three start points are tried.
    """
    wl = np.asarray(wavelength_nm, dtype=float)
    t = np.asarray(transmittance, dtype=float)
    if wl.ndim != 1 or wl.shape != t.shape or wl.size < 5:
        raise FitError("need matching 1-d arrays with at least 5 samples")
    if not np.all(np.diff(wl) > 0):
        raise FitError("wavelengths must increase")
    span = wl[-1] - wl[0]
    # at the peak sample; the width above half the peak, or q = 1, catch lines missed
    i = int(np.argmax(t))
    at, quarter, peak = float(wl[i]), max(span / 4.0, 1.0), float(np.clip(t[i], 1e-3, 1.0))
    half = max(span * float(np.mean(t > 0.5 * (t[i] + t.min()))), 1.0)
    starts = [(at, quarter, 10.0, peak), (at, half, 10.0, peak), (at, quarter, 1.0, peak)]

    direct = bethe_transmittance(geometry, wl)  # the same at every trial point
    lo = np.array([wl[0] - span, 1e-3, 0.05, 1e-6])
    hi = np.array([wl[-1] + span, 10 * span, 1e4, 1.0])
    fits, error = [], None
    for start in starts:  # until a fit ends inside the box with a line wider than the sampling
        try:  # a trial peak at or below zero wavelength is a ValueError of the Bethe term
            fits.append(least_squares(
                lambda p: _fano_channels(geometry, wl, direct, p, strict=False)[0] - t,
                start, lo, hi, max_evals=20000))
        except (FitError, ValueError) as exc:
            error = error or exc
        else:
            x = fits[-1][0]
            if np.all((lo < x) & (x < hi)) and x[1] > np.diff(wl).max():
                break
    if not fits:
        raise FitError(f"Fano fit failed: {error}") from error
    p, cov, resid = min(fits, key=lambda f: f[2] @ f[2])
    params = FanoParameters(*[float(v) for v in p])
    stderr = np.sqrt(np.clip(np.diag(cov), 0, None))
    return FanoFit(params, stderr, float(np.sqrt(np.mean(resid**2))))
