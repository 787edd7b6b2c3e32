"""Shared independent oracles for interference, waveform and correlator tests,
and a block-size sweep for the code that works through long arrays in blocks."""
import numpy as np
import pytest

from spptag.model import BLOCK, BiphotonAmplitude, Shape, evaluate_density

SMALL_BLOCKS = (1, 2, 3, 7)


def at_each_block(module, blocks=SMALL_BLOCKS + (BLOCK,)):
    """Yield each block size with module.BLOCK patched to it: at the small
    ones a stream of a few dozen tags crosses many block edges."""
    for block in blocks:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, "BLOCK", block)
            yield block


def searchsorted_pairs(anchors, partners, lo: int, hi: int) -> np.ndarray:
    """Per anchor a, the count of partners in [a + lo, a + hi): two binary
    searches in the partners' own sorted times, no merged stream."""
    return np.searchsorted(partners, anchors + hi) - np.searchsorted(partners, anchors + lo)


def searchsorted_histogram(anchors, partners, bin_width: int, lo: int, hi: int) -> np.ndarray:
    """Counts of partner - anchor delays in the bins of [lo, hi): the
    differences of the pairs below each bin edge."""
    below = [np.searchsorted(partners, anchors + edge).sum()
             for edge in range(lo, hi + 1, bin_width)]
    return np.diff(below)


def riemann_hom_coincidence(amp: BiphotonAmplitude, detuning_mhz: float,
                            delay_ns: float = 0.0, step_ns: float = 0.005) -> float:
    """Midpoint Riemann sum for the two-photon coincidence probability.

    Pieces are aligned to the amplitude kinks and support edges so no cell
    straddles a discontinuity; this is a deliberately naive (and slow)
    alternative to adaptive quadrature.
    """
    omega = 2.0 * np.pi * 1e-3 * detuning_mhz
    o = amp.offset_ns
    span = 30.0 * amp.fwhm_ns + abs(delay_ns - o)

    def psi(t):
        return np.sqrt(evaluate_density(amp, t))

    if amp.shape is Shape.EXPONENTIAL_DECAY:
        lo, hi = o - delay_ns, delay_ns - o
        if hi <= lo:
            return 0.5
        edges = [lo, hi]
    else:
        kinks = sorted({o - delay_ns, delay_ns - o})
        edges = [-span] + [k for k in kinks if -span < k < span] + [span]

    num = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        n = max(int(np.ceil((b - a) / step_ns)), 1)
        h = (b - a) / n
        mid = a + (np.arange(n) + 0.5) * h
        g = psi(mid + delay_ns) * psi(delay_ns - mid) * np.cos(omega * mid)
        num += float(g.sum() * h)

    if amp.shape is Shape.EXPONENTIAL_DECAY:
        d_edges = [o, o + 30.0 * amp.fwhm_ns]
    else:
        d_edges = [o - 30.0 * amp.fwhm_ns, o, o + 30.0 * amp.fwhm_ns]
    den = 0.0
    for a, b in zip(d_edges[:-1], d_edges[1:]):
        n = max(int(np.ceil((b - a) / step_ns)), 1)
        h = (b - a) / n
        mid = a + (np.arange(n) + 0.5) * h
        den += float(evaluate_density(amp, mid).sum() * h)
    return 0.5 * (1.0 - num / den)
