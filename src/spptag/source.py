"""Photon-pair source: Poisson emission with contamination processes.

Idler ("herald") arrivals form a homogeneous Poisson process; each carries a
signal partner delayed by a draw from the biphoton delay density.  Two noise
processes ride along: occasional second pairs within a coherence time of a
primary (multipair contamination) and unpaired broadband photons in either
arm.  Everything is generated from exponential-gap and inverse-CDF transforms
of Philox uniforms so runs are reproducible bit for bit.  The observation
time is drawn in 100 s slices from independent child streams, and a run can
be consumed slice by slice (stream_pairs) so its memory stays bounded.

PairEvents is the one event table of the bench: the modulator takes and
returns it, with signal_ps as the photon time and idler_ps as its herald
reference; the stages after it pass signal_ps alone.  Within a slice the kind
column is in draw order, so each kind is one run of positions (PairEvents.run):
the slice loops take the idler arm, the signal arm and the background to be
referenced as slices of the columns, never as boolean gathers.  A run
concatenated from several slices is not in that order.
"""
from __future__ import annotations

import collections
import enum
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .model import (PS_PER_NS, BiphotonAmplitude, RngSpec, check_finite, check_ps,
                    delay_range, sample_delay)

SEGMENT_PS = 100 * 10**12  # runs are drawn in 100 s slices


class PairKind(enum.IntEnum):
    TRUE_PAIR = 0
    MULTIPAIR_EXTRA = 1
    BACKGROUND_SIGNAL = 2
    BACKGROUND_IDLER = 3


@dataclass(frozen=True)
class SourceConfig:
    """Emission rates and contamination strengths.

    pair_rate              true pair emission rate [1/s]
    amplitude              signal-idler delay density
    multipair_prob         chance a primary pair drags an extra pair with it
    background_rate_signal unpaired photon rate entering the signal arm [1/s]
    background_rate_idler  unpaired photon rate entering the idler arm [1/s]
    """

    pair_rate: float
    amplitude: BiphotonAmplitude
    multipair_prob: float = 0.0
    background_rate_signal: float = 0.0
    background_rate_idler: float = 0.0

    def __post_init__(self):
        check_finite(self, "pair_rate", "multipair_prob", "background_rate_signal",
                     "background_rate_idler")
        if self.pair_rate < 0:
            raise ValueError("pair_rate must be nonnegative")
        if not 0.0 <= self.multipair_prob < 1.0:
            raise ValueError("multipair_prob must lie in [0, 1)")
        if self.background_rate_signal < 0 or self.background_rate_idler < 0:
            raise ValueError("background rates must be nonnegative")
        amp = self.amplitude  # delays reach 49.8 fwhm past the offset, extras 1 fwhm more
        reach = {"amplitude.offset_ns": abs(amp.offset_ns), "amplitude.fwhm_ns": 51 * amp.fwhm_ns}
        check_ps(sum(reach.values()) * PS_PER_NS, max(reach, key=reach.get))


class PairEvents:
    """Column store of emission events, in draw order.

    Each slice holds its true pairs, multipair extras, signal-arm background
    and idler-arm background, in that order, so within a slice the kind
    column is nondecreasing; only the true pairs are sorted by idler time.
    signal_ps is the signal photon's time and idler_ps its herald
    reference.  For pair kinds both times are physical.  BACKGROUND_SIGNAL
    events have no idler partner; their idler_ps holds the nearest idler-arm
    emission time (the modulation trigger reference), or 0 when none exists.
    BACKGROUND_IDLER events have no signal partner; signal_ps mirrors
    idler_ps and is never used downstream.
    """

    def __init__(self, idler_ps, signal_ps, kind):
        self.idler_ps = np.ascontiguousarray(idler_ps, dtype=np.int64)
        self.signal_ps = np.ascontiguousarray(signal_ps, dtype=np.int64)
        self.kind = np.ascontiguousarray(kind, dtype=np.uint8)
        if not (self.idler_ps.shape == self.signal_ps.shape == self.kind.shape):
            raise ValueError("column length mismatch")

    @classmethod
    def concatenate(cls, parts) -> "PairEvents":
        parts = list(parts)
        return cls(np.concatenate([p.idler_ps for p in parts]),
                   np.concatenate([p.signal_ps for p in parts]),
                   np.concatenate([p.kind for p in parts]))

    def __len__(self):
        return int(self.idler_ps.size)

    def select(self, which) -> "PairEvents":  # a random mask is 4x faster as indices
        at = np.flatnonzero(which) if getattr(which, "dtype", None) == bool else which
        return PairEvents(self.idler_ps[at], self.signal_ps[at], self.kind[at])

    def t_rel_ns(self) -> np.ndarray:
        """Signal arrival time relative to its herald reference [ns]."""
        return (self.signal_ps - self.idler_ps) / PS_PER_NS

    def run(self, kind: PairKind) -> slice:
        """Positions of one kind, for events whose kind column is nondecreasing: one
        slice in draw order, or a selection in order from one.  The bounds are uint8:
        Python int keys would make numpy search an int64 copy of the column."""
        return slice(*self.kind.searchsorted(np.array([kind, kind + 1], dtype=np.uint8)))

    def count_kind(self, kind: PairKind) -> int:
        return int(np.count_nonzero(self.kind == kind))

    def idler_arm_times(self) -> np.ndarray:
        """Emission times of photons physically present in the idler arm [ps], in draw order."""
        return self.idler_ps[self.kind != PairKind.BACKGROUND_SIGNAL]

    def __eq__(self, other):
        return (isinstance(other, PairEvents)
                and np.array_equal(self.idler_ps, other.idler_ps)
                and np.array_equal(self.signal_ps, other.signal_ps)
                and np.array_equal(self.kind, other.kind))


def poisson_times(rate_per_s: float, t0_ps: float, t1_ps: float,
                  gen: np.random.Generator) -> np.ndarray:
    """Homogeneous Poisson arrivals on [t0, t1) as int64 ps, via exponential gaps.

    Gaps accumulate as float offsets from t0 that are rounded before t0 is
    added in integer arithmetic, so the same draw on a shifted window is
    shifted exactly, however late in a run the window starts.
    """
    if rate_per_s <= 0.0 or t1_ps <= t0_ps:
        return np.empty(0, dtype=np.int64)
    rate_per_ps = rate_per_s * 1e-12
    span = t1_ps - t0_ps
    expected = span * rate_per_ps
    chunk = max(int(expected + 6.0 * np.sqrt(expected + 1.0)) + 16, 64)
    offset = 0.0
    out = []
    while True:  # offset + cumsum(-log1p(-u) / rate), rounded, in one buffer
        offsets = gen.random(chunk)
        np.log1p(np.negative(offsets, out=offsets), out=offsets)
        np.cumsum(np.divide(offsets, -rate_per_ps, out=offsets), out=offsets)
        offsets += offset
        offset = float(offsets[-1])
        rounded = np.rint(offsets, out=offsets)  # nondecreasing, so the inside is a prefix
        inside = int(np.searchsorted(rounded, span))
        out.append(rounded[:inside])
        if inside < chunk:
            break
    times = np.concatenate(out, dtype=np.int64, casting="unsafe")
    times += np.int64(t0_ps)
    return times


def segment_count(duration_ps: int) -> int:
    """Number of 100 s slices that cover [0, duration]."""
    return max(1, -(-int(duration_ps) // SEGMENT_PS))


def segment_edges(duration_ps: int, segments: int | None = None) -> np.ndarray:
    """Boundaries of `segments` equal slices of [0, duration] [ps].

    By default there is one slice per 100 s.  The interior edges are rounded
    through float64; the last is the duration exactly.
    """
    duration_ps = int(duration_ps)
    if duration_ps <= 0:
        raise ValueError("duration must be positive")
    segments = segment_count(duration_ps) if segments is None else int(segments)
    if segments < 1:
        raise ValueError("segments must be >= 1")
    return np.append(np.linspace(0, duration_ps, segments + 1)[:-1].astype(np.int64), duration_ps)


def slice_lead_ps(config: SourceConfig) -> int:
    """How far before its slice start a photon of the slice can be emitted [ps].

    Multipair extras sit up to one FWHM before their primary, and a signal
    photon may precede its idler by the most negative delay; 2 ps cover
    rounding both to whole picoseconds.
    """
    earliest_delay_ns = min(delay_range(config.amplitude)[0], 0.0)
    return int(np.ceil((config.amplitude.fwhm_ns - earliest_delay_ns) * PS_PER_NS)) + 2


def herald_references(times_ps: np.ndarray, heralds_ps: np.ndarray) -> np.ndarray:
    """Nearest herald to each time, the earlier one on a tie; 0 with no heralds.

    heralds_ps must be sorted.
    """
    if heralds_ps.size == 0:
        return np.zeros(times_ps.size, dtype=np.int64)
    at = heralds_ps.searchsorted(times_ps)
    right = heralds_ps.take(at, mode="clip")
    at -= 1  # now the left neighbour's: left <= t <= right, or they are equal
    at += right - times_ps < times_ps - heralds_ps.take(at, mode="clip")
    return heralds_ps.take(at, mode="clip")  # a take, not a branch per time as np.where is


def _draw_slice(config: SourceConfig, t0_ps: int, t1_ps: int,
                duration_ps: int, stream: RngSpec) -> PairEvents:
    """Events of one slice, background references not yet assigned.

    Draw order inside the slice stream is fixed: idler arrivals, pair
    delays, multipair flags, multipair offsets, multipair delays, signal-arm
    background, idler-arm background.
    """
    gen = stream.generator()
    amp = config.amplitude
    fwhm_ps = amp.fwhm_ns * PS_PER_NS

    idlers = poisson_times(config.pair_rate, t0_ps, t1_ps, gen)
    signals = idlers + np.rint(sample_delay(amp, gen, idlers.size) * PS_PER_NS).astype(np.int64)

    if config.multipair_prob > 0.0 and idlers.size:
        flagged = gen.random(idlers.size) < config.multipair_prob
        primaries = idlers[flagged]
        offs = np.rint((2.0 * gen.random(primaries.size) - 1.0) * fwhm_ps)
        extra_idlers = primaries + offs.astype(np.int64)
        extra_delays = sample_delay(amp, gen, primaries.size)
        extra_signals = extra_idlers + np.rint(extra_delays * PS_PER_NS).astype(np.int64)
    else:
        extra_idlers = np.empty(0, dtype=np.int64)
        extra_signals = np.empty(0, dtype=np.int64)

    bg_sig = poisson_times(config.background_rate_signal, t0_ps, t1_ps, gen)
    bg_idl = poisson_times(config.background_rate_idler, t0_ps, t1_ps, gen)

    # drop any event with a physical time outside the observation window
    pair_ok = (signals >= 0) & (signals <= duration_ps)
    idlers, signals = idlers[pair_ok], signals[pair_ok]
    extra_ok = ((extra_signals >= 0) & (extra_signals <= duration_ps)
                & (extra_idlers >= 0) & (extra_idlers <= duration_ps))
    extra_idlers, extra_signals = extra_idlers[extra_ok], extra_signals[extra_ok]

    kind_col = np.repeat(np.array(list(PairKind), dtype=np.uint8),  # in draw order
                         [idlers.size, extra_idlers.size, bg_sig.size, bg_idl.size])
    return PairEvents(np.concatenate([idlers, extra_idlers, bg_sig, bg_idl]),
                      np.concatenate([signals, extra_signals, bg_sig, bg_idl]),
                      kind_col)


def _with_references(events: PairEvents, heralds_ps: np.ndarray) -> PairEvents:
    """Set each background photon's reference in place to its nearest herald; one slice."""
    bg = events.run(PairKind.BACKGROUND_SIGNAL)
    events.idler_ps[bg] = herald_references(events.signal_ps[bg], heralds_ps)
    return events


def generate_pairs(config: SourceConfig, duration_ps: int, rng: RngSpec,
                   segments: int | None = None, *, segment: int) -> PairEvents:
    """Simulate source emission over one slice of [0, duration].

    The observation time is split into `segments` equal slices (by default
    one per 100 s), and slice `segment` is drawn from rng.child(segment).
    Its BACKGROUND_SIGNAL events still hold their own time as idler_ps,
    since their references may lie in neighbouring slices: stream_pairs
    assigns them, and a whole run is PairEvents.concatenate(stream_pairs(...)).
    """
    edges = segment_edges(duration_ps, segments)
    if not 0 <= segment < edges.size - 1:
        raise ValueError("segment must lie in [0, segments)")
    return _draw_slice(config, int(edges[segment]), int(edges[segment + 1]),
                       int(duration_ps), rng.child(segment))


def stream_pairs(config: SourceConfig, duration_ps: int, rng: RngSpec,
                 segments: int | None = None) -> Iterator[PairEvents]:
    """The slices of [0, duration] from generate_pairs in order, references assigned.

    A background reference is the nearest idler-arm emission over the whole
    run.  Slices are drawn ahead of the one yielded until no undrawn slice
    can hold a nearer herald, which is normally one slice of look-ahead; of
    the heralds before the next slice only the latest is kept.
    """
    edges = segment_edges(duration_ps, segments)
    segments = edges.size - 1
    lead = slice_lead_ps(config)
    heralds_possible = config.pair_rate > 0 or config.background_rate_idler > 0
    drawn = collections.deque()
    heralds = np.empty(0, dtype=np.int64)

    def settled(events: PairEvents, undrawn_from_ps: int) -> bool:
        """Every background photon has a herald at or after it that no undrawn one beats."""
        bg = events.signal_ps[events.run(PairKind.BACKGROUND_SIGNAL)]
        if bg.size == 0 or not heralds_possible:
            return True
        right = np.searchsorted(heralds, bg.max())
        return right < heralds.size and heralds[right] <= undrawn_from_ps

    for k in range(segments):
        while k + len(drawn) < segments and (
                not drawn or not settled(drawn[0], edges[k + len(drawn)] - lead)):
            drawn.append(generate_pairs(config, duration_ps, rng, segments,
                                        segment=k + len(drawn)))
            bg = drawn[-1].run(PairKind.BACKGROUND_SIGNAL)  # the idler arm: the runs around it
            heralds = np.concatenate([heralds, drawn[-1].idler_ps[:bg.start],
                                      drawn[-1].idler_ps[bg.stop:]])
            heralds.sort(kind="stable")
        # no local name: the consumer alone holds the slice it is working on
        yield _with_references(drawn.popleft(), heralds)
        heralds = heralds[max(int(np.searchsorted(heralds, edges[k + 1])) - 1, 0):].copy()
