"""Signal-arm optics chain: waveform imprinting, sample, split, detection.

Photon loss is modeled as Bernoulli thinning, survivors kept by index (a
quarter of the cost of a random boolean mask); nothing here evolves
amplitudes.  The electro-optic modulator acts on the arrival time of a signal
photon relative to its herald, so it takes the source's event table
(PairEvents, signal_ps the photon time and idler_ps its herald reference) and
keeps each event with the squared amplitude transmission m(t_rel)^2; a
gaussian target's m is a closed form of the source's delay density.  The
stages after it (sample, beamsplitter) take and return int64 photon times
only.  Detectors turn photon times into tag times with efficiency thinning,
dark counts, Gaussian timestamp jitter, and a non-paralyzable dead time; the
three detectors' tags are labelled with their channels once, where they are
merged.  stream_experiment runs the whole bench one 100 s slice at a time and
yields each slice's final tags, so memory does not grow with the run beyond
the tags its consumer keeps; run_experiment keeps them all.
"""
from __future__ import annotations

import enum
import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace

import numpy as np

from .model import (
    BiphotonAmplitude,
    RngSpec,
    Shape,
    TimeTagStream,
    as_generator,
    check_finite,
    check_ps,
    normal_quantile,
)
from .source import (
    PairEvents,
    PairKind,
    SourceConfig,
    poisson_times,
    segment_edges,
    slice_lead_ps,
    stream_pairs,
)
from .spectrum import SpectrumConfig

log = logging.getLogger(__name__)


class ModulationKind(enum.Enum):
    IDENTITY = "identity"
    HEAVISIDE = "heaviside"
    GAUSSIAN = "gaussian"


# modulation kind -> the fields it takes besides kind; the others keep their defaults
MODULATION_FIELDS = {
    ModulationKind.IDENTITY: (),
    ModulationKind.HEAVISIDE: ("edge_ns",),
    ModulationKind.GAUSSIAN: ("target_fwhm_ns", "target_center_ns"),
}


@dataclass(frozen=True)
class ModulationFunction:
    """Amplitude transmission m(t_rel) programmed on the modulator.

    identity   m = 1 everywhere (modulator removed)
    heaviside  m = 1 for t_rel >= edge_ns, else 0
    gaussian   m = sqrt(target / (M * source)), which reshapes the source
               wavepacket into a Gaussian target of target_fwhm_ns centred at
               target_center_ns; M is the largest target/source density
               ratio, so m peaks at exactly 1 and (1 - unreachable mass) / M
               of the source's photons pass
    """

    kind: ModulationKind = ModulationKind.IDENTITY
    edge_ns: float = 0.0
    target_fwhm_ns: float = 40.0
    target_center_ns: float = 0.0

    def __post_init__(self):
        check_finite(self, "edge_ns", "target_fwhm_ns", "target_center_ns")
        if self.kind is ModulationKind.GAUSSIAN and self.target_fwhm_ns <= 0:
            raise ValueError("gaussian modulation needs a positive target fwhm")
        for name in self.unused_fields():  # it would not survive a config round trip
            if getattr(self, name) != getattr(ModulationFunction, name):
                raise ValueError(f"{self.kind.value} modulation does not take {name}")

    @classmethod
    def identity(cls) -> "ModulationFunction":
        return cls()

    @classmethod
    def heaviside(cls, edge_ns: float) -> "ModulationFunction":
        return cls(ModulationKind.HEAVISIDE, edge_ns=edge_ns)

    @classmethod
    def gaussian_target(cls, fwhm_ns: float, center_ns: float = 0.0) -> "ModulationFunction":
        return cls(ModulationKind.GAUSSIAN, target_fwhm_ns=fwhm_ns,
                   target_center_ns=center_ns)

    def unused_fields(self) -> tuple[str, ...]:
        """Fields besides kind that this kind does not take."""
        taken = ("kind", *MODULATION_FIELDS[self.kind])
        return tuple(f.name for f in fields(self) if f.name not in taken)

    def amplitude(self, t_rel_ns, source: BiphotonAmplitude | None = None) -> np.ndarray:
        """Transmission amplitude in [0, 1] at herald-relative times [ns]; a
        gaussian target's is derived against the source amplitude."""
        t = np.asarray(t_rel_ns, dtype=float)
        if self.kind is ModulationKind.IDENTITY:
            return np.ones_like(t)
        if self.kind is ModulationKind.HEAVISIDE:
            return (t >= self.edge_ns).astype(float)
        if source is None:
            raise ValueError("gaussian modulation needs the source amplitude")
        # in log space, so far in both tails no density underflows to 0/0
        log_ratio = self._log_ratio(t, source) - self._log_ratio(self.peak_ns(source), source)
        return np.exp(0.5 * np.minimum(log_ratio, 0.0))

    def peak_ns(self, source: BiphotonAmplitude) -> float:
        """Herald-relative time [ns] where the target/source density ratio is
        largest, so a gaussian target's drive is 1.

        The log-ratio is a parabola on each side of the source offset o, so
        the peak is max(o, c + sigma^2/tau0) or, where the source has density
        before o, min(o, c - sigma^2/tau0).  Against a gaussian source it is
        one parabola, with a peak only for a narrower target.
        """
        c, o, var = self.target_center_ns, source.offset_ns, self.target.sigma_ns**2
        if source.shape is Shape.GAUSSIAN:
            s2 = source.sigma_ns**2
            if not var < s2:
                raise ValueError("a gaussian target must be narrower than a gaussian source")
            peaks = [(c * s2 - o * var) / (s2 - var)]
        else:
            shift = var / source.tau0_ns
            peaks = [max(o, c + shift)]
            if source.shape is Shape.DOUBLE_EXPONENTIAL:
                peaks.append(min(o, c - shift))
        peak = max(peaks, key=lambda t: self._log_ratio(t, source))
        if not np.isfinite(self._log_ratio(peak, source)):
            raise ValueError("the target/source density ratio overflows at its peak")
        return peak

    def unreachable_mass(self, source: BiphotonAmplitude) -> float:
        """Target mass where the source has no density, which no drive produces."""
        if (self.kind is not ModulationKind.GAUSSIAN
                or source.shape is not Shape.EXPONENTIAL_DECAY):
            return 0.0
        z = (self.target_center_ns - source.offset_ns) / self.target.sigma_ns
        return 0.5 * math.erfc(z / math.sqrt(2.0))

    @property
    def target(self) -> BiphotonAmplitude:
        """The gaussian target's delay density."""
        return BiphotonAmplitude(Shape.GAUSSIAN, self.target_fwhm_ns, self.target_center_ns)

    def _log_ratio(self, t, source: BiphotonAmplitude):
        """log(target / source) at t [ns] up to a constant; -inf where the source has no density."""
        x = t - source.offset_ns
        # far out in the target's tail -inf, or nan where the source's overflows too:
        # m is then 0 or nan, and a photon with m = nan is never kept
        with np.errstate(over="ignore", invalid="ignore"):
            log_target = -0.5 * ((t - self.target_center_ns) / self.target.sigma_ns) ** 2
            if source.shape is Shape.GAUSSIAN:
                return log_target + 0.5 * (x / source.sigma_ns) ** 2
            log_ratio = log_target + np.abs(x) / source.tau0_ns
        if source.shape is Shape.EXPONENTIAL_DECAY:
            return np.where(x >= 0.0, log_ratio, -np.inf)
        return log_ratio


def apply_modulation(events: PairEvents, modulation: ModulationFunction,
                     rng: RngSpec | np.random.Generator, *,
                     source: BiphotonAmplitude | None = None) -> PairEvents:
    """Bernoulli-thin signal photons with probability m(t_rel)^2.

    Identity (untouched) and heaviside (t_rel >= edge, as m^2 is 0 or 1) consume
    no random numbers.  A gaussian target's drive needs the source amplitude.
    """
    if modulation.kind is ModulationKind.IDENTITY:
        return events
    t_rel = events.t_rel_ns()
    if modulation.kind is ModulationKind.HEAVISIDE:
        return events.select(t_rel >= modulation.edge_ns)
    u = as_generator(rng).random(len(events))
    return events.select(u < modulation.amplitude(t_rel, source) ** 2)


@dataclass(frozen=True)
class SampleConfig:
    """Photon-plasmon-photon conversion element in the signal arm.

    spectrum               hole-array spectrum of the structure, used to check
                           the photon wavelength sits in its characterized band
                           (None skips the check)
    photon_wavelength_nm   carrier wavelength of the signal photons
    overall_conversion     end-to-end survival probability at the carrier
    background_suppression extra factor for broadband background only, which
                           run_experiment folds into the background rate
    """

    photon_wavelength_nm: float
    overall_conversion: float
    background_suppression: float = 1.0
    spectrum: SpectrumConfig | None = None

    def __post_init__(self):
        check_finite(self, "photon_wavelength_nm", "overall_conversion",
                     "background_suppression")
        if self.photon_wavelength_nm <= 0:
            raise ValueError("wavelength must be positive")
        if not 0.0 <= self.overall_conversion <= 1.0:
            raise ValueError("overall_conversion must lie in [0, 1]")
        if not 0.0 <= self.background_suppression <= 1.0:
            raise ValueError("background_suppression must lie in [0, 1]")
        if self.spectrum is not None:
            lo, hi = self.spectrum.grid_lo_nm, self.spectrum.grid_hi_nm
            if not lo <= self.photon_wavelength_nm <= hi:
                raise ValueError(
                    f"photon wavelength {self.photon_wavelength_nm} nm outside "
                    f"the characterized spectrum [{lo}, {hi}] nm")


def apply_sample(photons_ps: np.ndarray, sample: SampleConfig,
                 rng: RngSpec | np.random.Generator) -> np.ndarray:
    """Pair photon times [ps] that survive the sample, each with overall_conversion.

    Broadband background does not pass here: run_experiment draws it already
    thinned by the conversion and background_suppression.
    """
    gen = as_generator(rng)
    return np.compress(gen.random(photons_ps.size) < sample.overall_conversion, photons_ps)


def beamsplit(photons_ps: np.ndarray, ratio: float,
              rng: RngSpec | np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Split photon times [ps] on a beamsplitter; ratio is the probability of arm A."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("split ratio must lie in [0, 1]")
    gen = as_generator(rng)
    to_a = gen.random(photons_ps.size) < ratio
    return np.compress(to_a, photons_ps), np.compress(~to_a, photons_ps)


@dataclass(frozen=True)
class DetectorConfig:
    """Single-photon detector response."""

    efficiency: float = 0.5
    dark_rate: float = 100.0          # [1/s]
    jitter_sigma_ps: float = 350.0
    dead_time_ps: int = 50_000

    def __post_init__(self):
        check_finite(self, "efficiency", "dark_rate", "jitter_sigma_ps", "dead_time_ps")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if self.dark_rate < 0 or self.jitter_sigma_ps < 0 or self.dead_time_ps < 0:
            raise ValueError("detector parameters must be nonnegative")
        check_ps(8.0 * self.jitter_sigma_ps, "jitter_sigma_ps")  # shifts reach 7.94 sigma
        check_ps(self.dead_time_ps, "dead_time_ps", 2**62)  # it is subtracted from tag times


@dataclass
class DetectorState:
    """A detector's place in a run that is detected window by window.

    start_ps      start of the next window; its dark counts are drawn from here
    last_fire_ps  physical time of the last counted event (dead-time reference)
    """

    start_ps: int = 0
    last_fire_ps: int | None = None


def detect(times_ps: np.ndarray, detector: DetectorConfig, duration_ps: int,
           rng: RngSpec | np.random.Generator, *, until_ps: int | None = None,
           state: DetectorState | None = None) -> np.ndarray:
    """Turn photon arrival times into one detector's sorted tag times [ps].

    Acceptance and jitter variates are drawn for every input photon, so
    raising the efficiency with the same stream keeps every previously kept
    photon (coupled draws); dead time then acts on the surviving physical
    order.  Dark counts are Poisson on [0, duration] and share the dead time.

    A run can be detected in consecutive windows: pass the same state and
    live generator to each call, with the photons of [state.start_ps,
    until_ps).  Dark counts are then drawn per window and the dead time
    carries over; the call advances state to until_ps.
    """
    gen = as_generator(rng)
    state = DetectorState() if state is None else state
    end_ps = duration_ps if until_ps is None else min(until_ps, duration_ps)
    times = np.asarray(times_ps, dtype=np.int64)
    if np.any(times[1:] < times[:-1]):
        raise ValueError("input photon times must be sorted")
    accepted = np.flatnonzero(gen.random(times.size) < detector.efficiency)
    jitter_u = gen.random(times.size).take(accepted)
    physical = times.take(accepted)
    darks = poisson_times(detector.dark_rate, state.start_ps, end_ps, gen)
    if darks.size:  # darks go after photons at the same time; they carry no jitter
        at = np.searchsorted(physical, darks, side="right")
        physical = np.insert(physical, at, darks)
        jitter_u = np.insert(jitter_u, at, 0.5)
    alive = np.flatnonzero(_dead_time_filter_mask(physical, detector.dead_time_ps,
                                                  state.last_fire_ps))
    physical, jitter_u = physical.take(alive), jitter_u.take(alive)
    state.start_ps = end_ps
    if physical.size:
        state.last_fire_ps = int(physical[-1])
    if detector.jitter_sigma_ps > 0:
        physical += np.rint(detector.jitter_sigma_ps * normal_quantile(jitter_u)).astype(np.int64)
    tags = np.sort(physical, kind="stable")  # timsort: jitter leaves them nearly sorted
    return tags[np.searchsorted(tags, 0):np.searchsorted(tags, duration_ps, side="right")]


def _jitter_reach_ps(detector: DetectorConfig) -> int:
    """Bound [ps] above the largest shift, either way, that the detector's jitter applies."""
    # both ends: the clipped probability near 1 rounds to the thinner tail
    ends = np.abs(normal_quantile(np.array([0.0, 1.0])))
    return int(np.ceil(detector.jitter_sigma_ps * ends.max())) + 1


def _dead_time_filter_mask(times: np.ndarray, dead_ps: int,
                           last_fire_ps: int | None = None) -> np.ndarray:
    """Boolean keep mask version of the dead-time filter.

    last_fire_ps is a counted event before times[0], if there was one.
    """
    if dead_ps <= 0 or times.size == 0:
        return np.ones(times.size, dtype=bool)
    prev = times[0] - dead_ps if last_fire_ps is None else last_fire_ps
    keep = np.diff(times, prepend=prev) >= dead_ps
    if keep.all():
        return keep
    # tags closer than dead_ps to their predecessor form runs after a kept tag; all
    # runs advance together, one fire per step, to the first tag dead_ps after
    # their last fire, and a run ends when that tag lies past it
    contested = np.flatnonzero(~keep)
    first = np.flatnonzero(np.diff(contested, prepend=-2) > 1)
    starts = contested[first]
    ends = np.append(contested[first[1:] - 1], contested[-1]) + 1
    last = np.where(starts > 0, times[starts - 1], prev)
    # beyond the span of the tags no dead time lets one fire; capping keeps last + dead in int64
    dead = min(math.ceil(dead_ps), int(times[-1] - last.min()) + 1)
    while last.size:
        nxt = np.searchsorted(times, last + dead)
        live = nxt < ends
        nxt, ends = nxt[live], ends[live]
        keep[nxt] = True
        last = times[nxt]
    return keep


@dataclass(frozen=True)
class ExperimentConfig:
    """Full physical chain: source, modulator, sample, split, three detectors.

    Detector 0 watches the idler (herald) arm; detectors 1 and 2 watch the
    two beamsplitter outputs of the signal arm.
    """

    source: SourceConfig
    modulation: ModulationFunction = ModulationFunction()
    sample: SampleConfig = SampleConfig(795.0, 1.0, 1.0)
    detectors: tuple[DetectorConfig, DetectorConfig, DetectorConfig] = (
        DetectorConfig(efficiency=1.0, dark_rate=0.0),
        DetectorConfig(),
        DetectorConfig(),
    )
    split_ratio: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.split_ratio <= 1.0:
            raise ValueError("split_ratio must lie in [0, 1]")


def stream_experiment(config: ExperimentConfig, duration_ps: int, rng: RngSpec,
                      segments: int | None = None) -> Iterator[TimeTagStream]:
    """Simulate the bench slice by slice, yielding each slice's final tags.

    The run is split into `segments` equal slices (by default one per
    100 s), and each slice is generated, modulated, sampled, split and
    detected before the next starts.  Stages draw from fixed child streams
    of rng (generation, modulation, sample, beamsplitter, one per detector)
    that stay live across slices, so any stage's draws are unaffected by
    parameter changes upstream that keep event counts fixed.

    Per detector, photons are held back until no later slice can bring an
    earlier one, so the detector sees them in time order, and tags until no
    later photon can be jittered before them.  Each yielded stream is
    therefore sorted, begins no earlier than the previous one ends, and the
    streams concatenate to run_experiment's.

    Signal-arm background is drawn already thinned by the sample's
    conversion and background suppression, and skips the sample stage:
    thinning a Poisson process by a constant probability commutes with
    every other independent thinning (Lewis & Shedler 1979).
    """
    edges = segment_edges(duration_ps, segments)
    duration_ps, segments = int(duration_ps), edges.size - 1
    src, sample, detectors = config.source, config.sample, config.detectors
    source = replace(src, background_rate_signal=src.background_rate_signal
                     * sample.overall_conversion * sample.background_suppression)
    unreachable = config.modulation.unreachable_mass(src.amplitude)
    if unreachable > 1e-6:
        log.warning("target waveform has %.3g unreachable mass", unreachable)
    gen_mod, gen_sample, gen_split, *gen_det = (rng.child(k).generator() for k in range(1, 7))
    states = [DetectorState() for _ in detectors]
    held_photons = [np.empty(0, dtype=np.int64) for _ in detectors]
    held_tags = [np.empty(0, dtype=np.int64) for _ in detectors]
    lead = slice_lead_ps(source)
    jitter = max(_jitter_reach_ps(det) for det in detectors)
    slices = stream_pairs(source, duration_ps, rng.child(0), segments)
    for k in range(segments):
        last = k == segments - 1
        # no photon of a later slice precedes the horizon, no later tag the flush
        horizon = duration_ps + 1 if last else max(int(edges[k + 1]) - lead, 0)
        flush_before = np.iinfo(np.int64).max if last else horizon - jitter
        # the kind column is in draw order (pairs, extras, signal and idler background),
        # so the signal arm and, after modulation, its pairs and background are runs
        pairs = next(slices)  # not enumerate(slices): its cached tuple would keep the slice
        arrivals = [pairs.idler_arm_times()]  # sorted below
        signal = pairs.select(slice(np.searchsorted(pairs.kind, PairKind.BACKGROUND_IDLER)))
        del pairs  # signal views the slice's columns: free them once a stage copies
        signal = apply_modulation(signal, config.modulation, gen_mod, source=src.amplitude)
        bg = np.searchsorted(signal.kind, PairKind.BACKGROUND_SIGNAL)
        # the background was drawn already thinned by the sample
        photons = np.concatenate([
            apply_sample(signal.signal_ps[:bg], sample, gen_sample), signal.signal_ps[bg:]])
        del signal
        arrivals += beamsplit(photons, config.split_ratio, gen_split)
        del photons
        flushed = {}
        for ch, detector in enumerate(detectors):
            photons = np.sort(np.concatenate([held_photons[ch], arrivals[ch]]), kind="stable")
            cut = np.searchsorted(photons, horizon)
            held_photons[ch] = photons[cut:].copy()  # a view would keep the whole slice
            new = detect(photons[:cut], detector, duration_ps, gen_det[ch],
                         until_ps=horizon, state=states[ch])
            tags = np.sort(np.concatenate([held_tags[ch], new]), kind="stable")
            cut = np.searchsorted(tags, flush_before)
            flushed[ch], held_tags[ch] = tags[:cut], tags[cut:].copy()
        stream = TimeTagStream.from_channel_times(flushed, duration_ps)
        del arrivals, photons, new, tags, flushed  # the consumer holds only the stream
        yield stream


def run_experiment(config: ExperimentConfig, duration_ps: int, rng: RngSpec,
                   segments: int | None = None) -> TimeTagStream:
    """Simulate the whole bench and return the merged three-channel stream:
    the slices of stream_experiment concatenated in order."""
    slices = list(stream_experiment(config, duration_ps, rng, segments))
    return TimeTagStream(np.concatenate([s.times_ps for s in slices]),
                         np.concatenate([s.channels for s in slices]), slices[0].duration_ps)
