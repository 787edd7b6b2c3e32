"""Signal-arm optics chain: waveform imprinting, sample, split, detection.

Photon loss is modeled as Bernoulli thinning; nothing here evolves
amplitudes.  The electro-optic modulator acts on the arrival time of a
signal photon relative to its herald, so it takes the source's event table
(PairEvents, signal_ps the photon time and idler_ps its herald reference)
and keeps each event with the squared amplitude transmission m(t_rel)^2.
The stages after it (sample, beamsplitter) take and return int64 photon
times only.  Detectors turn photon times into tag times with efficiency
thinning, dark counts, Gaussian timestamp jitter, and a non-paralyzable
dead time; the three detectors' tags are labelled with their channels
once, where they are merged.  stream_experiment runs the whole bench one
100 s slice at a time and yields each slice's final tags, so memory does
not grow with the run beyond the tags its consumer keeps; run_experiment
keeps them all.
"""
from __future__ import annotations

import enum
import logging
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
    evaluate_density,
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
MAX_DRIVE_POINTS = 2**24  # 128 MiB per float array of a derived drive


@dataclass(frozen=True)
class ModulationFunction:
    """Amplitude transmission m(t_rel) programmed on the modulator.

    identity   m = 1 everywhere (modulator removed)
    heaviside  m = 1 for t_rel >= edge_ns, else 0
    gaussian   reshape the source wavepacket toward a Gaussian target of
               target_fwhm_ns centred at target_center_ns; the drive is a
               TabulatedDrive derived against the source amplitude
               (resolve_modulation)
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

    def amplitude(self, t_rel_ns) -> np.ndarray:
        """Transmission amplitude in [0, 1] at herald-relative times [ns]."""
        t = np.asarray(t_rel_ns, dtype=float)
        if self.kind is ModulationKind.IDENTITY:
            return np.ones_like(t)
        if self.kind is ModulationKind.HEAVISIDE:
            return (t >= self.edge_ns).astype(float)
        raise ValueError("gaussian modulation must be resolved against a "
                         "source amplitude before evaluation")


@dataclass(frozen=True, eq=False)
class TabulatedDrive:
    """Derived drive amplitudes on a time grid [ns], held at the nearer edge
    value outside it, and the target mass they could not produce."""

    grid_ns: np.ndarray
    values: np.ndarray
    clipped_mass: float

    def amplitude(self, t_rel_ns) -> np.ndarray:
        """Transmission amplitude in [0, 1] at herald-relative times [ns]."""
        return np.interp(np.asarray(t_rel_ns, dtype=float), self.grid_ns, self.values)

    def outside(self, t_rel_ns: np.ndarray) -> int:
        """How many of the times lie off the grid, held at its edge values."""
        grid = self.grid_ns
        return int(np.count_nonzero((t_rel_ns < grid[0]) | (t_rel_ns > grid[-1])))


def derive_modulation_for_target(input_amp: BiphotonAmplitude,
                                 target_amp: BiphotonAmplitude,
                                 grid_ns) -> TabulatedDrive:
    """Drive that reshapes the input delay density toward a target density.

    The pointwise amplitude is sqrt(target / (M * input)) with M the maximum
    density ratio on the grid, so the drive peaks at exactly 1 and the
    surviving fraction is 1/M.  Target mass sitting where the input density
    vanishes cannot be produced by attenuation and is reported as
    clipped_mass on the returned drive.
    """
    grid = np.asarray(grid_ns, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing with >= 2 points")
    f_in = evaluate_density(input_amp, grid)
    f_target = evaluate_density(target_amp, grid)
    reachable = f_in > 0.0
    if not reachable.any():
        raise ValueError("input density vanishes on the whole grid")
    ratio = np.zeros_like(f_target)
    ratio[reachable] = f_target[reachable] / f_in[reachable]
    m_max = ratio.max()
    if m_max <= 0.0:
        raise ValueError("target density vanishes on the whole grid")
    values = np.sqrt(ratio / m_max)
    clipped = float(np.trapezoid(np.where(reachable, 0.0, f_target), grid))
    if clipped > 1e-6:
        log.warning("target waveform has %.3g unreachable mass", clipped)
    return TabulatedDrive(grid, np.clip(values, 0.0, 1.0), clipped)


def drive_grid_ends(modulation: ModulationFunction,
                    source_amp: BiphotonAmplitude) -> tuple[float, float]:
    """Ends [ns] of the 0.1 ns grid a gaussian target's drive is derived on:
    six widths of the wider packet beyond both centres.  A grid of more than
    MAX_DRIVE_POINTS points raises ValueError before anything is allocated."""
    span = 6.0 * max(source_amp.fwhm_ns, modulation.target_fwhm_ns)
    lo = min(source_amp.offset_ns, modulation.target_center_ns) - span
    hi = max(source_amp.offset_ns, modulation.target_center_ns) + span + 0.05
    points = (hi - lo) / 0.1
    if not points <= MAX_DRIVE_POINTS:
        raise ValueError(f"gaussian drive grid of {points:.4g} points exceeds "
                         f"the limit of {MAX_DRIVE_POINTS}")
    return lo, hi


def resolve_modulation(modulation: ModulationFunction, source_amp: BiphotonAmplitude
                       ) -> ModulationFunction | TabulatedDrive:
    """The drive of a gaussian target, derived against the source; other kinds as given."""
    if modulation.kind is not ModulationKind.GAUSSIAN:
        return modulation
    target = BiphotonAmplitude(Shape.GAUSSIAN, modulation.target_fwhm_ns,
                               offset_ns=modulation.target_center_ns)
    grid = np.arange(*drive_grid_ends(modulation, source_amp), 0.1)
    return derive_modulation_for_target(source_amp, target, grid)


def apply_modulation(events: PairEvents, modulation: ModulationFunction | TabulatedDrive,
                     rng: RngSpec | np.random.Generator) -> PairEvents:
    """Bernoulli-thin signal photons with probability m(t_rel)^2.

    Identity passes the stream through untouched without consuming random
    numbers.  A gaussian target must be resolved first (resolve_modulation).
    """
    if (isinstance(modulation, ModulationFunction)
            and modulation.kind is ModulationKind.IDENTITY):
        return events
    gen = as_generator(rng)
    p = modulation.amplitude(events.t_rel_ns()) ** 2
    keep = gen.random(len(events)) < p
    return events.select(keep)


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
    return photons_ps[gen.random(photons_ps.size) < sample.overall_conversion]


def beamsplit(photons_ps: np.ndarray, ratio: float,
              rng: RngSpec | np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Split photon times [ps] on a beamsplitter; ratio is the probability of arm A."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("split ratio must lie in [0, 1]")
    gen = as_generator(rng)
    to_a = gen.random(photons_ps.size) < ratio
    return photons_ps[to_a], photons_ps[~to_a]


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
    accepted = gen.random(times.size) < detector.efficiency
    jitter_u = gen.random(times.size)[accepted]
    physical = times[accepted]
    darks = poisson_times(detector.dark_rate, state.start_ps, end_ps, gen)
    # darks go after photons at the same time; they carry no jitter
    at = np.searchsorted(physical, darks, side="right")
    physical = np.insert(physical, at, darks)
    jitter_u = np.insert(jitter_u, at, 0.5)
    alive = _dead_time_filter_mask(physical, detector.dead_time_ps, state.last_fire_ps)
    physical = physical[alive]
    jitter_u = jitter_u[alive]
    state.start_ps = end_ps
    if physical.size:
        state.last_fire_ps = int(physical[-1])
    if detector.jitter_sigma_ps > 0:
        shift = np.rint(detector.jitter_sigma_ps * normal_quantile(jitter_u))
        physical = physical + shift.astype(np.int64)
    inside = (physical >= 0) & (physical <= duration_ps)
    return np.sort(physical[inside], kind="stable")


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
    contested = np.flatnonzero(~keep)
    runs = np.split(contested, np.flatnonzero(np.diff(contested) > 1) + 1)
    for run in runs:
        last = times[run[0] - 1] if run[0] else prev
        for i in run:
            if times[i] - last >= dead_ps:
                keep[i] = True
                last = times[i]
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
    duration_ps, segments = int(edges[-1]), edges.size - 1
    src, sample, detectors = config.source, config.sample, config.detectors
    source = replace(src, background_rate_signal=src.background_rate_signal
                     * sample.overall_conversion * sample.background_suppression)
    modulation = resolve_modulation(config.modulation, src.amplitude)
    gen_mod, gen_sample, gen_split, *gen_det = (rng.child(k).generator() for k in range(1, 7))
    states = [DetectorState() for _ in detectors]
    held_photons = [np.empty(0, dtype=np.int64) for _ in detectors]
    held_tags = [np.empty(0, dtype=np.int64) for _ in detectors]
    lead = slice_lead_ps(source)
    jitter = max(_jitter_reach_ps(det) for det in detectors)
    n_outside = 0
    slices = stream_pairs(source, duration_ps, rng.child(0), segments)
    for k in range(segments):
        last = k == segments - 1
        # no photon of a later slice precedes the horizon, no later tag the flush
        horizon = duration_ps + 1 if last else max(int(edges[k + 1]) - lead, 0)
        flush_before = np.iinfo(np.int64).max if last else horizon - jitter
        # the kind column is in draw order (pairs, extras, signal and idler background),
        # so the signal arm and, after modulation, its pairs and background are runs
        pairs = next(slices)  # not enumerate(slices): its cached tuple would keep the slice
        arrivals = [pairs.idler_arm_times()]
        signal = pairs.select(slice(np.searchsorted(pairs.kind, PairKind.BACKGROUND_IDLER)))
        del pairs  # signal views the slice's columns: free them once a stage copies
        if isinstance(modulation, TabulatedDrive):
            n_outside += modulation.outside(signal.t_rel_ns())
        signal = apply_modulation(signal, modulation, gen_mod)
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
    if n_outside:
        log.warning("%d events outside the modulation grid held at edge values", n_outside)


def run_experiment(config: ExperimentConfig, duration_ps: int, rng: RngSpec,
                   segments: int | None = None) -> TimeTagStream:
    """Simulate the whole bench and return the merged three-channel stream:
    the slices of stream_experiment concatenated in order."""
    slices = list(stream_experiment(config, duration_ps, rng, segments))
    return TimeTagStream(np.concatenate([s.times_ps for s in slices]),
                         np.concatenate([s.channels for s in slices]), slices[0].duration_ps)
