"""Plain-text run configuration: parse, build, serialize.

One assignment per line, `section.key = value`, with `#` comments.  Every
key is optional; unspecified keys take the desk-scale defaults below, so an
empty file is a complete configuration.  Unknown keys are rejected with
their line number.

Sections: run, rng, source, amplitude, modulation, sample, spectrum,
beamsplitter, detector0, detector1, detector2, analysis.  The spectrum
section is optional as a whole; giving any of its keys attaches a hole-array
transmission spectrum to the sample stage, which then validates the photon
wavelength against the characterized band.
"""
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .model import BiphotonAmplitude, RngSpec, Shape
from .optics import (
    DetectorConfig,
    ExperimentConfig,
    ModulationFunction,
    ModulationKind,
    SampleConfig,
)
from .source import SourceConfig
from .spectrum import ArrayGeometry, FanoParameters, fano_spectrum

PS_PER_SECOND = 1_000_000_000_000


@dataclass(frozen=True)
class SpectrumConfig:
    """Hole-array parameters used to build the sample transmission spectrum."""

    geometry: ArrayGeometry = ArrayGeometry()
    fano: FanoParameters = FanoParameters()
    grid_lo_nm: float = 420.0
    grid_hi_nm: float = 1200.0
    grid_points: int = 1024

    def __post_init__(self):
        if not self.grid_lo_nm < self.grid_hi_nm:
            raise ValueError("need grid_lo_nm < grid_hi_nm")
        if self.grid_points < 2:
            raise ValueError("need at least 2 grid points")

    def build(self):
        grid = np.linspace(self.grid_lo_nm, self.grid_hi_nm, self.grid_points)
        return fano_spectrum(self.geometry, grid, self.fano)


@dataclass(frozen=True)
class AnalysisConfig:
    """Default windows for the analysis commands."""

    bin_ps: int = 1000
    herald_window_ps: int = 150_000
    cs_window_ps: int = 10_000_000

    def __post_init__(self):
        if self.bin_ps <= 0 or self.herald_window_ps <= 0 or self.cs_window_ps <= 0:
            raise ValueError("analysis windows must be positive")


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation run needs."""

    experiment: ExperimentConfig
    rng: RngSpec
    duration_ps: int
    analysis: AnalysisConfig
    spectrum: Optional[SpectrumConfig]

    def __post_init__(self):
        if self.duration_ps <= 0:
            raise ValueError("duration must be positive")


def default_config() -> RunConfig:
    """Desk-scale bench defaults: full chain, modulator set to pass-through."""
    source = SourceConfig(
        pair_rate=2000.0,
        amplitude=BiphotonAmplitude(Shape.DOUBLE_EXPONENTIAL, 50.0),
        multipair_prob=0.0045,
        background_rate_signal=14600.0,
        background_rate_idler=0.0,
    )
    experiment = ExperimentConfig(
        source=source,
        modulation=ModulationFunction.identity(),
        sample=SampleConfig(795.0, 0.44, 0.35),
        detectors=(
            DetectorConfig(efficiency=1.0, dark_rate=0.0),
            DetectorConfig(),
            DetectorConfig(),
        ),
        split_ratio=0.5,
    )
    return RunConfig(
        experiment=experiment,
        rng=RngSpec(seed=12345, stream_id=0),
        duration_ps=10 * PS_PER_SECOND,
        analysis=AnalysisConfig(),
        spectrum=None,
    )


_SHAPES = {s.value: s for s in Shape}
_MOD_KINDS = {"identity", "heaviside", "gaussian"}


class _Entries:
    """Raw key-value pairs with line numbers, consumed key by key."""

    def __init__(self, text: str):
        self.values: dict = {}
        for line_no, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("expected 'section.key = value'", line_no)
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or "." not in key.strip("."):
                raise ConfigError(f"malformed key {key!r}", line_no)
            if key in self.values:
                raise ConfigError(f"duplicate key {key!r}", line_no)
            if not value:
                raise ConfigError(f"empty value for {key!r}", line_no)
            self.values[key] = (value, line_no)

    def take(self, key: str, conv: Callable, default):
        if key not in self.values:
            return default
        value, line_no = self.values.pop(key)
        try:
            return conv(value)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", line_no) from exc

    def section_present(self, section: str) -> bool:
        prefix = section + "."
        return any(k.startswith(prefix) for k in self.values)

    def finish(self):
        if self.values:
            key = min(self.values, key=lambda k: self.values[k][1])
            _, line_no = self.values[key]
            raise ConfigError(f"unknown key {key!r}", line_no)


def _uint(value: str) -> int:
    out = int(value)
    if out < 0:
        raise ValueError("must be nonnegative")
    return out


def _shape(value: str) -> Shape:
    if value not in _SHAPES:
        raise ValueError(f"expected one of {sorted(_SHAPES)}")
    return _SHAPES[value]


def _mod_kind(value: str) -> str:
    if value not in _MOD_KINDS:
        raise ValueError(f"expected one of {sorted(_MOD_KINDS)}")
    return value


def _duration(value: str) -> int:
    return parse_duration(value)


def parse_duration(text: str) -> int:
    """Duration with unit suffix (ps, ns, us, ms, s) to picoseconds."""
    scales = {"ps": 1, "ns": 1000, "us": 10**6, "ms": 10**9, "s": 10**12}
    stripped = text.strip()
    for suffix in ("ps", "ns", "us", "ms", "s"):
        if stripped.endswith(suffix):
            number = stripped[: -len(suffix)].strip()
            try:
                ps = float(number) * scales[suffix]
            except ValueError:
                raise ValueError(f"bad duration {text!r}") from None
            if ps <= 0:
                raise ValueError("duration must be positive")
            return int(round(ps))
    raise ValueError(f"duration {text!r} needs a unit suffix (ps, ns, us, ms, s)")


def format_duration(duration_ps: int) -> str:
    """Picoseconds to the largest exact unit suffix."""
    for suffix, scale in (("s", 10**12), ("ms", 10**9), ("us", 10**6), ("ns", 1000)):
        if duration_ps % scale == 0:
            return f"{duration_ps // scale} {suffix}"
    return f"{duration_ps} ps"


def parse_config(text: str) -> RunConfig:
    """Build a run configuration from flat `section.key = value` text."""
    base = default_config()
    entries = _Entries(text)

    duration_ps = entries.take("run.duration", _duration, base.duration_ps)
    rng = RngSpec(
        seed=entries.take("rng.seed", _uint, base.rng.seed),
        stream_id=entries.take("rng.stream", _uint, base.rng.stream_id),
    )

    src = base.experiment.source
    amplitude = BiphotonAmplitude(
        shape=entries.take("amplitude.shape", _shape, src.amplitude.shape),
        fwhm_ns=entries.take("amplitude.fwhm_ns", float, src.amplitude.fwhm_ns),
        offset_ns=entries.take("amplitude.offset_ns", float, src.amplitude.offset_ns),
    )
    try:
        source = SourceConfig(
            pair_rate=entries.take("source.pair_rate", float, src.pair_rate),
            amplitude=amplitude,
            multipair_prob=entries.take("source.multipair_prob", float,
                                        src.multipair_prob),
            background_rate_signal=entries.take("source.background_rate_signal",
                                                float, src.background_rate_signal),
            background_rate_idler=entries.take("source.background_rate_idler",
                                               float, src.background_rate_idler),
        )
    except ValueError as exc:
        raise ConfigError(f"source: {exc}") from exc

    kind = entries.take("modulation.kind", _mod_kind, "identity")
    edge_ns = entries.take("modulation.edge_ns", float, 0.0)
    target_fwhm_ns = entries.take("modulation.target_fwhm_ns", float, 40.0)
    target_center_ns = entries.take("modulation.target_center_ns", float, 0.0)
    try:
        if kind == "identity":
            modulation = ModulationFunction.identity()
        elif kind == "heaviside":
            modulation = ModulationFunction.heaviside(edge_ns)
        else:
            modulation = ModulationFunction.gaussian_target(target_fwhm_ns,
                                                            target_center_ns)
    except ValueError as exc:
        raise ConfigError(f"modulation: {exc}") from exc

    spectrum_cfg = None
    if entries.section_present("spectrum"):
        try:
            geometry = ArrayGeometry(
                pitch_nm=entries.take("spectrum.pitch_nm", float, 430.0),
                hole_diameter_nm=entries.take("spectrum.hole_diameter_nm",
                                              float, 200.0),
                film_thickness_nm=entries.take("spectrum.film_thickness_nm",
                                               float, 100.0),
                taper_angle_deg=entries.take("spectrum.taper_angle_deg",
                                             float, 17.0),
            )
            fano = FanoParameters(
                resonance_nm=entries.take("spectrum.resonance_nm", float, 806.0),
                fwhm_nm=entries.take("spectrum.fwhm_nm", float, 96.0),
                q=entries.take("spectrum.q", float, 20.0),
                peak_transmittance=entries.take("spectrum.peak_transmittance",
                                                float, 0.36),
            )
            spectrum_cfg = SpectrumConfig(
                geometry=geometry,
                fano=fano,
                grid_lo_nm=entries.take("spectrum.grid_lo_nm", float, 420.0),
                grid_hi_nm=entries.take("spectrum.grid_hi_nm", float, 1200.0),
                grid_points=entries.take("spectrum.grid_points", int, 1024),
            )
        except ValueError as exc:
            raise ConfigError(f"spectrum: {exc}") from exc

    smp = base.experiment.sample
    try:
        sample = SampleConfig(
            photon_wavelength_nm=entries.take("sample.photon_wavelength_nm",
                                              float, smp.photon_wavelength_nm),
            overall_conversion=entries.take("sample.overall_conversion", float,
                                            smp.overall_conversion),
            background_suppression=entries.take("sample.background_suppression",
                                                float, smp.background_suppression),
            spectrum=spectrum_cfg.build() if spectrum_cfg is not None else None,
        )
    except ValueError as exc:
        raise ConfigError(f"sample: {exc}") from exc

    detectors = []
    for ch in range(3):
        d = base.experiment.detectors[ch]
        section = f"detector{ch}"
        try:
            detectors.append(DetectorConfig(
                efficiency=entries.take(f"{section}.efficiency", float,
                                        d.efficiency),
                dark_rate=entries.take(f"{section}.dark_rate", float, d.dark_rate),
                jitter_sigma_ps=entries.take(f"{section}.jitter_sigma_ps", float,
                                             d.jitter_sigma_ps),
                dead_time_ps=entries.take(f"{section}.dead_time_ps", int,
                                          d.dead_time_ps),
            ))
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from exc

    split_ratio = entries.take("beamsplitter.split_ratio", float,
                               base.experiment.split_ratio)
    if not 0.0 <= split_ratio <= 1.0:
        raise ConfigError("beamsplitter.split_ratio must lie in [0, 1]")

    try:
        analysis = AnalysisConfig(
            bin_ps=entries.take("analysis.bin_ps", int, base.analysis.bin_ps),
            herald_window_ps=entries.take("analysis.herald_window_ps", int,
                                          base.analysis.herald_window_ps),
            cs_window_ps=entries.take("analysis.cs_window_ps", int,
                                      base.analysis.cs_window_ps),
        )
    except ValueError as exc:
        raise ConfigError(f"analysis: {exc}") from exc

    entries.finish()

    experiment = ExperimentConfig(
        source=source,
        modulation=modulation,
        sample=sample,
        detectors=tuple(detectors),
        split_ratio=split_ratio,
    )
    return RunConfig(experiment=experiment, rng=rng, duration_ps=duration_ps,
                     analysis=analysis, spectrum=spectrum_cfg)


def format_config(run: RunConfig) -> str:
    """Serialize a run configuration; parse_config inverts this exactly.

    Floats use repr, which round-trips bit for bit.  Tabulated modulations
    are runtime objects derived from the source amplitude and cannot be
    written out.
    """
    exp = run.experiment
    lines = [
        "# simulation run",
        f"run.duration = {format_duration(run.duration_ps)}",
        f"rng.seed = {run.rng.seed}",
        f"rng.stream = {run.rng.stream_id}",
        "",
        f"source.pair_rate = {exp.source.pair_rate!r}",
        f"source.multipair_prob = {exp.source.multipair_prob!r}",
        f"source.background_rate_signal = {exp.source.background_rate_signal!r}",
        f"source.background_rate_idler = {exp.source.background_rate_idler!r}",
        f"amplitude.shape = {exp.source.amplitude.shape.value}",
        f"amplitude.fwhm_ns = {exp.source.amplitude.fwhm_ns!r}",
        f"amplitude.offset_ns = {exp.source.amplitude.offset_ns!r}",
        "",
    ]
    mod = exp.modulation
    if mod.kind is ModulationKind.IDENTITY:
        lines.append("modulation.kind = identity")
    elif mod.kind is ModulationKind.HEAVISIDE:
        lines.append("modulation.kind = heaviside")
        lines.append(f"modulation.edge_ns = {mod.edge_ns!r}")
    elif mod.kind is ModulationKind.GAUSSIAN:
        lines.append("modulation.kind = gaussian")
        lines.append(f"modulation.target_fwhm_ns = {mod.target_fwhm_ns!r}")
        lines.append(f"modulation.target_center_ns = {mod.target_center_ns!r}")
    else:
        raise ValueError("tabulated modulations have no text form")
    lines.append("")
    lines.append(f"sample.photon_wavelength_nm = {exp.sample.photon_wavelength_nm!r}")
    lines.append(f"sample.overall_conversion = {exp.sample.overall_conversion!r}")
    lines.append(
        f"sample.background_suppression = {exp.sample.background_suppression!r}")
    if run.spectrum is not None:
        sc = run.spectrum
        lines += [
            "",
            f"spectrum.pitch_nm = {sc.geometry.pitch_nm!r}",
            f"spectrum.hole_diameter_nm = {sc.geometry.hole_diameter_nm!r}",
            f"spectrum.film_thickness_nm = {sc.geometry.film_thickness_nm!r}",
            f"spectrum.taper_angle_deg = {sc.geometry.taper_angle_deg!r}",
            f"spectrum.resonance_nm = {sc.fano.resonance_nm!r}",
            f"spectrum.fwhm_nm = {sc.fano.fwhm_nm!r}",
            f"spectrum.q = {sc.fano.q!r}",
            f"spectrum.peak_transmittance = {sc.fano.peak_transmittance!r}",
            f"spectrum.grid_lo_nm = {sc.grid_lo_nm!r}",
            f"spectrum.grid_hi_nm = {sc.grid_hi_nm!r}",
            f"spectrum.grid_points = {sc.grid_points}",
        ]
    lines.append("")
    lines.append(f"beamsplitter.split_ratio = {exp.split_ratio!r}")
    for ch in range(3):
        d = exp.detectors[ch]
        lines += [
            f"detector{ch}.efficiency = {d.efficiency!r}",
            f"detector{ch}.dark_rate = {d.dark_rate!r}",
            f"detector{ch}.jitter_sigma_ps = {d.jitter_sigma_ps!r}",
            f"detector{ch}.dead_time_ps = {d.dead_time_ps}",
        ]
    lines += [
        "",
        f"analysis.bin_ps = {run.analysis.bin_ps}",
        f"analysis.herald_window_ps = {run.analysis.herald_window_ps}",
        f"analysis.cs_window_ps = {run.analysis.cs_window_ps}",
        "",
    ]
    return "\n".join(lines)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
