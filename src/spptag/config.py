"""Plain-text run configuration: parse, build, serialize.

One assignment per line, `section.key = value`, with `#` comments.  Every
key is optional; unspecified keys take the desk-scale defaults below, so an
empty file is a complete configuration.  Unknown keys are rejected with
their line number.

Most sections map to a dataclass, whose field names are the keys and whose
annotations give the value types (enums by value):

    amplitude     BiphotonAmplitude
    source        SourceConfig, with the amplitude section
    sample        SampleConfig, with the spectrum section as its SpectrumConfig
    modulation    ModulationFunction; a key its kind does not take
                  (optics.MODULATION_FIELDS) is rejected like an unknown key
    detector0-2   DetectorConfig
    beamsplitter  ExperimentConfig.split_ratio
    analysis      AnalysisConfig, of spptag.model
    spectrum      ArrayGeometry, FanoParameters and SpectrumConfig, all of
                  spptag.spectrum

The rest are run.duration (with a unit suffix), rng.seed and rng.stream.
The spectrum section is optional as a whole; giving any of its keys
attaches a hole-array transmission spectrum to the sample stage, which then
validates the photon wavelength against the characterized band.  A
gaussian modulation is checked against the source amplitude here
(ModulationFunction.peak_ns): a gaussian source has a drive only for a
narrower target.
"""
import enum
from dataclasses import dataclass, fields, replace
from decimal import Decimal
from typing import Callable, get_type_hints

from .errors import ConfigError
from .model import AnalysisConfig, BiphotonAmplitude, RngSpec, Shape, check_ps
from .optics import (
    ExperimentConfig,
    ModulationFunction,
    ModulationKind,
    SampleConfig,
)
from .source import SourceConfig, segment_count
from .spectrum import SpectrumConfig

PS_PER_SECOND = 1_000_000_000_000
MAX_DURATION_PS = 2**63 - 1  # tag times are int64 picoseconds
MAX_SLICE_EVENTS = 2**24  # a slice in flight takes up to about 80 bytes per event
MAX_RUN_TAGS = 2**26  # the whole stream is held, about 20 bytes per tag


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation run needs."""

    experiment: ExperimentConfig
    rng: RngSpec
    duration_ps: int
    analysis: AnalysisConfig

    def __post_init__(self):
        """Bound the events of one slice and the tags of the run before any draw."""
        check_ps(self.duration_ps, "run.duration", MAX_DURATION_PS, low=0)
        src, sample = self.experiment.source, self.experiment.sample
        rates = {"source.pair_rate": src.pair_rate * (1.0 + src.multipair_prob),
                 "source.background_rate_signal": src.background_rate_signal
                 * sample.overall_conversion * sample.background_suppression,
                 "source.background_rate_idler": src.background_rate_idler,
                 **{f"detector{ch}.dark_rate": d.dark_rate
                    for ch, d in enumerate(self.experiment.detectors)}}
        seconds, events = self.duration_ps * 1e-12, sum(rates.values())
        for n, limit, what in (
                (events * seconds / segment_count(self.duration_ps), MAX_SLICE_EVENTS,
                 "expected events in one slice"),
                ((events + rates["source.pair_rate"]) * seconds, MAX_RUN_TAGS,  # two per pair
                 "tags at most")):
            if n > limit:
                raise ValueError(f"run: {n:.3g} {what}, above the budget of {limit}; "
                                 f"most come from {max(rates, key=rates.get)}")


def default_config() -> RunConfig:
    """Desk-scale bench defaults: full chain, modulator set to pass-through."""
    source = SourceConfig(
        pair_rate=2000.0,
        amplitude=BiphotonAmplitude(Shape.DOUBLE_EXPONENTIAL, 50.0),
        multipair_prob=0.0045,
        background_rate_signal=14600.0,
        background_rate_idler=0.0,
    )
    return RunConfig(
        experiment=ExperimentConfig(source, sample=SampleConfig(795.0, 0.44, 0.35)),
        rng=RngSpec(seed=12345, stream_id=0),
        duration_ps=10 * PS_PER_SECOND,
        analysis=AnalysisConfig(),
    )


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
    if not 0 <= out < 2**64:
        raise ValueError("must fit in uint64")
    return out


def _member(members) -> Callable:
    """Converter from the value of one of the enum members to that member."""
    by_value = {m.value: m for m in members}

    def conv(value: str):
        if value not in by_value:
            raise ValueError(f"expected one of {sorted(by_value)}")
        return by_value[value]
    return conv


def _take_fields(entries: _Entries, section: str, default, **given):
    """Copy of default with the fields given and the others read from their
    keys `section.<field>`, where present.

    A key is read as its field's annotated type, an enum by value.  A
    ValueError from the dataclass is reported against the section.
    """
    types = get_type_hints(type(default))
    taken = {}
    for f in fields(default):
        if f.name not in given:
            conv = types[f.name]
            if isinstance(conv, enum.EnumMeta):
                conv = _member(conv)
            taken[f.name] = entries.take(f"{section}.{f.name}", conv,
                                         getattr(default, f.name))
    try:
        return replace(default, **given, **taken)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _field_lines(section: str, obj, *skip: str) -> list:
    """`section.<field> = value` for each field of obj not skipped.

    Enums are written by value, everything else with repr, which round-trips
    floats bit for bit.
    """
    lines = []
    for f in fields(obj):
        if f.name not in skip:
            value = getattr(obj, f.name)
            text = value.value if isinstance(value, enum.Enum) else repr(value)
            lines.append(f"{section}.{f.name} = {text}")
    return lines


def parse_duration(text: str) -> int:
    """Duration with unit suffix (ps, ns, us, ms, s) to whole picoseconds.

    The number is read as an exact decimal, so every int64 picosecond count
    written by format_duration reads back unchanged.
    """
    scales = {"ps": 1, "ns": 1000, "us": 10**6, "ms": 10**9, "s": 10**12}
    stripped = text.strip()
    for suffix in ("ps", "ns", "us", "ms", "s"):
        if stripped.endswith(suffix):
            number = stripped[: -len(suffix)].strip()
            try:
                exact = Decimal(number) * scales[suffix]
            except ArithmeticError:  # not a number, or beyond Decimal's range
                raise ValueError(f"bad duration {text!r}") from None
            if not exact.is_finite():
                raise ValueError(f"duration {text!r} must be finite")
            check_ps(exact, f"duration {text!r}", MAX_DURATION_PS)
            ps = int(exact.to_integral_value())
            if ps <= 0:
                raise ValueError("duration must be positive")
            return ps
    raise ValueError(f"duration {text!r} needs a unit suffix (ps, ns, us, ms, s)")


def format_duration(duration_ps: int) -> str:
    """Picoseconds to the largest exact unit suffix."""
    for suffix, scale in (("s", 10**12), ("ms", 10**9), ("us", 10**6), ("ns", 1000)):
        if duration_ps % scale == 0:
            return f"{duration_ps // scale} {suffix}"
    return f"{duration_ps} ps"


def parse_config(text: str, duration_ps: int | None = None) -> RunConfig:
    """Build a run configuration from flat `section.key = value` text; a
    duration_ps given replaces run.duration before the event budget is checked."""
    return RunConfig(**_parse_fields(text, duration_ps))


def _parse_fields(text: str, duration_ps: int | None = None) -> dict:  # RunConfig's kwargs
    base = default_config()
    exp = base.experiment
    entries = _Entries(text)

    in_file = entries.take("run.duration", parse_duration, base.duration_ps)
    duration_ps = in_file if duration_ps is None else duration_ps
    rng = RngSpec(seed=entries.take("rng.seed", _uint, base.rng.seed),
                  stream_id=entries.take("rng.stream", _uint, base.rng.stream_id))
    amplitude = _take_fields(entries, "amplitude", exp.source.amplitude)
    source = _take_fields(entries, "source", exp.source, amplitude=amplitude)

    kind = entries.take("modulation.kind", _member(ModulationKind), exp.modulation.kind)
    mod = ModulationFunction(kind)  # the fields its kind does not take keep these defaults
    modulation = _take_fields(entries, "modulation", mod, kind=kind,
                              **{name: getattr(mod, name) for name in mod.unused_fields()})
    if kind is ModulationKind.GAUSSIAN:
        try:
            modulation.peak_ns(amplitude)
        except ValueError as exc:
            raise ConfigError(f"modulation: {exc}") from exc

    spectrum = None
    if entries.section_present("spectrum"):
        default = SpectrumConfig()
        spectrum = _take_fields(entries, "spectrum", default,
                                geometry=_take_fields(entries, "spectrum", default.geometry),
                                fano=_take_fields(entries, "spectrum", default.fano))
    sample = _take_fields(entries, "sample", exp.sample, spectrum=spectrum)
    detectors = tuple(_take_fields(entries, f"detector{ch}", d)
                      for ch, d in enumerate(exp.detectors))
    experiment = _take_fields(entries, "beamsplitter", exp, source=source,
                              modulation=modulation, sample=sample, detectors=detectors)
    analysis = _take_fields(entries, "analysis", base.analysis)
    entries.finish()
    return dict(experiment=experiment, rng=rng, duration_ps=duration_ps, analysis=analysis)


def format_config(run: RunConfig) -> str:
    """Serialize a run configuration; parse_config inverts this exactly."""
    exp = run.experiment
    mod = exp.modulation
    lines = [
        "# simulation run",
        f"run.duration = {format_duration(run.duration_ps)}",
        f"rng.seed = {run.rng.seed}",
        f"rng.stream = {run.rng.stream_id}",
        "",
        *_field_lines("source", exp.source, "amplitude"),
        *_field_lines("amplitude", exp.source.amplitude),
        "",
        *_field_lines("modulation", mod, *mod.unused_fields()),
        "",
        *_field_lines("sample", exp.sample, "spectrum"),
    ]
    spectrum = exp.sample.spectrum
    if spectrum is not None:
        lines += ["", *_field_lines("spectrum", spectrum.geometry),
                  *_field_lines("spectrum", spectrum.fano),
                  *_field_lines("spectrum", spectrum, "geometry", "fano")]
    lines += ["", *_field_lines("beamsplitter", exp, "source", "modulation", "sample",
                                "detectors")]
    for ch, d in enumerate(exp.detectors):
        lines += _field_lines(f"detector{ch}", d)
    lines += ["", *_field_lines("analysis", run.analysis), ""]
    return "\n".join(lines)


def load_config(path, duration_ps: int | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), duration_ps)


def load_analysis(path) -> AnalysisConfig:
    """A file's analysis section, every line checked but no event budget applied."""
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_fields(fh.read())["analysis"]
