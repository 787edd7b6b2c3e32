"""Flat-text run configuration: parsing, defaults, exact round trips."""
import dataclasses
import re
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from spptag.cli import main
from spptag.config import (
    AnalysisConfig,
    RunConfig,
    default_config,
    format_config,
    format_duration,
    parse_config,
    parse_duration,
)
from spptag.errors import ConfigError
from spptag.model import BiphotonAmplitude, RngSpec, Shape
from spptag.optics import (
    MODULATION_FIELDS,
    DetectorConfig,
    ExperimentConfig,
    ModulationFunction,
    ModulationKind,
    SampleConfig,
)
from spptag.source import SourceConfig
from spptag.spectrum import ArrayGeometry, FanoParameters, SpectrumConfig

GOLDEN = Path(__file__).parent / "golden"


def floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def spectra(draw):
    """Hole-array spectra whose lineshape stays physical (build succeeds)."""
    pitch = draw(floats(300.0, 700.0))
    geometry = ArrayGeometry(pitch, draw(floats(20.0, 0.9 * pitch)),
                             draw(floats(1.0, 500.0)), draw(floats(0.0, 44.0)))
    fano = FanoParameters(draw(floats(600.0, 1000.0)), draw(floats(5.0, 300.0)),
                          draw(floats(0.5, 50.0)), draw(floats(0.01, 1.0)))
    lo = draw(floats(200.0, 800.0))
    try:
        return SpectrumConfig(geometry, fano, lo, lo + draw(floats(1.0, 1000.0)),
                              draw(st.integers(2, 64)))
    except ValueError:
        reject()


@st.composite
def run_configs(draw):
    """Random finite run configurations over each field's valid range."""
    amplitude = BiphotonAmplitude(draw(st.sampled_from(Shape)), draw(floats(1e-6, 1e6)),
                                  draw(floats(-1e6, 1e6)))
    source = SourceConfig(draw(floats(0.0, 1e9)), amplitude,
                          draw(floats(0.0, 1.0, exclude_max=True)),
                          draw(floats(0.0, 1e9)), draw(floats(0.0, 1e9)))
    # every field of every kind, each either at its default or anywhere in range
    kind = draw(st.sampled_from(ModulationKind))
    given = dict(edge_ns=draw(st.just(0.0) | floats(-1e6, 1e6)),
                 target_fwhm_ns=draw(st.just(40.0) | floats(1e-6, 1e6)),
                 target_center_ns=draw(st.just(0.0) | floats(-1e6, 1e6)))
    try:
        modulation = ModulationFunction(kind, **given)
    except ValueError as exc:  # refused only for a field its kind drops, off its default
        name = str(exc).rsplit(" ", 1)[-1]
        assert name not in MODULATION_FIELDS[kind], exc
        assert given[name] != getattr(ModulationFunction(), name), exc
        modulation = ModulationFunction(kind, **{f: given[f] for f in MODULATION_FIELDS[kind]})
    if modulation.kind is ModulationKind.GAUSSIAN:
        try:  # a gaussian source has a drive only for a narrower target
            modulation.peak_ns(amplitude)
        except ValueError:
            reject()
    spectrum = draw(st.none() | spectra())
    # with a spectrum, the photon wavelength must lie in its band
    band = (1e-3, 1e5) if spectrum is None else (spectrum.grid_lo_nm, spectrum.grid_hi_nm)
    sample = SampleConfig(draw(floats(*band)), draw(floats(0.0, 1.0)),
                          draw(floats(0.0, 1.0)), spectrum=spectrum)
    detectors = tuple(DetectorConfig(draw(floats(0.0, 1.0)), draw(floats(0.0, 1e9)),
                                     draw(floats(0.0, 1e9)), draw(st.integers(0, 2**62)))
                      for _ in range(3))
    experiment = ExperimentConfig(source, modulation, sample, detectors,
                                  draw(floats(0.0, 1.0)))
    positive = st.integers(1, 2**62)
    rng = RngSpec(draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 2**64 - 1)))
    duration_ps = draw(st.integers(1, 2**63 - 1))
    analysis = AnalysisConfig(draw(positive), draw(positive), draw(positive))
    try:
        return RunConfig(experiment, rng, duration_ps, analysis)
    except ValueError:  # over the event budget; any rates drawn here fit in 1 ms
        return RunConfig(experiment, rng, draw(st.integers(1, 10**9)), analysis)


class TestDuration:
    @pytest.mark.parametrize("text,ps", [
        ("10 s", 10 * 10**12),
        ("10s", 10 * 10**12),
        ("2.5 us", 2_500_000),
        ("500 ms", 500 * 10**9),
        ("750 ps", 750),
        ("1ns", 1000),
    ])
    def test_parse(self, text, ps):
        assert parse_duration(text) == ps

    def test_reject_bare_number(self):
        with pytest.raises(ValueError):
            parse_duration("100")

    def test_reject_garbage(self):
        with pytest.raises(ValueError):
            parse_duration("ten seconds")

    def test_reject_nonpositive(self):
        with pytest.raises(ValueError):
            parse_duration("0 s")
        with pytest.raises(ValueError):
            parse_duration("-5 ns")

    @pytest.mark.parametrize("ps", [1, 999, 1000, 1500, 10**6, 3 * 10**9,
                                    7 * 10**12, 86400 * 10**12, 2**53 + 1, 2**63 - 1])
    def test_format_round_trip(self, ps):
        assert parse_duration(format_duration(ps)) == ps

    @pytest.mark.parametrize("text", ["inf s", "1e400s", "nan ms", "2**63 ps",
                                      "9223372036854775808 ps"])
    def test_reject_non_finite_and_out_of_range(self, text):
        with pytest.raises(ValueError):
            parse_duration(text)

    def test_format_uses_largest_exact_unit(self):
        assert format_duration(10 * 10**12) == "10 s"
        assert format_duration(1500) == "1500 ps"
        assert format_duration(2000) == "2 ns"


class TestDefaults:
    def test_empty_text_is_default(self):
        assert parse_config("") == default_config()

    def test_comments_and_blank_lines(self):
        text = "\n# a comment\n   \nsource.pair_rate = 123.0  # trailing\n"
        run = parse_config(text)
        assert run.experiment.source.pair_rate == 123.0

    def test_default_bench_values(self):
        run = default_config()
        src = run.experiment.source
        assert src.pair_rate == 2000.0
        assert src.amplitude.shape is Shape.DOUBLE_EXPONENTIAL
        assert src.amplitude.fwhm_ns == 50.0
        assert run.experiment.sample.photon_wavelength_nm == 795.0
        assert run.experiment.detectors[0].efficiency == 1.0
        assert run.experiment.detectors[0].dark_rate == 0.0
        assert run.experiment.detectors[1].efficiency == 0.5
        assert run.experiment.modulation.kind is ModulationKind.IDENTITY
        assert run.experiment.sample.spectrum is None


class TestRoundTrip:
    def test_default(self):
        run = default_config()
        assert parse_config(format_config(run)) == run

    def test_heaviside(self):
        run = default_config()
        exp = dataclasses.replace(run.experiment,
                                  modulation=ModulationFunction.heaviside(-3.25))
        run = dataclasses.replace(run, experiment=exp)
        back = parse_config(format_config(run))
        assert back == run
        assert back.experiment.modulation.edge_ns == -3.25

    def test_gaussian(self):
        run = default_config()
        exp = dataclasses.replace(
            run.experiment,
            modulation=ModulationFunction.gaussian_target(40.0, 1.5))
        run = dataclasses.replace(run, experiment=exp)
        assert parse_config(format_config(run)) == run

    def test_awkward_floats_survive_exactly(self):
        run = default_config()
        src = dataclasses.replace(run.experiment.source,
                                  pair_rate=0.1 + 0.2,
                                  background_rate_signal=1.0 / 3.0,
                                  multipair_prob=1e-17)
        exp = dataclasses.replace(run.experiment, source=src)
        run = dataclasses.replace(run, experiment=exp)
        back = parse_config(format_config(run))
        assert back.experiment.source.pair_rate == 0.1 + 0.2
        assert back.experiment.source.background_rate_signal == 1.0 / 3.0
        assert back.experiment.source.multipair_prob == 1e-17

    def test_spectrum_section(self):
        run = default_config()
        spec = SpectrumConfig(
            geometry=ArrayGeometry(pitch_nm=420.0),
            fano=FanoParameters(resonance_nm=800.0, fwhm_nm=90.0, q=18.0,
                                peak_transmittance=0.33),
            grid_lo_nm=500.0, grid_hi_nm=1100.0, grid_points=256)
        sample = SampleConfig(795.0, 0.44, 0.35, spectrum=spec)
        exp = dataclasses.replace(run.experiment, sample=sample)
        run = dataclasses.replace(run, experiment=exp)
        back = parse_config(format_config(run))
        assert back == run
        assert back.experiment.sample.spectrum == spec


    @settings(max_examples=60, deadline=None)
    @given(run=run_configs())
    def test_random_finite_configs_round_trip(self, run):
        assert parse_config(format_config(run)) == run


class TestPrintConfig:
    GIVEN = {  # golden/print_config_<name>.txt -> the config file printed
        "default": "",
        "heaviside": "modulation.kind = heaviside\nmodulation.edge_ns = -3.25\n",
        "gaussian": "modulation.kind = gaussian\nmodulation.target_fwhm_ns = 12.5\n",
        "spectrum": "spectrum.pitch_nm = 420.0\nspectrum.resonance_nm = 800.0\n"
                    "spectrum.q = 18.0\nspectrum.grid_points = 256\n",
    }

    @pytest.mark.parametrize("name", GIVEN)
    def test_text_is_pinned(self, tmp_path, capsys, name):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.GIVEN[name])
        assert main(["simulate", "--config", str(cfg), "--print-config"]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"print_config_{name}.txt").read_text()


class TestOverrides:
    def test_scalar_overrides(self):
        run = parse_config("\n".join([
            "run.duration = 3 s",
            "rng.seed = 99",
            "rng.stream = 4",
            "amplitude.shape = gaussian",
            "amplitude.fwhm_ns = 12.5",
            "detector2.dead_time_ps = 1000",
            "beamsplitter.split_ratio = 0.25",
            "analysis.bin_ps = 2000",
        ]))
        assert run.duration_ps == 3 * 10**12
        assert run.rng.seed == 99 and run.rng.stream_id == 4
        assert run.experiment.source.amplitude.shape is Shape.GAUSSIAN
        assert run.experiment.source.amplitude.fwhm_ns == 12.5
        assert run.experiment.detectors[2].dead_time_ps == 1000
        assert run.experiment.split_ratio == 0.25
        assert run.analysis.bin_ps == 2000

    def test_spectrum_presence_attaches_to_sample(self):
        spectrum = parse_config("spectrum.q = 15.0\n").experiment.sample.spectrum
        assert spectrum.fano.q == 15.0
        # the default grid spans the characterized band, endpoints exact
        wl = spectrum.build().wavelength_nm
        assert wl[0] == spectrum.grid_lo_nm == 420.0
        assert wl[-1] == spectrum.grid_hi_nm == 1200.0

    def test_no_spectrum_by_default(self):
        assert parse_config("source.pair_rate = 10.0\n").experiment.sample.spectrum is None


class TestErrors:
    def test_missing_equals(self):
        with pytest.raises(ConfigError) as err:
            parse_config("source.pair_rate 2000\n")
        assert err.value.line_no == 1

    def test_duplicate_key_reports_second_line(self):
        text = "source.pair_rate = 1.0\nsource.pair_rate = 2.0\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line_no == 2

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("# c\nsource.pair_rte = 2000.0\n")
        assert err.value.line_no == 2
        assert "pair_rte" in str(err.value)

    def test_empty_value(self):
        with pytest.raises(ConfigError) as err:
            parse_config("source.pair_rate =\n")
        assert err.value.line_no == 1

    def test_malformed_key(self):
        with pytest.raises(ConfigError):
            parse_config("pair_rate = 2000\n")

    def test_bad_float(self):
        with pytest.raises(ConfigError) as err:
            parse_config("source.pair_rate = fast\n")
        assert err.value.line_no == 1

    def test_bad_shape(self):
        with pytest.raises(ConfigError) as err:
            parse_config("amplitude.shape = triangle\n")
        assert "triangle" not in str(err.value) or "expected" in str(err.value)

    def test_bad_modulation_kind(self):
        with pytest.raises(ConfigError):
            parse_config("modulation.kind = sine\n")

    def test_negative_seed(self):
        with pytest.raises(ConfigError) as err:
            parse_config("rng.seed = -1\n")
        assert err.value.line_no == 1

    @pytest.mark.parametrize("key", ["rng.seed", "rng.stream"])
    def test_seed_beyond_uint64(self, key):
        with pytest.raises(ConfigError) as err:
            parse_config(f"run.duration = 1 s\n{key} = 18446744073709551616\n")
        assert err.value.line_no == 2
        assert key in str(err.value)

    @pytest.mark.parametrize("kind, key", [
        ("identity", "edge_ns = nan"),
        ("identity", "target_fwhm_ns = 40.0"),
        ("heaviside", "target_center_ns = 0.0"),
        ("gaussian", "edge_ns = 1.0"),
    ])
    def test_modulation_key_of_another_kind(self, kind, key):
        with pytest.raises(ConfigError) as err:
            parse_config(f"modulation.kind = {kind}\nmodulation.{key}\n")
        assert err.value.line_no == 2
        assert key.split()[0] in str(err.value)

    def test_bad_duration(self):
        with pytest.raises(ConfigError) as err:
            parse_config("run.duration = 10\n")
        assert err.value.line_no == 1

    def test_semantic_source_error(self):
        with pytest.raises(ConfigError):
            parse_config("source.pair_rate = -5.0\n")

    def test_split_ratio_range(self):
        with pytest.raises(ConfigError):
            parse_config("beamsplitter.split_ratio = 1.5\n")

    def test_analysis_positive(self):
        with pytest.raises(ConfigError):
            parse_config("analysis.bin_ps = 0\n")


class TestValidation:
    def test_spectrum_config_grid(self):
        with pytest.raises(ValueError):
            SpectrumConfig(grid_lo_nm=900.0, grid_hi_nm=800.0)
        with pytest.raises(ValueError):
            SpectrumConfig(grid_points=1)

    def test_spectrum_config_builds_when_constructed(self):
        with pytest.raises(ValueError, match="below the direct background"):
            SpectrumConfig(fano=FanoParameters(peak_transmittance=0.0001))

    def test_analysis_config(self):
        with pytest.raises(ValueError):
            AnalysisConfig(bin_ps=-1)
        for name in ("bin_ps", "herald_window_ps", "cs_window_ps"):
            with pytest.raises(ValueError, match=name):
                AnalysisConfig(**{name: 2**63})
            AnalysisConfig(**{name: 2**63 - 1})

    def test_run_config_duration(self):
        run = default_config()
        with pytest.raises(ValueError):
            dataclasses.replace(run, duration_ps=0)
        # beyond int64 ps the slice boundaries cannot be drawn
        with pytest.raises(ValueError, match="run.duration"):
            dataclasses.replace(run, duration_ps=2**63)
        assert dataclasses.replace(run, duration_ps=1).duration_ps == 1

    @pytest.mark.parametrize("key,value,duration_ps,message", [
        # 1.54e11 thinned background photons per second in one 1 ms slice
        ("source.background_rate_signal", 1e12, 10**9, "1.54e+08 expected events in one slice"),
        ("detector2.dark_rate", 1e300, 1, "1e+288 expected events in one slice"),
        # 100 s slices of the desk bench, but up to 6466 tags per second over 2e4 s
        ("source.background_rate_signal", 14600.0, 2 * 10**16, "1.29e+08 tags at most"),
    ])
    def test_event_budget_names_the_largest_rate(self, key, value, duration_ps, message):
        section, field = key.split(".")
        run = default_config()
        exp = run.experiment
        if section == "source":
            exp = dataclasses.replace(exp, source=dataclasses.replace(exp.source, **{field: value}))
        else:
            dets = list(exp.detectors)
            dets[2] = dataclasses.replace(dets[2], **{field: value})
            exp = dataclasses.replace(exp, detectors=tuple(dets))
        with pytest.raises(ValueError, match=re.escape(f"run: {message}, above the budget")
                           + f".*; most come from {re.escape(key)}$"):
            dataclasses.replace(run, experiment=exp, duration_ps=duration_ps)

    def test_event_budget_holds_at_its_edge(self):
        # the background alone fills a 10 ms slice to just below 2**24 events
        text = "source.background_rate_signal = 1.08e10\nsource.pair_rate = 0.0\n"
        assert parse_config(text, duration_ps=10**10).duration_ps == 10**10
        with pytest.raises(ValueError, match="expected events in one slice"):
            parse_config(text, duration_ps=11 * 10**9)

    def test_duration_given_replaces_the_file_duration_before_the_budget(self):
        text = "run.duration = 10 s\nsource.background_rate_signal = 1e9\n"
        with pytest.raises(ValueError, match="source.background_rate_signal"):
            parse_config(text)
        assert parse_config(text, duration_ps=10**9).duration_ps == 10**9
