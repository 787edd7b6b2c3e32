"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed (config objects, a
tag file, noisy data arrays), runs one pass through the library, checks the
pass output against the physics the configuration predicts, and names the
CLI command a user would run for the same job.

Traced functions are always called through their module (``optics.detect``,
not a bare ``detect``), so the patches in tracing.py see every call.
Import checkout.use_source() before this module.
"""
from __future__ import annotations

import csv
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from spptag import config, correlator, hom, optics, spectrum, tagfile
from spptag.model import PS_PER_NS, BiphotonAmplitude, RngSpec, Shape, evaluate_density

SECOND_PS = 10**12
SEGMENT_PS = 100 * SECOND_PS  # the CLI simulates in 100 s segments
HERALD, SIGNALS = 0, (1, 2)


def _segments(duration_ps: int) -> int:
    return max(1, -(-duration_ps // SEGMENT_PS))


def _write_config(path: Path, run: config.RunConfig) -> None:
    path.write_text(config.format_config(run), encoding="utf-8")


def _outside(name: str, value: float, lo: float, hi: float) -> list[str]:
    return [] if lo <= value <= hi else [f"{name} = {value:.6g} outside [{lo:.6g}, {hi:.6g}]"]


# ------------------------------------------------------------ rate model

def _step_pass_fraction(amp: BiphotonAmplitude, edge_ns: float) -> float:
    """P(delay >= edge) for the two-sided exponential delay density."""
    if amp.shape is not Shape.DOUBLE_EXPONENTIAL:
        raise ValueError("rate model covers the two-sided exponential only")
    x = (edge_ns - amp.offset_ns) / amp.tau0_ns
    return 0.5 * math.exp(-x) if x >= 0 else 1.0 - 0.5 * math.exp(x)


def expected_rates(exp: optics.ExperimentConfig) -> dict[int, float]:
    """Detection rate [1/s] per channel that the configuration predicts.

    Poisson sources thinned by independent losses stay Poisson, so each rate
    is a product of pass probabilities followed by the non-paralyzable dead
    time correction r / (1 + r tau).  The model holds for the desk bench:
    a multipair extra lands within one dead time of its primary on the
    herald detector (so a pair cluster fires it at most once), and a step
    modulation at the delay-density centre passes half of the background,
    whose herald reference is as often before it as after it.
    """
    src, dets = exp.source, exp.detectors
    mod = exp.modulation
    if src.amplitude.fwhm_ns * PS_PER_NS > dets[0].dead_time_ps:
        raise ValueError("rate model needs multipair offsets inside the herald dead time")
    if mod.kind is optics.ModulationKind.IDENTITY:
        pass_pair = pass_bg = 1.0
    elif (mod.kind is optics.ModulationKind.HEAVISIDE
          and mod.edge_ns == src.amplitude.offset_ns):
        pass_pair, pass_bg = _step_pass_fraction(src.amplitude, mod.edge_ns), 0.5
    else:
        raise ValueError(f"rate model does not cover {mod!r}")

    def dead(rate: float, det: optics.DetectorConfig) -> float:
        return rate / (1.0 + rate * det.dead_time_ps * 1e-12)

    eta0, mp = dets[0].efficiency, src.multipair_prob
    cluster = (1.0 - mp) * eta0 + mp * (1.0 - (1.0 - eta0) ** 2)
    herald = (src.pair_rate * cluster + src.background_rate_idler * eta0
              + dets[0].dark_rate)
    sample = exp.sample
    signal = (src.pair_rate * (1.0 + mp) * pass_pair * sample.overall_conversion
              + src.background_rate_signal * pass_bg * sample.overall_conversion
              * sample.background_suppression)
    arms = (exp.split_ratio, 1.0 - exp.split_ratio)
    rates = {HERALD: dead(herald, dets[0])}
    for ch, share in zip(SIGNALS, arms):
        rates[ch] = dead(signal * share * dets[ch].efficiency + dets[ch].dark_rate, dets[ch])
    return rates


def check_rates(stream_counts: dict[int, int], exp, duration_ps: int) -> list[str]:
    """Each channel's tag count within 5 sigma (Poisson) of the model."""
    failures = []
    seconds = duration_ps * 1e-12
    for ch, rate in expected_rates(exp).items():
        want = rate * seconds
        got = stream_counts[ch]
        if abs(got - want) > 5.0 * math.sqrt(want):
            failures.append(f"channel {ch}: {got} tags, model {want:.1f} +/- {math.sqrt(want):.1f}")
    return failures


def _channel_counts(channels: np.ndarray) -> dict[int, int]:
    counts = np.bincount(channels, minlength=3)
    return {ch: int(counts[ch]) for ch in (HERALD, *SIGNALS)}


# ------------------------------------------------------------- workloads

class Workload:
    """One benchmark workload; subclasses fill in the four hooks."""

    name = ""

    def __init__(self, seed: int, scale: float, work: Path):
        self.seed = seed
        self.scale = scale
        self.work = Path(work)

    def prepare(self) -> list[list[str]]:
        """Write input files; return CLI argument lists to run, untimed, before timing."""
        return []

    def run_pass(self) -> dict:
        """One pass; returns named arrays and numbers (compared for trace validity)."""
        raise NotImplementedError

    def items(self, out: dict) -> int:
        """Work items of one pass: tags produced or analysed, or model points."""
        raise NotImplementedError

    def check(self, out: dict) -> list[str]:
        """Failed correctness checks of one pass output, empty when all hold."""
        raise NotImplementedError

    def cli_argv(self) -> list[str]:
        """Arguments after `python -m spptag.cli` for the user-facing command."""
        raise NotImplementedError

    def check_cli(self, stdout: str) -> list[str]:
        """Failed checks of the CLI command's output and files."""
        raise NotImplementedError


class _Simulation(Workload):
    """Shared shape of the two simulation workloads: run_experiment, then checks."""

    seconds = 0.0

    def __init__(self, seed, scale, work):
        super().__init__(seed, scale, work)
        self.duration_ps = max(1, int(round(self.seconds * scale * SECOND_PS)))
        self.run = replace(self.base_run(), rng=RngSpec(seed, 0), duration_ps=self.duration_ps)
        self.config_path = self.work / f"{self.name}.cfg"
        self.cli_out = self.work / f"{self.name}_cli.spptag"

    def base_run(self) -> config.RunConfig:
        raise NotImplementedError

    def prepare(self):
        _write_config(self.config_path, self.run)
        return []

    def simulate(self):
        return optics.run_experiment(self.run.experiment, self.duration_ps, self.run.rng,
                                     segments=_segments(self.duration_ps))

    def items(self, out):
        return int(out["times"].size)

    def cli_argv(self):
        return ["simulate", "--config", str(self.config_path), "--out", str(self.cli_out)]

    def check_cli(self, stdout):
        stream = tagfile.read_tags(self.cli_out)
        m = re.search(r": (\d+) tags over", stdout)
        failures = [] if m and int(m.group(1)) == len(stream) else [
            f"simulate reported {m.group(1) if m else 'no'} tags, file holds {len(stream)}"]
        return failures + self.check(self.summarize(stream))

    def summarize(self, stream) -> dict:
        raise NotImplementedError


class DeskSim(_Simulation):
    """Shaped reemitted desk bench over several segments, written to disk."""

    name = "desk_sim"
    seconds = 500.0

    def __init__(self, seed, scale, work):
        super().__init__(seed, scale, work)
        self.tag_path = self.work / "desk_sim.spptag"

    def base_run(self):
        run = config.default_config()
        exp = replace(run.experiment, modulation=optics.ModulationFunction.heaviside(0.0))
        return replace(run, experiment=exp)

    def summarize(self, stream):
        g2 = correlator.heralded_g2_zero(stream, HERALD, *SIGNALS,
                                         window_ps=self.run.analysis.herald_window_ps)
        return {"times": stream.times_ps, "channels": stream.channels,
                "g2": g2.value, "heralded": (g2.n_heralds, g2.n_a, g2.n_b)}

    def run_pass(self):
        stream = self.simulate()
        tagfile.write_tags(self.tag_path, stream)
        return self.summarize(stream)

    def check(self, out):
        counts = _channel_counts(out["channels"])
        return (_outside("heralded g2(0)", out["g2"], -math.inf, 0.05)
                + self._check_heralding(counts, out["heralded"])
                + check_rates(counts, self.run.experiment, self.duration_ps))

    def _check_heralding(self, counts, heralded) -> list[str]:
        """Heralds followed by a signal tag clear the accidental level by 5 sigma.

        Without this an uncorrelated stream passes: it has no heralded
        doubles, so its heralded g2(0) is 0.
        """
        n_h, *heralded = heralded
        window_s = 2 * self.run.analysis.herald_window_ps * 1e-12
        failures = []
        for ch, n in zip(SIGNALS, heralded):
            rate = counts[ch] / (self.duration_ps * 1e-12)
            accidental = n_h * -math.expm1(-rate * window_s)
            if n - accidental <= 5.0 * math.sqrt(accidental + 1.0):
                failures.append(f"channel {ch}: {n} heralded tags, accidental level {accidental:.1f}")
        return failures


class HighRate(_Simulation):
    """Default bench at a 1 MHz pair rate: detectors run near saturation."""

    name = "high_rate"
    seconds = 2.0

    def base_run(self):
        run = config.default_config()
        src = replace(run.experiment.source, pair_rate=1e6)
        return replace(run, experiment=replace(run.experiment, source=src))

    def summarize(self, stream):
        return {"times": stream.times_ps, "channels": stream.channels}

    def run_pass(self):
        return self.summarize(self.simulate())

    def check(self, out):
        src = self.run.experiment.source
        tau_s = self.run.experiment.detectors[HERALD].dead_time_ps * 1e-12
        r = src.pair_rate * (1.0 + src.multipair_prob)
        want = r / (1.0 + r * tau_s)
        got = np.count_nonzero(out["channels"] == HERALD) / (self.duration_ps * 1e-12)
        return _outside("herald rate [1/s]", got, 0.99 * want, 1.01 * want)


class TagAnalysis(Workload):
    """Read a desk-bench tag file and run the three time-tag analyses."""

    name = "tag_analysis"
    seconds = 500.0
    BIN_PS = 1000
    CS_RANGE_PS = (-25_000, 25_000)
    WAVE_RANGE_PS = (-25_000, 75_000)
    AUTO_WINDOW_PS = 10_000_000
    NEAR_ZERO_NS = 5.0

    def __init__(self, seed, scale, work):
        super().__init__(seed, scale, work)
        duration_ps = max(1, int(round(self.seconds * scale * SECOND_PS)))
        self.run = replace(config.default_config(), rng=RngSpec(seed, 0),
                           duration_ps=duration_ps)
        self.config_path = self.work / "tag_analysis.cfg"
        self.tag_path = self.work / "tag_analysis.spptag"
        self.cs_csv = self.work / "tag_analysis_cs.csv"
        lo, hi = self.WAVE_RANGE_PS
        amp = self.run.experiment.source.amplitude
        self.template = correlator.expected_waveform(
            lambda t: evaluate_density(amp, t), lo / PS_PER_NS, self.BIN_PS / PS_PER_NS,
            (hi - lo) // self.BIN_PS)

    def prepare(self):
        _write_config(self.config_path, self.run)
        return [["simulate", "--config", str(self.config_path), "--out", str(self.tag_path)]]

    def run_pass(self):
        stream = tagfile.read_tags(self.tag_path)
        g2 = correlator.heralded_g2_zero(stream, HERALD, *SIGNALS,
                                         window_ps=self.run.analysis.herald_window_ps)
        cs = correlator.cauchy_schwarz(stream, HERALD, SIGNALS, self.BIN_PS,
                                       *self.CS_RANGE_PS, RngSpec(self.seed, 9),
                                       auto_window_ps=self.AUTO_WINDOW_PS)
        wave = correlator.reconstruct_waveform(stream, HERALD, SIGNALS, self.BIN_PS,
                                               *self.WAVE_RANGE_PS)
        return {"tags": len(stream), "g2": g2.value, "tau_ns": cs.tau_ns,
                "c": cs.c_values, "c_err": cs.c_errors, "waveform": wave.counts,
                "similarity": correlator.cosine_similarity(wave.counts, self.template)}

    def items(self, out):
        return int(out["tags"])

    def _check_c(self, tau_ns, c, c_err) -> list[str]:
        near = np.abs(tau_ns) < self.NEAR_ZERO_NS
        margins = (c[near] - 1.0) / c_err[near]
        if near.any() and np.all(margins > 5.0):
            return []
        return [f"C(tau) near zero: weakest bin {margins.min():.2f} sigma above 1, need > 5"]

    def check(self, out):
        return (_outside("heralded g2(0)", out["g2"], -math.inf, 0.05)
                + self._check_c(out["tau_ns"], out["c"], out["c_err"])
                + _outside("waveform similarity", out["similarity"], 0.99, 1.0))

    def cli_argv(self):
        return ["analyze", "cs", "--tags", str(self.tag_path), "--csv", str(self.cs_csv)]

    def check_cli(self, stdout):
        with open(self.cs_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        cols = {k: np.array([float(r[k]) for r in rows]) for k in ("tau_ns", "c", "c_error")}
        return self._check_c(cols["tau_ns"], cols["c"], cols["c_error"])


class Interference(Workload):
    """Closed-form two-photon interference and hole-array spectrum work."""

    name = "interference"
    FWHM_NS = 50.0
    DELAYS_NS = (0.0, 8.0, 42.5)
    GEOMETRY = spectrum.ArrayGeometry()
    FANO = spectrum.FanoParameters()

    def __init__(self, seed, scale, work):
        super().__init__(seed, scale, work)
        rng = np.random.default_rng(seed)
        self.detunings_mhz = np.linspace(0.0, 12.0, max(5, int(round(49 * scale))))
        self.amp = BiphotonAmplitude(Shape.DOUBLE_EXPONENTIAL, self.FWHM_NS)
        # visibility of the two-sided exponential: exp(-x) (1 + x), x = delay / tau0
        self.fit_delays_ns = np.linspace(0.0, 60.0, 17)
        x = self.fit_delays_ns / self.amp.tau0_ns
        self.visibilities = np.exp(-x) * (1.0 + x) + 0.01 * rng.standard_normal(x.size)
        self.wavelength_nm = np.linspace(600.0, 1000.0, 401)
        self.spectrum_noise = 0.01 * rng.standard_normal(self.wavelength_nm.size)
        self.fig5_csv = self.work / "interference_fig5.csv"

    def run_pass(self):
        curves = [hom.hom_curve(BiphotonAmplitude(shape, self.FWHM_NS), self.detunings_mhz, d)
                  for shape in Shape for d in self.DELAYS_NS]
        v0 = hom.hom_visibility(self.amp, 0.0)
        half = brentq(lambda d: (1.0 - 2.0 * hom.hom_coincidence(self.amp, d, 0.0)) - 0.5 * v0,
                      0.1, 50.0)
        fwhm, _ = hom.fit_coherence_time(self.fit_delays_ns, self.visibilities,
                                         Shape.DOUBLE_EXPONENTIAL)
        resonances = [spectrum.spp_resonance_wavelengths(self.GEOMETRY, interface=side)
                      for side in ("glass", "air")]
        spec = spectrum.fano_spectrum(self.GEOMETRY, self.wavelength_nm, self.FANO)
        fit = spectrum.fit_fano(self.wavelength_nm, spec.total * (1.0 + self.spectrum_noise),
                                self.GEOMETRY)
        return {"curves": np.array([c.coincidence for c in curves]),
                "half_depth_mhz": half, "fwhm_ns": fwhm,
                "resonances_nm": np.concatenate(resonances),
                "t_795": spectrum.fano_transmittance(self.GEOMETRY, 795.0, self.FANO),
                "fano_peak": fit.params.peak_transmittance}

    def items(self, out):
        """HOM curve points plus spectrum points evaluated per pass."""
        return len(Shape) * len(self.DELAYS_NS) * self.detunings_mhz.size + self.wavelength_nm.size

    def check(self, out):
        return (_outside("half-depth detuning [MHz]", out["half_depth_mhz"], 4.36, 4.46)
                + _outside("fitted FWHM [ns]", out["fwhm_ns"], 0.95 * self.FWHM_NS,
                           1.05 * self.FWHM_NS)
                + _outside("T(795 nm)", out["t_795"], 0.32, 0.36)
                + _outside("Fano fit peak", out["fano_peak"], 0.355, 0.365))

    def cli_argv(self):
        return ["repro", "fig5", "--csv", str(self.fig5_csv)]

    def check_cli(self, stdout):
        m = re.search(r"half-depth detuning at zero delay: ([0-9.]+) MHz", stdout)
        if not m:
            return ["repro fig5 printed no half-depth detuning"]
        failures = _outside("CLI half-depth detuning [MHz]", float(m.group(1)), 4.36, 4.46)
        with open(self.fig5_csv, newline="", encoding="utf-8") as fh:
            rows = sum(1 for _ in csv.DictReader(fh))
        return failures + ([] if rows == 49 else [f"fig5 CSV has {rows} rows, want 49"])


WORKLOADS = {w.name: w for w in (DeskSim, TagAnalysis, Interference, HighRate)}


def same_output(a: dict, b: dict) -> bool:
    """Exact equality of two pass outputs, array by array."""
    return a.keys() == b.keys() and all(
        np.array_equal(np.asarray(a[k]), np.asarray(b[k])) for k in a)
