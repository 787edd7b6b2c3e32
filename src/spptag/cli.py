"""Command-line interface.

Exit codes: 0 success, 2 usage or configuration problem, 3 file I/O or tag
file format problem, 4 analysis undefined on the data, 5 fit failure, 6 out of
memory; _EXIT_CODES maps each error class to its code.  A flag whose dest is
a dataclass field overrides that field when given (_override), so the
dataclass validates it like a config-file value.  Float flags and CSV inputs
must be finite (_finite); grid point counts and CSV input rows are at most
MAX_POINTS.  Each command imports the library modules it calls in its own
body, so a process loads only those: `repro fig5`, `hom`, and `analyze` without
--config, never compile the simulator or load the hole-array spectrum.
"""
import argparse
import csv
import math
import sys
from dataclasses import fields, replace

import numpy as np

from .errors import AnalysisError, ConfigError, DomainError, FitError, TagFileError
from .model import (PS_PER_NS, AnalysisConfig, ArrayGeometry, BiphotonAmplitude, FanoParameters,
                    RngSpec, Shape, evaluate_density)

HERALD_CH = 0
SIGNAL_CHS = (1, 2)

# the first class an error is an instance of gives the exit code
_EXIT_CODES = {ConfigError: 2, TagFileError: 3, OSError: 3, AnalysisError: 4,
               DomainError: 4, FitError: 5, ValueError: 2, OverflowError: 2, MemoryError: 6}
MAX_POINTS = 2**24  # points a --points or --range-points grid, or rows an input CSV, may hold
CSV_ROWS = 4096  # rows a CSV write holds as Python objects at a time


def _finite(text) -> float:
    """argparse type: a finite float."""
    try:
        value = float(text)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _duration(text: str) -> int:
    """argparse type for --duration.

    Raises ConfigError, which argparse passes on, so a bad duration leaves
    main as one error line naming it, like a bad config value.
    """
    from .config import parse_duration
    try:
        return parse_duration(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _override(obj, args):
    """obj with each field whose flag was given (is not None) set from args."""
    given = {f.name: getattr(args, f.name, None) for f in fields(obj)}
    return replace(obj, **{name: v for name, v in given.items() if v is not None})


def _analysis(args):
    """analyze simulates nothing: it takes the file's analysis section, not its run."""
    if not args.config:
        return _override(AnalysisConfig(), args)
    from .config import load_analysis
    return _override(load_analysis(args.config), args)


def _write_csv(path, header, columns):
    """Write the columns side by side, CSV_ROWS rows at a time."""
    columns = [np.asarray(col) for col in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, min(col.size for col in columns), CSV_ROWS):
            writer.writerows(zip(*(col[start:start + CSV_ROWS].tolist() for col in columns)))
    print(f"wrote {path}")


def _read_csv_columns(path, names):
    """The named columns as float arrays, each value converted as its row arrives."""
    import array
    columns = [array.array("d") for _ in names]
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [n for n in names if n not in (reader.fieldnames or [])]
        if missing:
            raise ConfigError(f"{path}: missing CSV columns {missing}")
        for k, row in enumerate(reader):
            if k == MAX_POINTS:
                raise ConfigError(f"{path}: more rows than the budget of {MAX_POINTS}")
            for name, column in zip(names, columns):
                try:
                    column.append(_finite(row[name]))
                except argparse.ArgumentTypeError as exc:
                    raise ConfigError(f"{path}: bad value in column {name!r}: {exc}") from None
    return [np.frombuffer(column) for column in columns]


def _shape_arg(value: str) -> Shape:
    try:
        return Shape(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown shape {value!r}; pick from "
            f"{[s.value for s in Shape]}") from None


def _add_field_flags(parser, cls):
    """One --flag per field of cls, defaulting to the field's default."""
    for f in fields(cls):
        parser.add_argument("--" + f.name.replace("_", "-"), type=_finite, default=f.default)


# ---------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    from .config import default_config, format_config, load_config
    from .optics import run_experiment
    from .tagfile import write_tags
    run = _override(load_config(args.config, args.duration_ps) if args.config
                    else default_config(), args)
    run = replace(run, rng=_override(run.rng, args))
    if args.print_config:
        print(format_config(run), end="")
        return 0
    stream = run_experiment(run.experiment, run.duration_ps, run.rng)
    write_tags(args.out, stream)
    per_channel = {ch: int(np.sum(stream.channels == ch)) for ch in range(3)}
    print(f"wrote {args.out}: {len(stream)} tags over "
          f"{run.duration_ps / 1e12:g} s "
          f"(herald {per_channel[0]}, signal {per_channel[1]}/{per_channel[2]})")
    return 0


# ----------------------------------------------------------------- analyze
# analyze runs these on a tag file, repro on simulated streams

def _ps(ns: float) -> int:
    return int(round(ns * PS_PER_NS))


def _g2(stream, analysis):
    from .correlator import heralded_g2_zero
    return heralded_g2_zero(stream, HERALD_CH, *SIGNAL_CHS, window_ps=analysis.herald_window_ps)


def _cs(stream, analysis, lo_ns, hi_ns, rng):
    """C(tau), the index of its peak and its bins above the classical bound at 5 sigma."""
    from .correlator import cauchy_schwarz
    res = cauchy_schwarz(stream, HERALD_CH, SIGNAL_CHS, analysis.bin_ps, _ps(lo_ns), _ps(hi_ns),
                         rng, auto_window_ps=analysis.cs_window_ps)
    return res, int(np.argmax(res.c_values)), res.c_values - 5 * res.c_errors > 1


def _waveform(stream, analysis, lo_ns, hi_ns):
    from .correlator import reconstruct_waveform
    return reconstruct_waveform(stream, HERALD_CH, SIGNAL_CHS, analysis.bin_ps,
                                _ps(lo_ns), _ps(hi_ns))


def cmd_analyze_g2(args) -> int:
    from .tagfile import read_tags
    analysis = _analysis(args)
    res = _g2(read_tags(args.tags), analysis)
    print(f"heralded g2(0) = {res.value:.4f} +/- {res.error:.4f}  "
          f"(heralds {res.n_heralds}, singles {res.n_a}/{res.n_b}, "
          f"doubles {res.n_ab}, window +/-{analysis.herald_window_ps / 1000:g} ns)")
    return 0


def cmd_analyze_cs(args) -> int:
    from .tagfile import read_tags
    analysis = _analysis(args)
    res, peak, classical = _cs(read_tags(args.tags), analysis, args.tau_min_ns,
                               args.tau_max_ns, RngSpec(args.seed, 0))
    print(f"C(tau): peak {res.c_values[peak]:.1f} +/- {res.c_errors[peak]:.1f} "
          f"at {res.tau_ns[peak]:.2f} ns; "
          f"g_ii(0) = {res.g_ii0.value:.3f}, g_rr(0) = {res.g_rr0.value:.3f}")
    print(f"bins violating the classical bound at 5 sigma: "
          f"{int(np.sum(classical))}/{classical.size}")
    if args.csv:
        _write_csv(args.csv, ["tau_ns", "c", "c_error", "low_stats"],
                   [res.tau_ns, res.c_values, res.c_errors, res.low_stats.astype(int)])
    return 0


def cmd_analyze_waveform(args) -> int:
    from .tagfile import read_tags
    analysis = _analysis(args)
    wf = _waveform(read_tags(args.tags), analysis, args.tau_min_ns, args.tau_max_ns)
    print(f"waveform: {int(wf.counts.sum())} coincidences in "
          f"[{args.tau_min_ns:g}, {args.tau_max_ns:g}) ns, "
          f"{wf.counts.size} bins of {analysis.bin_ps / 1000:g} ns")
    if args.csv:
        _write_csv(args.csv, ["tau_ns", "counts", "error"],
                   [wf.centers_ns(), wf.counts.astype(float), np.sqrt(wf.counts)])
    return 0


# --------------------------------------------------------------------- hom

def cmd_hom_curve(args) -> int:
    from .hom import hom_curve
    amp = BiphotonAmplitude(args.shape, args.fwhm_ns)
    detunings = args.detunings_mhz
    if detunings is None:
        if not 1 <= args.range_points <= MAX_POINTS:
            raise ConfigError(f"--range-points must lie in [1, {MAX_POINTS}]")
        detunings = np.linspace(args.range_lo_mhz, args.range_hi_mhz, args.range_points)
    curve = hom_curve(amp, detunings, args.delay_ns)
    det, pc = curve.detunings_mhz, curve.coincidence
    for d, p in zip(det, pc):
        print(f"detuning {d:10.3f} MHz  coincidence {p:.6f}")
    if args.csv:
        _write_csv(args.csv, ["detuning_mhz", "coincidence"], [det, pc])
    return 0


def cmd_hom_fit(args) -> int:
    from .hom import fit_coherence_time
    cols = ["delay_ns", "visibility"]
    delays, vis = _read_csv_columns(args.input, cols)
    fwhm, err = fit_coherence_time(delays, vis, args.shape)
    print(f"fitted coherence fwhm = {fwhm:.3f} +/- {err:.3f} ns "
          f"({args.shape.value}, {delays.size} points)")
    return 0


# ---------------------------------------------------------------- spectrum

def cmd_spectrum_bethe(args) -> int:
    from .spectrum import bethe_hole_transmittance, bethe_transmittance
    geom = _override(ArrayGeometry(), args)
    hole = bethe_hole_transmittance(geom, args.wavelength_nm)
    array = bethe_transmittance(geom, args.wavelength_nm)
    print(f"bethe at {args.wavelength_nm:g} nm: hole {hole:.6f}, "
          f"array {array:.6f} (open fraction {geom.open_area_fraction:.4f})")
    return 0


def cmd_spectrum_resonance(args) -> int:
    from .spectrum import spp_resonance_wavelength
    geom = _override(ArrayGeometry(), args)
    try:
        orders = [tuple(int(v) for v in pair.split(","))
                  for pair in args.orders.split(";")]
        if any(len(o) != 2 for o in orders):
            raise ValueError
    except ValueError:
        raise ConfigError(f"bad --orders {args.orders!r}; "
                          "expected like '1,0;1,1'") from None
    for order in orders:
        wl = spp_resonance_wavelength(geom, order, args.interface,
                                      args.theta_deg, args.polarization)
        print(f"({order[0]},{order[1]}) {args.interface} "
              f"{args.polarization} at {args.theta_deg:g} deg: {wl:.2f} nm")
    return 0


def cmd_spectrum_fano(args) -> int:
    from .spectrum import fano_spectrum, fano_transmittance
    geom = _override(ArrayGeometry(), args)
    params = _override(FanoParameters(), args)
    if not 2 <= args.points <= MAX_POINTS:
        raise ConfigError(f"--points must lie in [2, {MAX_POINTS}]")
    grid = np.linspace(args.lo_nm, args.hi_nm, args.points)
    spec = fano_spectrum(geom, grid, params)
    at = None if args.at_nm is None else fano_transmittance(geom, args.at_nm, params)
    i = int(np.argmax(spec.total))
    print(f"peak transmittance {spec.total[i]:.4f} at "
          f"{spec.wavelength_nm[i]:.1f} nm")
    if at is not None:
        print(f"T({args.at_nm:g} nm) = {at:.4f}")
    if args.csv:
        _write_csv(args.csv, ["wavelength_nm", "total", "resonant", "direct"],
                   [spec.wavelength_nm, spec.total, spec.resonant, spec.direct])
    return 0


def cmd_spectrum_fit(args) -> int:
    from .spectrum import fit_fano
    geom = _override(ArrayGeometry(), args)
    wl, t = _read_csv_columns(args.input, ["wavelength_nm", "transmittance"])
    fit = fit_fano(wl, t, geom)
    p = fit.params
    print(f"fano fit: resonance {p.resonance_nm:.2f} +/- {fit.stderr[0]:.2f} nm, "
          f"fwhm {p.fwhm_nm:.2f} +/- {fit.stderr[1]:.2f} nm, "
          f"q {p.q:.2f} +/- {fit.stderr[2]:.2f}, "
          f"peak {p.peak_transmittance:.4f} +/- {fit.stderr[3]:.4f} "
          f"(rms residual {fit.residual_rms:.2e})")
    return 0


# ------------------------------------------------------------------- repro

def _arrangements(duration_ps, seed, table):
    """(label, run, stream) for each (label, modulated, converted) row of table:
    the desk bench with a step drive at zero delay or none, through the sample
    or past it.  Every run meets the event budget before this returns; row k's
    stream is simulated from RngSpec(seed, k) only when it is asked for."""
    from .config import default_config
    from .optics import ModulationFunction, SampleConfig, run_experiment
    base = default_config()
    exp = base.experiment
    runs = []
    for label, modulated, converted in table:
        modulation = (ModulationFunction.heaviside(0.0) if modulated
                      else ModulationFunction.identity())
        sample = exp.sample if converted else SampleConfig(exp.sample.photon_wavelength_nm, 1.0)
        experiment = replace(exp, modulation=modulation, sample=sample)
        runs.append((label, replace(base, experiment=experiment, duration_ps=duration_ps)))
    return ((label, run, run_experiment(run.experiment, duration_ps, RngSpec(seed, k)))
            for k, (label, run) in enumerate(runs))


def cmd_repro_table1(args) -> int:
    arrangements = _arrangements(args.duration_ps, args.seed, [
        ("unshaped incident", False, False), ("shaped incident", True, False),
        ("unshaped reemitted", False, True), ("shaped reemitted", True, True)])
    print(f"heralded g2(0), {args.duration_ps / 1e12:g} s per arrangement, "
          f"seed {args.seed}")
    rows = []
    for label, run, stream in arrangements:
        res = _g2(stream, run.analysis)
        rows.append((label, res.value, res.error, res.n_heralds, res.n_ab))
        print(f"  {label:20s} {res.value:.4f} +/- {res.error:.4f} "
              f"(doubles {res.n_ab})")
        del stream  # before the next arrangement is simulated
    if args.csv:
        _write_csv(args.csv, ["arrangement", "g2", "error", "n_heralds", "n_doubles"], zip(*rows))
    return 0


def cmd_repro_fig3(args) -> int:
    [(_, run, stream)] = _arrangements(args.duration_ps, args.seed, [("reemitted", False, True)])
    res, peak, violating = _cs(stream, run.analysis, -25.0, 25.0, RngSpec(args.seed, 1))
    print(f"time-resolved classical-bound test, {args.duration_ps / 1e12:g} s:")
    print(f"  peak C = {res.c_values[peak]:.0f} +/- {res.c_errors[peak]:.0f} "
          f"at {res.tau_ns[peak]:.2f} ns (classical light: C <= 1)")
    print(f"  bins above the bound at 5 sigma: "
          f"{int(np.sum(violating))}/{violating.size}")
    _write_csv(args.csv, ["tau_ns", "c", "c_error"], [res.tau_ns, res.c_values, res.c_errors])
    return 0


def cmd_repro_fig4(args) -> int:
    from .correlator import cosine_similarity, expected_waveform
    lo_ns, hi_ns = -75.0, 75.0
    arrangements = _arrangements(args.duration_ps, args.seed,
                                 [("unshaped", False, True), ("shaped", True, True)])
    columns, names = [], ["tau_ns"]
    print(f"heralded waveforms, {args.duration_ps / 1e12:g} s per arrangement:")
    for label, run, stream in arrangements:
        wf = _waveform(stream, run.analysis, lo_ns, hi_ns)
        del stream  # before the next arrangement is simulated
        amp, mod = run.experiment.source.amplitude, run.experiment.modulation
        template = expected_waveform(lambda t: evaluate_density(amp, t) * mod.amplitude(t) ** 2,
                                     lo_ns, run.analysis.bin_ps / PS_PER_NS, wf.counts.size)
        sim = cosine_similarity(wf.counts, template)
        print(f"  {label:10s} {int(wf.counts.sum())} coincidences, "
              f"similarity to programmed shape {sim:.4f}")
        columns += [wf.counts.astype(float), template]
        names += [f"counts_{label}", f"template_{label}"]
    # both arrangements share the bins of the last waveform
    _write_csv(args.csv, names, [wf.centers_ns(), *columns])
    return 0


def cmd_repro_fig5(args) -> int:
    from .hom import hom_curve
    amp = BiphotonAmplitude(Shape.DOUBLE_EXPONENTIAL, 50.0)
    detunings = np.linspace(0.0, 12.0, 49)
    delays = (8.0, 42.5)
    columns, names = [detunings], ["detuning_mhz"]
    for delay in delays:
        pc = hom_curve(amp, detunings, delay).coincidence
        columns.append(pc)
        names.append(f"coincidence_delay_{str(delay).replace('.', 'p')}ns")
        print(f"delay {delay:g} ns: P_c(0) = {pc[0]:.4f}, "
              f"dip visibility {1 - 2 * pc[0]:.4f}")
    # the zero-delay dip 1 / (1 + (2 pi detuning tau0)^2) is half deep here
    half = 1e3 / (2 * np.pi * amp.tau0_ns)
    print(f"half-depth detuning at zero delay: {half:.2f} MHz")
    _write_csv(args.csv, names, columns)
    return 0


# ------------------------------------------------------------------ parser

def _repro_flags(duration: str) -> argparse.ArgumentParser:
    """--duration and --seed of table1, fig3 and fig4: one parent each, as
    children share the parent's actions and so would share a set_defaults."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--duration", dest="duration_ps", type=_duration, default=duration)
    flags.add_argument("--seed", type=int, default=1905)
    return flags


def _histogram_flags(tau_max_ns: float) -> argparse.ArgumentParser:
    """--bin-ps, the tau range and --csv of analyze cs and waveform, one parent each."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--bin-ps", type=int)
    flags.add_argument("--tau-min-ns", type=_finite, default=-25.0)
    flags.add_argument("--tau-max-ns", type=_finite, default=tau_max_ns)
    flags.add_argument("--csv")
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spptag",
        description="Simulate and analyze time-tagged single-photon "
                    "plasmon-coupling runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the bench and write a tag file")
    sim.add_argument("--config", help="run configuration file")
    sim.add_argument("--out", default="tags.spptag", help="output tag file")
    sim.add_argument("--duration", dest="duration_ps", type=_duration,
                     help="override run duration, e.g. 10s")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--stream", dest="stream_id", type=int)
    sim.add_argument("--print-config", action="store_true",
                     help="print the effective configuration and exit")
    sim.set_defaults(func=cmd_simulate)

    analyze = sub.add_parser("analyze", help="analyze a tag file")
    asub = analyze.add_subparsers(dest="analysis", required=True)
    tags = argparse.ArgumentParser(add_help=False)
    tags.add_argument("--tags", required=True)
    tags.add_argument("--config")

    g2 = asub.add_parser("g2", parents=[tags], help="heralded zero-delay autocorrelation")
    g2.add_argument("--window-ps", dest="herald_window_ps", type=int)
    g2.set_defaults(func=cmd_analyze_g2)

    cs = asub.add_parser("cs", parents=[tags, _histogram_flags(25.0)],
                         help="time-resolved classical-bound test")
    cs.add_argument("--auto-window-ps", dest="cs_window_ps", type=int)
    cs.add_argument("--seed", type=int, default=7, help="seed for the software herald split")
    cs.set_defaults(func=cmd_analyze_cs)

    wf = asub.add_parser("waveform", parents=[tags, _histogram_flags(75.0)],
                         help="herald-relative arrival histogram")
    wf.set_defaults(func=cmd_analyze_waveform)

    hom = sub.add_parser("hom", help="two-photon interference predictions")
    hsub = hom.add_subparsers(dest="hom_command", required=True)

    curve = hsub.add_parser("curve", help="coincidence vs carrier detuning")
    curve.add_argument("--shape", type=_shape_arg, default=Shape.DOUBLE_EXPONENTIAL)
    curve.add_argument("--fwhm-ns", type=_finite, default=50.0)
    curve.add_argument("--delay-ns", type=_finite, default=0.0)
    curve.add_argument("--detunings-mhz", type=lambda text: [_finite(v) for v in text.split(",")],
                       help="comma-separated list, e.g. '0,2,4'")
    curve.add_argument("--range-lo-mhz", type=_finite, default=0.0)
    curve.add_argument("--range-hi-mhz", type=_finite, default=12.0)
    curve.add_argument("--range-points", type=int, default=25)
    curve.add_argument("--csv")
    curve.set_defaults(func=cmd_hom_curve)

    hfit = hsub.add_parser("fit", help="coherence time from visibility points")
    hfit.add_argument("--input", required=True, help="CSV with columns delay_ns, visibility")
    hfit.add_argument("--shape", type=_shape_arg, default=Shape.DOUBLE_EXPONENTIAL)
    hfit.set_defaults(func=cmd_hom_fit)

    spec = sub.add_parser("spectrum", help="hole-array transmission")
    ssub = spec.add_subparsers(dest="spectrum_command", required=True)
    geometry = argparse.ArgumentParser(add_help=False)
    _add_field_flags(geometry, ArrayGeometry)

    bethe = ssub.add_parser("bethe", parents=[geometry], help="small-hole direct transmittance")
    bethe.add_argument("--wavelength-nm", type=_finite, default=795.0)
    bethe.set_defaults(func=cmd_spectrum_bethe)

    reson = ssub.add_parser("resonance", parents=[geometry], help="grating-coupling wavelengths")
    reson.add_argument("--orders", default="1,0;1,1",
                       help="semicolon-separated index pairs, e.g. '1,0;1,1'")
    reson.add_argument("--interface", choices=("air", "glass"), default="glass")
    reson.add_argument("--theta-deg", type=_finite, default=0.0)
    reson.add_argument("--polarization", choices=("tm", "te"), default="tm")
    reson.set_defaults(func=cmd_spectrum_resonance)

    fano = ssub.add_parser("fano", parents=[geometry], help="resonant plus direct spectrum")
    fano.add_argument("--lo-nm", type=_finite, default=600.0)
    fano.add_argument("--hi-nm", type=_finite, default=1000.0)
    fano.add_argument("--points", type=int, default=201)
    fano.add_argument("--at-nm", type=_finite, help="also print the transmittance here")
    fano.add_argument("--csv")
    _add_field_flags(fano, FanoParameters)
    fano.set_defaults(func=cmd_spectrum_fano)

    sfit = ssub.add_parser("fit", parents=[geometry], help="fit a measured spectrum")
    sfit.add_argument("--input", required=True,
                      help="CSV with columns wavelength_nm, transmittance")
    sfit.set_defaults(func=cmd_spectrum_fit)

    repro = sub.add_parser("repro", help="regenerate the headline results")
    rsub = repro.add_subparsers(dest="repro_command", required=True)

    t1 = rsub.add_parser("table1", parents=[_repro_flags("200s")],
                         help="heralded g2 in four arrangements")
    t1.add_argument("--csv")
    t1.set_defaults(func=cmd_repro_table1)

    f3 = rsub.add_parser("fig3", parents=[_repro_flags("100s")],
                         help="time-resolved classical-bound curve")
    f3.add_argument("--csv", default="fig3.csv")
    f3.set_defaults(func=cmd_repro_fig3)

    f4 = rsub.add_parser("fig4", parents=[_repro_flags("100s")],
                         help="waveform imprinting comparison")
    f4.add_argument("--csv", default="fig4.csv")
    f4.set_defaults(func=cmd_repro_fig4)

    f5 = rsub.add_parser("fig5", help="interference vs detuning at two delays")
    f5.add_argument("--csv", default="fig5.csv")
    f5.set_defaults(func=cmd_repro_fig5)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
