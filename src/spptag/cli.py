"""Command-line interface.

Exit codes: 0 success, 2 usage or configuration problem, 3 file I/O or tag
file format problem, 4 analysis undefined on the given data, 5 fit failure.
"""
import argparse
import csv
import sys

import numpy as np

from .config import (
    AnalysisConfig,
    RunConfig,
    default_config,
    format_config,
    load_config,
    parse_duration,
)
from .correlator import (
    cauchy_schwarz,
    cosine_similarity,
    expected_waveform,
    heralded_g2_zero,
    reconstruct_waveform,
)
from .errors import (
    AnalysisError,
    ConfigError,
    DomainError,
    FitError,
    TagFileError,
)
from .hom import fit_coherence_time, hom_coincidence, hom_curve, hom_visibility
from .model import (
    PS_PER_NS,
    BiphotonAmplitude,
    RngSpec,
    Shape,
    evaluate_density,
)
from .optics import resolve_modulation, run_experiment
from .spectrum import (
    ArrayGeometry,
    FanoParameters,
    bethe_hole_transmittance,
    bethe_transmittance,
    fano_spectrum,
    fano_transmittance,
    fit_fano,
    spp_resonance_wavelength,
)
from .tagfile import read_tags, write_tags

HERALD_CH = 0
SIGNAL_CHS = (1, 2)
SEGMENT_PS = 100 * 10**12  # simulation advances in 100 s chunks


def _write_csv(path, header, columns):
    rows = zip(*columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _read_csv_columns(path, names):
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        missing = [n for n in names if n not in fields]
        if missing:
            raise ConfigError(f"{path}: missing CSV columns {missing}")
        rows = list(reader)
    out = []
    for name in names:
        try:
            out.append(np.array([float(r[name]) for r in rows]))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad value in column {name!r}") from exc
    return out


def _segments_for(duration_ps: int) -> int:
    return max(1, -(-duration_ps // SEGMENT_PS))


def _load_run(args) -> RunConfig:
    run = load_config(args.config) if args.config else default_config()
    duration_ps = parse_duration(args.duration) if args.duration else run.duration_ps
    rng = RngSpec(
        seed=args.seed if args.seed is not None else run.rng.seed,
        stream_id=args.stream if args.stream is not None else run.rng.stream_id,
    )
    return RunConfig(experiment=run.experiment, rng=rng, duration_ps=duration_ps,
                     analysis=run.analysis, spectrum=run.spectrum)


def _analysis_defaults(args) -> AnalysisConfig:
    if getattr(args, "config", None):
        return load_config(args.config).analysis
    return AnalysisConfig()


def _shape_arg(value: str) -> Shape:
    try:
        return Shape(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown shape {value!r}; pick from "
            f"{[s.value for s in Shape]}") from None


def _geometry_from(args) -> ArrayGeometry:
    return ArrayGeometry(
        pitch_nm=args.pitch_nm,
        hole_diameter_nm=args.hole_diameter_nm,
        film_thickness_nm=args.film_thickness_nm,
        taper_angle_deg=args.taper_angle_deg,
    )


def _add_geometry_flags(parser):
    parser.add_argument("--pitch-nm", type=float, default=430.0)
    parser.add_argument("--hole-diameter-nm", type=float, default=200.0)
    parser.add_argument("--film-thickness-nm", type=float, default=100.0)
    parser.add_argument("--taper-angle-deg", type=float, default=17.0)


def _fano_from(args) -> FanoParameters:
    return FanoParameters(
        resonance_nm=args.resonance_nm,
        fwhm_nm=args.fwhm_nm,
        q=args.q,
        peak_transmittance=args.peak_transmittance,
    )


def _add_fano_flags(parser):
    parser.add_argument("--resonance-nm", type=float, default=806.0)
    parser.add_argument("--fwhm-nm", type=float, default=96.0)
    parser.add_argument("--q", type=float, default=20.0)
    parser.add_argument("--peak-transmittance", type=float, default=0.36)


# ---------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    run = _load_run(args)
    if args.print_config:
        print(format_config(run), end="")
        return 0
    stream = run_experiment(run.experiment, run.duration_ps, run.rng,
                            segments=_segments_for(run.duration_ps))
    write_tags(args.out, stream)
    per_channel = {ch: int(np.sum(stream.channels == ch)) for ch in range(3)}
    print(f"wrote {args.out}: {len(stream)} tags over "
          f"{run.duration_ps / 1e12:g} s "
          f"(herald {per_channel[0]}, signal {per_channel[1]}/{per_channel[2]})")
    return 0


# ----------------------------------------------------------------- analyze

def cmd_analyze_g2(args) -> int:
    defaults = _analysis_defaults(args)
    window_ps = args.window_ps if args.window_ps else defaults.herald_window_ps
    stream = read_tags(args.tags)
    res = heralded_g2_zero(stream, HERALD_CH, *SIGNAL_CHS, window_ps=window_ps)
    print(f"heralded g2(0) = {res.value:.4f} +/- {res.error:.4f}  "
          f"(heralds {res.n_heralds}, singles {res.n_a}/{res.n_b}, "
          f"doubles {res.n_ab}, window +/-{window_ps / 1000:g} ns)")
    return 0


def cmd_analyze_cs(args) -> int:
    defaults = _analysis_defaults(args)
    bin_ps = args.bin_ps if args.bin_ps else defaults.bin_ps
    auto_ps = args.auto_window_ps if args.auto_window_ps else defaults.cs_window_ps
    stream = read_tags(args.tags)
    lo = int(round(args.tau_min_ns * PS_PER_NS))
    hi = int(round(args.tau_max_ns * PS_PER_NS))
    res = cauchy_schwarz(stream, HERALD_CH, SIGNAL_CHS, bin_ps, lo, hi,
                         RngSpec(args.seed, 0), auto_window_ps=auto_ps)
    peak = int(np.argmax(res.c_values))
    print(f"C(tau): peak {res.c_values[peak]:.1f} +/- {res.c_errors[peak]:.1f} "
          f"at {res.tau_ns[peak]:.2f} ns; "
          f"g_ii(0) = {res.g_ii0.value:.3f}, g_rr(0) = {res.g_rr0.value:.3f}")
    classical = res.c_values - 5 * res.c_errors > 1
    print(f"bins violating the classical bound at 5 sigma: "
          f"{int(np.sum(classical))}/{classical.size}")
    if args.csv:
        _write_csv(args.csv, ["tau_ns", "c", "c_error", "low_stats"],
                   [res.tau_ns.tolist(), res.c_values.tolist(),
                    res.c_errors.tolist(), res.low_stats.astype(int).tolist()])
        print(f"wrote {args.csv}")
    return 0


def cmd_analyze_waveform(args) -> int:
    defaults = _analysis_defaults(args)
    bin_ps = args.bin_ps if args.bin_ps else defaults.bin_ps
    stream = read_tags(args.tags)
    lo = int(round(args.tau_min_ns * PS_PER_NS))
    hi = int(round(args.tau_max_ns * PS_PER_NS))
    wf = reconstruct_waveform(stream, HERALD_CH, SIGNAL_CHS, bin_ps, lo, hi)
    total = wf.counts.sum()
    print(f"waveform: {int(total)} coincidences in "
          f"[{args.tau_min_ns:g}, {args.tau_max_ns:g}) ns, "
          f"{wf.counts.size} bins of {bin_ps / 1000:g} ns")
    if args.csv:
        _write_csv(args.csv, ["tau_ns", "counts", "error"],
                   [wf.centers_ns().tolist(), wf.counts.tolist(),
                    wf.errors.tolist()])
        print(f"wrote {args.csv}")
    return 0


# --------------------------------------------------------------------- hom

def _detunings_from(args) -> np.ndarray:
    if args.detunings_mhz:
        try:
            return np.array([float(v) for v in args.detunings_mhz.split(",")])
        except ValueError:
            raise ConfigError(
                f"bad --detunings-mhz {args.detunings_mhz!r}") from None
    lo, hi, n = args.range_lo_mhz, args.range_hi_mhz, args.range_points
    return np.linspace(lo, hi, n)


def cmd_hom_curve(args) -> int:
    amp = BiphotonAmplitude(args.shape, args.fwhm_ns)
    curve = hom_curve(amp, _detunings_from(args), args.delay_ns)
    det, pc = curve.detunings_mhz, curve.coincidence
    for d, p in zip(det, pc):
        print(f"detuning {d:10.3f} MHz  coincidence {p:.6f}")
    if args.csv:
        _write_csv(args.csv, ["detuning_mhz", "coincidence"],
                   [det.tolist(), pc.tolist()])
        print(f"wrote {args.csv}")
    return 0


def cmd_hom_fit(args) -> int:
    cols = ["delay_ns", "visibility"]
    delays, vis = _read_csv_columns(args.input, cols)
    fwhm, err = fit_coherence_time(delays, vis, args.shape)
    print(f"fitted coherence fwhm = {fwhm:.3f} +/- {err:.3f} ns "
          f"({args.shape.value}, {delays.size} points)")
    return 0


# ---------------------------------------------------------------- spectrum

def cmd_spectrum_bethe(args) -> int:
    geom = _geometry_from(args)
    hole = bethe_hole_transmittance(geom, args.wavelength_nm)
    array = bethe_transmittance(geom, args.wavelength_nm)
    print(f"bethe at {args.wavelength_nm:g} nm: hole {hole:.6f}, "
          f"array {array:.6f} (open fraction {geom.open_area_fraction:.4f})")
    return 0


def cmd_spectrum_resonance(args) -> int:
    geom = _geometry_from(args)
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
    geom = _geometry_from(args)
    params = _fano_from(args)
    grid = np.linspace(args.lo_nm, args.hi_nm, args.points)
    spec = fano_spectrum(geom, grid, params)
    i = int(np.argmax(spec.total))
    print(f"peak transmittance {spec.total[i]:.4f} at "
          f"{spec.wavelength_nm[i]:.1f} nm")
    if args.at_nm is not None:
        print(f"T({args.at_nm:g} nm) = "
              f"{fano_transmittance(geom, args.at_nm, params):.4f}")
    if args.csv:
        _write_csv(args.csv, ["wavelength_nm", "total", "resonant", "direct"],
                   [spec.wavelength_nm.tolist(), spec.total.tolist(),
                    spec.resonant.tolist(), spec.direct.tolist()])
        print(f"wrote {args.csv}")
    return 0


def cmd_spectrum_fit(args) -> int:
    geom = _geometry_from(args)
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

def _bench(modulated: bool, converted: bool) -> RunConfig:
    """Desk-scale bench in one of the four standard arrangements."""
    from dataclasses import replace

    from .optics import ModulationFunction, SampleConfig

    run = default_config()
    exp = run.experiment
    modulation = (ModulationFunction.heaviside(0.0) if modulated
                  else ModulationFunction.identity())
    if converted:
        sample = exp.sample
    else:
        sample = SampleConfig(exp.sample.photon_wavelength_nm, 1.0, 1.0)
    exp = replace(exp, modulation=modulation, sample=sample)
    return replace(run, experiment=exp)


def cmd_repro_table1(args) -> int:
    duration_ps = parse_duration(args.duration)
    rows = [
        ("unshaped incident", False, False),
        ("shaped incident", True, False),
        ("unshaped reemitted", False, True),
        ("shaped reemitted", True, True),
    ]
    print(f"heralded g2(0), {duration_ps / 1e12:g} s per arrangement, "
          f"seed {args.seed}")
    results = []
    for k, (label, modulated, converted) in enumerate(rows):
        run = _bench(modulated, converted)
        stream = run_experiment(run.experiment, duration_ps,
                                RngSpec(args.seed, k),
                                segments=_segments_for(duration_ps))
        res = heralded_g2_zero(stream, HERALD_CH, *SIGNAL_CHS,
                               window_ps=run.analysis.herald_window_ps)
        results.append((label, res))
        print(f"  {label:20s} {res.value:.4f} +/- {res.error:.4f} "
              f"(doubles {res.n_ab})")
    if args.csv:
        _write_csv(args.csv,
                   ["arrangement", "g2", "error", "n_heralds", "n_doubles"],
                   [[r[0] for r in results],
                    [r[1].value for r in results],
                    [r[1].error for r in results],
                    [r[1].n_heralds for r in results],
                    [r[1].n_ab for r in results]])
        print(f"wrote {args.csv}")
    return 0


def cmd_repro_fig3(args) -> int:
    duration_ps = parse_duration(args.duration)
    run = _bench(modulated=False, converted=True)
    stream = run_experiment(run.experiment, duration_ps, RngSpec(args.seed, 0),
                            segments=_segments_for(duration_ps))
    res = cauchy_schwarz(stream, HERALD_CH, SIGNAL_CHS, run.analysis.bin_ps,
                         int(-25 * PS_PER_NS), int(25 * PS_PER_NS),
                         RngSpec(args.seed, 1),
                         auto_window_ps=run.analysis.cs_window_ps)
    peak = int(np.argmax(res.c_values))
    print(f"time-resolved classical-bound test, {duration_ps / 1e12:g} s:")
    print(f"  peak C = {res.c_values[peak]:.0f} +/- {res.c_errors[peak]:.0f} "
          f"at {res.tau_ns[peak]:.2f} ns (classical light: C <= 1)")
    violating = res.c_values - 5 * res.c_errors > 1
    print(f"  bins above the bound at 5 sigma: "
          f"{int(np.sum(violating))}/{violating.size}")
    _write_csv(args.csv, ["tau_ns", "c", "c_error"],
               [res.tau_ns.tolist(), res.c_values.tolist(),
                res.c_errors.tolist()])
    print(f"wrote {args.csv}")
    return 0


def cmd_repro_fig4(args) -> int:
    duration_ps = parse_duration(args.duration)
    bin_ps, lo_ns, hi_ns = 1000, -75.0, 75.0
    lo, hi = int(lo_ns * PS_PER_NS), int(hi_ns * PS_PER_NS)
    n_bins = (hi - lo) // bin_ps
    arrangements = [("unshaped", _bench(False, True)),
                    ("shaped", _bench(True, True))]
    columns, names = [], []
    print(f"heralded waveforms, {duration_ps / 1e12:g} s per arrangement:")
    for k, (label, run) in enumerate(arrangements):
        stream = run_experiment(run.experiment, duration_ps,
                                RngSpec(args.seed, k),
                                segments=_segments_for(duration_ps))
        wf = reconstruct_waveform(stream, HERALD_CH, SIGNAL_CHS, bin_ps, lo, hi)
        amp = run.experiment.source.amplitude
        mod = resolve_modulation(run.experiment.modulation, amp)

        def density(t, amp=amp, mod=mod):
            return evaluate_density(amp, t) * mod.amplitude(t) ** 2

        template = expected_waveform(density, lo_ns, bin_ps / PS_PER_NS, n_bins)
        sim = cosine_similarity(wf.counts, template)
        print(f"  {label:10s} {int(wf.counts.sum())} coincidences, "
              f"similarity to programmed shape {sim:.4f}")
        if not columns:
            columns.append(wf.centers_ns().tolist())
            names.append("tau_ns")
        columns += [wf.counts.tolist(), template.tolist()]
        names += [f"counts_{label}", f"template_{label}"]
    _write_csv(args.csv, names, columns)
    print(f"wrote {args.csv}")
    return 0


def cmd_repro_fig5(args) -> int:
    amp = BiphotonAmplitude(Shape.DOUBLE_EXPONENTIAL, 50.0)
    detunings = np.linspace(0.0, 12.0, 49)
    delays = (8.0, 42.5)
    columns = [detunings.tolist()]
    names = ["detuning_mhz"]
    for delay in delays:
        pc = hom_curve(amp, detunings, delay).coincidence
        columns.append(pc.tolist())
        names.append(f"coincidence_delay_{str(delay).replace('.', 'p')}ns")
        print(f"delay {delay:g} ns: P_c(0) = {pc[0]:.4f}, "
              f"dip visibility {1 - 2 * pc[0]:.4f}")
    # detuning at which the zero-delay dip loses half its depth
    from scipy.optimize import brentq

    v0 = hom_visibility(amp, 0.0)
    half = brentq(
        lambda d: (1.0 - 2.0 * hom_coincidence(amp, d, 0.0)) - 0.5 * v0,
        0.1, 50.0)
    print(f"half-depth detuning at zero delay: {half:.2f} MHz")
    _write_csv(args.csv, names, columns)
    print(f"wrote {args.csv}")
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spptag",
        description="Simulate and analyze time-tagged single-photon "
                    "plasmon-coupling runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the bench and write a tag file")
    sim.add_argument("--config", help="run configuration file")
    sim.add_argument("--out", default="tags.spptag", help="output tag file")
    sim.add_argument("--duration", help="override run duration, e.g. 10s")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--stream", type=int)
    sim.add_argument("--print-config", action="store_true",
                     help="print the effective configuration and exit")
    sim.set_defaults(func=cmd_simulate)

    analyze = sub.add_parser("analyze", help="analyze a tag file")
    asub = analyze.add_subparsers(dest="analysis", required=True)

    g2 = asub.add_parser("g2", help="heralded zero-delay autocorrelation")
    g2.add_argument("--tags", required=True)
    g2.add_argument("--config")
    g2.add_argument("--window-ps", type=int)
    g2.set_defaults(func=cmd_analyze_g2)

    cs = asub.add_parser("cs", help="time-resolved classical-bound test")
    cs.add_argument("--tags", required=True)
    cs.add_argument("--config")
    cs.add_argument("--bin-ps", type=int)
    cs.add_argument("--tau-min-ns", type=float, default=-25.0)
    cs.add_argument("--tau-max-ns", type=float, default=25.0)
    cs.add_argument("--auto-window-ps", type=int)
    cs.add_argument("--seed", type=int, default=7,
                    help="seed for the software herald split")
    cs.add_argument("--csv")
    cs.set_defaults(func=cmd_analyze_cs)

    wf = asub.add_parser("waveform", help="herald-relative arrival histogram")
    wf.add_argument("--tags", required=True)
    wf.add_argument("--config")
    wf.add_argument("--bin-ps", type=int)
    wf.add_argument("--tau-min-ns", type=float, default=-25.0)
    wf.add_argument("--tau-max-ns", type=float, default=75.0)
    wf.add_argument("--csv")
    wf.set_defaults(func=cmd_analyze_waveform)

    hom = sub.add_parser("hom", help="two-photon interference predictions")
    hsub = hom.add_subparsers(dest="hom_command", required=True)

    curve = hsub.add_parser("curve", help="coincidence vs carrier detuning")
    curve.add_argument("--shape", type=_shape_arg,
                       default=Shape.DOUBLE_EXPONENTIAL)
    curve.add_argument("--fwhm-ns", type=float, default=50.0)
    curve.add_argument("--delay-ns", type=float, default=0.0)
    curve.add_argument("--detunings-mhz",
                       help="comma-separated list, e.g. '0,2,4'")
    curve.add_argument("--range-lo-mhz", type=float, default=0.0)
    curve.add_argument("--range-hi-mhz", type=float, default=12.0)
    curve.add_argument("--range-points", type=int, default=25)
    curve.add_argument("--csv")
    curve.set_defaults(func=cmd_hom_curve)

    hfit = hsub.add_parser("fit", help="coherence time from visibility points")
    hfit.add_argument("--input", required=True,
                      help="CSV with columns delay_ns, visibility")
    hfit.add_argument("--shape", type=_shape_arg,
                      default=Shape.DOUBLE_EXPONENTIAL)
    hfit.set_defaults(func=cmd_hom_fit)

    spec = sub.add_parser("spectrum", help="hole-array transmission")
    ssub = spec.add_subparsers(dest="spectrum_command", required=True)

    bethe = ssub.add_parser("bethe", help="small-hole direct transmittance")
    bethe.add_argument("--wavelength-nm", type=float, default=795.0)
    _add_geometry_flags(bethe)
    bethe.set_defaults(func=cmd_spectrum_bethe)

    reson = ssub.add_parser("resonance", help="grating-coupling wavelengths")
    reson.add_argument("--orders", default="1,0;1,1",
                       help="semicolon-separated index pairs, e.g. '1,0;1,1'")
    reson.add_argument("--interface", choices=("air", "glass"),
                       default="glass")
    reson.add_argument("--theta-deg", type=float, default=0.0)
    reson.add_argument("--polarization", choices=("tm", "te"), default="tm")
    _add_geometry_flags(reson)
    reson.set_defaults(func=cmd_spectrum_resonance)

    fano = ssub.add_parser("fano", help="resonant plus direct spectrum")
    fano.add_argument("--lo-nm", type=float, default=600.0)
    fano.add_argument("--hi-nm", type=float, default=1000.0)
    fano.add_argument("--points", type=int, default=201)
    fano.add_argument("--at-nm", type=float,
                      help="also print the transmittance here")
    fano.add_argument("--csv")
    _add_geometry_flags(fano)
    _add_fano_flags(fano)
    fano.set_defaults(func=cmd_spectrum_fano)

    sfit = ssub.add_parser("fit", help="fit a measured spectrum")
    sfit.add_argument("--input", required=True,
                      help="CSV with columns wavelength_nm, transmittance")
    _add_geometry_flags(sfit)
    sfit.set_defaults(func=cmd_spectrum_fit)

    repro = sub.add_parser("repro", help="regenerate the headline results")
    rsub = repro.add_subparsers(dest="repro_command", required=True)

    t1 = rsub.add_parser("table1", help="heralded g2 in four arrangements")
    t1.add_argument("--duration", default="200s")
    t1.add_argument("--seed", type=int, default=1905)
    t1.add_argument("--csv")
    t1.set_defaults(func=cmd_repro_table1)

    f3 = rsub.add_parser("fig3", help="time-resolved classical-bound curve")
    f3.add_argument("--duration", default="100s")
    f3.add_argument("--seed", type=int, default=1905)
    f3.add_argument("--csv", default="fig3.csv")
    f3.set_defaults(func=cmd_repro_fig3)

    f4 = rsub.add_parser("fig4", help="waveform imprinting comparison")
    f4.add_argument("--duration", default="100s")
    f4.add_argument("--seed", type=int, default=1905)
    f4.add_argument("--csv", default="fig4.csv")
    f4.set_defaults(func=cmd_repro_fig4)

    f5 = rsub.add_parser("fig5", help="interference vs detuning at two delays")
    f5.add_argument("--csv", default="fig5.csv")
    f5.set_defaults(func=cmd_repro_fig5)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TagFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AnalysisError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
