"""Command-line interface: exit codes, file outputs, determinism."""
import contextlib
import csv
import dataclasses
import io
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import spptag
from spptag import cli, optics, tagfile
from spptag.cli import _write_csv, build_parser, main
from spptag.config import default_config, parse_config
from spptag.hom import hom_visibility
from spptag.model import BiphotonAmplitude, Shape
from spptag.spectrum import ArrayGeometry, FanoParameters, SpectrumConfig, fano_transmittance
from spptag.tagfile import read_tags

GOLDEN = Path(__file__).parent / "golden"

# name -> (command, CSV files it writes); stdout is pinned by golden/cli_<name>.txt
# and each CSV by golden/cli_<name>_<file>. "{tags}" is the 2 s, seed 7 tag file.
PINNED = {
    "simulate": ("simulate --duration 2s --seed 7 --out run.spptag", ()),
    "simulate_stream3": ("simulate --duration 2s --seed 7 --stream 3 --out run.spptag", ()),
    "analyze_g2": ("analyze g2 --tags {tags}", ()),
    "analyze_cs": ("analyze cs --tags {tags} --csv cs.csv", ("cs.csv",)),
    "analyze_waveform": ("analyze waveform --tags {tags} --csv wf.csv", ("wf.csv",)),
    "hom_curve": ("hom curve --csv hom.csv", ("hom.csv",)),
    "hom_fit": ("hom fit --input vis.csv", ()),
    "spectrum_bethe": ("spectrum bethe", ()),
    "spectrum_resonance": ("spectrum resonance", ()),
    "spectrum_fano": ("spectrum fano --at-nm 795 --csv fano.csv", ("fano.csv",)),
    "spectrum_fit": ("spectrum fit --input spec.csv", ()),
    "repro_fig5": ("repro fig5", ("fig5.csv",)),
    "repro_table1": ("repro table1 --duration 2s", ()),
    "repro_table1_csv": ("repro table1 --duration 2s --csv table1.csv", ("table1.csv",)),
    "repro_fig3": ("repro fig3 --duration 2s", ("fig3.csv",)),
    "repro_fig4": ("repro fig4 --duration 2s", ("fig4.csv",)),
}


def _write_fit_inputs():
    """vis.csv and spec.csv in the working directory: model values with 1% noise."""
    noise = np.random.default_rng(0).standard_normal(50)
    delays = np.linspace(0.0, 60.0, 9)
    amp = BiphotonAmplitude(Shape.DOUBLE_EXPONENTIAL, 50.0)
    vis = [hom_visibility(amp, d) + 0.01 * e for d, e in zip(delays, noise)]
    wl = np.linspace(650.0, 1000.0, 50)
    t = fano_transmittance(ArrayGeometry(), wl, FanoParameters(801.0, 90.0, 18.0, 0.35))
    for path, header, rows in (("vis.csv", ["delay_ns", "visibility"], zip(delays, vis)),
                               ("spec.csv", ["wavelength_nm", "transmittance"],
                                zip(wl, t * (1.0 + 0.01 * noise)))):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([float(v) for v in row] for row in rows)


def run_pinned(name, tags):
    """Exit code, stdout and written CSV bytes of one pinned command, run in the cwd."""
    command, written = PINNED[name]
    _write_fit_inputs()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([str(tags) if a == "{tags}" else a for a in command.split()])
    return rc, out.getvalue(), {f: Path(f).read_bytes() for f in written}


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    return reader.fieldnames, rows


@pytest.fixture(scope="module")
def pinned_tags(tmp_path_factory):
    out = tmp_path_factory.mktemp("pinned") / "run.spptag"
    assert main(["simulate", "--duration", "2s", "--seed", "7", "--out", str(out)]) == 0
    return out


class TestPinnedOutput:
    @pytest.mark.parametrize("name", PINNED)
    def test_stdout_and_csv_match_golden(self, name, pinned_tags, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, out, files = run_pinned(name, pinned_tags)
        assert rc == 0
        assert out == (GOLDEN / f"cli_{name}.txt").read_text(encoding="utf-8")
        for file, data in files.items():
            assert data == (GOLDEN / f"cli_{name}_{file}").read_bytes(), file


def _child_env():
    """Environment for a child Python that imports this checkout's spptag."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(spptag.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))


def _limit_address_space():
    """Cap a child at 3 GB of address space, so an oversized allocation fails
    in the child instead of exhausting the host's memory."""
    resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))


class TestRejectedInput:
    """Each input exits 2 with an error message, no traceback and no stdout."""

    PAIRS_PROBE = ("analyze waveform --tags {tags} --bin-ps 20000000000000 "
                   "--tau-min-ns=-1e10 --tau-max-ns 1e10")
    # command -> text the error message must contain
    PROBES = {
        "analyze cs --tags {tags} --tau-min-ns inf": "--tau-min-ns",
        "analyze g2 --tags {tags} --window-ps 99999999999999999999999": "herald_window_ps",
        "analyze g2 --tags {tags} --window-ps 0": "herald_window_ps",
        "analyze cs --tags {tags} --bin-ps 0": "bin_ps",
        "hom curve --delay-ns inf": "--delay-ns",
        "hom curve --detunings-mhz nan": "--detunings-mhz",
        "spectrum bethe --wavelength-nm nan": "--wavelength-nm",
        "spectrum fano --at-nm nan": "--at-nm",
        "hom fit --input nan.csv": "'visibility'",
        "analyze cs --tags {tags} --auto-window-ps 99999999999999999999999": "cs_window_ps",
        "analyze waveform --tags {tags} --tau-max-ns 1e9": "1000000025 bins",
        # one bin wider than the file: each of 4044 heralds pairs with all 7645 tags
        PAIRS_PROBE: "30916380 tag pairs",
        "spectrum fano --points 1000000000": "--points must lie in [2, 16777216]",
        "spectrum fano --points 1": "--points must lie in [2, 16777216]",
        "hom curve --range-points 1000000000": "--range-points must lie in [1, 16777216]",
        "hom curve --range-points -1": "--range-points must lie",
        "hom curve --range-points 0": "--range-points must lie",
        # tau0 ** -2 overflows, is subnormal, or tau0 ** 2 overflows
        "hom curve --fwhm-ns 1e-200": "fwhm_ns",
        "hom curve --fwhm-ns 1e160": "fwhm_ns",
        "hom curve --fwhm-ns 1e300": "fwhm_ns",
        "spectrum fano --at-nm 1e300": "non-finite transmittance",
        "spectrum fano --fwhm-nm 1e-300": "non-finite transmittance",
        "spectrum fano --resonance-nm 1e300": "non-finite transmittance",
        "spectrum bethe --wavelength-nm 1e-300": "small-hole law",
        "spectrum bethe --pitch-nm 1e300 --hole-diameter-nm 1e299": "small-hole law",
        "spectrum fano --lo-nm 1e-300 --hi-nm 1e-299 --points 3": "small-hole law",
        # 1.9e10 tags over the run: the stream alone would take about 380 GB
        "repro table1 --duration 1000000s": "most come from source.background_rate_signal",
        "repro fig3 --duration 1000000s": "most come from source.background_rate_signal",
        "repro fig4 --duration 1000000s": "most come from source.background_rate_signal",
    }

    # config line -> the key its error names: delays and jitter shifts beyond int64 ps
    CONFIG_PROBES = {
        "detector1.jitter_sigma_ps = 1e300": "detector1: jitter_sigma_ps",
        "amplitude.fwhm_ns = 1e300": "amplitude.fwhm_ns",
        "amplitude.offset_ns = -1e300": "amplitude.offset_ns",
        "detector1.dead_time_ps = 100000000000000000000000": "detector1: dead_time_ps",
    }

    @pytest.mark.parametrize("duration", ["1s", "200s"])
    @pytest.mark.parametrize("line", CONFIG_PROBES)
    def test_config_value_exits_2_on_one_line(self, line, duration, tmp_path):
        (tmp_path / "run.cfg").write_text(line + "\n")
        proc = subprocess.run([sys.executable, "-m", "spptag.cli", "simulate", "--config",
                               "run.cfg", "--duration", duration, "--out", "t.spptag"],
                              cwd=tmp_path, env=_child_env(), capture_output=True, text=True,
                              preexec_fn=_limit_address_space)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert self.CONFIG_PROBES[line] in proc.stderr, proc.stderr
        assert not (tmp_path / "t.spptag").exists()

    @pytest.mark.parametrize("extra", [[], ["--print-config"]], ids=["simulate", "print_config"])
    def test_event_budget_exits_2_before_any_draw(self, extra, tmp_path):
        # 1.54e8 background photons in one 1 ms slice: drawing them ran out of memory
        (tmp_path / "run.cfg").write_text("source.background_rate_signal = 1e12\n")
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "spptag.cli", "simulate", "--config",
                               "run.cfg", "--duration", "1ms", "--out", "t.spptag", *extra],
                              cwd=tmp_path, env=_child_env(), capture_output=True, text=True,
                              preexec_fn=_limit_address_space)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "most come from source.background_rate_signal" in proc.stderr, proc.stderr
        assert elapsed < 1.0
        assert not (tmp_path / "t.spptag").exists()

    @pytest.mark.parametrize("command", PROBES)
    def test_exits_2_without_traceback(self, command, pinned_tags, tmp_path):
        (tmp_path / "nan.csv").write_text("delay_ns,visibility\n0.0,1.0\n10.0,nan\n")
        argv = [str(pinned_tags) if a == "{tags}" else a for a in command.split()]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "spptag.cli", *argv], cwd=tmp_path,
                              env=_child_env(), capture_output=True, text=True,
                              preexec_fn=_limit_address_space)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr and "error: " in proc.stderr, proc.stderr
        assert "Warning" not in proc.stderr, proc.stderr  # pytest's filter misses children
        assert self.PROBES[command] in proc.stderr, proc.stderr
        if command == self.PAIRS_PROBE:  # rejected before any pair is expanded
            assert elapsed < 1.0

    def test_tag_file_over_the_record_budget_exits_3(self, tmp_path):
        # a valid header and 2^30 records, sparse: 17.2 GB that preallocating would
        # take 9.7 GB for, past the 3 GB limit
        path = tmp_path / "huge.spptag"
        with open(path, "wb") as fh:
            fh.write(tagfile.HEADER.pack(tagfile.MAGIC, 1, 1, 3, 0, 10**12))
            fh.truncate(tagfile.HEADER_SIZE + tagfile.RECORD_SIZE * 2**30)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "spptag.cli", "analyze", "g2", "--tags",
                               str(path)], cwd=tmp_path, env=_child_env(), capture_output=True,
                              text=True, preexec_fn=_limit_address_space)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == (f"error: {path}: {2**30} records, "
                               f"above the budget of {tagfile.MAX_TAGS}\n")
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("message", ["", "Unable to allocate 16.0 GiB for an array"])
    def test_memory_error_exits_6_on_one_line(self, message, monkeypatch, capsys):
        def exhausted(path):
            raise MemoryError(message)

        monkeypatch.setattr(tagfile, "read_tags", exhausted)
        assert main(["analyze", "g2", "--tags", "t.spptag"]) == 6
        assert capsys.readouterr() == ("", f"error: {message or 'MemoryError'}\n")

    @pytest.mark.parametrize("command", ["hom fit --input vis.csv",
                                         "spectrum fit --input spec.csv"])
    def test_csv_over_the_row_budget_exits_2(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        _write_fit_inputs()  # 9 and 50 rows
        rows = 9 if command.startswith("hom") else 50
        monkeypatch.setattr(cli, "MAX_POINTS", rows)
        assert main(command.split()) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "MAX_POINTS", rows - 1)
        assert main(command.split()) == 2
        path = command.split()[-1]
        assert capsys.readouterr() == ("", f"error: {path}: more rows than the budget "
                                           f"of {rows - 1}\n")

    def test_fit_that_leaves_the_width_free_exits_5(self, tmp_path):
        # both rows at zero delay: every width gives the same visibility
        (tmp_path / "v.csv").write_text("delay_ns,visibility\n0,0.5\n0,0.5\n")
        proc = subprocess.run([sys.executable, "-m", "spptag.cli", "hom", "fit", "--input",
                               "v.csv"], cwd=tmp_path, env=_child_env(), capture_output=True,
                              text=True)
        assert proc.returncode == 5, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "Traceback" not in proc.stderr and "do not determine" in proc.stderr

    def test_fit_on_descending_wavelengths_exits_5(self, tmp_path):
        # spectrometers often write the grid from red to blue
        rows = "".join(f"{wl},0.3\n" for wl in range(1000, 590, -10))
        (tmp_path / "s.csv").write_text("wavelength_nm,transmittance\n" + rows)
        proc = subprocess.run([sys.executable, "-m", "spptag.cli", "spectrum", "fit", "--input",
                               "s.csv"], cwd=tmp_path, env=_child_env(), capture_output=True,
                              text=True)
        assert proc.returncode == 5, proc.stderr
        assert proc.stderr == "error: wavelengths must increase\n"


class TestSimulate:
    def test_writes_tag_file(self, tmp_path, capsys):
        out = tmp_path / "run.spptag"
        rc = main(["simulate", "--duration", "1s", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        assert out.stat().st_size > 32
        assert "wrote" in capsys.readouterr().out

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.spptag", tmp_path / "b.spptag"
        assert main(["simulate", "--duration", "1s", "--seed", "5",
                     "--out", str(a)]) == 0
        assert main(["simulate", "--duration", "1s", "--seed", "5",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_different_bytes(self, tmp_path):
        a, b = tmp_path / "a.spptag", tmp_path / "b.spptag"
        main(["simulate", "--duration", "1s", "--seed", "5", "--out", str(a)])
        main(["simulate", "--duration", "1s", "--seed", "6", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_print_config_round_trips(self, capsys):
        rc = main(["simulate", "--print-config"])
        assert rc == 0
        text = capsys.readouterr().out
        assert parse_config(text) == default_config()

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("source.pair_rate = 500.0\nrun.duration = 1 s\n")
        out = tmp_path / "t.spptag"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0

    def test_header_holds_a_duration_float64_cannot_represent(self, tmp_path):
        # float64 rounds 12345678901234567 to ...568
        cfg, out = tmp_path / "quiet.cfg", tmp_path / "t.spptag"
        cfg.write_text("source.pair_rate = 0.0\nsource.background_rate_signal = 0.0\n"
                       "detector1.dark_rate = 0.0\ndetector2.dark_rate = 0.0\n")
        assert main(["simulate", "--config", str(cfg), "--duration", "12345678901234567ps",
                     "--out", str(out)]) == 0
        stream = read_tags(out)
        assert stream.duration_ps == 12345678901234567 and len(stream) == 0

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("source.pair_rate = fast\n")
        rc = main(["simulate", "--config", str(cfg), "--out",
                   str(tmp_path / "t")])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("given, part", [
        ("spectrum.peak_transmittance = 0.0001", "spectrum:"),
        ("modulation.kind = identity\nmodulation.edge_ns = nan", "line 2"),
        ("spectrum.grid_hi_nm = 700.0", "sample: photon wavelength 795.0 nm outside"),
        # the target/source density ratio grows without bound: no drive reaches it
        ("amplitude.shape = gaussian\nmodulation.kind = gaussian\n"
         "modulation.target_fwhm_ns = 60.0",
         "error: modulation: a gaussian target must be narrower than a gaussian source"),
        # the ratio grows as |t| / tau0 with tau0 ~ 1e-300 ns
        ("amplitude.fwhm_ns = 1e-300\nmodulation.kind = gaussian",
         "error: modulation: the target/source density ratio overflows at its peak"),
    ], ids=["unbuildable_spectrum", "modulation_key_of_another_kind",
            "wavelength_outside_spectrum", "gaussian_target_wider_than_source",
            "gaussian_drive_peak_overflows"])
    def test_config_problem_exits_2_on_one_line(self, tmp_path, capsys, given, part):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(given + "\n")
        out = tmp_path / "t.spptag"
        for extra in ("--out", str(out)), ("--print-config",):
            assert main(["simulate", "--config", str(cfg), *extra]) == 2
            stdout, err = capsys.readouterr()
            assert stdout == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert part in err, err
        assert not out.exists()

    @pytest.mark.parametrize("given", ["modulation.target_fwhm_ns = 1e6",
                                       "modulation.target_center_ns = 1e12"],
                             ids=["gaussian_target_wide", "gaussian_target_late"])
    def test_far_gaussian_target_passes_no_signal_photon(self, tmp_path, capsys, caplog,
                                                         given):
        # the drive is 0 at every photon, so the run is the one whose sample
        # converts nothing: the signal detectors see only their dark counts
        streams = []
        for text in ("modulation.kind = gaussian\n" + given,
                     "sample.overall_conversion = 0.0\nsample.background_suppression = 0.0"):
            cfg, out = tmp_path / "run.cfg", tmp_path / "t.spptag"
            cfg.write_text(text + "\n")
            with caplog.at_level("WARNING"):
                assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            streams.append(read_tags(out))
        assert streams[0] == streams[1]
        assert capsys.readouterr().err == "" and caplog.records == []

    def test_missing_config_exits_3(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "t")])
        assert rc == 3

    @pytest.mark.parametrize("given, key", [
        ("--duration=inf s", "duration"),
        ("--duration=1e400s", "duration"),
        ("source.pair_rate = inf", "source.pair_rate"),
        ("amplitude.fwhm_ns = inf", "amplitude.fwhm_ns"),
        ("amplitude.offset_ns = nan", "amplitude.offset_ns"),
        ("detector1.jitter_sigma_ps = nan", "detector1.jitter_sigma_ps"),
        ("spectrum.pitch_nm = inf", "spectrum.pitch_nm"),
        ("modulation.kind = heaviside\nmodulation.edge_ns = nan", "modulation.edge_ns"),
    ])
    def test_non_finite_value_exits_2_naming_the_key(self, tmp_path, capsys, given, key):
        out = tmp_path / "t.spptag"
        argv = ["simulate", "--out", str(out)]
        if given.startswith("--"):
            argv.append(given)
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(given + "\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert all(part in err for part in key.split(".")), err
        assert not out.exists()


@pytest.fixture(scope="module")
def tag_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("tags") / "run.spptag"
    assert main(["simulate", "--duration", "5s", "--seed", "17",
                 "--out", str(out)]) == 0
    return out


class TestAnalyze:
    def test_g2(self, tag_file, capsys):
        assert main(["analyze", "g2", "--tags", str(tag_file)]) == 0
        out = capsys.readouterr().out
        assert "heralded g2(0)" in out
        assert "+/-" in out

    def test_g2_missing_file_exits_3(self, tmp_path):
        assert main(["analyze", "g2", "--tags",
                     str(tmp_path / "nope.spptag")]) == 3

    def test_g2_corrupt_file_exits_3(self, tmp_path):
        bad = tmp_path / "bad.spptag"
        bad.write_bytes(b"not a tag file at all, nowhere close")
        assert main(["analyze", "g2", "--tags", str(bad)]) == 3

    def test_cs_writes_curve(self, tag_file, tmp_path, capsys):
        out = tmp_path / "cs.csv"
        rc = main(["analyze", "cs", "--tags", str(tag_file),
                   "--csv", str(out)])
        assert rc == 0
        fields, rows = read_csv(out)
        assert fields == ["tau_ns", "c", "c_error", "low_stats"]
        assert len(rows) == 50  # -25..25 ns at 1 ns

    def test_cs_auto_window_beyond_the_file(self, pinned_tags, capsys):
        # a window past the 2 s duration counts every pair, which is what
        # uncorrelated tags of that duration give
        assert main(["analyze", "cs", "--tags", str(pinned_tags),
                     "--auto-window-ps", str(2**62)]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("C(tau): peak 4828713.3 +/- ")
        assert first.endswith("g_ii(0) = 1.000, g_rr(0) = 1.000")

    def test_waveform_writes_histogram(self, tag_file, tmp_path):
        out = tmp_path / "wf.csv"
        rc = main(["analyze", "waveform", "--tags", str(tag_file),
                   "--csv", str(out)])
        assert rc == 0
        fields, rows = read_csv(out)
        assert fields == ["tau_ns", "counts", "error"]
        assert len(rows) == 100
        total = sum(float(r["counts"]) for r in rows)
        assert total > 0

    @pytest.mark.parametrize("command", ["g2", "cs", "waveform"])
    def test_config_gives_only_the_analysis_settings(self, command, pinned_tags, tmp_path,
                                                     capsys):
        # as a run this file is over the event budget, which simulate rejects
        # (TestRejectedInput); analyze simulates nothing and takes only its windows
        cfg, out = tmp_path / "run.cfg", tmp_path / "out.csv"
        cfg.write_text("source.background_rate_signal = 1e12\n"
                       "analysis.herald_window_ps = 200000\nanalysis.bin_ps = 2000\n")
        argv = ["analyze", command, "--tags", str(pinned_tags), "--config", str(cfg)]
        assert main(argv if command == "g2" else argv + ["--csv", str(out)]) == 0
        if command == "g2":
            assert "window +/-200 ns" in capsys.readouterr().out
        else:  # 2 ns bins over the default 50 ns and 100 ns ranges
            assert len(read_csv(out)[1]) == {"cs": 25, "waveform": 50}[command]

    @pytest.mark.parametrize("command", ["g2", "cs", "waveform"])
    def test_config_with_a_bad_line_exits_2(self, command, pinned_tags, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("analysis.bin_ps = 2000\nsource.bogus = 1\n")
        assert main(["analyze", command, "--tags", str(pinned_tags), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: line 2: unknown key 'source.bogus'\n"

    def test_empty_stream_analysis_exits_4(self, tmp_path):
        from spptag.model import TimeTagStream
        from spptag.tagfile import write_tags
        path = tmp_path / "empty.spptag"
        write_tags(path, TimeTagStream([], [], 10**9))
        assert main(["analyze", "g2", "--tags", str(path)]) == 4


class TestCsv:
    def test_rows_written_in_fixed_memory(self, tmp_path):
        # 200k rows of three columns: turned into Python lists whole they took 19.4 MB
        x = np.arange(200_000) / 7.0
        columns, path = [x, x * x, np.sqrt(x)], tmp_path / "big.csv"
        _write_csv(path, ["a", "b", "c"], columns)  # the first call imports and caches
        tracemalloc.start()
        try:
            _write_csv(path, ["a", "b", "c"], columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        fields, rows = read_csv(path)
        assert fields == ["a", "b", "c"] and len(rows) == x.size
        for k in (0, 4095, 4096, 123_456, x.size - 1):
            assert [float(rows[k][f]) for f in fields] == [col[k] for col in columns]

    def test_columns_read_as_rows_arrive(self, tmp_path):
        # 200k rows of two columns: held as a dict of strings per row, they took 371 B a row
        x = np.arange(200_000) / 7.0
        path = tmp_path / "big.csv"
        _write_csv(path, ["delay_ns", "visibility"], [x, x * x])
        tracemalloc.start()
        try:
            delays, vis = cli._read_csv_columns(path, ["delay_ns", "visibility"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * x.size
        assert np.array_equal(delays, x) and np.array_equal(vis, x * x)


class TestImports:
    # what a command that neither simulates nor reads tags must not load
    SIMULATOR = ["spptag.config", "spptag.optics", "spptag.source", "spptag.correlator",
                 "spptag.tagfile"]
    # analyze without --config takes its windows from model
    ANALYZE = ["spptag.config", "spptag.optics", "spptag.source", "spptag.hom"]

    @pytest.mark.parametrize("command, unused", [
        ("repro fig5", SIMULATOR), ("hom curve", SIMULATOR), ("spectrum fano", SIMULATOR),
        ("analyze g2 --tags {tags}", ANALYZE), ("analyze cs --tags {tags}", ANALYZE),
        ("analyze waveform --tags {tags}", ANALYZE)])
    def test_command_imports_only_the_modules_it_runs(self, command, unused, pinned_tags,
                                                       tmp_path):
        argv = [str(pinned_tags) if a == "{tags}" else a for a in command.split()]
        code = (f"import sys; from spptag.cli import main; rc = main({argv!r}); "
                f"print(rc, [m for m in {unused!r} if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_child_env(),
                             capture_output=True, text=True, check=True).stdout
        assert out.splitlines()[-1] == "0 []"

    @pytest.mark.parametrize("command", [
        "analyze g2 --tags {tags}", "analyze cs --tags {tags}",
        "analyze waveform --tags {tags}", "hom curve", "spectrum bethe",
        "spectrum resonance", "spectrum fano", "repro fig5",
        "simulate --duration 1s --out run.spptag", "repro table1 --duration 1s",
        "repro fig3 --duration 1s", "repro fig4 --duration 1s",
        "hom fit --input vis.csv", "spectrum fit --input spec.csv"])
    def test_command_leaves_scipy_unloaded(self, command, pinned_tags, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _write_fit_inputs()
        argv = [str(pinned_tags) if a == "{tags}" else a for a in command.split()]
        code = ("import sys; import spptag.cli as cli; loaded = 'scipy' in sys.modules; "
                f"rc = cli.main({argv!r}); print(loaded, rc, 'scipy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_child_env(),
                             capture_output=True, text=True, check=True).stdout
        assert out.splitlines()[-1] == "False 0 False"

    def test_no_source_file_names_scipy(self):
        sources = sorted(Path(spptag.__file__).parent.glob("*.py"))
        assert sources and not [p.name for p in sources if "scipy" in p.read_text()]


class TestHom:
    def test_curve_csv(self, tmp_path):
        out = tmp_path / "hom.csv"
        rc = main(["hom", "curve", "--shape", "double_exponential",
                   "--fwhm-ns", "50", "--detunings-mhz", "0,4.41,10",
                   "--csv", str(out)])
        assert rc == 0
        fields, rows = read_csv(out)
        assert fields == ["detuning_mhz", "coincidence"]
        assert float(rows[0]["coincidence"]) == pytest.approx(0.0, abs=1e-9)
        assert float(rows[1]["coincidence"]) == pytest.approx(0.25, abs=5e-3)

    def test_fit_recovers_width(self, tmp_path, capsys):
        amp = BiphotonAmplitude(Shape.DOUBLE_EXPONENTIAL, 50.0)
        delays = np.linspace(0.0, 60.0, 9)
        vis = [hom_visibility(amp, d) for d in delays]
        path = tmp_path / "vis.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["delay_ns", "visibility"])
            writer.writerows(zip(delays.tolist(), vis))
        rc = main(["hom", "fit", "--input", str(path),
                   "--shape", "double_exponential"])
        assert rc == 0
        out = capsys.readouterr().out
        fitted = float(re.search(r"fwhm = ([\d.]+)", out).group(1))
        assert fitted == pytest.approx(50.0, rel=1e-3)

    def test_fit_missing_columns_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        assert main(["hom", "fit", "--input", str(path)]) == 2

    @pytest.mark.parametrize("flags", [["--fwhm-ns", "1e300"], ["--range-hi-mhz", "1e300"]])
    def test_gaussian_limits_without_warning(self, flags, capsys):
        # an overlap exponent beyond the double range is the limit: no overlap
        assert main(["hom", "curve", "--shape", "gaussian", "--range-points", "3", *flags]) == 0
        pc = [float(line.split()[-1]) for line in capsys.readouterr().out.splitlines()]
        assert pc == [0.0, 0.5, 0.5]

    @pytest.mark.parametrize("shape", list(Shape))
    def test_phase_beyond_double_range_is_no_overlap(self, shape, capsys):
        # omega * delay overflows: the limit 1/2, as for an infinite detuning, not nan
        assert main(["hom", "curve", "--shape", shape.value, "--range-hi-mhz", "1e300",
                     "--delay-ns", "1e11", "--range-points", "3"]) == 0
        out, err = capsys.readouterr()
        assert [float(line.split()[-1]) for line in out.splitlines()] == [0.5, 0.5, 0.5]
        assert err == ""

    def test_bad_shape_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["hom", "curve", "--shape", "boxcar"])
        assert err.value.code == 2


class TestSpectrum:
    def test_defaults_are_the_dataclass_defaults(self):
        spectrum = parse_config("spectrum.q = 20.0\n").experiment.sample.spectrum
        assert spectrum == SpectrumConfig()
        args = vars(build_parser().parse_args(["spectrum", "fano"]))
        for default in (ArrayGeometry(), FanoParameters()):
            flags = {key: args[key] for key in dataclasses.asdict(default)}
            assert flags == dataclasses.asdict(default)

    def test_bethe(self, capsys):
        assert main(["spectrum", "bethe", "--wavelength-nm", "795"]) == 0
        out = capsys.readouterr().out
        assert "0.0937" in out and "0.0159" in out

    def test_bethe_open_fraction_of_huge_array(self, capsys):
        # squaring the pitch alone would overflow; the ratio squared does not
        assert main(["spectrum", "bethe", "--pitch-nm", "1e200", "--hole-diameter-nm", "1e199",
                     "--wavelength-nm", "1e300"]) == 0
        out, err = capsys.readouterr()
        assert "hole 0.000000, array 0.000000 (open fraction 0.0079)" in out and err == ""

    def test_resonance(self, capsys):
        assert main(["spectrum", "resonance", "--orders", "1,0",
                     "--interface", "glass"]) == 0
        wl = float(re.search(r"([\d.]+) nm", capsys.readouterr().out).group(1))
        assert 680 < wl < 710

    def test_resonance_bad_orders_exits_2(self):
        assert main(["spectrum", "resonance", "--orders", "1;0"]) == 2

    def test_resonance_outside_table_exits_4(self):
        assert main(["spectrum", "resonance", "--orders", "3,3"]) == 4

    def test_fano_csv(self, tmp_path, capsys):
        out = tmp_path / "fano.csv"
        rc = main(["spectrum", "fano", "--at-nm", "795", "--csv", str(out)])
        assert rc == 0
        assert "T(795 nm) = 0.33" in capsys.readouterr().out
        fields, rows = read_csv(out)
        assert fields == ["wavelength_nm", "total", "resonant", "direct"]
        assert len(rows) == 201

    def test_fit_recovers_parameters(self, tmp_path, capsys):
        geom = ArrayGeometry()
        truth = FanoParameters(801.0, 90.0, 18.0, 0.35)
        wl = np.linspace(650.0, 1000.0, 50)
        t = fano_transmittance(geom, wl, truth)
        path = tmp_path / "spec.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["wavelength_nm", "transmittance"])
            writer.writerows(zip(wl.tolist(), t.tolist()))
        assert main(["spectrum", "fit", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "resonance 801.00" in out

    def test_fit_garbage_exits_5(self, tmp_path):
        path = tmp_path / "spec.csv"
        rng = np.random.default_rng(0)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["wavelength_nm", "transmittance"])
            # constant zero spectrum: no resonance anywhere, fit cannot move
            writer.writerows((w, 0.0) for w in np.linspace(650, 1000, 30))
        rc = main(["spectrum", "fit", "--input", str(path)])
        assert rc in (0, 5)  # degenerate input either converges flat or fails


class TestRepro:
    def test_table1_csv_numbers_read_back_as_floats(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert main(["repro", "table1", "--duration", "1s", "--csv", str(out)]) == 0
        fields, rows = read_csv(out)
        assert len(rows) == 4
        for row in rows:
            assert all(np.isfinite(float(row[k])) for k in fields[1:]), row

    def test_fig5_analytic(self, tmp_path, capsys):
        out = tmp_path / "fig5.csv"
        assert main(["repro", "fig5", "--csv", str(out)]) == 0
        text = capsys.readouterr().out
        assert "half-depth detuning" in text
        half = float(re.search(r"half-depth detuning at zero delay: "
                               r"([\d.]+) MHz", text).group(1))
        assert half == pytest.approx(4.41, abs=0.05)
        fields, rows = read_csv(out)
        assert fields[0] == "detuning_mhz" and len(fields) == 3
        assert len(rows) == 49

    def test_table1_small(self, tmp_path, capsys):
        out = tmp_path / "t1.csv"
        rc = main(["repro", "table1", "--duration", "2s", "--seed", "2",
                   "--csv", str(out)])
        assert rc == 0
        fields, rows = read_csv(out)
        assert fields == ["arrangement", "g2", "error", "n_heralds",
                          "n_doubles"]
        assert [r["arrangement"] for r in rows] == [
            "unshaped incident", "shaped incident",
            "unshaped reemitted", "shaped reemitted"]

    def test_fig3_small(self, tmp_path, capsys):
        out = tmp_path / "f3.csv"
        rc = main(["repro", "fig3", "--duration", "5s", "--seed", "2",
                   "--csv", str(out)])
        assert rc == 0
        assert "peak C" in capsys.readouterr().out
        fields, rows = read_csv(out)
        assert fields == ["tau_ns", "c", "c_error"]
        assert len(rows) == 50

    def test_rows_are_analyze_on_the_same_stream(self, tmp_path, capsys):
        # row k of a repro table is stream k of --seed, and the unshaped
        # reemitted arrangement is the default bench that simulate runs
        def simulate(stream):
            tags = tmp_path / f"s{stream}.spptag"
            assert main(["simulate", "--seed", "5", "--stream", str(stream),
                         "--duration", "2s", "--out", str(tags)]) == 0
            return str(tags)

        f4, wf = tmp_path / "f4.csv", tmp_path / "wf.csv"
        assert main(["repro", "fig4", "--seed", "5", "--duration", "2s", "--csv", str(f4)]) == 0
        assert main(["analyze", "waveform", "--tags", simulate(0), "--tau-min-ns=-75",
                     "--tau-max-ns", "75", "--csv", str(wf)]) == 0
        counts = [r["counts"] for r in read_csv(wf)[1]]
        assert len(counts) == 150 and counts == [r["counts_unshaped"] for r in read_csv(f4)[1]]

        t1 = tmp_path / "t1.csv"
        assert main(["repro", "table1", "--seed", "5", "--duration", "2s", "--csv", str(t1)]) == 0
        row = read_csv(t1)[1][2]
        assert row["arrangement"] == "unshaped reemitted"
        tags = simulate(2)
        capsys.readouterr()
        assert main(["analyze", "g2", "--tags", tags]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"heralded g2(0) = {float(row['g2']):.4f} "
                              f"+/- {float(row['error']):.4f}  (heralds {row['n_heralds']}, ")
        assert f"doubles {row['n_doubles']}, " in out

    @pytest.mark.parametrize("command", ["table1", "fig4"])
    def test_each_stream_is_dropped_before_the_next_run(self, command, tmp_path, monkeypatch):
        streams, run_experiment = [], optics.run_experiment

        def tracked(*args, **kwargs):
            assert all(ref() is None for ref in streams)
            stream = run_experiment(*args, **kwargs)
            streams.append(weakref.ref(stream))
            return stream

        monkeypatch.setattr(optics, "run_experiment", tracked)
        assert main(["repro", command, "--duration", "1s",
                     "--csv", str(tmp_path / "out.csv")]) == 0
        assert len(streams) == {"table1": 4, "fig4": 2}[command]

    def test_fig4_small(self, tmp_path, capsys):
        out = tmp_path / "f4.csv"
        rc = main(["repro", "fig4", "--duration", "5s", "--seed", "2",
                   "--csv", str(out)])
        assert rc == 0
        fields, rows = read_csv(out)
        assert fields == ["tau_ns", "counts_unshaped", "template_unshaped",
                          "counts_shaped", "template_shaped"]
        assert len(rows) == 150
        # the shaped template vanishes left of the programmed edge; the bin
        # touching the edge picks up boundary mass, so stop one bin short
        pre = [float(r["template_shaped"]) for r in rows
               if float(r["tau_ns"]) < -1.0]
        assert max(pre) == 0.0
