"""Smoke test of the benchmark at tiny sizes, and proof that its checks can trip.

    python3 -m pytest perfbench/test_perfbench.py
"""
import json
import subprocess
import sys

import numpy as np
import pytest

import checkout

checkout.use_source()

import tracing  # noqa: E402
import workloads  # noqa: E402
from spptag import tagfile  # noqa: E402
from spptag.model import TimeTagStream  # noqa: E402
from spptag.source import poisson_times  # noqa: E402

BENCHMARK = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
SMOKE_SCALE = "0.02"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", SMOKE_SCALE],
        cwd=checkout.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        d["name"]: d["unit"] for d in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["attempted"] >= 1
    assert "differs" not in proc.stdout, "a traced pass changed the output"


def test_benchmark_lists_only_known_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)


def _poisson_stream(rates, duration_ps, seed):
    gen = np.random.default_rng(seed)
    return TimeTagStream.from_channel_times(
        {ch: poisson_times(rate, 0, duration_ps, gen) for ch, rate in rates.items()},
        duration_ps)


def _two_photon_stream(duration_ps, seed):
    """Every herald followed 10 ns later by a tag on both signal channels."""
    heralds = poisson_times(2000.0, 0, duration_ps - 10_000, np.random.default_rng(seed))
    return TimeTagStream.from_channel_times(
        {workloads.HERALD: heralds, 1: heralds + 10_000, 2: heralds + 10_000}, duration_ps)


def test_desk_sim_check_passes_real_stream_and_trips_on_fakes(tmp_path):
    w = workloads.DeskSim(3, 0.1, tmp_path)
    assert w.check(w.run_pass()) == []
    # an uncorrelated stream at the right rates has no heralded doubles, so
    # its g2(0) is 0; the heralding check catches it
    fake = _poisson_stream(workloads.expected_rates(w.run.experiment), w.duration_ps, 3)
    assert any("heralded tags" in f for f in w.check(w.summarize(fake)))
    failures = w.check(w.summarize(_two_photon_stream(w.duration_ps, 3)))
    assert any("g2" in f for f in failures), failures


def test_desk_sim_rate_check_trips_on_lost_heralds(tmp_path):
    w = workloads.DeskSim(3, 0.1, tmp_path)
    out = w.run_pass()
    heralds = out["channels"] == workloads.HERALD
    out["channels"] = out["channels"][~heralds | (np.arange(heralds.size) % 50 != 0)]
    assert any("channel 0" in f for f in w.check(out))


def test_high_rate_check_trips_without_dead_time(tmp_path):
    w = workloads.HighRate(3, 0.1, tmp_path)
    assert w.check(w.run_pass()) == []
    src = w.run.experiment.source
    fake = _poisson_stream({workloads.HERALD: src.pair_rate * (1 + src.multipair_prob)},
                           w.duration_ps, 3)
    assert w.check(w.summarize(fake))


def test_tag_analysis_check_trips_on_fake_files(tmp_path):
    w = workloads.TagAnalysis(3, 0.1, tmp_path)
    rates = {workloads.HERALD: 2000.0, 1: 880.0, 2: 880.0}
    tagfile.write_tags(w.tag_path, _poisson_stream(rates, w.run.duration_ps, 3))
    failures = w.check(w.run_pass())
    for what in ("C(tau)", "similarity"):
        assert any(what in f for f in failures), (what, failures)
    tagfile.write_tags(w.tag_path, _two_photon_stream(w.run.duration_ps, 3))
    failures = w.check(w.run_pass())
    assert any("g2" in f for f in failures), failures


def test_interference_check_trips_on_each_wrong_value(tmp_path):
    w = workloads.Interference(3, 0.1, tmp_path)
    good = {"half_depth_mhz": 4.41, "fwhm_ns": 50.0, "t_795": 0.34, "fano_peak": 0.36}
    assert w.check(good) == []
    wrong = {"half_depth_mhz": 5.51, "fwhm_ns": 40.0, "t_795": 0.30, "fano_peak": 0.37}
    for key, value in wrong.items():
        assert len(w.check({**good, key: value})) == 1, key


def test_import_times_sums_submodules_of_a_lazily_loaded_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy.special._ufuncs",
        "import time:         5 |         25 |         scipy.special._inner",
        "import time:        20 |         45 |       scipy.special._support",
        "import time:       100 |        200 |     spptag.model",
        "import time:         1 |        300 | spptag.cli",
    ])
    times = tracing.import_times(stderr, ["scipy.special", "spptag.cli", "scipy.integrate"])
    assert times["scipy.special"] == pytest.approx(55e-6)
    assert times["spptag.cli"] == pytest.approx(300e-6)
    assert times["scipy.integrate"] is None
