"""Per-layer spans recorded from outside the program.

A Tracer replaces each traced public function by a wrapper, in every spptag
module (or class) that binds it, so calls from inside the library, such as
run_experiment -> generate_pairs, are caught as well as the benchmark's own.
Each wrapper records a span (name, start, end, parent span, run id) and,
for some functions, counts taken from the arguments and return value.
Spans stay in memory until the run ends; per-layer metrics are self times
(a span minus its child spans) and counts summed over one pass.
"""
from __future__ import annotations

import functools
import os
import statistics
import sys
import time

from spptag import correlator, hom, model, optics, source, spectrum, tagfile


def _file_mb(path) -> dict:
    return {"mb": os.path.getsize(path) / 1e6}


def _kept(args, out) -> dict:
    """Events in (first argument) and out (return value) of a thinning stage."""
    return {"in": len(args[0]), "out": len(out)}


# (span name, owner, attribute, counts(args, result) -> dict or None)
TRACED = [
    ("source.generate_pairs", source, "generate_pairs",
     lambda a, r: {kind.name.lower(): r.count_kind(kind) for kind in source.PairKind}),
    ("source.poisson_times", source, "poisson_times", None),
    ("model.sample_delay", model, "sample_delay", None),
    ("model.from_channel_times", model.TimeTagStream, "from_channel_times", None),
    ("optics.run_experiment", optics, "run_experiment", None),
    ("optics.apply_modulation", optics, "apply_modulation", _kept),
    ("optics.apply_sample", optics, "apply_sample", _kept),
    ("optics.beamsplit", optics, "beamsplit", None),
    ("optics.detect", optics, "detect", _kept),
    ("tagfile.write_tags", tagfile, "write_tags", lambda a, r: _file_mb(a[0])),
    ("tagfile.read_tags", tagfile, "read_tags", lambda a, r: _file_mb(a[0])),
    ("correlator.heralded_g2_zero", correlator, "heralded_g2_zero", None),
    ("correlator.cauchy_schwarz", correlator, "cauchy_schwarz", None),
    ("correlator.coincidence_histogram", correlator, "coincidence_histogram",
     lambda a, r: {"pairs": int(r.counts.sum())}),
    ("correlator.auto_g2_zero", correlator, "auto_g2_zero", None),
    ("correlator.split_channel", correlator, "split_channel", None),
    ("correlator.reconstruct_waveform", correlator, "reconstruct_waveform", None),
    ("hom.hom_curve", hom, "hom_curve", None),
    ("hom.hom_coincidence", hom, "hom_coincidence", None),
    ("hom.hom_visibility", hom, "hom_visibility", None),
    ("hom.fit_coherence_time", hom, "fit_coherence_time", None),
    ("spectrum.spp_resonance_wavelength", spectrum, "spp_resonance_wavelength", None),
    ("spectrum.fano_spectrum", spectrum, "fano_spectrum", None),
    ("spectrum.fit_fano", spectrum, "fit_fano", None),
    ("spectrum.bethe_transmittance", spectrum, "bethe_transmittance", None),
]


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.update(counts(args, result))
                # counting is tracing cost: keep it out of the parent's self time
                span["count_s"] = time.perf_counter() - span["end"]
            return result
        return traced

    def install(self) -> None:
        """Replace every binding of each traced function by its wrapper."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "spptag" or n.startswith("spptag."))]
        for name, owner, attr, counts in TRACED:
            if isinstance(owner, type):
                method = owner.__dict__[attr]
                wrapped = classmethod(self._wrap(name, method.__func__, counts))
                self._restore.append((owner, attr, method))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, counts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, summed self time and summed counts.

    Also counts hom_visibility calls made inside fit_coherence_time (the
    fit's model evaluations) under "model_evals" of the fit.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"] + span.get("count_s", 0.0)
    out: dict[str, dict] = {}
    for i, span in enumerate(spans):
        row = out.setdefault(span["name"], {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += span["end"] - span["start"] - child_s[i]
        for key, value in span.items():
            if key not in ("name", "run", "parent", "start", "end", "count_s"):
                row[key] = row.get(key, 0) + value
    fit = out.get("hom.fit_coherence_time")
    if fit is not None:
        fit["model_evals"] = sum(1 for s in spans if s["name"] == "hom.hom_visibility"
                                 and _has_ancestor(spans, s, "hom.fit_coherence_time"))
    return out


def _has_ancestor(spans, span, name) -> bool:
    while span["parent"] is not None:
        span = spans[span["parent"]]
        if span["name"] == name:
            return True
    return False


def _self(name):
    return lambda rows: rows[name]["self_s"] if name in rows else None


def _field(name, key):
    return lambda rows: rows[name][key] if name in rows else None


def _ratio(name, num, den):
    def get(rows):
        row = rows.get(name)
        return row[num] / row[den] if row and row[den] else None
    return get


def _mb_per_s(name):
    def get(rows):
        row = rows.get(name)
        return row["mb"] / row["self_s"] if row and row["self_s"] > 0 else None
    return get


# per-layer metric name -> (unit, value from summarize() rows, None when absent)
SPAN_METRICS = {
    "source.generate_pairs.s": ("s", _self("source.generate_pairs")),
    "source.poisson_times.s": ("s", _self("source.poisson_times")),
    "source.events.true_pair": ("count", _field("source.generate_pairs", "true_pair")),
    "source.events.multipair_extra": ("count", _field("source.generate_pairs", "multipair_extra")),
    "source.events.background_signal": ("count", _field("source.generate_pairs", "background_signal")),
    "source.events.background_idler": ("count", _field("source.generate_pairs", "background_idler")),
    "model.sample_delay.s": ("s", _self("model.sample_delay")),
    "model.from_channel_times.s": ("s", _self("model.from_channel_times")),
    "optics.run_experiment.self_s": ("s", _self("optics.run_experiment")),
    "optics.apply_modulation.s": ("s", _self("optics.apply_modulation")),
    "optics.apply_modulation.kept_frac": ("ratio", _ratio("optics.apply_modulation", "out", "in")),
    "optics.apply_sample.s": ("s", _self("optics.apply_sample")),
    "optics.apply_sample.kept_frac": ("ratio", _ratio("optics.apply_sample", "out", "in")),
    "optics.beamsplit.s": ("s", _self("optics.beamsplit")),
    "optics.detect.s": ("s", _self("optics.detect")),
    "optics.detect.in": ("count", _field("optics.detect", "in")),
    "optics.detect.out": ("count", _field("optics.detect", "out")),
    "optics.detect.kept_frac": ("ratio", _ratio("optics.detect", "out", "in")),
    "tagfile.write_tags.s": ("s", _self("tagfile.write_tags")),
    "tagfile.write_tags.mb_per_s": ("MB/s", _mb_per_s("tagfile.write_tags")),
    "tagfile.read_tags.s": ("s", _self("tagfile.read_tags")),
    "tagfile.read_tags.mb_per_s": ("MB/s", _mb_per_s("tagfile.read_tags")),
    "correlator.heralded_g2_zero.s": ("s", _self("correlator.heralded_g2_zero")),
    "correlator.cauchy_schwarz.self_s": ("s", _self("correlator.cauchy_schwarz")),
    "correlator.coincidence_histogram.s": ("s", _self("correlator.coincidence_histogram")),
    "correlator.coincidence_histogram.pairs": ("count", _field("correlator.coincidence_histogram", "pairs")),
    "correlator.auto_g2_zero.s": ("s", _self("correlator.auto_g2_zero")),
    "correlator.split_channel.s": ("s", _self("correlator.split_channel")),
    "correlator.reconstruct_waveform.s": ("s", _self("correlator.reconstruct_waveform")),
    "hom.hom_curve.s": ("s", _self("hom.hom_curve")),
    "hom.hom_coincidence.calls": ("count", _field("hom.hom_coincidence", "calls")),
    "hom.hom_coincidence.s": ("s", _self("hom.hom_coincidence")),
    "hom.fit_coherence_time.s": ("s", _self("hom.fit_coherence_time")),
    "hom.fit_coherence_time.model_evals": ("count", _field("hom.fit_coherence_time", "model_evals")),
    "spectrum.spp_resonance_wavelength.s": ("s", _self("spectrum.spp_resonance_wavelength")),
    "spectrum.fano_spectrum.s": ("s", _self("spectrum.fano_spectrum")),
    "spectrum.fit_fano.s": ("s", _self("spectrum.fit_fano")),
    "spectrum.bethe_transmittance.calls": ("count", _field("spectrum.bethe_transmittance", "calls")),
}


def span_metrics(passes: list[list[dict]]) -> dict[str, float | None]:
    """Median over traced passes of each span metric; None when it never fired."""
    per_pass = [summarize(spans) for spans in passes]
    out = {}
    for metric, (_, get) in SPAN_METRICS.items():
        values = [v for v in (get(rows) for rows in per_pass) if v is not None]
        out[metric] = float(statistics.median(values)) if values else None
    return out


def import_times(stderr: str, modules) -> dict[str, float | None]:
    """Cumulative import time [s] per module from `python -X importtime` output.

    A package loaded through a lazy parent attribute (scipy.special via
    `from scipy import special`) may have no line of its own, only lines for
    its submodules.  So a module's time is the sum of the cumulative times
    of its own line and its submodules' lines that have no such line above
    them in the import tree; None when it was not imported at all.
    """
    entries = []
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    out = {}
    for module in modules:
        total, seen, stack = 0, False, []
        # post-order output read backwards visits every parent before its children
        for indent, name, cumulative_us in reversed(entries):
            while stack and stack[-1][0] >= indent:
                stack.pop()
            covered = bool(stack) and stack[-1][1]
            mine = name == module or name.startswith(module + ".")
            if mine and not covered:
                total += cumulative_us
                seen = True
            stack.append((indent, covered or mine))
        out[module] = total * 1e-6 if seen else None
    return out
