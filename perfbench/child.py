"""Child process of the benchmark: set-up alone, or the warm pass server.

    python3 perfbench/child.py setup WORKLOAD SEED SCALE WORKDIR
    python3 perfbench/child.py serve WORKLOAD SEED SCALE WORKDIR RESULT

`setup` imports spptag.cli and builds the workload's inputs, then exits; the
parent times the whole process.  `serve` does the same, runs one checked
warm-up pass, prints "ready", then runs one pass per stdin line ("pass" or
"traced") and answers each with a JSON line holding its wall time.  Every
output is checked and must equal the warm-up output, traced or not.  At
end of input it writes a JSON record (attempts, failures, items per pass,
per-layer metrics of the traced passes) to RESULT, and the spans of the
traced passes to .perfbench/WORKLOAD-seedSEED-spans.json.
"""
import json
import sys
import time
import traceback
from pathlib import Path

import checkout


def _timed_pass(workload, tracer=None):
    """One pass: (wall seconds, output or None, failure messages)."""
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        out = workload.run_pass()
    except Exception:  # a failed pass is counted and reported, not fatal
        out = None
        failures = [traceback.format_exc(limit=3)]
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    if out is not None:
        try:
            failures = workload.check(out)
        except Exception:
            failures = [traceback.format_exc(limit=3)]
    return wall, out, failures


def serve(workload, result_path: Path, spans_path: Path) -> None:
    import tracing
    from workloads import same_output

    attempted, failures = 1, []
    _, reference, fails = _timed_pass(workload)  # warm-up: checked, not timed
    failures += fails
    tracer = tracing.Tracer()
    traced_spans = []
    print("ready", flush=True)
    for k, line in enumerate(sys.stdin):
        traced = line.strip() == "traced"
        if traced:
            tracer.spans, tracer.run_id = [], f"{workload.name}-{workload.seed}-pass{k}"
        wall, out, fails = _timed_pass(workload, tracer if traced else None)
        attempted += 1
        if out is not None and reference is not None and not same_output(reference, out):
            fails = fails + [f"{line.strip()} pass {k}: output differs from the warm-up pass"]
        failures += fails
        if traced:
            traced_spans.append(tracer.spans)
        print(json.dumps({"wall": wall, "traced": traced}), flush=True)
    record = {"attempted": attempted, "failures": failures,
              "items": None if reference is None else workload.items(reference)}
    if traced_spans:
        record["span_metrics"] = tracing.span_metrics(traced_spans)
        spans_path.write_text(json.dumps([s for spans in traced_spans for s in spans]))
    result_path.write_text(json.dumps(record))


def main(argv) -> int:
    mode, name, seed, scale, work = argv[:5]
    checkout.use_source()
    import spptag.cli  # noqa: F401  every CLI call pays this import
    from workloads import WORKLOADS

    workload = WORKLOADS[name](int(seed), float(scale), Path(work))
    if mode == "serve":
        serve(workload, Path(argv[5]), checkout.WORK / f"{name}-seed{seed}-spans.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
