"""spptag benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (perfbench/workloads.py): desk_sim, tag_analysis, interference,
high_rate.  BENCHMARK.json lists the first three; high_rate (the detector
dead-time path at a 1 MHz pair rate) runs only when named, since four
workloads leave too little run time each for steady figures.  spptag is a
batch tool with one user who waits for each result, so the load is a closed
loop with one client: one process runs at a time.
Inputs are made from --seed; the program sees only config objects, a tag
file and data arrays.

A warm child (child.py serve) imports the program, builds the inputs and
runs one checked warm-up pass.  Then, for S seconds and at least MIN_ROUNDS
rounds, each round runs passes in the warm child and one sample of each
fresh-process measurement (set-up only every other round: set-up time is
held to its median, not to a run-to-run spread, so its share of the run goes
to the passes and CLI runs).  Interleaving spreads every metric's samples
over the whole run, so a slow spell of the machine weighs on all of them
alike.

--trace 0 reports the end-to-end metrics, each a median over the run:
  setup_s      fresh interpreter, `import spptag.cli`, build config and inputs
  wall_s       one pass in the warm child
  items_per_s  tags produced or analysed per pass (HOM and spectrum points
               for interference) over wall_s
  cli_s        the workload's CLI command as a user runs it
  peak_rss_mb  peak RSS of the warm child, from the resource usage the
               kernel returns when the parent reaps it (wait4)
--trace 1 reports the per-layer metrics of tracing.py: self times and counts
per spptag module from traced passes, import times from `python -X
importtime`, and trace.overhead_s, the median traced minus untraced pass.
Every traced output must equal the untraced one.

Every pass output and CLI result is checked (workloads.py); exceptions,
nonzero exits and failed checks count in `failed`.  The last stdout line is
the JSON result {correct, attempted, failed, metrics}.  A full record with
run metadata goes to .perfbench/<workload>-seed<N>-trace<T>.json.  The run
exits 2 without a result when the checkout holds no program source.
"""
import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checkout

CHILD = str(checkout.ROOT / "perfbench" / "child.py")
MIN_ROUNDS = 3
TIME_LIMIT_S = 170.0  # a hung child must not outlive the caller's limit
IMPORT_METRICS = {f"import.{m}.s": m for m in
                  ("spptag.cli", "scipy.special", "scipy.optimize", "scipy.integrate")}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "cli_s": "s",
                    "peak_rss_mb": "MB"}


class Run:
    """Processes started by one benchmark run, with their failures."""

    def __init__(self, workload, work):
        self.workload = workload
        self.work = work
        self.env = checkout.child_env()
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.attempted = 0
        self.failures = []

    def timeout(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def call(self, argv, what):
        """Run one process to its end: (wall seconds, completed process or None)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=self.env, cwd=checkout.ROOT, capture_output=True,
                                  text=True, timeout=self.timeout())
        except subprocess.TimeoutExpired:
            self.failures.append(f"{what}: timed out")
            return time.perf_counter() - start, None
        wall = time.perf_counter() - start
        if proc.returncode:
            self.failures.append(f"{what}: exit {proc.returncode}: {proc.stderr.strip()[-800:]}")
            return wall, None
        return wall, proc

    def cli(self, args, what):
        return self.call([sys.executable, "-m", "spptag.cli", *args], what)

    def setup_sample(self, k):
        w = self.workload
        wall, _ = self.call([sys.executable, CHILD, "setup", w.name, str(w.seed), str(w.scale),
                             str(self.work)], f"setup {k}")
        return wall

    def cli_sample(self, k):
        wall, proc = self.cli(self.workload.cli_argv(), f"cli {k}")
        if proc is not None:
            try:
                self.failures += [f"cli {k}: {f}" for f in self.workload.check_cli(proc.stdout)]
            except Exception as exc:  # an unreadable CLI result is a failed check
                self.failures.append(f"cli {k}: check raised {exc!r}")
        return wall

    def import_sample(self, k):
        import tracing

        _, proc = self.call([sys.executable, "-X", "importtime", "-c", "import spptag.cli"],
                            f"importtime {k}")
        return None if proc is None else tracing.import_times(proc.stderr, IMPORT_METRICS.values())


class WarmChild:
    """The pass server (child.py serve): one warm process, one pass per request."""

    def __init__(self, run):
        w = run.workload
        self.run = run
        self.result_path = run.work / "serve.json"
        self.log_path = run.work / "serve.log"
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, CHILD, "serve", w.name, str(w.seed), str(w.scale), str(run.work),
             str(self.result_path)],
            env=run.env, cwd=checkout.ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.log, text=True)
        self.watchdog = threading.Timer(run.timeout(), self.proc.kill)
        self.watchdog.start()
        self.alive = self.proc.stdout.readline().strip() == "ready"

    def run_pass(self, traced=False):
        """Wall time [s] of one pass, or None once the child is gone."""
        if not self.alive:
            return None
        try:
            self.proc.stdin.write("traced\n" if traced else "pass\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except BrokenPipeError:
            line = ""
        self.alive = bool(line)
        return json.loads(line)["wall"] if line else None

    def finish(self):
        """End the child: (its JSON record or None, its peak RSS [MB])."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self.proc.stdout.read()
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.watchdog.cancel()
        self.log.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        rss_mb = usage.ru_maxrss / 1024
        if self.proc.returncode or not self.result_path.is_file():
            self.run.attempted += 1
            self.run.failures.append(f"pass child: exit {self.proc.returncode}: "
                                     f"{self.log_path.read_text()[-800:]}")
            return None, rss_mb
        record = json.loads(self.result_path.read_text())
        self.run.attempted += record["attempted"]
        self.run.failures += record["failures"]
        return record, rss_mb


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def tail_percentile(walls):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(walls)
    if n <= 10:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, sorted(walls)[max(0, math.ceil(pct / 100 * n) - 1)], n


def metadata(seed):
    import numpy
    import scipy

    sha = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=checkout.ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(checkout.ROOT):
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(checkout.SRC.rglob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git_sha": sha,
            "seed": seed, "src_lines": src_lines}


def end_to_end(run, child, seconds):
    walls, setup, cli = [], [], []
    per_round = 1
    deadline = time.monotonic() + seconds
    while len(cli) < MIN_ROUNDS or time.monotonic() < deadline:
        walls += [child.run_pass() for _ in range(per_round)]
        if len(cli) % 2 == 0:
            setup.append(run.setup_sample(len(setup)))
        cli.append(run.cli_sample(len(cli)))
        if len(cli) == 1 and walls[0]:
            # give the warm passes about the time share of the CLI runs
            per_round = max(1, round(cli[0] / walls[0]))
    record, rss_mb = child.finish()
    walls = [w for w in walls if w is not None]
    wall_s = _median(walls)
    items = record["items"] if record else None
    values = {"setup_s": _median(setup), "wall_s": wall_s,
              "items_per_s": items / wall_s if items and wall_s else None,
              "cli_s": _median(cli), "peak_rss_mb": rss_mb}
    info = {"walls": walls, "setup": setup, "cli": cli, "items_per_pass": items,
            "wall_tail": tail_percentile(walls)}
    return values, dict(END_TO_END_UNITS), info


def per_layer(run, child, seconds):
    import tracing

    walls, traced_walls, imports = [], [], []
    deadline = time.monotonic() + seconds
    while len(imports) < MIN_ROUNDS or time.monotonic() < deadline:
        walls.append(child.run_pass())
        traced_walls.append(child.run_pass(traced=True))
        imports.append(run.import_sample(len(imports)))
    record, _ = child.finish()
    walls = [w for w in walls if w is not None]
    traced_walls = [w for w in traced_walls if w is not None]
    values = dict(record["span_metrics"]) if record else dict.fromkeys(tracing.SPAN_METRICS)
    units = {m: unit for m, (unit, _) in tracing.SPAN_METRICS.items()}
    for metric, module in IMPORT_METRICS.items():
        values[metric] = _median([s[module] for s in imports if s is not None])
        units[metric] = "s"
    overhead = None
    if walls and traced_walls:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
    values["trace.overhead_s"] = overhead
    units["trace.overhead_s"] = "s"
    return values, units, {"untraced_walls": walls, "traced_walls": traced_walls}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for the smoke test")
    args = parser.parse_args(argv)
    try:
        checkout.use_source()
    except checkout.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}")
    work = checkout.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.scale, work)
        run = Run(workload, work)
        for k, cli_args in enumerate(workload.prepare()):
            run.cli(cli_args, f"prepare {k}")
        child = WarmChild(run)
        measure = per_layer if args.trace else end_to_end
        values, units, info = measure(run, child, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = metadata(args.seed)
    failed = len(run.failures)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} scale={args.scale:g}")
    print("meta " + json.dumps(meta))
    for failure in run.failures:
        print("FAILED " + failure.strip().replace("\n", "\n       "))
    print(f"fail_frac {failed}/{run.attempted} = {failed / run.attempted:.4g}")
    for metric, value in values.items():
        shown = "absent" if value is None else f"{value:.6g} {units[metric]}"
        print(f"  {metric:40s} {shown}")
    if info.get("wall_tail"):
        pct, value, n = info["wall_tail"]
        print(f"  wall_s p{pct} = {value:.6g} s over {n} passes (information only)")
    record_path = checkout.WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(
        {"workload": args.workload, "seconds": args.seconds, "scale": args.scale,
         "meta": meta, "failures": run.failures,
         "absent": [m for m, v in values.items() if v is None],
         "values": values, "units": units, "info": info}, indent=1))
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              # the result line needs a number; a metric whose span never fired
              # is printed as absent above and listed in the record, and is 0 here
              "metrics": {m: {"value": 0 if v is None else v, "unit": units[m]}
                          for m, v in values.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
