"""Paired benchmark runs of one base checkout against other checkouts of it.

    python3 tools/lever_audit.py --rev REV --work DIR --out FILE.json
        [--seeds 3151-3160] [--seconds 32]
        --workload NAME=COPY[,COPY...] [--workload ...]
        [--lever NAME=PATCH ...] [--copy NAME=REV ...] [--label L --records DIR]

The base checkout is `git archive REV`, named "base".  Each --lever NAME is
that archive with PATCH applied (git apply): one speed lever reverted to the
code it replaced.  Each --copy NAME is `git archive` of another revision.
For every seed, one round runs perfbench/run.py --trace 0 once in the base
and once in each copy the workload names, in place, the base first in even
rounds and last in odd ones, so the pairs (base, copy) at one seed are
alternating and run on the same host in one sitting.

FILE.json holds every run's end-to-end metrics and, per (workload, copy), the
pairs of items_per_s, the base's wins, both medians, the base's interquartile
range, and the verdict of the standing rule: the base keeps what the copy
lacks only if it wins 9 of 10 pairs (scaled to the number of pairs) and its
median beats the copy's by more than the base's IQR.  A lever also gets its
lines: those its patch removes from the base and adds, each split into code,
docstring-or-comment and blank (tools/linecount.py).  With --label, each
run's perfbench record is copied to DIR/BENCH_<L>_<workload>_<seed>_<copy>.json
(no suffix for a copy named "change").  FILE.json is rewritten after every run.
"""
import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import linecount  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "wall_s", "items_per_s", "cli_s", "peak_rss_mb")


def archive(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True,
                         check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def patch_lines(patch: str, base: Path, copy: Path) -> dict:
    """Lines the patch removes from base and adds in copy, by kind."""
    removed, added = dict.fromkeys(linecount.KINDS, 0), dict.fromkeys(linecount.KINDS, 0)
    kinds = {}
    old_no = new_no = 0
    path = None
    for line in patch.splitlines():
        if line.startswith("+++ b/"):
            path = line[6:]
            kinds = {"-": linecount.classify((base / path).read_text()),
                     "+": linecount.classify((copy / path).read_text())}
        elif line.startswith("@@"):
            old_no, new_no = (int(n) for n in re.findall(r"[-+](\d+)", line)[:2])
        elif path and line[:1] == "-" and not line.startswith("---"):
            removed[kinds["-"][old_no - 1]] += 1
            old_no += 1
        elif path and line[:1] == "+":
            added[kinds["+"][new_no - 1]] += 1
            new_no += 1
        elif path and line[:1] == " ":
            old_no, new_no = old_no + 1, new_no + 1
    net = {k: removed[k] - added[k] for k in linecount.KINDS}
    return {"removed": removed, "added": added, "net": net, "net_total": sum(net.values())}


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    record_path = checkout / ".perfbench" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(record_path.read_text()) if proc.returncode == 0 else None
    return {"returncode": proc.returncode, "run_s": round(time.monotonic() - start, 1),
            "values": record and record["values"], "failures": record and record["failures"],
            "record_path": str(record_path.relative_to(checkout.parent)),
            "stderr": proc.stderr[-800:] if proc.returncode else ""}


def summarize(runs, copies_of, levers) -> dict:
    out = {}
    for workload, copies in copies_of.items():
        base = {r["seed"]: r["values"] for r in runs
                if r["workload"] == workload and r["copy"] == "base" and r["values"]}
        for name in copies:
            other = {r["seed"]: r["values"] for r in runs
                     if r["workload"] == workload and r["copy"] == name and r["values"]}
            seeds = sorted(base.keys() & other.keys())
            if not seeds:
                continue
            pairs = [(base[s]["items_per_s"], other[s]["items_per_s"]) for s in seeds]
            wins = sum(b > o for b, o in pairs)
            med_b, med_o = (statistics.median(p[i] for p in pairs) for i in (0, 1))
            q1, q3 = quartiles([p[0] for p in pairs]) if len(pairs) > 1 else (med_b, med_b)
            row = {"workload": workload, "seeds": seeds, "pairs_items_per_s": pairs,
                   "base_wins": wins, "n_pairs": len(pairs),
                   "median_items_per_s": {"base": med_b, name: med_o},
                   "base_iqr_items_per_s": q3 - q1,
                   "base_pays": wins >= 0.9 * len(pairs) and med_b - med_o > q3 - q1,
                   "medians": {m: {"base": statistics.median(base[s][m] for s in seeds),
                                   name: statistics.median(other[s][m] for s in seeds)}
                               for m in METRICS}}
            if name in levers:
                row["lines"] = levers[name]
            out[f"{workload}:{name}"] = row
    return out


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rev", required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seeds", default="3151-3160")
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--lever", action="append", default=[])
    ap.add_argument("--copy", action="append", default=[])
    ap.add_argument("--label")
    ap.add_argument("--records", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    copies_of = {w: c.split(",") for w, _, c in (spec.partition("=") for spec in args.workload)}

    base = args.work / "base"
    archive(args.rev, base)
    levers = {}
    for spec in args.lever:
        name, _, patch = spec.partition("=")
        shutil.copytree(base, args.work / name)
        subprocess.run(["git", "apply", str(Path(patch).resolve())], cwd=args.work / name,
                       check=True)
        levers[name] = {"patch": patch,
                        **patch_lines(Path(patch).read_text(), base, args.work / name)}
    for spec in args.copy:
        name, _, rev = spec.partition("=")
        archive(rev, args.work / name)

    runs = []
    head = {"rev": args.rev, "seconds": args.seconds, "seeds": seeds,
            "metric": "items_per_s", "rule": "base wins >= 9 of 10 pairs and "
            "median(base) - median(copy) > IQR(base)"}
    for workload, copies in copies_of.items():
        for k, seed in enumerate(seeds):
            order = ["base", *copies]
            for name in order if k % 2 == 0 else order[::-1]:
                run = {"workload": workload, "seed": seed, "copy": name,
                       **bench(args.work / name, workload, seed, args.seconds)}
                if args.label and run["values"]:
                    suffix = "" if name == "change" else f"_{name}"
                    shutil.copy(args.work / run["record_path"], args.records /
                                f"BENCH_{args.label}_{workload}_{seed}{suffix}.json")
                runs.append(run)
                print(json.dumps({k: run[k] for k in ("workload", "seed", "copy", "run_s")}
                                 | {"items_per_s": run["values"] and run["values"]["items_per_s"]}),
                      flush=True)
                args.out.write_text(json.dumps(
                    {**head, "summary": summarize(runs, copies_of, levers), "levers": levers,
                     "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
