#!/usr/bin/env python3
"""Runs workloads over several seeds and checks the spread of each metric.

Usage, from the repository root:

  python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                              [--save runs.json] [--compare runs.json]

For each workload it runs perfbench/run.py once per seed (untraced, for
BENCHMARK.json's run_seconds) and reports, for every end-to-end metric, the
median and the distance between the first and third quartile as a share of
the median (statistics.quantiles(values, n=4)). A spread above the metric's
bound fails the check (setup_s is exempt: only its median is compared);
one above a third of the bound is flagged as not yet steady. --compare
checks that each median is not worse than a saved set's by more than the
bound. Exits non-zero when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse(metric, old, new):
    """Relative worsening of `new` against `old` (positive = worse)."""
    if old == 0:
        return 0.0
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--save")
    p.add_argument("--compare")
    args = p.parse_args()

    runs = {}
    for w in args.workloads.split(","):
        runs[w] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs[w].append(run_once(w, seed, args.seconds))
            print(f"{w} seed {seed} done", file=sys.stderr, flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)
    baseline = None
    if args.compare:
        with open(args.compare) as f:
            baseline = json.load(f)

    ok = True
    print(f"{'workload':18} {'metric':20} {'median':>14} {'iqr/med':>8} "
          f"{'bound':>6}  verdict")
    for w, values in runs.items():
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            series = [v[name] for v in values]
            med = statistics.median(series)
            q = statistics.quantiles(series, n=4) if len(series) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            verdict = "steady"
            if name != "setup_s" and spread > bound:
                verdict, ok = "FAIL spread", False
            elif name != "setup_s" and spread > bound / 3:
                verdict = "noisy"
            if baseline is not None and w in baseline:
                old = statistics.median(v[name] for v in baseline[w])
                change = worse(metric, old, med)
                verdict += f", vs saved {change:+.3f}"
                if change > bound:
                    verdict, ok = verdict + " FAIL", False
            print(f"{w:18} {name:20} {med:14.6g} {spread:8.4f} {bound:6.2f}  "
                  f"{verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
