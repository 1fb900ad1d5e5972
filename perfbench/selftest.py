#!/usr/bin/env python3
"""Tiny-size self-test of the session benchmark.

Usage, from the repository root:

  python3 perfbench/selftest.py

For every workload of the driver it runs perfbench/run.py at --scale
tiny, untraced and traced, and asserts that the run is correct, that the
result names exactly the end-to-end (untraced) or per-layer (traced)
metrics with their units, and that the human-readable table prints each of
them with its unit. It then corrupts the correctness ledger
(--inject-fault) on every workload and asserts that the run fails: non-zero
exit, "correct": false, and a FAILED line. Exits non-zero on any failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every workload the driver knows, including the two BENCHMARK.json leaves
# out of its gated set.
WORKLOADS = ["disjoint_sessions", "hot_constraint", "history_default",
             "wire_durable"]


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", trace,
           "--scale", "tiny", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines, out.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    for w in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, lines, err = run(w, trace)
            tag = f"{w} --trace {trace}"
            check(code == 0 and lines, f"{tag}: exit {code}\n{err}")
            if code != 0 or not lines:
                continue
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{tag}: {lines[-1]}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            check(got == want, f"{tag}: metrics/units differ: "
                  f"missing {sorted(set(want) - set(got))}, "
                  f"extra {sorted(set(got) - set(want))}, "
                  f"units {[n for n in want if n in got and got[n] != want[n]]}")
            table = {l.split()[1]: l.split()[-1] for l in lines
                     if l.startswith("metric ")}
            check(table == want, f"{tag}: printed table differs from {key}")
        code, lines, _ = run(w, "0", "--inject-fault")
        broken = json.loads(lines[-1]) if lines else {}
        check(code != 0 and broken.get("correct") is False
              and any(l.startswith("FAILED ") for l in lines),
              f"{w}: corrupted ledger was not caught (exit {code})")
        print(f"{w}: checked", file=sys.stderr, flush=True)

    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "FAILED" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
