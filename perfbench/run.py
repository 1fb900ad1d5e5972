#!/usr/bin/env python3
"""Builds the session benchmark from source and runs one workload.

Usage, from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (the repository's libraries
plus the session_bench driver, Release) under $CARGO_TARGET_DIR, default
.bench_build; later calls only re-check the build. The driver's standard
output is passed through, so the last line is the JSON result. Traced runs
also write a Chrome trace under <build dir>/traces/.

Extra flags for the self-test: --scale tiny (short rounds) and
--inject-fault (corrupts the correctness ledger; the run must fail).
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_LIMIT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no src/ tree beside perfbench/: run from a full source checkout")
        sys.exit(2)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "--target", "session_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "session_bench")


def git_commit():
    # Only a checkout that is itself a git repository names its commit; git
    # is not asked to search parent directories.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    p.add_argument("--scale", choices=["full", "tiny"], default="full")
    p.add_argument("--inject-fault", action="store_true")
    args = p.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_dir, "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scale", args.scale, "--git-commit", git_commit()]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    if args.inject_fault:
        cmd.append("--inject-fault")
    sys.stdout.flush()
    start = time.monotonic()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"driver still running after {TIME_LIMIT_S}s; killed")
        return 1
    if code != 0:
        log(f"driver exited {code} after {time.monotonic() - start:.1f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
