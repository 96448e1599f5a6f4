#!/usr/bin/env python3
"""End-to-end benchmark of the dbs library.

Builds the perfbench binary from source (perfbench/CMakeLists.txt pulls in
../src) and runs one workload:

  python3 perfbench/run.py --workload bscure-2d --seed 1 --seconds 10 --trace 0

Workloads: bscure-2d, outlier-3d, serve-mix. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer metrics of a traced run paired with an
untraced one. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the exit code is non-zero when
any output, pass-count or trace check fails.

  python3 perfbench/run.py --selftest

runs every workload on tiny inputs in both modes and checks that each run is
correct, which includes that the traced runs (timing wrappers in place)
produce byte-identical outputs to the untraced ones.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; generated datasets and trace files go to its work/ folder.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bscure-2d", "outlier-3d", "serve-mix")


def run_timeout(seconds):
    """Set-up, warm-up and the traced runs' extra work come on top of the
    measured phase; a run that takes longer than this is taken as hung."""
    return 120 + 3 * seconds


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds perfbench; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found: expected src/CMakeLists.txt beside perfbench/")
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout must end with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(out, "perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else "unavailable"


def run(binary, workload, seed, seconds, trace, size, capture=False):
    workdir = os.path.join(build_dir(), "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size,
           "--workdir", workdir, "--git-sha", git_sha()]
    timeout = run_timeout(seconds)
    try:
        return subprocess.run(cmd, timeout=timeout, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {timeout:g} s")
        return None


def selftest(binary):
    """Tiny inputs, every workload, both modes; all runs must be correct.

    Each run checks its own outputs, pass counts and trace gate; a traced
    run also checks that its wrapped calls reproduce the untraced bytes.
    """
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run(binary, workload, 7, 0.5, trace, "tiny", capture=True)
            verdict = "FAIL"
            if result is not None and result.returncode == 0:
                line = json.loads(result.stdout.strip().splitlines()[-1])
                if line["correct"]:
                    verdict = "ok"
            ok = ok and verdict == "ok"
            print(f"selftest {workload} trace={trace}: {verdict}")
    print("selftest: traced and untraced outputs byte-identical" if ok
          else "selftest: FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    if args.selftest:
        return selftest(binary)
    result = run(binary, args.workload, args.seed, args.seconds, args.trace,
                 args.size)
    return 1 if result is None else result.returncode


if __name__ == "__main__":
    sys.exit(main())
