#!/usr/bin/env python3
"""Builds misbench from the checkout's sources and runs one workload.

    python3 misbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout. The build lives in .bench_build/misbench;
generated inputs go to .bench_build/misbench-work and are removed after
the run. The last line of stdout is the result JSON; build output and the
human-readable metric table go to stderr.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "misbench")
WORK = os.path.join(ROOT, ".bench_build", "misbench-work")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("misbench: no src/ next to misbench/; run from a checkout of the repository")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(len(os.sched_getaffinity(0)))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target", "misbench"])
    return os.path.join(BUILD, "misbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"misbench: build failed: {e}")
    os.makedirs(WORK, exist_ok=True)
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace), "--work", WORK]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
