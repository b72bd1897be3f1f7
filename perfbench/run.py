#!/usr/bin/env python3
"""Builds and runs the FusionDB end-to-end benchmark.

    python3 perfbench/run.py --workload suite|dashboard --seed N \
        --seconds S --trace 0|1

Run from the repository root. The engine is built from source into
`.bench_build/` (Release, CMake + Ninja when available); the first run
compiles, later runs only re-check the build; build output is shown, on
stderr, only when a step fails. The last line of stdout is the benchmark's
JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The process exits non-zero, printing no result, when the sources are
missing, the build fails, the benchmark fails, or it runs out of time.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 160  # a run is due within 180 s, the build check included


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds only the benchmark target."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log(f"perfbench: {needed} not found under {ROOT}; "
                "run from a FusionDB checkout")
            return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["suite", "dashboard"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Plan verification is a debug tier; benchmarks run without it
    # (DESIGN.md §8.1).
    env = dict(os.environ, FUSIONDB_VERIFY_PLANS="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: no result within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: benchmark exited with code {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("perfbench: malformed result line")
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
