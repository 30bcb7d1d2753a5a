#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the repository's library through the root
CMakeLists.txt) into .bench_build/ at RelWithDebInfo; later calls only let
the build tool confirm it is up to date. Build output goes to stderr, so the
last line of stdout is the benchmark's result line, which is also kept
under .bench_results/. The exit code is the benchmark binary's.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
BUILD_TYPE = "RelWithDebInfo"
BUILD_JOBS = "4"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no CMakeLists.txt at %s; run from a full checkout" % ROOT)
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.isfile(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", *generator, "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "reptile_perfbench",
         "--parallel", BUILD_JOBS],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "reptile_perfbench")


def result_name(args):
    def value(flag):
        return args[args.index(flag) + 1] if flag in args[:-1] else "none"
    safe = "".join(c for c in "%s-seed%s-trace%s" % (
        value("--workload"), value("--seed"), value("--trace")) if c.isalnum() or c in "-_.")
    return os.path.join(RESULTS_DIR, safe + ".json")


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    args = sys.argv[1:]
    try:
        run = subprocess.run([binary, *args], stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: the benchmark ran longer than %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    lines = run.stdout.strip().splitlines()
    if run.returncode == 0 and lines:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(result_name(args), "w") as out:
            out.write(lines[-1] + "\n")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
