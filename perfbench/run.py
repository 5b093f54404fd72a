#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload stack_stream --seed 1 --seconds 10 --trace 0

The benchmark binary is configured as part of the repository's own CMake
project (Release, without the repository's tests, benches and examples)
under $CARGO_TARGET_DIR, or .bench_build when that is unset, and brought
up to date on every run. Flags other than the four above (--size tiny,
--fault ...) go to the binary unchanged. Its standard output is passed
through; the last line is the JSON result. The exit code is the binary's:
0 only when every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build(build_root):
    """Configures and builds the benchmark; returns the binary."""
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail(f"no {required} in {ROOT}: the crowdselect sources are missing")
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    # Configured on every run: cheap with a warm cache, and a build tree
    # reused across commits then never misses a changed target list.
    run_logged(["cmake", "-S", ROOT, "-B", build_dir,
                "-DCMAKE_BUILD_TYPE=Release",
                "-DCMAKE_PROJECT_INCLUDE=" +
                os.path.join(HERE, "project_include.cmake"),
                "-DCROWDSELECT_BUILD_TESTS=OFF",
                "-DCROWDSELECT_BUILD_BENCHMARKS=OFF",
                "-DCROWDSELECT_BUILD_EXAMPLES=OFF"],
               log_path, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", build_dir, "--target",
                "crowdselect_perfbench", "-j", jobs], log_path,
               BUILD_TIMEOUT_S)
    binary = os.path.join(build_dir, "perfbench", "crowdselect_perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    binary = build(build_root)
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--workdir", os.path.join(build_root, "perfbench-run"),
           "--trace-dir", os.path.join(build_root, "perfbench-traces")] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark timed out after {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail(f"the benchmark's last line is not JSON (exit {proc.returncode})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the benchmark's result has the wrong keys")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
