#!/usr/bin/env python3
"""Build and run the sckl benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
sckl libraries and the benchmark with CMake into .bench_build/; later calls
only check that the build is current. The benchmark's stdout is passed
through; its last line is the JSON result, whose metric names and units are
checked against BENCHMARK.json before the script exits 0.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
HERE = os.path.dirname(os.path.abspath(__file__))
# Every pool the program sizes itself is pinned; see perfbench/README.md.
THREADS = "2"


def build(target):
    """Configures (first time) and builds `target`; build output goes to
    stderr. Returns the path of the built binary."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            sys.exit(1)
    return os.path.join(BUILD_DIR, target)


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    env = dict(os.environ, SCKL_THREADS=THREADS)
    if args.selftest:
        binary = build("perfbench_selftest")
        return subprocess.run([binary], env=env).returncode
    if not args.workload:
        parser.error("--workload is required")

    binary = build("perfbench")
    done = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, env=env, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        sys.stderr.write("perfbench: %s exited with %d\n"
                         % (args.workload, done.returncode))
        return 1
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(args.trace)
    if got != want:
        sys.stderr.write("perfbench: metrics differ from BENCHMARK.json: "
                         "%s\n" % sorted(set(got.items()) ^ set(want.items())))
        return 1
    sys.stdout.write(done.stdout if done.stdout.endswith("\n")
                     else done.stdout + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
