#!/usr/bin/env python3
"""Build and run the FADEWICH serving-path benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds the
library sources in src/ together with the benchmark (CMake, Release) into
.bench_build/perfbench; later calls reuse that build.  The benchmark
binary prints every metric and, as its last stdout line, one JSON object
with keys correct, attempted, failed and metrics.  The exit code is the
binary's: nonzero when an output gate failed or the build failed.

--self-test builds and runs the tests of the benchmark's own code.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("campus_replay", "campus_live", "fleet_lockstep")


def build(targets):
    """Configure (once) and build the given targets; output to stderr."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        if not build(["perfbench_test"]):
            return 1
        test = os.path.join(BUILD, "perfbench_test")
        if not os.path.isfile(test):
            print("perfbench: GoogleTest not found; no self-test binary",
                  file=sys.stderr)
            return 1
        return subprocess.run([test]).returncode

    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not build(["perfbench"]):
        return 1
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
