#!/usr/bin/env python3
"""Builds and runs the yieldhide benchmark (yhbench).

Usage, from the root of the repository:

    python3 yhbench/run.py --workload chase_rr --seed 1 --seconds 30 --trace 0

Configures and builds yhbench/ (a CMake project over ../src) in Release
mode under $CARGO_TARGET_DIR/yhbench, or .bench_build/yhbench when the
variable is unset, then runs the benchmark binary with the same flags. The
binary prints a metric table and, as the last line of standard output, one
JSON object: {"correct", "attempted", "failed", "metrics"}. The traced run
(--trace 1) also writes its spans next to the build.

Exits non-zero without printing a result when the build fails (for
example, when the yieldhide sources are not next to this directory) or the
arguments are malformed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("chase_rr", "serve_obs", "adapt_drift")


def build(build_dir):
    """Configures and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "yhbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "yhbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "yhbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print("yhbench: build failed: %s" % error, file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", os.path.join(
            build_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
