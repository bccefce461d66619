#!/usr/bin/env python3
"""Build and run the end-to-end control-stack benchmark on one workload.

Usage (from the root of a source tree):

    python3 bench/system/run.py --workload paper_mix --seed 1 \\
        --seconds 10 --trace 0

Configures the source tree's root with bench/system/hook.cmake, which
adds the benchmark target, and builds system_throughput into
$CARGO_TARGET_DIR/system, default .bench_build/system. It then runs
system_throughput for --seconds seconds. With --trace 0 it
reports the end-to-end metrics listed in BENCHMARK.json, with
--trace 1 the per-layer metrics. The last line of standard output is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Build output and diagnostics go to standard error. Exits 1 without a
result when the benchmark cannot be built or run, and 1 after the
result when a correctness check failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

# One run must end well inside the caller's 180-s limit.
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build system_throughput; return its path."""
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
        "system")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", ROOT, "-B", build_dir,
                        "-DCMAKE_PROJECT_quest_INCLUDE="
                        + os.path.join(HERE, "hook.cmake")],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "system_throughput", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "bench", "system", "system_throughput")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("run.py: build failed: %s" % err, file=sys.stderr)
        return 1

    cmd = [binary, "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%d" % args.seconds,
           "--trace=%d" % args.trace, "--check"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("run.py: benchmark did not finish: %s" % err,
              file=sys.stderr)
        return 1

    # Lines are "workload metric value unit".
    values = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == args.workload:
            values[parts[1]] = (parts[2], parts[3])
    if "attempted" not in values:
        print("run.py: benchmark printed no result (exit %d)"
              % proc.returncode, file=sys.stderr)
        return 1

    metrics = {}
    correct = proc.returncode == 0
    for m in wanted:
        if m["name"] not in values:
            print("run.py: metric %s missing" % m["name"],
                  file=sys.stderr)
            correct = False
            continue
        value, unit = values[m["name"]]
        metrics[m["name"]] = {"value": float(value), "unit": unit}
    result = {"correct": correct,
              "attempted": int(values["attempted"][0]),
              "failed": int(values["failed"][0]),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
