#!/usr/bin/env python3
"""Builds the data-plane benchmark from source and runs one workload.

Run from the repository root:

    python3 bench/dataplane/run.py --workload ingest|serve|repair \
        --seed N --seconds S --trace 0|1

The first call configures bench/dataplane (which builds the repository's
library through the root CMakeLists) into $CARGO_TARGET_DIR/dataplane,
default .bench_build/dataplane; later calls rebuild incrementally. The
benchmark's output is passed through once its last line has been checked
against BENCHMARK.json: exactly its end-to-end metrics with --trace 0, its
per-layer metrics with --trace 1, each with the listed unit. Traced runs
also write their spans to <build dir>/traces/<workload>-<seed>.jsonl.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
WORKLOADS = ("ingest", "serve", "repair")


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, cwd=root, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "dataplane_bench", "-j", jobs],
                   cwd=root, stdout=sys.stderr, check=True,
                   timeout=BUILD_TIMEOUT_S)


def check_result(line, expected):
    """Returns an error string, or None when the result line matches."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last output line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int):
        return "failed must be a whole number"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        return f"metrics differ: missing {missing} extra {extra} units {units}"
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            return f"metric {name} has no numeric value"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src/hdfs/client.h", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found; run from the root of a dblrep checkout")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(root, target)),
                             "dataplane")
    try:
        build(root, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    command = [os.path.join(build_dir, "dataplane_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--spans-out",
                    os.path.join(traces, f"{args.workload}-{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 1)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode not in (0, 1):
        sys.stderr.write(run.stdout)
        fail(f"benchmark exited with {run.returncode}", run.returncode)
    error = check_result(lines[-1], expected)
    if error:
        sys.stderr.write(run.stdout)
        fail(f"result does not match BENCHMARK.json {section}: {error}", 1)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
