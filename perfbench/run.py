#!/usr/bin/env python3
"""Build and run la1kit's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the repository root. It compiles the driver and la1kit's
sources with CMake into $CARGO_TARGET_DIR (default .bench_build), runs one
workload in one process, and prints the driver's result as the last line of
standard output:

    {"correct": true, "attempted": 30, "failed": 0, "metrics": {...}}

The driver prints metric values by name; this script attaches the units
from BENCHMARK.json and checks the names against it. With --trace 0 the
metrics are BENCHMARK.json's end-to-end list; with --trace 1 they are its
per-layer list, and the spans of the traced rounds are written as Chrome
trace-event JSON under <build dir>/traces/.
Any failure to build or run exits non-zero without printing a result.
`--workload all` runs every workload in turn and prints each metric with its
unit, then every result line.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("flow_1bank", "symbolic_1bank", "abv_batch")
# A run measures --seconds of rounds; set-up, the traced run's probes and
# the final cross-checks come on top. Past this the run is stuck.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, path, "perfbench")


def run_checked(cmd, timeout):
    """Runs cmd with its output sent to stderr; stops it on timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    if code != 0:
        fail(f"exit status {code}: {' '.join(cmd)}")


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, os.cpu_count() or 1))
    run_checked(["cmake", "--build", out, "-j", jobs, "--target",
                 "perfbench_driver"], BUILD_TIMEOUT_S)
    return os.path.join(out, "perfbench_driver")


def with_units(values, trace):
    """Gives the driver's name -> value map BENCHMARK.json's units.

    With --trace 0 every end-to-end metric must be present. With --trace 1
    a per-layer metric of a layer the workload does not call reads 0. A
    name BENCHMARK.json does not list is an error either way.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    unlisted = sorted(set(values) - {m["name"] for m in listed})
    missing = sorted(m["name"] for m in listed if m["name"] not in values)
    if unlisted or (missing and not trace):
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unlisted {unlisted}")
    non_finite = sorted(n for n, v in values.items() if v is None)
    if non_finite:
        fail(f"metrics without a finite value: {non_finite}")
    return {m["name"]: {"value": values.get(m["name"], 0.0),
                        "unit": m["unit"]} for m in listed}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds within 1..3600")

    driver = build(build_dir())
    if args.workload != "all":
        result = run_workload(driver, args.workload, args)
        print(json.dumps(result))
        return
    results = [(w, run_workload(driver, w, args)) for w in WORKLOADS]
    for workload, result in results:
        for name, m in result["metrics"].items():
            print(f"{workload:15} {name:28} {m['value']:>16.6g} {m['unit']}")
    for workload, result in results:
        print(json.dumps({"workload": workload, **result}))


def run_workload(driver, workload, args):
    """Runs one workload; returns its checked result object."""
    cmd = [driver, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"driver exit status {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        fail("driver printed no result")
    result = json.loads(lines[-1])
    result["metrics"] = with_units(result["metrics"], args.trace)
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    return result


if __name__ == "__main__":
    main()
