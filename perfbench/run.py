#!/usr/bin/env python3
"""Builds and runs the dproc end-to-end benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper8 --seed 1 --seconds 30 --trace 0

The harness binary is compiled from the checkout's own sources into
.bench_build/perfbench (the first run builds it). An untraced run starts the
harness PROCESSES times in a row, each a fresh process measuring for an equal
share of --seconds. The result combines them:

- wall_us_per_node_s is the fastest process (each process reports its own
  fastest slice), and setup_s and peak_rss_mb are the median over the
  processes;
- every other metric is a count or a virtual time, which must be identical
  in every process for one seed, so the run also checks determinism across
  processes;
- attempted and failed are summed.

Other tenants of the host slow every workload together, in episodes of
seconds to a minute, by up to half; the fastest of several processes spread
over the run is the least disturbed reading of the simulator's own cost.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}. The exit code is non-zero when a correctness check fails. With
--trace 1 one harness process runs, and its wall-clock spans go to
.bench_build/traces/<workload>-seed<n>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
PROCESSES = 4
# Host-time metrics, which differ between processes; see combine().
FASTEST_METRIC = "wall_us_per_node_s"
MEDIAN_METRICS = {"setup_s", "peak_rss_mb"}
PROCESS_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(root):
    for needed in ("src/CMakeLists.txt", "include/dproc/dproc.hpp",
                   "perfbench/CMakeLists.txt", "perfbench/main.cpp"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail("missing %s: run from the root of a dproc checkout" % needed)
    build_dir = os.path.join(root, BUILD_DIR)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "dproc_perfbench")


def run_harness(cmd):
    """Runs one harness process; returns (exit code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("harness exceeded %d s" % PROCESS_TIMEOUT_S, code=1)
    return proc.returncode, out


def combine(results):
    """Merges the per-process results; see the module docstring."""
    merged = {"correct": all(r["correct"] for r in results),
              "attempted": sum(r["attempted"] for r in results),
              "failed": sum(r["failed"] for r in results),
              "metrics": {}}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name == FASTEST_METRIC:
            value = min(values)
        elif name in MEDIAN_METRICS:
            value = statistics.median(values)
        else:
            value = first["value"]
            if any(v != value for v in values):
                print("perfbench: check failed: %s differs between processes "
                      "of one seed: %s" % (name, values), file=sys.stderr)
                merged["correct"] = False
        merged["metrics"][name] = {"value": value, "unit": first["unit"]}
    return merged


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as err:
        fail("build failed: %s" % err, code=1)

    processes = 1 if args.trace else PROCESSES
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / processes),
           "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(root, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]

    results = []
    for _ in range(processes):
        code, out = run_harness(cmd)
        if code != 0:
            # A failed check: pass the harness's own report through.
            sys.stdout.write(out)
            sys.exit(code)
        results.append(json.loads(out.strip().splitlines()[-1]))
    merged = combine(results)
    print(json.dumps(merged))
    sys.exit(0 if merged["correct"] else 1)


if __name__ == "__main__":
    main()
