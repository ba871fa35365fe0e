#!/usr/bin/env python3
"""Smoke test of the benchmark's interface. Run from the root of a checkout:

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it makes one short untraced and one
short traced run and checks the result line: exactly the keys correct,
attempted, failed and metrics; a correct run with no failed operation; and
exactly the end-to-end (untraced) or per-layer (traced) metrics, with the
units BENCHMARK.json gives. It then checks that the benchmark, run in a
directory that holds only BENCHMARK.json and perfbench/, fails without
printing a result. Exits non-zero on the first violation.
"""
import json
import os
import shutil
import subprocess
import sys

SECONDS = "1"


def check(cond, message):
    if not cond:
        print("smoke_test: FAIL: " + message, file=sys.stderr)
        sys.exit(1)


def run(cwd, workload, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed",
           "7", "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(root, workload, trace)
            label = "%s --trace %d" % (workload, trace)
            check(proc.returncode == 0,
                  "%s exited %d:\n%s" % (label, proc.returncode,
                                         proc.stderr[-2000:]))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  "%s: result keys %s" % (label, sorted(result)))
            check(result["correct"] is True, label + ": not correct")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  "%s: attempted %s failed %s" % (label, result["attempted"],
                                                  result["failed"]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace],
                  "%s: metrics differ from BENCHMARK.json: %s" % (
                      label, sorted(set(got) ^ set(expected[trace]))))
            print("smoke_test: ok " + label)

    bare = os.path.join(root, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(root, "perfbench"),
                    os.path.join(bare, "perfbench"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    check(proc.returncode != 0 and proc.stdout.strip() == "",
          "bare directory: exit %d, stdout %r" % (proc.returncode,
                                                  proc.stdout[-200:]))
    shutil.rmtree(bare)
    print("smoke_test: ok bare directory fails without a result")


if __name__ == "__main__":
    main()
