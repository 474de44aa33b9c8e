#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

Usage, from the root of a checkout:

    python3 cpebench/selftest.py

Runs every workload of BENCHMARK.json at tiny size, untraced and traced,
and checks that the result line has exactly the contract's keys, that
every metric BENCHMARK.json names is present with its unit and a finite
value (and no other metric is), and that all checks passed.  Then runs
one workload with a sabotaged expectation (an instruction count off by
one) and checks that the failure is counted.  Exits 0 when all pass.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, extra):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "42", "--seconds", "1",
               "--trace", str(trace), "--tiny"] + extra
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    if done.returncode != 0:
        return None, "exit code %d" % done.returncode
    return json.loads(done.stdout.strip().split("\n")[-1]), ""


def check_result(result, expected):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
        return problems
    names = set(result["metrics"])
    for name in sorted(set(expected) - names):
        problems.append("missing metric %s" % name)
    for name in sorted(names - set(expected)):
        problems.append("metric %s is not in BENCHMARK.json" % name)
    for name in sorted(names & set(expected)):
        metric = result["metrics"][name]
        if metric.get("unit") != expected[name]:
            problems.append("%s unit %r, BENCHMARK.json says %r"
                            % (name, metric.get("unit"), expected[name]))
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s value %r" % (name, value))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    units = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            result, error = run(workload, trace, [])
            problems = [error] if result is None else check_result(
                result, units[trace])
            if result is not None and (not result["correct"] or
                                       result["failed"] != 0):
                problems.append("%d of %d operations failed"
                                % (result["failed"], result["attempted"]))
            status = "ok" if not problems else "FAIL"
            print("%-12s trace %d: %s" % (workload, trace, status))
            for problem in problems:
                print("    " + problem)
            failures += bool(problems)

    workload = bench["workloads"][0]["name"]
    result, error = run(workload, 0, ["--sabotage"])
    caught = (result is not None and result["failed"] > 0 and
              not result["correct"])
    print("%-12s sabotaged: %s" % (workload,
                                   "caught" if caught else "NOT caught"))
    failures += not caught

    print("selftest: %s" % ("PASS" if failures == 0 else "FAIL"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
