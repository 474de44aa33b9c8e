#!/usr/bin/env python3
"""Build cpebench from the repository's sources and run one workload.

Usage, from the root of a checkout:

    python3 cpebench/run.py --workload port_dense --seed 42 --seconds 20 --trace 0

The first call configures and builds into .bench_build/cpebench (later
calls only re-check the build).  Build output goes to stderr; stdout is
the benchmark's own report, whose last line is one JSON object with the
keys correct, attempted, failed and metrics.  Extra flags (--tiny,
--sabotage) are passed through to the benchmark binary for the
self-test.  Exits non-zero, printing no result, when the build or the
run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cpebench")
OUT_DIR = os.path.join(BUILD_ROOT, "cpebench-out")
TMP_DIR = os.path.join(BUILD_ROOT, "tmp")
BUILD_TYPE = "RelWithDebInfo"

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(env):
    """Configure (once) and build the benchmark; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            print("cpebench: build step failed: %s" % error, file=sys.stderr)
            return False
        if done.returncode != 0:
            print("cpebench: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return False
    return True


def git_rev():
    """The checkout's commit, or a note that it has none."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    if rev.returncode != 0:
        return "unavailable"
    return rev.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def stop_on_signal(signum, frame):
    """Turn SIGTERM into an exception, so subprocess.run kills and reaps
    the running child before this script exits."""
    raise KeyboardInterrupt


def main():
    signal.signal(signal.SIGTERM, stop_on_signal)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, passthrough = parser.parse_known_args()

    for directory in (BUILD_DIR, OUT_DIR, TMP_DIR):
        os.makedirs(directory, exist_ok=True)
    # Compilers and the benchmark keep their temporary files inside
    # the checkout.
    env = dict(os.environ, TMPDIR=TMP_DIR)
    if not build(env):
        return 1

    command = [os.path.join(BUILD_DIR, "cpebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", os.path.relpath(OUT_DIR, ROOT),
               "--git-rev", git_rev()] + passthrough
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        # subprocess.run has already killed and reaped the child.
        print("cpebench: run failed: %s" % error, file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        print("cpebench: exited with code %d" % done.returncode,
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stdout)
        print("cpebench: last line is not a JSON result", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
