#!/usr/bin/env python3
"""Builds and runs the HypDB benchmark.

One run of one workload:

    python3 hypbench/run.py --workload cold-6k --seed 1 --seconds 20 --trace 0

builds the hypbench binary (and the library from this checkout's src/)
into .bench_build/ (or $CARGO_TARGET_DIR), runs it, and passes its output
through: the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer metrics of a traced run.

Smoke mode runs every workload once per trace setting at toy size and checks
that every metric of BENCHMARK.json is printed with its unit and that no
operation failed:

    python3 hypbench/run.py --smoke

The exit code is 0 only for a correct run; build failures and wrong answers
exit non-zero.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cold-6k", "cold-300k", "serve-mix", "ingest-mix"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the binary; build output goes to stderr."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", bdir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and \
            not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    steps = [configure,
             ["cmake", "--build", bdir, "--target", "hypbench", "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            print("hypbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(bdir, "hypbench")


def run(binary, workload, seed, seconds, trace, size="full", capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False,
                          stdout=subprocess.PIPE if capture else None,
                          text=True)


def smoke(binary):
    """Each workload once per trace setting, at toy size."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            done = run(binary, workload, 1, 1, trace, size="toy", capture=True)
            lines = done.stdout.strip().splitlines()
            where = "%s --trace %d" % (workload, trace)
            if done.returncode != 0 or not lines:
                problems.append("%s: exit %d" % (where, done.returncode))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (where, sorted(result)))
                continue
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append("%s: metrics/units differ from BENCHMARK.json"
                                % where)
            for name, unit in expected[trace].items():
                if not any(l.split()[:2] == ["metric", name] and
                           l.split()[-1] == unit for l in lines):
                    problems.append("%s: no metric line for %s" % (where, name))
            error_rate = [l for l in lines if l.startswith("error_rate ")]
            if not result["correct"] or result["failed"] != 0 or \
                    not error_rate or float(error_rate[0].split()[1]) != 0.0:
                problems.append("%s: error_rate is not 0" % where)
            print("smoke %-24s attempted %d, %d metrics" %
                  (where, result["attempted"], len(units)))
    for p in problems:
        print("SMOKE FAILED: " + p)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload or --smoke is required")

    try:
        binary = build()
        if binary is None:
            return 1
        if args.smoke:
            return smoke(binary)
        return run(binary, args.workload, args.seed, args.seconds,
                   args.trace).returncode
    except subprocess.TimeoutExpired as e:
        print("hypbench: timed out: %s" % " ".join(e.cmd), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
