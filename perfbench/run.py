#!/usr/bin/env python3
"""Build and run the tcr load benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the library
from src/) into .bench_build/perfbench; later calls rebuild incrementally.
Build output goes to standard error, so the last line of standard output is
the benchmark's JSON result.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "tcr-loadbench")
WORKLOADS = ("design", "sweep", "evaluate", "simulate")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def check_call(cmd, timeout):
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout, check=True)
    except (OSError, subprocess.SubprocessError) as e:
        raise BenchError(f"{' '.join(cmd)}: {e}") from e


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        check_call(cmd, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    check_call(["cmake", "--build", BUILD, "--target", "tcr-loadbench", "-j", jobs],
               BUILD_TIMEOUT_S)


def run_binary(args, capture):
    """Runs the load generator; returns its standard output when captured."""
    try:
        proc = subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S, check=True,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except (OSError, subprocess.SubprocessError) as e:
        raise BenchError(f"tcr-loadbench {' '.join(args)}: {e}") from e
    return proc.stdout


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("no output")
    return json.loads(lines[-1])


def digest_line(stdout):
    for line in stdout.splitlines():
        if line.startswith("digest "):
            return line.split()[1]
    raise BenchError("no digest line")


def self_test():
    """Every workload at tiny size: every named metric printed with its unit,
    a deliberately corrupted result counted as failed, and the digest a
    function of the seed alone."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seconds", "0", "--tiny"]
        for trace, names in expected.items():
            out = run_binary(base + ["--seed", "1", "--trace", trace], capture=True)
            result = last_json(out)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace {trace}: result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0:
                problems.append(f"{workload} trace {trace}: run not correct")
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            if got != names:
                problems.append(f"{workload} trace {trace}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(set(got.items()) ^ set(names.items()))}")
            for k, v in result.get("metrics", {}).items():
                if not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
                    problems.append(f"{workload} trace {trace}: {k} is not a finite number")
        corrupted = last_json(run_binary(base + ["--seed", "1", "--trace", "0",
                                                 "--corrupt-first"], capture=True))
        if corrupted["failed"] != 1 or corrupted["correct"] or \
                corrupted["metrics"]["success_frac"]["value"] >= 1:
            problems.append(f"{workload}: corrupted result not counted as failed")
        d1, d1_again, d2 = (digest_line(run_binary(base + ["--seed", s, "--trace", "0"],
                                                   capture=True))
                            for s in ("1", "1", "2"))
        if d1 != d1_again:
            problems.append(f"{workload}: same seed, different digests {d1} {d1_again}")
        if d1 == d2:
            problems.append(f"{workload}: seeds 1 and 2 print the same digest {d1}")
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
        if args.self_test:
            return self_test()
        cmd = ["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
        if args.trace == "1":
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-{args.seed}.json")]
        run_binary(cmd, capture=False)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
