#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Configures and builds perfbench/ (which
compiles the library from src/) in Release mode under the directory named
by CARGO_TARGET_DIR, default .bench_build, then runs the driver and passes
its output through; the last line is the driver's JSON result.

`--workload all` runs every workload in turn and prints each result, then
one combined JSON line with metrics named <workload>/<metric>.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ["paper_n7", "lossy_n32", "scale_n128", "suspicion_n7"]
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds the driver; returns the binary's path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"run.py: {needed} not found in {ROOT}; run from a full checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; echoes its output and returns the parsed result."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit(f"run.py: driver exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    return lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"run.py: build failed: {e}")

    if args.workload != "all":
        lines, _ = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        lines, result = run_one(binary, w, args.seed, args.seconds, args.trace)
        print("\n".join(lines[:-1]))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}/{name}"] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
