#!/usr/bin/env python3
"""Builds the placer benchmark from source and runs one workload.

    python3 perfbench/run.py --workload lite20k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The build goes to the directory named
by CARGO_TARGET_DIR (default .bench_build) under the checkout. Build output
goes to stderr; stdout carries the benchmark's own lines, the last of which
is the JSON result. Exits non-zero when the sources are missing, the build
fails, or a correctness check fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("lite20k", "thermal64", "serve_sweep")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 700


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures (once) and builds placer_bench; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("run.py: no placer3d sources next to perfbench/", file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out), *gen])
    steps.append(["cmake", "--build", str(out), "--target", "placer_bench",
                  "-j", "4"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"run.py: {' '.join(cmd)}: {err}", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"run.py: {' '.join(cmd)} failed", file=sys.stderr)
            return None
    exe = out / "placer_bench"
    return exe if exe.is_file() else None


def valid_result(line):
    try:
        doc = json.loads(line)
    except ValueError:
        return False
    return (isinstance(doc, dict)
            and set(doc) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(doc["attempted"], int) and doc["attempted"] >= 1)


def main():
    # subprocess.run kills and reaps its child when an exception unwinds
    # through it; turn SIGTERM into one so a stopped run leaves no process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check the benchmark's failure accounting")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    exe = build()
    if exe is None:
        return 1
    if args.selftest:
        cmd = [str(exe), "--selftest"]
    else:
        cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    if args.selftest:
        return 0
    lines = proc.stdout.strip().splitlines()
    if not lines or not valid_result(lines[-1]):
        print("run.py: benchmark printed no valid result line", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
