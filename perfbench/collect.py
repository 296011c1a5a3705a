#!/usr/bin/env python3
"""Measures the benchmark over several seeds and writes the baseline.

    python3 perfbench/collect.py [--seeds 10] [--first-seed 1]
                                 [--workloads lite20k ...] [--out FILE]

For every workload it runs `python3 perfbench/run.py` untraced once per seed,
one run at a time, and reports each end-to-end metric's median, quartiles
(as statistics.quantiles(values, n=4) gives them) and spread (the quartile
distance as a share of the median) next to the metric's bound from
BENCHMARK.json. It then makes one traced run on the first seed and lists the
per-layer metrics. --out writes all of it as JSON (perfbench/baseline.json
is such a file). Exits non-zero when a run fails or reports correct=false.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or doc is None or not doc["correct"]:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {int(trace)}: "
                         f"exit {proc.returncode}")
    return doc["metrics"], wall


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.seeds < 2:
        ap.error("--seeds must be at least 2 to give quartiles")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    doc = {"host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                    "system": platform.platform()},
           "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        values, walls = {}, []
        for seed in seeds:
            metrics, wall = run_once(workload, seed, seconds, trace=False)
            walls.append(wall)
            for name, m in metrics.items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"== {workload}: {len(walls)} runs, "
              f"longest {max(walls):.1f} s")
        end_to_end = {}
        for name, (unit, vals) in values.items():
            s = summarise(vals)
            end_to_end[name] = {"unit": unit, **s}
            bound = bounds[name]
            flag = "  over bound/3" if s["spread"] > bound / 3 else ""
            print(f"  {name:14s} median {s['median']:<11.5g} q1 {s['q1']:<11.5g}"
                  f" q3 {s['q3']:<11.5g} spread {s['spread']:.4f}"
                  f" (bound {bound}) {unit}{flag}")

        traced, wall = run_once(workload, seeds[0], seconds, trace=True)
        print(f"  traced run, seed {seeds[0]}, {wall:.1f} s:")
        for name, m in traced.items():
            print(f"    {name:32s} {m['value']:<12.6g} {m['unit']}")
        if traced.get("trace.replay_identical", {}).get("value") != 1:
            print("  STALE: the replay did not reproduce Placer3D::Run")
        doc["workloads"][workload] = {
            "run_wall_s_max": max(walls),
            "end_to_end": end_to_end,
            "per_layer": {"seed": seeds[0], "traced_run_wall_s": wall,
                          "metrics": traced},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
