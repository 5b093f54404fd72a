#!/usr/bin/env python3
"""Runs workloads several times and prints each metric's median and quartiles.

Run from the repository root:

    python3 perfbench/steady.py --workloads stack_stream,hot_route --runs 10

Run i uses seed first_seed + i. For every metric the table gives the
median, the first and third quartiles (statistics.quantiles, n=4), and the
spread: (q3 - q1) / median. For end-to-end metrics it also gives the bound
from BENCHMARK.json and flags a spread above a third of it ("wide") or
above it ("OVER"); set-up time is exempt from the spread rule and only
reported. Rows named raw.* are the unscaled times the benchmark prints
next to the host-scaled metrics. Use it to set the bounds and to re-check them
after a change.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RAW_PREFIX = "# raw (unscaled): "


def run_once(workload, seed, seconds, trace, extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)] + extra
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    # The unscaled times, for comparison with the host-scaled metrics.
    for line in lines:
        if line.startswith(RAW_PREFIX):
            for pair in line[len(RAW_PREFIX):].split():
                name, value = pair.split("=")
                result["metrics"]["raw." + name] = {"value": float(value),
                                                    "unit": "raw"}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="",
                        help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--save", help="write every run's result here (JSON)")
    args, extra = parser.parse_known_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]

    saved = {}
    worst = "ok"
    for workload in workloads:
        values = {}
        units = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, seconds, args.trace, extra)
            saved.setdefault(workload, []).append({"seed": seed, **result})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"# {workload} seed {seed} done", file=sys.stderr)
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, trace {args.trace}")
        print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  flag")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], 0, vals[0]))
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    flag = "OVER"
                    worst = "OVER"
                elif spread > bound / 3:
                    flag = "wide"
                    worst = "wide" if worst == "ok" else worst
            print(f"{name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6}  "
                  f"{flag} {units[name]}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    print(f"\nsteadiness: {worst}")
    return 1 if worst == "OVER" else 0


if __name__ == "__main__":
    sys.exit(main())
