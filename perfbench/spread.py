#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]

Runs perfbench/run.py once per seed and workload (seeds "1-10" or "3,5,8")
and prints, per end-to-end metric, the median over the runs and the
quartile spread (Q3 - Q1) / median with Python's statistics.quantiles(n=4),
next to the metric's bound from BENCHMARK.json.  A spread is flagged when
it is not below a third of the bound (setup_s is exempt).  Every run's
result line is appended to .bench_build/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    log_path = os.path.join(ROOT, ".bench_build", "spread.jsonl")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    steady = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: no result")
                steady = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            with open(log_path, "a") as log:
                log.write(json.dumps({"workload": workload, "seed": seed,
                                      **result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect ({result['failed']} failed)")
                steady = False
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"{workload}:")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, median, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            steady = steady and ok
            print(f"  {m['name']:24s} median {median:12.6g} {m['unit']:6s} "
                  f"spread {spread:6.3f} bound {m['bound']:.2f} "
                  f"min {min(v):.6g} max {max(v):.6g}{'' if ok else '  <-- wide'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
