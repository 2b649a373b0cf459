#!/usr/bin/env python3
"""Exact-counter gate over the repo benchmark.

Runs every workload of perfbench once at seed 1 and compares its
`exact {...}` line -- events, messages, CAN frames, WAL frames, bytes and
syncs, rotations, pushes and VM activations per op, all fixed by the seed
-- against the record committed in tools/perf_exact_seed1.json.  Any key
that differs fails the check and prints `old -> new`.

The counted rounds of each workload complete however short the run is, so
`--seconds 1` measures the same work as a 30-s run.  A change that alters
the work the program does updates the record (--update) and explains the
diff in CHANGES.md; the diff of the record is the reviewable account of
that work.

Usage:
  check_perf_exact.py [--record tools/perf_exact_seed1.json] [--update]
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORD = os.path.join(HERE, "perf_exact_seed1.json")
WORKLOADS = ["rollout_durable", "restart_replay", "vehicle_sessions"]


def run_exact(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited with {proc.returncode}")
    for line in proc.stdout.splitlines():
        if line.startswith("exact "):
            return json.loads(line[len("exact "):])
    raise RuntimeError(f"{workload}: no exact line in the output")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", default=RECORD)
    parser.add_argument("--update", action="store_true",
                        help="rewrite the record from this run instead of "
                             "comparing")
    args = parser.parse_args()

    measured = {}
    for workload in WORKLOADS:
        measured[workload] = run_exact(workload)
    if args.update:
        with open(args.record, "w") as f:
            json.dump(measured, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.record}")
        return 0

    with open(args.record) as f:
        record = json.load(f)
    differences = 0
    for workload in WORKLOADS:
        old, new = record.get(workload, {}), measured[workload]
        for key in sorted(set(old) | set(new)):
            if old.get(key) == new.get(key):
                continue
            differences += 1
            before = old[key]["value"] if key in old else "(absent)"
            after = new[key]["value"] if key in new else "(absent)"
            print(f"{workload}.{key}: {before} -> {after}")
    if differences:
        print(f"{differences} exact counter(s) differ from {args.record}")
        return 1
    print(f"exact counters match {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
