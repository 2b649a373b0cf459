#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --seed N --seconds S --self-check

NAME is rollout_durable, restart_replay or vehicle_sessions.  The script
builds the benchmark binary (perfbench/CMakeLists.txt compiles the program from src/)
into .bench_build/perfbench at the checkout root, runs it, checks its
output against BENCHMARK.json and prints, as the last line, one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer metrics and writes the
span records to .bench_build/traces/NAME-SEED.json (Chrome-trace JSON).

--self-check runs the workload twice with the same seed and fails unless
both runs print identical exact counters (the "exact {...}" line).

Exit code 0 means a result was printed (its "correct" may still be false);
any other exit code means no result: the build failed, the binary crashed
or timed out, or its output was malformed.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dacm_perfbench")
DEFAULT_SEED = 1
# No tuning decision used this seed; re-check claims on it.
HELD_OUT_SEED = 7919
# A run may take 180 s in all; leave room for the incremental build check.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def tool_env():
    """Environment for child processes: temporaries stay in the checkout."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def build(env):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec


def run_binary(args, env):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark binary exited with {proc.returncode}")
    return lines


def check_result(result, spec, trace):
    """Returns the problems with the binary's result line (empty = fine)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"unexpected keys {sorted(result)}")
        return problems
    expected = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(names))}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"{m['name']}: end-to-end value {value} is not positive")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append("attempted must be a whole number >= 1")
    if not (isinstance(result["failed"], int) and result["failed"] >= 0):
        problems.append("failed must be a whole number >= 0")
    return problems


def exact_line(lines):
    for line in lines:
        if line.startswith("exact "):
            return json.loads(line[len("exact "):])
    raise RuntimeError("benchmark binary printed no exact counters")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["rollout_durable", "restart_replay",
                                 "vehicle_sessions"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                             f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    try:
        spec = load_spec()
        env = tool_env()
        build(env)
        lines = run_binary(args, env)
        if args.self_check:
            again = run_binary(args, env)
            first, second = exact_line(lines), exact_line(again)
            for name in sorted(set(first) | set(second)):
                a, b = first.get(name), second.get(name)
                mark = "same" if a == b else "DIFFERENT"
                print(f"# {name}: {a and a['value']} / {b and b['value']} {mark}")
            if first != second:
                log("self-check failed: exact counters differ between same-seed runs")
                return 1
            print("# self-check passed: exact counters identical")
            return 0
        result = json.loads(lines[-1])
    except (OSError, ValueError, RuntimeError, subprocess.SubprocessError) as err:
        log(f"run.py: no result: {err}")
        return 1

    for line in lines[:-1]:
        print(line)
    problems = check_result(result, spec, args.trace == 1)
    for problem in problems:
        print(f"# INVALID: {problem}")
    correct = bool(result.get("correct")) and not problems
    print(json.dumps({"correct": correct,
                      "attempted": result.get("attempted", 1),
                      "failed": result.get("failed", 0),
                      "metrics": result.get("metrics", {})}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
