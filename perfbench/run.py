#!/usr/bin/env python3
"""Repair-service benchmark: build, run one workload, or check repeatability.

Run one workload (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload office-repeat --seed 1 --seconds 10 --trace 0

builds the fdrepair libraries and the perfbench binary from this checkout
(CMake, Release) into .bench_build/perfbench -- or $CARGO_TARGET_DIR/perfbench
when that is set -- and runs it. The binary's result is the last line of
stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 1 every
span is written to <build dir>/traces/<workload>-seed<n>.json.

Check repeatability:

    python3 perfbench/run.py --check-repeatability

runs every workload of BENCHMARK.json in two sets of ten seeds, each run
run_seconds long. For each end_to_end metric it reports each set's median and
spread (interquartile range / median) and fails when a spread exceeds the
metric's bound or when the two sets' medians differ, either way, by more than
the bound. On single-client workloads it also runs the traced mode twice per
seed and fails unless the counts repeat exactly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
# Counts that must repeat exactly for a seed on single-client workloads.
EXACT_COUNTS = [
    "service.hits", "service.misses", "service.evictions",
    "engine.top_blocks", "graph.matching_edges", "graph.conflict_tuples",
    "service.blocks_clean", "service.blocks_dirty",
]
MULTI_CLIENT = {"office-repeat"}
# Seeds per set of the repeatability check.
RUNS = 10
# Seeds whose traced counts are compared run against run.
COUNT_SEEDS = 2


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (Path.cwd() / base / "perfbench").resolve()


def build():
    """Configures (once) and builds the binary; exits 2 when that fails."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                status = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            except OSError as error:
                sys.stderr.write(f"run.py: cannot run {step[0]}: {error}\n")
                sys.exit(2)
            if status.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\n")
                sys.stderr.write(f"run.py: build failed (log: {log_path})\n")
                sys.exit(2)
    return out / "perfbench"


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload in the build dir (where traced runs write their
    spans); returns (exit code, stdout text)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=binary.parent, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run.py: {workload} seed {seed} timed out\n")
        return 1, ""
    return done.returncode, done.stdout


def result_of(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def shift(first, second):
    """How far `second` lies from `first`, either way, as a share of `first`."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    return abs(second - first) / abs(first)


def check_repeatability(binary):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    seeds = list(range(1, RUNS + 1))
    # Every run's result, one JSON object per line, for a closer look.
    log_path = build_dir() / "repeatability.jsonl"
    log = open(log_path, "w")
    ok = True
    for workload in workloads:
        sets = []
        for set_index in range(2):
            values = {}
            for seed in seeds:
                start = time.monotonic()
                code, stdout = run_binary(binary, workload, seed, seconds, 0)
                wall = time.monotonic() - start
                result = result_of(stdout)
                log.write(json.dumps({"workload": workload, "set": set_index,
                                      "seed": seed, "exit": code,
                                      "wall_s": round(wall, 2),
                                      "result": result}) + "\n")
                log.flush()
                if code != 0 or result is None or not result["correct"]:
                    print(f"{workload} seed {seed}: run failed (exit {code})")
                    ok = False
                    continue
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
            sets.append(values)
        print(f"\n{workload} ({len(seeds)} seeds x 2 sets, {seconds}s runs)")
        print(f"  {'metric':24} {'median1':>12} {'median2':>12} "
              f"{'spread1':>8} {'spread2':>8} {'bound':>6}")
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = sets[0].get(name, []), sets[1].get(name, [])
            if len(first) < 2 or len(second) < 2:
                print(f"  {name:24} missing")
                ok = False
                continue
            m1, m2 = statistics.median(first), statistics.median(second)
            s1, s2 = spread(first), spread(second)
            bad = shift(m1, m2) > bound or s1 > bound or s2 > bound
            ok = ok and not bad
            print(f"  {name:24} {m1:12.5g} {m2:12.5g} {s1:8.3f} {s2:8.3f} "
                  f"{bound:6.2f}{'  FAIL' if bad else ''}")
        if workload in MULTI_CLIENT:
            continue
        for seed in seeds[:COUNT_SEEDS]:
            counts = []
            for _ in range(2):
                code, stdout = run_binary(binary, workload, seed, seconds, 1)
                result = result_of(stdout)
                if code != 0 or result is None:
                    print(f"  traced seed {seed}: run failed (exit {code})")
                    ok = False
                    break
                counts.append({name: result["metrics"][name]["value"]
                               for name in EXACT_COUNTS})
            if len(counts) == 2:
                same = counts[0] == counts[1]
                ok = ok and same
                print(f"  counts, seed {seed}: "
                      f"{'repeat exactly' if same else 'DIFFER'} {counts[0]}"
                      + ("" if same else f" vs {counts[1]}"))
    log.close()
    print(f"\nper-run results: {log_path}")
    print("repeatability:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-repeatability", action="store_true")
    args = parser.parse_args()
    if not args.check_repeatability and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if args.check_repeatability:
        return check_repeatability(binary)
    code, stdout = run_binary(binary, args.workload, args.seed,
                              args.seconds or 10, args.trace)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
