#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

One run:
    python3 perfbench/run.py --workload tcp-steady --seed 1 --seconds 20 --trace 0

Every workload, untraced then traced, with the tracing overhead:
    python3 perfbench/run.py --all --seed 1 --seconds 20

Run from the root of a checkout. The benchmark is built from source into
.bench_build/ (dune's build directory for it); traced runs write their spans
to .bench_build/perfbench-spans/. The last line of a run's standard output
is its result as one JSON object. Exit status is non-zero when the build
fails, a run fails, or an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
SPANS_DIR = os.path.join(BUILD_DIR, "perfbench-spans")
WORKLOADS = ["tcp-steady", "sim-failover", "mc-explore"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s is missing: run from the root of a full checkout" % needed)
    env = dict(os.environ, DUNE_BUILD_DIR=BUILD_DIR, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release", "-j", "2",
           "./perfbench/main.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=880)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed")


def run_one(workload, seed, seconds, trace):
    """Run one workload; echo its output; return (exit code, result dict)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--out", SPANS_DIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_names(result, trace):
    """The run printed exactly the metrics BENCHMARK.json declares."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return True
    return sorted(result["metrics"]) == sorted(expected_metrics(trace))


def single(args):
    code, lines, result = run_one(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("%s printed no result" % args.workload)
    if not check_names(result, args.trace):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("%s printed other metrics than BENCHMARK.json declares" % args.workload)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return code


def all_workloads(args):
    ok = True
    overheads = []
    for w in WORKLOADS:
        results = {}
        for trace in (0, 1):
            code, lines, result = run_one(w, args.seed, args.seconds, trace)
            print("\n".join(lines[:-1]))
            if result is None or code != 0 or not result["correct"]:
                ok = False
            if result is not None:
                results[trace] = result["metrics"]
                print("result %s trace=%d correct=%s attempted=%d failed=%d" % (
                    w, trace, result["correct"], result["attempted"], result["failed"]))
        if 0 in results and 1 in results:
            untraced = results[0]["commits_per_s"]["value"]
            traced = results[1]["trace.commits_per_s"]["value"]
            if untraced > 0 and traced > 0:
                overheads.append((w, 1.0 - traced / untraced))
        print()
    for w, o in overheads:
        print("tracing overhead %-13s %5.1f%% of untraced commits_per_s" % (w, 100.0 * o))
    print(json.dumps({"all_correct": ok}))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not args.all and args.workload is None:
        p.error("give --workload or --all")
    build()
    sys.exit(all_workloads(args) if args.all else single(args))


if __name__ == "__main__":
    main()
