#!/usr/bin/env python3
"""Served-path benchmark of CloudTalkServer::Answer and ShardedServer::Answer.

Run from the repository root:

  python3 perfbench/run.py --workload wide_pool --seed 1 --seconds 10 --trace 0
      One run. Builds perfbench/ (and the src/ libraries it links) on first
      use, then runs one workload; the last stdout line is the JSON result
      {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
      end-to-end metrics, --trace 1 the per-layer ones.

  python3 perfbench/run.py --report [--seed N] [--seconds S]
      Every workload, untraced then traced: prints each end-to-end metric by
      workload, name and unit, then the traced per-layer table.

  python3 perfbench/run.py --test
      Builds and runs the benchmark's own tests (needs GoogleTest).

The build directory is $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), relative to the working directory.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["wide_pool", "packet_search", "sharded_mix"]
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                        "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print(f"perfbench: cannot run {step[0]}: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}", file=sys.stderr)
            return None
    return os.path.join(out, target)


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def report(binary, seed, seconds):
    """Runs every workload untraced and traced; prints the two tables and
    checks that tracing left the warm-up reply digests unchanged."""
    results = {}
    digests = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, text = run_once(binary, workload, seed, seconds, trace)
            lines = text.strip().splitlines()
            if code != 0 or not lines:
                print(f"perfbench: {workload} --trace {trace} failed", file=sys.stderr)
                return 1
            for line in lines[:-1]:
                print(line)
            results[(workload, trace)] = json.loads(lines[-1])
            digests[(workload, trace)] = [l for l in lines if l.startswith("digest ")]
    print(f"\nEnd-to-end metrics (seed {seed}, {seconds} s per run)")
    print(f"{'workload':<14} {'metric':<20} {'value':>14}  unit")
    for workload in WORKLOADS:
        result = results[(workload, 0)]
        for name, metric in result["metrics"].items():
            print(f"{workload:<14} {name:<20} {metric['value']:>14.4f}  {metric['unit']}")
        print(f"{workload:<14} {'failed/attempted':<20} "
              f"{result['failed']:>7}/{result['attempted']:<6}  correct={result['correct']}")
    print(f"\nPer-layer metrics (traced run)")
    names = list(results[(WORKLOADS[0], 1)]["metrics"])
    print(f"{'metric':<34}" + "".join(f"{w:>15}" for w in WORKLOADS) + "  unit")
    for name in names:
        row = [results[(w, 1)]["metrics"][name] for w in WORKLOADS]
        print(f"{name:<34}" + "".join(f"{m['value']:>15.4f}" for m in row) + f"  {row[0]['unit']}")
    same = all(digests[(w, 0)] == digests[(w, 1)] for w in WORKLOADS)
    print(f"\nReply digests, traced vs untraced: {'equal' if same else 'DIFFERENT'}")
    ok = same and all(r["correct"] and r["failed"] == 0 for r in results.values())
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()

    if args.test:
        binary = build("perfbench_test")
        return 1 if binary is None else subprocess.run([binary]).returncode
    binary = build("perfbench")
    if binary is None:
        return 1
    if args.report:
        return report(binary, args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    code, text = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
