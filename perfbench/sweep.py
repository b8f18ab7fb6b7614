#!/usr/bin/env python3
"""Steadiness sweep: run one workload N times, with seeds 1..N.

    python3 perfbench/sweep.py --workload all --runs 10              # seeds 1..10
    python3 perfbench/sweep.py --workload all --runs 10 --same-seed  # seed 1, ten times
    python3 perfbench/sweep.py --workload all --runs 4 --overhead

For each metric it prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the
distance between the quartiles as a share of the median. It also prints
the share of failed accesses of every run. The spread over seeds 1..N is
the one a gate on BENCHMARK.json's bounds sees; with --same-seed every
run replays seed 1, so the spread is run-to-run noise alone, without the
differences between the inputs of different seeds. With --overhead every
seed gets an untraced and a traced run, back to back and in alternating
order, and the sweep prints the tracing overhead: the median over those
pairs of how much lower the traced access_per_s is.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["warm-scan", "warm-scan-routed", "resim-mixed", "des-ecmwf"]


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("sweep: %s seed %d exited %d:\n%s" % (workload, seed, out.returncode, out.stdout))
    return json.loads(lines[-1])


def summarize(results):
    names = sorted(results[0]["metrics"])
    rows = []
    for name in names:
        vals = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        rows.append((name, unit, med, q1, q3, spread))
    return rows


def report(workload, args, trace, results):
    seeds = "seed 1 each time" if args.same_seed else "seeds 1-%d" % len(results)
    print("%s (%s, %d runs of %d s, %s)" % (workload, "traced" if trace else "untraced", len(results), args.seconds, seeds))
    print("  %-36s %-6s %14s %14s %14s %8s" % ("metric", "unit", "median", "q1", "q3", "spread"))
    for name, unit, med, q1, q3, spread in summarize(results):
        print("  %-36s %-6s %14.4f %14.4f %14.4f %7.2f%%" % (name, unit, med, q1, q3, 100 * spread))


def sweep(workload, args):
    """Runs the workload once per seed; with --overhead, a traced and an
    untraced run per seed, so drift of the machine hits both alike."""
    modes = [0, 1] if args.overhead else [0]
    results = {m: [] for m in modes}
    for i in range(args.runs):
        seed = 1 if args.same_seed else 1 + i
        # Alternate which side of a pair runs first.
        for trace in (modes if i % 2 == 0 else modes[::-1]):
            r = one_run(workload, seed, args.seconds, trace)
            share = r["failed"] / r["attempted"]
            print("  %s seed %d trace %d: attempted %d failed %d (share %.6f) correct %s"
                  % (workload, seed, trace, r["attempted"], r["failed"], share, r["correct"]), flush=True)
            results[trace].append(r)
    for trace in modes:
        report(workload, args, trace, results[trace])
    if args.overhead:
        ratios = [t["metrics"]["workload.traced_access_per_s"]["value"] / u["metrics"]["access_per_s"]["value"]
                  for u, t in zip(results[0], results[1])]
        print("%s tracing overhead: traced access_per_s is %.1f%% lower than untraced (median of %d paired runs)"
              % (workload, 100 * (1 - statistics.median(ratios)), len(ratios)))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--same-seed", action="store_true", help="run seed 1 every time")
    p.add_argument("--overhead", action="store_true", help="also make traced runs and print the tracing overhead")
    args = p.parse_args()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for w in workloads:
        sweep(w, args)


if __name__ == "__main__":
    main()
