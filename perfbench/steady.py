#!/usr/bin/env python3
"""Steadiness report for the repository benchmark.

Runs the command named in BENCHMARK.json several times per workload,
each time with another seed, and prints every metric's median,
quartiles and interquartile spread (as a share of the median) next to
the bound BENCHMARK.json fixes for it.  Run from the repository root:

    python3 perfbench/steady.py                      # 10 seeds, all workloads
    python3 perfbench/steady.py --runs 5 --workloads daemon_closed_mixed
    python3 perfbench/steady.py --trace 1 --runs 3   # per-layer metrics

Exits nonzero if a run fails, reports a wrong output, or (end-to-end
metrics only) a spread other than setup_s's exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: wrong outputs: {lines[-1]}")
    return result


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()

    declared = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for k in range(args.runs):
            seed = args.first_seed + k
            result = run_once(bench["command"], workload, seed, args.seconds, args.trace)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"# {workload} seed {seed}: done", file=sys.stderr, flush=True)
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(f"  {'metric':30} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name in bounds:
            vs = values.get(name)
            if vs is None:
                print(f"  {name:30} MISSING")
                ok = False
                continue
            q1, q2, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / abs(q2) if q2 else float("inf")
            bound = bounds[name]
            flag = ""
            if bound is not None:
                if spread > bound and name != "setup_s":
                    flag, ok = "OVER BOUND", False
                elif spread > bound / 3:
                    flag = "above bound/3"
            print(f"  {name:30} {q2:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6} {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
