"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --out-dir DIR [--workloads a,b] [--seeds 1-10] [--trace 0]

Runs ``perfbench/run.py`` one invocation at a time from the current
directory (the root of a checkout), keeps each full result as
``DIR/<workload>-seed<n>-trace<t>.json``, and prints, per workload and
end-to-end metric, the median, the quartiles and the interquartile range as
a share of the median, against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_results(directory, trace=0):
    """``{workload: {seed: result}}`` for every result file in a directory."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as handle:
            result = json.load(handle)
        if result.get("trace") == trace:
            out.setdefault(result["workload"], {})[result["seed"]] = result
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(results, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload, runs in results.items():
        print(f"{workload}: {len(runs)} runs, seeds {sorted(runs)}, "
              f"failed ops {sum(r['failed'] for r in runs.values())}, "
              f"incorrect runs {sum(not r['correct'] for r in runs.values())}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs.values()]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            ok = ok and spread <= bound
            print(f"  {name:16s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:6.2%}  bound {bound:.0%}  {verdict}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    os.makedirs(args.out_dir, exist_ok=True)
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            out = os.path.join(args.out_dir, f"{workload}-seed{seed}-trace{args.trace}.json")
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace),
                 "--out", out], capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            print(f"{workload} seed {seed}: {proc.stdout.splitlines()[-1]}", flush=True)
    if args.trace == 0:
        results = load_results(args.out_dir)
        return 0 if summarise({w: results[w] for w in workloads if w in results}, spec) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
