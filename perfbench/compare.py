"""Compare two result sets: the parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds untraced result files as written by ``sweep.py``
(or ``run.py --out``), one per (workload, seed); runs of the two sides are
paired by workload and seed, so make them with the same seeds and alternate
which side runs first.  For every (workload, end-to-end metric) it prints one
row with both medians and quartiles and a verdict:

- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved``: either side's interquartile range exceeds the bound,
  unless every change run beats every parent run;
- ``improved``: the change wins at least 9 of every 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range;
- ``no change`` otherwise.

A gain does not count when more ops fail: on a workload where the change's
share of failed ops is higher than the parent's, ``improved`` is replaced by
``refused (more failed ops)``.  Exit code 1 if any row is a regression.
"""

from __future__ import annotations

import json
import os
import sys

from sweep import load_results, quartiles

HERE = os.path.dirname(os.path.abspath(__file__))
WIN_SHARE = 0.9


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(list(parent.values()))
    c1, cm, c3 = quartiles(list(change.values()))
    if sign * (cm - pm) < -bound * abs(pm):
        return "regression"
    all_better = min(sign * v for v in change.values()) > max(sign * v for v in parent.values())
    if ((p3 - p1) > bound * abs(pm) or (c3 - c1) > bound * abs(cm)) and not all_better:
        return "unresolved"
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    if seeds and wins >= WIN_SHARE * len(seeds) and abs(cm - pm) > (p3 - p1):
        return "improved"
    return "no change"


def failures(runs):
    """Failed and attempted ops over all runs of one side."""
    return (sum(r["failed"] for r in runs.values()),
            sum(r["attempted"] for r in runs.values()))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parent, change = load_results(argv[0]), load_results(argv[1])
    regressions = 0
    print(f"{'workload':20s} {'metric':16s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s}  pairs  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parent or workload not in change:
            print(f"{workload:20s} (no runs on {'parent' if workload not in parent else 'change'})")
            continue
        fp, ap = failures(parent[workload])
        fc, ac = failures(change[workload])
        more_failed = fc * ap > fp * ac
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = {s: r["metrics"][name]["value"] for s, r in parent[workload].items()}
            c = {s: r["metrics"][name]["value"] for s, r in change[workload].items()}
            v = verdict(p, c, metric["better"], metric["bound"])
            if v == "improved" and more_failed:
                v = "refused (more failed ops)"
            regressions += v == "regression"
            p1, pm, p3 = quartiles(list(p.values()))
            c1, cm, c3 = quartiles(list(c.values()))
            print(f"{workload:20s} {name:16s} {pm:12.6g} [{p1:10.5g}, {p3:10.5g}] "
                  f"{cm:12.6g} [{c1:10.5g}, {c3:10.5g}]  {len(set(p) & set(c)):5d}  {v}")
        print(f"{workload:20s} failed ops: parent {fp}/{ap}, change {fc}/{ac}"
              f"{'  MORE FAILED' if more_failed else ''}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
