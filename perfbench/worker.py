"""Measurement process for one workload: run.py starts it in a fresh
interpreter with BLAS pinned to one thread and reads the JSON object it
prints as its last line.

Closed loop, one client: each op starts when the previous one (and its
untimed correctness check) has finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import checks
import reference
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, cycles_for

MIN_OPS = 100            # answered ops, so that p90 has at least 10 samples beyond it
WALL_LIMIT_S = 140.0     # a run still short of its cycles after this much wall time fails


class Loop:
    """Runs cycles and records one latency, and one verdict, per op."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.cycles = {}
        self.latencies = []
        self.kernel_times = []   # reference kernel, timed before each op and after the last
        self.kinds = {}          # op kind -> {"ms": [...], "iterations": [...], "failed": n}
        self.failed = 0
        self.credits = []        # per op: 1 passed, 0 failed outright, a path op its share passed
        self.wrong = 0           # failed ops whose failure was not a reported non-convergence
        self.problems = []

    def cycle(self, i):
        if i not in self.cycles:
            self.cycles[i] = self.workload.cycle(i)
        return self.cycles[i]

    def run_cycle(self, i):
        tracer = self.tracer
        for op in self.cycle(i):
            self.kernel_times.append(reference.time_kernel())
            if tracer is not None:
                tracer.op_id = len(self.latencies)
                tracer.enabled = True
            start = time.perf_counter()
            try:
                out = op.run()
                error = None
            except Exception as exc:  # an op that raises is a failed op
                out, error = None, exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
            self.latencies.append(elapsed)
            entry = self.kinds.setdefault(op.kind, {"ms": [], "iterations": [], "failed": 0})
            entry["ms"].append(1e3 * elapsed)
            if error is not None:
                problems, credit = [checks.raised(error)], 0.0
            else:
                problems = op.check(out)
                credit = 0.0 if checks.wrong_answer(problems) else \
                    max(0.0, 1.0 - len(problems) / op.units)
                if op.iterations is not None:
                    entry["iterations"].append(op.iterations(out))
            self.credits.append(credit)
            if problems:
                self.failed += 1
                entry["failed"] += 1
                self.wrong += checks.wrong_answer(problems)
                if len(self.problems) < 20:
                    self.problems.append(f"cycle {i} {op.kind}: {'; '.join(problems)[:300]}")

    @property
    def busy(self):
        return sum(self.latencies)

    @property
    def passed(self):
        return sum(self.credits)

    @property
    def answered(self):
        """Ops that returned a result that passed, at least in part."""
        return sum(c > 0 for c in self.credits)

    def scaled(self):
        """Op latencies scaled by the reference kernel around each op."""
        self.kernel_times.append(reference.time_kernel())  # the one after the last op
        return [t * f for t, f in zip(self.latencies, reference.scale_factors(self.kernel_times))]


def cycle_order(seed, cycles):
    """The first ``cycles`` cycles of the workload's book, in an order drawn
    from the seed."""
    return [int(i) for i in np.random.default_rng(seed).permutation(cycles)]


def measure(loop, order, min_ops):
    """A fixed list of whole cycles, so that the ops of a run do not follow
    the machine's speed.  A run that reaches ``WALL_LIMIT_S`` before the
    last cycle, or answers fewer than ``min_ops`` ops, is not comparable and
    fails."""
    began = time.perf_counter()
    for done, i in enumerate(order):
        if time.perf_counter() - began >= WALL_LIMIT_S:
            raise SystemExit(f"only {done} of {len(order)} cycles in {WALL_LIMIT_S:.0f} s")
        loop.run_cycle(i)
    if loop.answered < min_ops:
        raise SystemExit(f"only {loop.answered} answered ops, fewer than {min_ops}: "
                         f"p90 would rest on too few samples")


def percentile_ms(values, q):
    return 1e3 * float(np.percentile(np.asarray(values), q))


def by_op(loop):
    table = {}
    for kind, entry in loop.kinds.items():
        row = {"count": len(entry["ms"]), "failed": entry["failed"],
               "median_ms": statistics.median(entry["ms"])}
        if entry["iterations"]:
            row["median_iterations"] = statistics.median(entry["iterations"])
        table[kind] = row
    return table


def environment():
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(), "cpu": cpu,
            "nproc": os.cpu_count(),
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True, help="checkout holding src/roboalloc")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="CSV file for the traced spans")
    args = parser.parse_args(argv)

    import roboalloc
    src = os.path.join(os.path.abspath(args.root), "src")
    if not os.path.abspath(roboalloc.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported roboalloc from {roboalloc.__file__}, not from {src}")

    os.makedirs(args.workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](roboalloc, args.workdir)
        result = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        if args.trace:
            # untraced reference pass, then the same cycles again with wrappers
            untraced = Loop(workload)
            order = cycle_order(args.seed, workload.trace_cycles)
            for i in order:
                untraced.run_cycle(i)
            untraced_rate = len(untraced.latencies) / sum(untraced.scaled())
            tracer = Tracer()
            tracer.install(roboalloc)
            traced = Loop(workload, tracer)
            traced.cycles = untraced.cycles
            try:
                for i in order:
                    traced.run_cycle(i)
            finally:
                tracer.uninstall()
            if args.spans:
                tracer.write(args.spans)
            traced_rate = len(traced.latencies) / sum(traced.scaled())
            metrics = layer_metrics(tracer.aggregate())
            metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
            metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
            metrics["trace.overhead_ratio"] = (1.0 - traced_rate / untraced_rate, "ratio")
            loops = (untraced, traced)
            result["spans"] = len(tracer.spans)
        else:
            loop = Loop(workload)
            measure(loop, cycle_order(args.seed, cycles_for(workload, args.seconds)), MIN_OPS)
            scaled = loop.scaled()
            # ops_per_s counts only ops that passed their check, over the
            # time of all ops, so an op that fails faster is no gain.  The
            # latencies are those of answered ops: an op that failed outright
            # gave no result to wait for, and failures are counted, with a
            # bound, by success_ratio.
            answered = [c > 0 for c in loop.credits]
            raw = [t for t, a in zip(loop.latencies, answered) if a]
            scaled_answered = [t for t, a in zip(scaled, answered) if a]
            metrics = {
                "ops_per_s": (loop.passed / sum(scaled), "1/s"),
                "success_ratio": (loop.passed / len(scaled), "ratio"),
                "latency_p50_ms": (percentile_ms(scaled_answered, 50), "ms"),
                "latency_p90_ms": (percentile_ms(scaled_answered, 90), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            loops = (loop,)
            result["by_op"] = by_op(loop)
            result["raw"] = {"ops_per_s": loop.passed / loop.busy,
                             "latency_p50_ms": percentile_ms(raw, 50),
                             "latency_p90_ms": percentile_ms(raw, 90),
                             "kernel_median_ms": 1e3 * statistics.median(loop.kernel_times),
                             "kernel_nominal_ms": 1e3 * reference.NOMINAL_S,
                             "busy_s": loop.busy,
                             "latencies_s": loop.latencies, "credits": loop.credits,
                             "kernel_times_s": loop.kernel_times}
        attempted = sum(len(lp.latencies) for lp in loops)
        failed = sum(lp.failed for lp in loops)
        result.update({
            "attempted": attempted, "failed": failed,
            "wrong": sum(lp.wrong for lp in loops),
            "problems": [p for lp in loops for p in lp.problems][:20],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "environment": environment(),
        })
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
