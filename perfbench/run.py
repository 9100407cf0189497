"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Set-up is sampled in several fresh
interpreters; the workload then runs in one more fresh interpreter with BLAS
pinned to one thread.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The full result, with the per-op table and the environment,
is also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 9
DEADLINE_S = 170.0       # the whole run, probes included, ends before this


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def child(argv, env, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time")
    try:
        proc = subprocess.run([sys.executable] + argv, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(argv[0])} did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{os.path.basename(argv[0])} exited with code {proc.returncode}")
    try:
        return last_json_line(proc.stdout)
    except ValueError as exc:
        fail(f"{os.path.basename(argv[0])} printed no result ({exc})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", default=None, help="also write the full result here")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json in {root}: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(root, "src", "roboalloc", "__init__.py")):
        fail(f"no src/roboalloc in {root}: run from the root of a checkout")

    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups = [child([os.path.join(HERE, "probe.py"), args.workload], env, deadline)
              for _ in range(SETUP_SAMPLES)]
    worker_argv = [os.path.join(HERE, "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--root", root,
                   "--workdir", os.path.join(out_dir, f"work-{tag}-{os.getpid()}")]
    if args.trace:
        worker_argv += ["--spans", os.path.join(out_dir, f"spans-{tag}.csv")]
    result = child(worker_argv, env, deadline)

    result["metrics"]["setup_s"] = {
        "value": statistics.median(s["setup_s"] for s in setups), "unit": "s"}
    result["setup_samples"] = setups
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        fail(f"result lacks metrics {missing}")
    # a reported non-convergence is a failed op; a wrong answer makes the run incorrect
    result["correct"] = result["wrong"] == 0

    env_info = result["environment"]
    print(f"# {tag}: python {env_info['python']}, numpy {env_info['numpy']}, "
          f"scipy {env_info['scipy']}, {env_info['nproc']} cpus ({env_info['cpu']}), "
          f"BLAS threads {env_info['blas_threads']}")
    if "raw" in result:
        raw = result["raw"]
        print(f"#   raw (unscaled): ops_per_s {raw['ops_per_s']:.6g}, p50 "
              f"{raw['latency_p50_ms']:.6g} ms, p90 {raw['latency_p90_ms']:.6g} ms; "
              f"reference kernel median {raw['kernel_median_ms']:.4g} ms "
              f"(nominal {raw['kernel_nominal_ms']:g} ms)")
    for name, row in sorted(result.get("by_op", {}).items()):
        iters = f", median iterations {row['median_iterations']}" \
            if "median_iterations" in row else ""
        print(f"#   op {name}: {row['count']} ops ({row['failed']} failed), "
              f"raw median {row['median_ms']:.3f} ms{iters}")
    for problem in result["problems"]:
        print(f"#   failed: {problem}")
    print(f"#   attempted {result['attempted']}, failed {result['failed']}, "
          f"of which wrong {result['wrong']}, correct {result['correct']}")
    for name in wanted:
        m = result["metrics"][name]
        print(f"{name} = {m['value']:.6g} {m['unit']}")

    for path in filter(None, (os.path.join(out_dir, f"result-{tag}.json"), args.out)):
        with open(path, "w") as handle:
            json.dump(result, handle, indent=1)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {name: result["metrics"][name] for name in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
