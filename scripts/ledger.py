"""Record the benchmark's answers, and check a later commit against the record.

Runs the benchmark workloads in process, cycle by cycle as
``perfbench/worker.py`` builds and runs them (``perfbench/gen.py`` and
``perfbench/workloads.py`` imported, not edited): nightly_rebalance cycles
0-4, target_calibration 0-16 and advisor_cli 0-14, with ``qp._start``'s
cold starts cleared before each workload.  It hashes (SHA-256) every answer
the cycles produce, in order:

- each ``solve_qp`` report: weights, duals, objective, ``r_norm``,
  ``s_norm``, iterations and status;
- each piece ``parametric_path`` yields, as its five values ``(t, x, dx,
  rate, length)``, whatever else the walk hands out with them;
- each op's output; for advisor_cli, the exit codes and the files its verbs
  write (not the input files, which hold the temporary directory's path).

Two runs of one commit on one machine write the same file, so a change
that keeps every answer bit-identical passes ``--check``.

Run:  python3 scripts/ledger.py --out LEDGER.json
      python3 scripts/ledger.py --check LEDGER.json

``--check`` reruns the cycles the file records and aligns the records by
label.  It prints the counts and, per workload and kind (``solve_qp``,
``piece``, ``output``), how many records match, moved (same label, another
digest), or exist on one side only, naming the first of each; it exits 1 on
any difference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import fields

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # write nothing next to the benchmark's modules
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import roboalloc  # noqa: E402
import roboalloc.cli  # noqa: E402,F401  (every module that binds the solvers)
from roboalloc import qp  # noqa: E402
from roboalloc.report import SolveReport  # noqa: E402

CYCLES = {"nightly_rebalance": 5, "target_calibration": 17, "advisor_cli": 15}
REPORT_FIELDS = [f.name for f in fields(SolveReport) if f.name != "meta"]
TOTALS = ("records: %(solve_qp)d solve_qp reports, %(pieces)d walk pieces, %(ops)d op outputs; "
          "%(iterations)d solve_qp iterations")
KINDS = ("solve_qp", "piece", "output")
STATES = ("match", "moved", "recorded only", "now only")


def _feed(digest, value) -> None:
    """Feed ``value`` to ``digest`` in a form that tells types, shapes and
    every bit of a float apart."""
    if isinstance(value, SolveReport):
        for name in REPORT_FIELDS:
            _feed(digest, getattr(value, name))
    elif isinstance(value, np.ndarray):
        digest.update(f"a{value.dtype.str}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        digest.update(b"d%d" % len(value))
        for key in sorted(value):
            _feed(digest, key)
            _feed(digest, value[key])
    elif isinstance(value, (list, tuple)):
        digest.update(b"l%d" % len(value))
        for item in value:
            _feed(digest, item)
    elif isinstance(value, (float, np.floating)):
        digest.update(b"f" + float(value).hex().encode())
    elif isinstance(value, (bytes, str)):
        data = value if isinstance(value, bytes) else value.encode()
        digest.update(b"s%d:" % len(data) + data)
    else:  # None, bool, int
        digest.update(f"{type(value).__name__}:{value!r}".encode())


def sha(value) -> str:
    digest = hashlib.sha256()
    _feed(digest, value)
    return digest.hexdigest()


class Recorder:
    """Wraps every ``roboalloc`` module's binding of ``solve_qp`` and
    ``parametric_path`` and appends one ``[label, sha]`` record per report
    and per walk piece, labelled by ``where`` the cycles are."""

    def __init__(self):
        self.records, self.workload, self.where, self.counts = [], "", "", {}
        self.iterations = 0
        self.bindings = []

    def label(self, kind):
        """``where``, ``kind`` and how many of that kind came there before."""
        key = (self.where, kind)
        self.counts[key] = self.counts.get(key, -1) + 1
        return f"{self.where} {kind} {self.counts[key]}"

    def add(self, kind, value):
        self.records.append([self.label(kind), sha(value)])

    def install(self):
        solve, walk = qp.solve_qp, qp.parametric_path

        def solve_qp(*args, **kwargs):
            report = solve(*args, **kwargs)
            self.iterations += report.iterations
            self.add("solve_qp", report)
            return report

        def parametric_path(*args, **kwargs):
            walk_label = self.label("walk")
            for i, piece in enumerate(walk(*args, **kwargs)):
                self.records.append([f"{walk_label} piece {i}", sha(tuple(piece[:5]))])
                yield piece

        wrappers = {"solve_qp": (solve, solve_qp), "parametric_path": (walk, parametric_path)}
        for name, module in list(sys.modules.items()):
            if name == "roboalloc" or name.startswith("roboalloc."):
                for attr, (original, wrapper) in wrappers.items():
                    if getattr(module, attr, None) is original:
                        self.bindings.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in self.bindings:
            setattr(module, attr, original)
        self.bindings = []


def _files(root):
    return {os.path.join(d, f) for d, _, names in os.walk(root) for f in names}


def _output(recorder, workdir, op):
    """The op's output, or the name of the error it raised; for the CLI's
    verbs, their exit codes and the files they wrote, by base name."""
    before = _files(workdir)
    try:
        out = op.run()
    except Exception as error:  # noqa: BLE001  (a raised error is an answer too)
        return f"raised {type(error).__name__}"
    if recorder.workload == "advisor_cli":
        written = {}
        for path in sorted(_files(workdir) - before):
            with open(path, "rb") as handle:
                written[os.path.basename(path)] = handle.read()
        return [code for code, _, _ in out], written
    return out


def record(cycles) -> dict:
    """Run the first ``cycles[name]`` cycles of each workload; the ledger."""
    from workloads import WORKLOADS

    recorder = Recorder()
    recorder.install()
    summary = {}
    try:
        for name, count in cycles.items():
            qp._start.cache_clear()
            first, iterations = len(recorder.records), recorder.iterations
            recorder.workload = name
            with tempfile.TemporaryDirectory() as workdir:
                recorder.where = f"{name} setup"
                workload = WORKLOADS[name](roboalloc, workdir)
                for i in range(count):
                    recorder.where = f"{name} cycle {i} build"
                    ops = workload.cycle(i)
                    for j, op in enumerate(ops):
                        recorder.where = f"{name} cycle {i} op {j} {op.kind}"
                        recorder.add("output", _output(recorder, workdir, op))
            labels = [label for label, _ in recorder.records[first:]]
            summary[name] = {
                "cycles": count,
                "solve_qp": sum(" solve_qp " in label for label in labels),
                "pieces": sum(" piece " in label for label in labels),
                "ops": sum(" output " in label for label in labels),
                "iterations": recorder.iterations - iterations,
            }
    finally:
        recorder.uninstall()
    total = {key: sum(s[key] for s in summary.values())
             for key in ("solve_qp", "pieces", "ops", "iterations")}
    return {"workloads": summary, "total": total, "records": recorder.records}


def compare(recorded, now) -> dict:
    """The records of two ledgers aligned by label: for each ``(workload,
    kind)``, the labels in each of ``STATES``, in record order."""
    digests, table = dict(now), {}

    def put(label, state):
        kind = next(k for k in KINDS if f" {k} " in label)
        table.setdefault((label.split()[0], kind), {s: [] for s in STATES})[state].append(label)

    for label, digest in recorded:
        put(label, "recorded only" if label not in digests else
            "match" if digests[label] == digest else "moved")
    known = {label for label, _ in recorded}
    for label, _ in now:
        if label not in known:
            put(label, "now only")
    return table


def check(path) -> int:
    with open(path) as handle:
        want = json.load(handle)
    got = record({name: s["cycles"] for name, s in want["workloads"].items()})
    print(TOTALS % got["total"])
    differs = False
    table = compare(want["records"], got["records"])
    for workload, kind in sorted(table, key=lambda key: (list(CYCLES).index(key[0]),
                                                         KINDS.index(key[1]))):
        states = table[workload, kind]
        counts = ", ".join(f"{len(states[s])} {s}" for s in STATES)
        firsts = "".join(f"; first {s}: {states[s][0]}" for s in STATES[1:] if states[s])
        print(f"{workload} {kind}: {counts}{firsts}")
        differs |= len(states["match"]) < sum(map(len, states.values()))
    if differs:
        return 1
    print(f"every record matches {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="write the ledger to this file")
    mode.add_argument("--check", help="rerun the cycles of this ledger and compare")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.check)
    ledger = record(CYCLES)
    with open(args.out, "w") as handle:
        json.dump(ledger, handle, indent=0)
        handle.write("\n")
    print(TOTALS % ledger["total"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
