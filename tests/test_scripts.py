"""The example scripts run end to end against the library as it is."""

import csv
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from roboalloc import qp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SWEEPS = ("ridge_anchored", "ridge_unanchored", "lasso_anchored",
          "lasso_unanchored", "elastic_net")


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_penalty_paths_write_every_sweep(tmp_path):
    proc = run_script("run_penalty_paths.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name in SWEEPS:
        with open(tmp_path / f"{name}.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["param", "A1", "A2", "A3", "A4", "objective", "status"]
        assert len(rows) == 42
        assert all(row[-1] == "converged" for row in rows[1:])
        assert sum(float(w) for w in rows[-1][1:5]) == pytest.approx(1.0, abs=1e-8)


def test_allocation_study_runs():
    proc = run_script("run_allocation_study.py")
    assert proc.returncode == 0, proc.stderr
    for section in ("eigen diagnostics", "volatility-targeted allocation",
                    "nine-asset allocation", "grade blending"):
        assert section in proc.stdout


def test_ledger_repeats_itself_and_catches_a_changed_answer(tmp_path, monkeypatch, capsys):
    # one cycle per workload, recorded twice at this commit: the same bytes,
    # and --check passes, every record matching; a file with one digest
    # changed, one record dropped and one added reads as one moved, one now
    # only and one recorded only, each named; a solve_qp record that moved
    # keeps its answer digest (weights, status and iterations) unless that
    # changed too, and is counted under neither in a ledger written without
    # answer digests; a cold start left unrefined changes the answers'
    # iteration counts, and --check exits 1 naming the first record it moved
    # and the first whose answer moved
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location("ledger", os.path.join(ROOT, "scripts", "ledger.py"))
    ledger = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ledger)
    first = json.dumps(ledger.record(dict.fromkeys(ledger.CYCLES, 1)))
    assert json.dumps(ledger.record(dict.fromkeys(ledger.CYCLES, 1))) == first
    recorded = json.loads(first)
    assert [s["cycles"] for s in recorded["workloads"].values()] == [1, 1, 1]
    assert min(recorded["total"].values()) > 0
    assert all(len(record) == (3 if " solve_qp " in record[0] else 2)
               for record in recorded["records"])
    path = tmp_path / "ledger.json"
    path.write_text(first)
    assert ledger.check(str(path)) == 0
    summary = capsys.readouterr().out.splitlines()[1:-1]
    assert [line.split(":")[0] for line in summary] == [
        "nightly_rebalance solve_qp", "nightly_rebalance output", "target_calibration solve_qp",
        "target_calibration piece", "target_calibration output", "advisor_cli solve_qp",
        "advisor_cli piece", "advisor_cli output"]
    assert all(line.endswith(" match, 0 moved, 0 recorded only, 0 now only") for line in summary)
    edited = json.loads(first)
    records = edited["records"]
    assert " solve_qp " in records[0][0] and " solve_qp " in records[2][0]
    moved, dropped, added = records[0][0], records.pop(2)[0], "advisor_cli cycle 9 output 0"
    records[0][1] = "0" * 64
    records.append([added, "0" * 64])
    path.write_text(json.dumps(edited))
    assert ledger.check(str(path)) == 1
    out = capsys.readouterr().out
    assert (f", 1 moved, 0 recorded only, 1 now only; first moved: {moved}; first now only: "
            f"{dropped}; of the moved, 1 keep their weights, status and iterations and 0 do not\n"
            in out)
    assert f", 0 moved, 1 recorded only, 0 now only; first recorded only: {added}\n" in out
    records[0][2] = "0" * 64
    path.write_text(json.dumps(edited))
    assert ledger.check(str(path)) == 1
    assert (f"; of the moved, 0 keep their weights, status and iterations and 1 do not, "
            f"first: {moved}\n" in capsys.readouterr().out)
    for record in records:
        del record[2:]
    path.write_text(json.dumps(edited))
    assert ledger.check(str(path)) == 1
    assert ("; of the moved, 0 keep their weights, status and iterations and 0 do not\n"
            in capsys.readouterr().out)
    path.write_text(first)
    monkeypatch.setattr(qp, "_refine_start", lambda problem, x: x)
    assert ledger.main(["--check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "; first moved: " in out and " do not, first: " in out
