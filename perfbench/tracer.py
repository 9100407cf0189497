"""Per-layer tracing from outside the package.

``Tracer.install`` replaces every module binding of each traced function
inside the ``roboalloc`` package with a wrapper that records a span (op id,
parent span, start, end) in memory.  Nothing is installed in an untraced
run.  Spans are written out once, at the end, and aggregated into
``<module>.<function>.<stat>`` metrics.
"""

from __future__ import annotations

import csv
import functools
import importlib
import pkgutil
import time

# (layer module, function name); the span is named "<module>.<function>".
TRACED = (
    ("qp", "solve_qp"),
    ("mvo", "solve_gamma_problem"),
    ("mvo", "calibrate_gamma"),
    ("pipeline", "rebalance"),
    ("pipeline", "te_target_to_gamma"),
    ("admm", "admm_solve"),
    ("admm", "lu_factor"),
    ("admm", "lu_solve"),
    ("prox", "prox_l1"),
    ("prox", "project_intersection"),
    ("market_data", "read_panel_csv"),
    ("market_data", "estimate_moments"),
    ("market_data", "eigen_decompose"),
    ("market_data", "clip_psd"),
    ("calibration", "gcv"),
    ("calibration", "press"),
    ("calibration", "kfold_cv"),
    ("views", "grades_to_expected_returns"),
    ("regularizers", "spectral_filter"),
    ("cli", "main"),
    ("cli", "cmd_estimate"),
    ("cli", "cmd_optimize"),
    ("cli", "cmd_path"),
    ("cli", "cmd_calibrate"),
    ("cli", "cmd_views"),
    ("cli", "cmd_stevens"),
)

# span record fields
_ID, _PARENT, _OP, _NAME, _START, _END, _CHILD, _FAILED, _NESTED, _EXTRA = range(10)


def _solver_extra(report):
    return (int(report.iterations), report.status == "converged")


def _calibration_extra(result):
    return len(result[1].meta.get("calibration", ()))


_EXTRACT = {
    "qp.solve_qp": _solver_extra,
    "admm.admm_solve": _solver_extra,
    "mvo.calibrate_gamma": _calibration_extra,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.enabled = False
        self.op_id = -1
        self._stack = []
        self._active = {}       # span name -> open spans of that name
        self._patched = []      # (module, attribute, original)

    # --- installation -----------------------------------------------------------

    def install(self, package):
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m.name}")
                               for m in pkgutil.iter_modules(package.__path__)]
        for layer, fname in TRACED:
            original = getattr(importlib.import_module(f"{package.__name__}.{layer}"), fname)
            wrapper = self._wrap(f"{layer}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        extract = _EXTRACT.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            nested = self._active.get(name, 0)
            rec = [len(self.spans), parent[_ID] if parent else -1, self.op_id, name,
                   0.0, 0.0, 0.0, False, nested > 0, None]
            self.spans.append(rec)
            self._stack.append(rec)
            self._active[name] = nested + 1
            start = clock()
            rec[_START] = start
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[_FAILED] = True
                raise
            finally:
                end = clock()
                rec[_END] = end
                self._stack.pop()
                self._active[name] = nested
                if parent is not None:
                    parent[_CHILD] += end - start
            if extract is not None:
                rec[_EXTRA] = extract(out)
            return out

        return wrapper

    # --- output -----------------------------------------------------------------

    def write(self, path):
        """Spans as CSV: id, parent, op, name, start, end, self time."""
        with open(path, "w", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(["id", "parent", "op", "name", "start_s", "end_s", "self_s", "failed"])
            for rec in self.spans:
                out.writerow([rec[_ID], rec[_PARENT], rec[_OP], rec[_NAME],
                              f"{rec[_START]:.9f}", f"{rec[_END]:.9f}",
                              f"{rec[_END] - rec[_START] - rec[_CHILD]:.9f}", int(rec[_FAILED])])

    def aggregate(self):
        """Per-layer metrics, zero for every traced function never called."""
        agg = {f"{layer}.{fname}": {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0,
                                    "iterations": 0, "converged": 0, "samples": 0,
                                    "solves": 0}
               for layer, fname in TRACED}
        by_id = {rec[_ID]: rec for rec in self.spans}
        for rec in self.spans:
            a = agg[rec[_NAME]]
            dur = rec[_END] - rec[_START]
            a["calls"] += 1
            a["self_s"] += dur - rec[_CHILD]
            if not rec[_NESTED]:
                a["busy_s"] += dur   # inclusive, without double-counting recursion
            a["failed"] += rec[_FAILED]
            extra = rec[_EXTRA]
            if rec[_NAME] in ("qp.solve_qp", "admm.admm_solve") and extra is not None:
                a["iterations"] += extra[0]
                a["converged"] += extra[1]
                if rec[_NAME] == "qp.solve_qp" and not extra[1]:
                    a["failed"] += 1
            elif rec[_NAME] == "mvo.calibrate_gamma" and extra is not None:
                a["samples"] += extra
            if rec[_NAME] == "pipeline.rebalance" and rec[_PARENT] >= 0 \
                    and by_id[rec[_PARENT]][_NAME] == "pipeline.te_target_to_gamma":
                agg["pipeline.te_target_to_gamma"]["solves"] += 1
        return agg


def layer_metrics(agg):
    """The per-layer metrics the benchmark reports, as ``name -> (value, unit)``."""
    m = {}

    def put(name, stats):
        for stat in stats:
            unit = "s" if stat.endswith("_s") else "count"
            m[f"{name}.{stat}"] = (agg[name][stat], unit)

    put("qp.solve_qp", ("calls", "self_s", "iterations", "failed"))
    put("mvo.solve_gamma_problem", ("calls", "self_s"))
    put("mvo.calibrate_gamma", ("calls", "samples"))
    put("pipeline.te_target_to_gamma", ("calls", "solves"))
    put("pipeline.rebalance", ("calls", "self_s"))
    put("admm.admm_solve", ("calls", "busy_s", "self_s", "iterations"))
    calls = agg["admm.admm_solve"]["calls"]
    m["admm.admm_solve.converged_ratio"] = (
        agg["admm.admm_solve"]["converged"] / calls if calls else 0.0, "ratio")
    for name in ("admm.lu_factor", "admm.lu_solve", "prox.prox_l1",
                 "prox.project_intersection", "market_data.clip_psd"):
        put(name, ("calls", "busy_s"))
    for name in ("market_data.read_panel_csv", "market_data.estimate_moments",
                 "market_data.eigen_decompose", "calibration.gcv", "calibration.press",
                 "calibration.kfold_cv", "views.grades_to_expected_returns",
                 "regularizers.spectral_filter", "cli.cmd_estimate", "cli.cmd_optimize",
                 "cli.cmd_path", "cli.cmd_calibrate", "cli.cmd_views", "cli.cmd_stevens"):
        put(name, ("busy_s",))
    m["cli.self_s"] = (sum(v["self_s"] for k, v in agg.items() if k.startswith("cli.")), "s")
    return m
