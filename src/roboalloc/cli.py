"""Batch command-line front end.

Subcommands: estimate, optimize, path, calibrate, views, stevens.
Exit codes: 0 success, 1 input or usage error, 2 solver non-convergence
(the report is still written).  All outputs are written atomically.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import calibration, market_data, views as views_mod
from .admm import AdmmParams, solve_penalized
from .errors import (
    AllocationError,
    InputError,
    MaxIterations,
    NoConvergence,
)
from .market_data import _array, _check_keys, _load_json, _number, _read_csv, _vector
from .mvo import (
    ConstraintSet,
    MvoInputs,
    calibrate_gamma,
    implied_returns,
    solve_gamma_problem,
    stevens_decomposition,
)
from .pipeline import _PATH_PARAMS, RoboConfig, rebalance, regularization_path
from .regularizers import FilterSpec, PenaltySpec, filter_covariance, penalty_terms
from .report import atomic_write, write_csv


def _write_json(path: str, obj, pretty: bool) -> None:
    text = json.dumps(obj, indent=2 if pretty else None, sort_keys=pretty)
    atomic_write(path, text + "\n")


def _parse_scheme(text: str) -> market_data.WeightScheme:
    if text == "uniform":
        return market_data.WeightScheme.uniform()
    if text.startswith("ewma:"):
        return market_data.WeightScheme.ewma(float(text.split(":", 1)[1]))
    if text.startswith("explicit:"):
        return market_data.WeightScheme.explicit(_load_json(text.split(":", 1)[1]))
    raise InputError(f"unknown scheme {text!r} (use uniform | ewma:<decay> | explicit:<file>)")


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 4:
        raise InputError("grid must look like log:1e-4:1e2:25 or linear:0:1:11")
    scale, lo, hi, pts = parts
    return calibration.make_grid(scale, float(lo), float(hi), int(pts))


# --- problem documents -------------------------------------------------------

_CONSTRAINT_KEYS = ("budget", "lower", "upper", "eq", "ineq")
_PROBLEM_KEYS = (
    "mu", "sigma", "moments_file", "r", "gamma", "target", "constraints",
    "penalties", "filter", "strategic", "current", "objective", "te_target",
    "admm", "assets",
)
_PLAIN_KEYS = ("r", "target")
_REBALANCE_KEYS = ("strategic", "current", "objective", "te_target")


def _parse_constraints(obj: dict, n: int) -> ConstraintSet:
    _check_keys(obj, _CONSTRAINT_KEYS, where="constraints")

    def bound(key):
        if key not in obj:
            return None
        if isinstance(obj[key], list):
            return _vector(obj[key], f"constraints.{key}", n)
        return np.full(n, _number(obj[key], f"constraints.{key}"))

    def rows(key):
        if key not in obj:
            return None
        where = f"constraints.{key}"
        _check_keys(obj[key], ("a", "b"), ("a", "b"), where=where)
        a = np.atleast_2d(_array(obj[key]["a"], f"{where}.a"))
        b = np.atleast_1d(_array(obj[key]["b"], f"{where}.b"))
        if b.ndim != 1 or a.shape != (b.size, n):
            raise InputError(f"{where} needs a vector b and a matrix a of {n} columns "
                             "with one row per entry of b")
        return a, b

    budget = _number(obj["budget"], "constraints.budget") if "budget" in obj else None
    return ConstraintSet(budget=budget, lower=bound("lower"), upper=bound("upper"),
                         eq=rows("eq"), ineq=rows("ineq"))


def _resolve_matrix(spec, n: int, sigma: np.ndarray, where: str):
    if spec == "identity":
        return None
    if spec == "diag_sigma":
        return np.diag(np.sqrt(np.diag(sigma)))
    gamma = _array(spec, where)
    if gamma.ndim not in (1, 2) or gamma.shape[-1] != n:
        raise InputError(f"{where} must be 'identity', 'diag_sigma', a matrix "
                         f"of {n} columns or the vector of a diagonal")
    return gamma  # PenaltySpec reads a vector as the diagonal


def _resolve_anchor(spec, doc: dict, n: int, where: str):
    if spec in ("strategic", "current"):
        if spec not in doc:
            raise InputError(f"{where} refers to a missing {spec!r} portfolio")
        spec = doc[spec]
    return _vector(spec, where, n)


def _parse_penalties(doc: dict, n: int, sigma: np.ndarray):
    items = doc.get("penalties", [])
    if not isinstance(items, list):
        raise InputError("penalties must be a JSON list")
    out = []
    for i, item in enumerate(items):
        where = f"penalties[{i}]"
        _check_keys(item, ("kind", "p", "rho", "gamma", "anchor"), ("kind", "rho"),
                    where=where)
        kind = item["kind"]
        if kind not in ("l1", "l2", "lp"):
            raise InputError(f"{where}.kind must be l1, l2 or lp")
        if ("p" in item) != (kind == "lp"):
            raise InputError(f"{where}: p is required for lp penalties and only for them")
        out.append(PenaltySpec(
            kind=kind, rho=_number(item["rho"], f"{where}.rho"),
            p=_number(item["p"], f"{where}.p") if "p" in item else None,
            gamma_matrix=_resolve_matrix(item["gamma"], n, sigma, f"{where}.gamma")
            if "gamma" in item else None,
            anchor=_resolve_anchor(item["anchor"], doc, n, f"{where}.anchor")
            if "anchor" in item else None))
    return out


_NO_ADMM = "admm applies only to plain problems with an lp penalty; this one is solved exactly"


def _parse_admm(obj: dict) -> AdmmParams:
    """ADMM parameters from an ``admm`` block.  Only a plain problem with an
    ``lp`` penalty runs ADMM: on any other document the block could change
    nothing, and the callers reject it with ``_NO_ADMM``."""
    _check_keys(obj, ("eps_primal", "eps_dual", "max_iter"), where="admm")

    def get(key, default, integer=False):
        return _number(obj[key], f"admm.{key}", integer) if key in obj else default

    return AdmmParams(
        eps_primal=get("eps_primal", 1e-10), eps_dual=get("eps_dual", 1e-10),
        max_iter=get("max_iter", 10000, True))


def _load_problem(path: str):
    doc = _load_json(path)
    _check_keys(doc, _PROBLEM_KEYS, where="problem")
    inline = {k: doc[k] for k in ("mu", "sigma", "assets") if k in doc}
    if "moments_file" in doc:
        if inline:
            raise InputError(f"keys {list(inline)} conflict with moments_file")
        if not isinstance(doc["moments_file"], str):
            raise InputError("moments_file must be a file name")
        moments = market_data.load_moments(doc["moments_file"])
    else:
        moments = market_data.moments_from_dict(inline)
    mu, sigma, assets = moments.mu, moments.sigma, moments.assets
    if "filter" in doc:
        _check_keys(doc["filter"], ("kind", "rho"), ("kind",), where="filter")
        spec = FilterSpec(kind=doc["filter"]["kind"],
                          rho=_number(doc["filter"].get("rho", 0.0), "filter.rho"))
        if spec.kind != "none":
            sigma = filter_covariance(sigma, spec)
    return doc, mu, sigma, assets


def _robo_config(doc: dict, mu: np.ndarray, sigma: np.ndarray) -> RoboConfig:
    """The rebalancing configuration a document describes.  Each penalty
    fills one of the four (l1 | l2, strategic | current) slots, so an lp
    penalty, a second penalty on a slot, or an anchor that is neither book
    is rejected rather than reinterpreted.  No rebalancing document runs
    ADMM, so an ``admm`` block is rejected too."""
    n = mu.size
    for key in ("strategic", "current"):
        if key not in doc:
            raise InputError(f"rebalancing problems need {key!r}")
    unused = [k for k in _PLAIN_KEYS if k in doc]
    if unused:
        raise InputError(f"keys {unused} do not apply to rebalancing problems")
    if "admm" in doc:
        _parse_admm(doc["admm"])  # a malformed block is named as such
        raise InputError(_NO_ADMM)
    strategic = _vector(doc["strategic"], "strategic", n)
    current = _vector(doc["current"], "current", n)
    penalties = _parse_penalties(doc, n, sigma)
    slots = {}
    for i, (item, pen) in enumerate(zip(doc.get("penalties", []), penalties)):
        where = f"penalties[{i}]"
        if pen.kind == "lp":
            raise InputError(f"{where}: rebalancing problems take l1 and l2 penalties only")
        anchor = item.get("anchor", "strategic")
        if anchor == "current" or (anchor != "strategic"
                                   and np.array_equal(pen.anchor, current)):
            block = "turnover"
        elif anchor == "strategic" or np.array_equal(pen.anchor, strategic):
            block = "strategic"
        else:
            raise InputError(f"{where}: the anchor must be the strategic or the current book")
        kind = pen.kind[1]
        if f"rho{kind}_{block}" in slots:
            raise InputError(f"{where}: a second {pen.kind} penalty on the {block} anchor")
        slots[f"rho{kind}_{block}"] = pen.rho
        slots[f"gamma{kind}_{block}"] = pen.gamma_matrix
    return RoboConfig(
        strategic=strategic, current=current,
        objective=doc.get("objective", "tracking_error"),
        gamma=_number(doc["gamma"], "gamma") if "gamma" in doc else None,
        te_target=_number(doc["te_target"], "te_target") if "te_target" in doc else None,
        constraints=(_parse_constraints(doc["constraints"], n) if "constraints" in doc
                     else None),
        **slots)


def _solve_problem(doc: dict, mu: np.ndarray, sigma: np.ndarray):
    if "strategic" in doc or "current" in doc:
        config = _robo_config(doc, mu, sigma)
        return rebalance(config, mu, sigma), config

    n = mu.size
    unused = [k for k in _REBALANCE_KEYS if k in doc]
    if unused:
        raise InputError(f"keys {unused} need a rebalancing problem (strategic and current)")
    constraints = (_parse_constraints(doc["constraints"], n) if "constraints" in doc
                   else ConstraintSet())
    inputs = MvoInputs(mu=mu, sigma=sigma, r=_number(doc.get("r", 0.0), "r"))
    penalties = _parse_penalties(doc, n, sigma)
    admm_params = _parse_admm(doc.get("admm", {}))
    if "admm" in doc and not any(pen.kind == "lp" for pen in penalties):
        raise InputError(_NO_ADMM)
    if "target" in doc:
        _check_keys(doc["target"], ("type", "value"), ("type", "value"), where="target")
        kind = doc["target"]["type"]
        value = _number(doc["target"]["value"], "target.value")
        if penalties:
            raise InputError("target calibration does not combine with penalties")
        if kind in ("volatility", "vol"):
            gamma, report = calibrate_gamma(inputs, constraints, target_vol=value)
        elif kind in ("return", "expected_return"):
            gamma, report = calibrate_gamma(inputs, constraints, target_return=value)
        else:
            raise InputError(f"unknown target type {kind!r}")
        return report, None
    gamma = _number(doc.get("gamma", 0.0), "gamma")
    if not penalties:
        return solve_gamma_problem(inputs, gamma, constraints), None

    p_mat, q_vec, l1, blocks, penalty = penalty_terms(penalties, inputs.sigma,
                                                      gamma * inputs.excess)

    def objective(x):
        return 0.5 * x @ inputs.sigma @ x - gamma * x @ inputs.excess + penalty(x)

    report = solve_penalized(p_mat, q_vec, l1, blocks, constraints, params=admm_params,
                             objective=objective)
    report.gamma = gamma
    return report, None


# --- subcommands --------------------------------------------------------------


def cmd_estimate(args) -> int:
    panel = market_data.read_panel_csv(args.returns)
    scheme = _parse_scheme(args.scheme)
    moments = market_data.estimate_moments(panel, scheme)
    _write_json(args.out, market_data.moments_to_dict(moments), args.pretty)
    return 0


def cmd_optimize(args) -> int:
    doc, mu, sigma, _assets = _load_problem(args.problem)
    report, _config = _solve_problem(doc, mu, sigma)
    _write_json(args.out, report.to_dict(), args.pretty)
    return 0 if report.converged else 2


def cmd_path(args) -> int:
    doc, mu, sigma, assets = _load_problem(args.problem)
    config = _robo_config(doc, mu, sigma)
    grid = _parse_grid(args.grid)
    table = regularization_path(config, mu, sigma, grid, param=args.param,
                                assets=assets)
    table.to_csv(args.out)
    bad = [s for s in table.status if s != "converged"]
    return 0 if not bad else 2


def cmd_calibrate(args) -> int:
    _, y, x = _read_csv(args.data, "y", float)
    data = calibration.RidgeRegressionData(x=x, y=y)
    grid = _parse_grid(args.grid)
    if args.method == "press":
        curve = calibration.press(data, grid)
    elif args.method == "gcv":
        curve = calibration.gcv(data, grid)
    elif args.method == "kfold":
        _, curve = calibration.kfold_cv(data, args.k, grid, shuffle_seed=args.seed)
    else:
        raise InputError(f"unknown method {args.method!r}")
    best = calibration.best_penalty(grid, curve)
    write_csv(args.out, ["rho2", "score"],
              [[repr(float(r)), repr(float(s))] for r, s in zip(grid, curve)])
    print(f"best_rho2={best!r}")
    return 0


_VIEWS_KEYS = ("strategic", "r", "sharpe", "grades", "delta", "tau", "scale_size",
               "P", "Q", "sigma_eps", "moments_file")


def cmd_views(args) -> int:
    doc = _load_json(args.views)
    _check_keys(doc, _VIEWS_KEYS, where="views")
    if args.moments:
        moments = market_data.load_moments(args.moments)
    elif isinstance(doc.get("moments_file"), str):
        moments = market_data.load_moments(doc["moments_file"])
    else:
        raise InputError("views need a moments file (flag or key)")
    sigma = moments.sigma
    n = len(moments.assets)
    strategic = _vector(doc["strategic"], "strategic", n) if "strategic" in doc \
        else np.full(n, 1.0 / n)
    r = _number(doc.get("r", 0.0), "r")
    sharpe = _number(doc.get("sharpe", 0.5), "sharpe")
    if "grades" in doc:
        grades_map = doc["grades"]
        if not isinstance(grades_map, dict):
            raise InputError("grades must be a JSON object of asset grades")
        unknown = sorted(set(grades_map) - set(moments.assets))
        if unknown:
            raise InputError(f"grades name unknown assets {unknown}")
        scores = np.array([_number(grades_map.get(a, 0), f"grades.{a}")
                           for a in moments.assets])
        n_s = views_mod.scale_range_index(
            _number(doc.get("scale_size", 7), "scale_size", integer=True))
        mu_implied, mu_manager, mu_blended = views_mod.grades_to_expected_returns(
            strategic, sigma, r, sharpe, scores,
            delta=_number(doc.get("delta", 1.0), "delta"),
            tau=_number(doc.get("tau", 1.0), "tau"), n_s=n_s)
        out = {"assets": list(moments.assets),
               "mu_implied": mu_implied.tolist(),
               "mu_manager": mu_manager.tolist(),
               "mu_blended": mu_blended.tolist()}
    else:
        for key in ("P", "Q", "sigma_eps"):
            if key not in doc:
                raise InputError("matrix views need P, Q and sigma_eps")
        p = np.atleast_2d(_array(doc["P"], "P"))
        if p.ndim != 2 or p.shape[1] != n:
            raise InputError(f"P must be a matrix of {n} columns")
        vs = views_mod.ViewSet(p=p, q=_array(doc["Q"], "Q"),
                               sigma_eps=_array(doc["sigma_eps"], "sigma_eps"))
        mu_tilde = implied_returns(strategic, sigma, r, sharpe)
        mu_bar, sigma_bar = views_mod.bl_conditional(mu_tilde, sigma, vs)
        out = {"assets": list(moments.assets),
               "mu_implied": mu_tilde.tolist(),
               "mu_conditional": mu_bar.tolist(),
               "sigma_conditional": sigma_bar.ravel().tolist()}
    _write_json(args.out, out, args.pretty)
    return 0


def cmd_stevens(args) -> int:
    moments = market_data.load_moments(args.moments)
    inputs = MvoInputs(mu=moments.mu, sigma=moments.sigma)
    report = stevens_decomposition(inputs, args.gamma, assets=moments.assets)
    tail = ("r2", "mu_hat", "sigma_hat", "s", "omega", "y_star", "z_star", "x_star")
    rows = []
    for i, name in enumerate(moments.assets):
        betas = [repr(float(b)) for b in report.beta[i]]
        betas.insert(i, "")  # the asset's own column stays empty
        rows.append([name, repr(float(report.alpha[i]))] + betas
                    + [repr(float(getattr(report, k)[i])) for k in tail])
    header = ["asset", "alpha"] + [f"beta_{a}" for a in moments.assets] + list(tail)
    write_csv(args.out, header, rows)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  ``main`` runs the verb
    ``command`` names as ``cmd_<command>``, looked up when it runs, so a
    wrapper installed on a ``cmd_*`` function after the parser was built
    still runs."""
    parser = argparse.ArgumentParser(prog="roboalloc",
                                     description="portfolio allocation engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pretty=False):
        p.add_argument("--out", required=True, help="output file")
        if pretty:
            p.add_argument("--pretty", action="store_true", help="human-readable JSON output")

    p = sub.add_parser("estimate", help="CSV panel -> moments JSON")
    p.add_argument("--returns", required=True)
    p.add_argument("--scheme", default="uniform")
    common(p, pretty=True)

    p = sub.add_parser("optimize", help="problem JSON -> weights report")
    p.add_argument("--problem", required=True)
    common(p, pretty=True)

    p = sub.add_parser("path", help="penalty sweep -> CSV table")
    p.add_argument("--problem", required=True)
    p.add_argument("--param", default="rho1", choices=_PATH_PARAMS,
                   help="the penalty swept; rho1 and rho2 name the strategic block's")
    p.add_argument("--grid", required=True, help="log:lo:hi:points or linear:lo:hi:points")
    common(p)

    p = sub.add_parser("calibrate", help="penalty selection curve")
    p.add_argument("--data", required=True, help="CSV with header y,<x...>")
    p.add_argument("--method", default="gcv", choices=("press", "gcv", "kfold"))
    p.add_argument("--grid", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0, help="k-fold shuffle seed")
    common(p)

    p = sub.add_parser("views", help="grades/views -> expected returns")
    p.add_argument("--views", required=True)
    p.add_argument("--moments", default=None)
    common(p, pretty=True)

    p = sub.add_parser("stevens", help="hedging-portfolio decomposition CSV")
    p.add_argument("--moments", required=True)
    p.add_argument("--gamma", type=float, required=True)
    common(p)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        return globals()[f"cmd_{args.command}"](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MaxIterations, NoConvergence) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except AllocationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
