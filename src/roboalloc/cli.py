"""Batch command-line front end.

Subcommands: estimate, optimize, path, calibrate, views, stevens.
Exit codes: 0 success, 1 input error, 2 solver non-convergence (the report
is still written).  All outputs are written atomically.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile

import numpy as np

from . import calibration, market_data, views as views_mod
from .admm import AdmmParams, solve_mixed_lp
from .errors import (
    AllocationError,
    InputError,
    MaxIterations,
    NoConvergence,
    NumericalDivergence,
)
from .mvo import (
    ConstraintSet,
    MvoInputs,
    calibrate_gamma,
    solve_gamma_problem,
    stevens_decomposition,
)
from .pipeline import RoboConfig, rebalance, regularization_path
from .regularizers import FilterSpec, PenaltySpec, ridge_mvo, spectral_filter


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, obj, pretty: bool) -> None:
    text = json.dumps(obj, indent=2 if pretty else None, sort_keys=pretty)
    _atomic_write(path, text + "\n")


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc


def _check_keys(obj: dict, allowed, required=(), where: str = "document") -> None:
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise InputError(f"unknown keys {unknown} in {where}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise InputError(f"missing keys {missing} in {where}")


def _parse_scheme(text: str) -> market_data.WeightScheme:
    if text == "uniform":
        return market_data.WeightScheme.uniform()
    if text.startswith("ewma:"):
        return market_data.WeightScheme.ewma(float(text.split(":", 1)[1]))
    if text.startswith("explicit:"):
        payload = _load_json(text.split(":", 1)[1])
        return market_data.WeightScheme.explicit(payload)
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


def _parse_constraints(obj: dict | None, n: int) -> ConstraintSet:
    if obj is None:
        return ConstraintSet()
    _check_keys(obj, _CONSTRAINT_KEYS, where="constraints")

    def bound(v):
        if v is None:
            return None
        return np.full(n, float(v)) if np.isscalar(v) else np.asarray(v, float)

    eq = ineq = None
    if "eq" in obj:
        _check_keys(obj["eq"], ("a", "b"), ("a", "b"), where="constraints.eq")
        eq = (np.asarray(obj["eq"]["a"], float), np.asarray(obj["eq"]["b"], float))
    if "ineq" in obj:
        _check_keys(obj["ineq"], ("a", "b"), ("a", "b"), where="constraints.ineq")
        ineq = (np.asarray(obj["ineq"]["a"], float), np.asarray(obj["ineq"]["b"], float))
    return ConstraintSet(budget=obj.get("budget"), lower=bound(obj.get("lower")),
                         upper=bound(obj.get("upper")), eq=eq, ineq=ineq)


def _resolve_matrix(spec, n: int, sigma: np.ndarray):
    if spec is None or spec == "identity":
        return None
    if spec == "diag_sigma":
        return np.diag(np.sqrt(np.diag(sigma)))
    return np.asarray(spec, dtype=float)


def _resolve_anchor(spec, doc: dict):
    if spec is None:
        return None
    if spec == "strategic":
        return np.asarray(doc["strategic"], float)
    if spec == "current":
        return np.asarray(doc["current"], float)
    return np.asarray(spec, dtype=float)


def _parse_penalties(doc: dict, n: int, sigma: np.ndarray):
    items = doc.get("penalties", [])
    if not isinstance(items, list):
        raise InputError("penalties must be a JSON list")
    out = []
    for i, item in enumerate(items):
        _check_keys(item, ("kind", "p", "rho", "gamma", "anchor"), ("kind", "rho"),
                    where=f"penalties[{i}]")
        out.append(PenaltySpec(
            kind=item["kind"], rho=float(item["rho"]), p=item.get("p"),
            gamma_matrix=_resolve_matrix(item.get("gamma"), n, sigma),
            anchor=_resolve_anchor(item.get("anchor"), doc)))
    return out


def _parse_admm(obj: dict | None, tol: float | None = None,
                seed: int = 0) -> AdmmParams:
    """ADMM parameters from the problem document; the --tol/--seed flags act
    as defaults that explicit document keys override."""
    obj = obj or {}
    _check_keys(obj, ("phi0", "mu", "tau", "eps_primal", "eps_dual",
                      "max_iter", "restarts", "seed"), where="admm")
    tau = float(obj.get("tau", 2.0))
    eps_default = tol if tol is not None else 1e-10
    return AdmmParams(
        phi0=float(obj.get("phi0", 1.0)), mu=float(obj.get("mu", 1e3)),
        tau_up=tau, tau_down=tau,
        eps_primal=float(obj.get("eps_primal", eps_default)),
        eps_dual=float(obj.get("eps_dual", eps_default)),
        max_iter=int(obj.get("max_iter", 10000)),
        restarts=int(obj.get("restarts", 5)), seed=int(obj.get("seed", seed)))


def _load_problem(path: str):
    doc = _load_json(path)
    _check_keys(doc, _PROBLEM_KEYS, where="problem")
    if "moments_file" in doc:
        moments = market_data.load_moments(doc["moments_file"])
        mu, sigma = moments.mu, moments.sigma
        assets = moments.assets
    else:
        if "mu" not in doc or "sigma" not in doc:
            raise InputError("problem needs either moments_file or mu+sigma")
        mu = np.asarray(doc["mu"], dtype=float)
        sigma = np.asarray(doc["sigma"], dtype=float)
        if sigma.ndim == 1:
            n = mu.size
            if sigma.size != n * n:
                raise InputError("row-major sigma has wrong length")
            sigma = sigma.reshape(n, n)
        assets = doc.get("assets") or [f"A{i + 1}" for i in range(mu.size)]
    if "filter" in doc:
        _check_keys(doc["filter"], ("kind", "rho"), ("kind",), where="filter")
        spec = FilterSpec(kind=doc["filter"]["kind"],
                          rho=float(doc["filter"].get("rho", 0.0)))
        if spec.kind != "none":
            vec, lam = market_data.eigen_decompose(sigma)
            root = (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.T
            _, sigma = spectral_filter(root, spec)
    return doc, mu, sigma, assets


def _solve_problem(doc: dict, mu: np.ndarray, sigma: np.ndarray,
                   tol: float | None = None, seed: int = 0):
    n = mu.size
    constraints = _parse_constraints(doc.get("constraints"), n)
    admm_params = _parse_admm(doc.get("admm"), tol=tol, seed=seed)
    if "strategic" in doc or "current" in doc:
        for key in ("strategic", "current"):
            if key not in doc:
                raise InputError(f"rebalancing problems need {key!r}")
        penalties = _parse_penalties(doc, n, sigma)
        config = RoboConfig(strategic=np.asarray(doc["strategic"], float),
                            current=np.asarray(doc["current"], float),
                            objective=doc.get("objective", "tracking_error"),
                            gamma=doc.get("gamma"),
                            te_target=doc.get("te_target"),
                            constraints=constraints, admm=admm_params)
        for pen in penalties:
            anchor_is_current = pen.anchor is not None and np.array_equal(
                pen.anchor, config.current)
            block = "turnover" if anchor_is_current else "strategic"
            kind = "1" if pen.kind == "l1" else "2"
            setattr(config, f"rho{kind}_{block}", pen.rho)
            setattr(config, f"gamma{kind}_{block}", pen.gamma_matrix)
        return rebalance(config, mu, sigma), config

    inputs = MvoInputs(mu=mu, sigma=sigma, r=float(doc.get("r", 0.0)))
    penalties = _parse_penalties(doc, n, sigma)
    l1 = [p for p in penalties if p.kind in ("l1", "lp")]
    l2 = [p for p in penalties if p.kind == "l2"]
    if "target" in doc:
        _check_keys(doc["target"], ("type", "value"), ("type", "value"), where="target")
        kind, value = doc["target"]["type"], float(doc["target"]["value"])
        if penalties:
            raise InputError("target calibration does not combine with penalties")
        cal_tol = tol if tol is not None else 1e-6
        if kind in ("volatility", "vol"):
            gamma, report = calibrate_gamma(inputs, constraints, target_vol=value,
                                            tol=cal_tol)
        elif kind in ("return", "expected_return"):
            gamma, report = calibrate_gamma(inputs, constraints,
                                            target_return=value, tol=cal_tol)
        else:
            raise InputError(f"unknown target type {kind!r}")
        return report, None
    gamma = float(doc.get("gamma", 0.0))
    if l1:
        root = _matrix_root(sigma)
        b1 = np.linalg.pinv(root.T) @ (gamma * inputs.excess)
        report = solve_mixed_lp(root, b1, l2[0] if l2 else None, l1[0],
                                constraints=constraints, params=admm_params)
        report.gamma = gamma
        return report, None
    if l2:
        pen = l2[0]
        if pen.gamma_matrix is not None:
            raise InputError("the direct l2 path only supports identity gamma")
        return ridge_mvo(inputs.mu, sigma, gamma, pen.rho, x0=pen.anchor,
                         constraints=constraints), None
    return solve_gamma_problem(inputs, gamma, constraints), None


def _matrix_root(sigma: np.ndarray) -> np.ndarray:
    vec, lam = market_data.eigen_decompose(sigma)
    return (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.T


# --- subcommands --------------------------------------------------------------


def cmd_estimate(args) -> int:
    panel = market_data.read_panel_csv(args.returns)
    scheme = _parse_scheme(args.scheme)
    moments = market_data.estimate_moments(panel, scheme)
    _write_json(args.out, market_data.moments_to_dict(moments), args.pretty)
    return 0


def cmd_optimize(args) -> int:
    doc, mu, sigma, _assets = _load_problem(args.problem)
    report, _config = _solve_problem(doc, mu, sigma, tol=args.tol, seed=args.seed)
    _write_json(args.out, report.to_dict(), args.pretty)
    return 0 if report.converged else 2


def cmd_path(args) -> int:
    doc, mu, sigma, assets = _load_problem(args.problem)
    n = mu.size
    constraints = _parse_constraints(doc.get("constraints"), n)
    if "strategic" not in doc or "current" not in doc:
        raise InputError("path problems need strategic and current portfolios")
    config = RoboConfig(strategic=np.asarray(doc["strategic"], float),
                        current=np.asarray(doc["current"], float),
                        objective=doc.get("objective", "tracking_error"),
                        gamma=doc.get("gamma", 0.0),
                        constraints=constraints,
                        admm=_parse_admm(doc.get("admm"), tol=args.tol,
                                         seed=args.seed))
    for pen in _parse_penalties(doc, n, sigma):
        anchor_is_current = pen.anchor is not None and np.array_equal(
            pen.anchor, config.current)
        block = "turnover" if anchor_is_current else "strategic"
        kind = "1" if pen.kind == "l1" else "2"
        setattr(config, f"rho{kind}_{block}", pen.rho)
        setattr(config, f"gamma{kind}_{block}", pen.gamma_matrix)
    grid = _parse_grid(args.grid)
    table = regularization_path(config, mu, sigma, grid, param=args.param,
                                assets=assets)
    table.to_csv(args.out)
    bad = [s for s in table.status if s != "converged"]
    return 0 if not bad else 2


def cmd_calibrate(args) -> int:
    rows = []
    with open(args.data, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or header[0].strip().lower() != "y":
            raise InputError(f"{args.data}: expected header 'y,<x...>'")
        for line in reader:
            rows.append([float(v) for v in line])
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise InputError("calibration data needs a response and regressors")
    data = calibration.RidgeRegressionData(x=arr[:, 1:], y=arr[:, 0])
    grid = _parse_grid(args.grid)
    if args.method == "press":
        curve = np.array([calibration.press(data, r) for r in grid])
        best = float(grid[np.isclose(curve, curve.min())].min())
    elif args.method == "gcv":
        curve = np.array([calibration.gcv(data, r) for r in grid])
        best = float(grid[np.isclose(curve, curve.min())].min())
    elif args.method == "kfold":
        best, curve = calibration.kfold_cv(data, args.k, grid, shuffle_seed=args.seed)
    else:
        raise InputError(f"unknown method {args.method!r}")
    lines = ["rho2,score"]
    lines += [f"{repr(float(r))},{repr(float(s))}" for r, s in zip(grid, curve)]
    _atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"best_rho2={best!r}")
    return 0


_VIEWS_KEYS = ("strategic", "r", "sharpe", "grades", "delta", "tau", "scale_size",
               "P", "Q", "sigma_eps", "moments_file")


def cmd_views(args) -> int:
    doc = _load_json(args.views)
    _check_keys(doc, _VIEWS_KEYS, where="views")
    if args.moments:
        moments = market_data.load_moments(args.moments)
    elif "moments_file" in doc:
        moments = market_data.load_moments(doc["moments_file"])
    else:
        raise InputError("views need a moments file (flag or key)")
    sigma = moments.sigma
    if "grades" in doc:
        grades_map = doc["grades"]
        scores = np.array([float(grades_map.get(a, 0)) for a in moments.assets])
        n_s = views_mod.scale_range_index(int(doc.get("scale_size", 7)))
        strategic = np.asarray(doc.get("strategic",
                                       np.full(len(moments.assets), 1.0 / len(moments.assets))), float)
        mu_implied, mu_manager, mu_blended = views_mod.grades_to_expected_returns(
            strategic, sigma, float(doc.get("r", 0.0)), float(doc.get("sharpe", 0.5)),
            scores, delta=float(doc.get("delta", 1.0)),
            tau=float(doc.get("tau", 1.0)), n_s=n_s)
        out = {"assets": list(moments.assets),
               "mu_implied": mu_implied.tolist(),
               "mu_manager": mu_manager.tolist(),
               "mu_blended": mu_blended.tolist()}
    else:
        for key in ("P", "Q", "sigma_eps"):
            if key not in doc:
                raise InputError("matrix views need P, Q and sigma_eps")
        vs = views_mod.ViewSet(p=np.asarray(doc["P"], float),
                               q=np.asarray(doc["Q"], float),
                               sigma_eps=np.asarray(doc["sigma_eps"], float))
        strategic = np.asarray(doc.get("strategic",
                                       np.full(len(moments.assets), 1.0 / len(moments.assets))), float)
        from .mvo import implied_returns
        mu_tilde = implied_returns(strategic, sigma, float(doc.get("r", 0.0)),
                                   float(doc.get("sharpe", 0.5)))
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
    n = len(moments.assets)
    lines = ["asset,alpha," + ",".join(f"beta_{a}" for a in moments.assets)
             + ",r2,mu_hat,sigma_hat,s,omega,y_star,z_star,x_star"]
    for i, name in enumerate(moments.assets):
        betas = []
        k = 0
        for j in range(n):
            if j == i:
                betas.append("")
            else:
                betas.append(repr(float(report.beta[i, k])))
                k += 1
        cells = [name, repr(float(report.alpha[i]))] + betas + [
            repr(float(report.r2[i])), repr(float(report.mu_hat[i])),
            repr(float(report.sigma_hat[i])), repr(float(report.s[i])),
            repr(float(report.omega[i])), repr(float(report.y_star[i])),
            repr(float(report.z_star[i])), repr(float(report.x_star[i]))]
        lines.append(",".join(cells))
    _atomic_write(args.out, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="roboalloc",
                                     description="portfolio allocation engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output file")
        p.add_argument("--pretty", action="store_true",
                       help="human-readable JSON output")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=None,
                       help="override solver tolerance")

    p = sub.add_parser("estimate", help="CSV panel -> moments JSON")
    p.add_argument("--returns", required=True)
    p.add_argument("--scheme", default="uniform")
    common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("optimize", help="problem JSON -> weights report")
    p.add_argument("--problem", required=True)
    common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("path", help="penalty sweep -> CSV table")
    p.add_argument("--problem", required=True)
    p.add_argument("--param", default="rho1", help="rho1 | rho2 (strategic block)")
    p.add_argument("--grid", required=True, help="log:lo:hi:points or linear:lo:hi:points")
    common(p)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("calibrate", help="penalty selection curve")
    p.add_argument("--data", required=True, help="CSV with header y,<x...>")
    p.add_argument("--method", default="gcv", choices=("press", "gcv", "kfold"))
    p.add_argument("--grid", required=True)
    p.add_argument("--k", type=int, default=5)
    common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("views", help="grades/views -> expected returns")
    p.add_argument("--views", required=True)
    p.add_argument("--moments", default=None)
    common(p)
    p.set_defaults(func=cmd_views)

    p = sub.add_parser("stevens", help="hedging-portfolio decomposition CSV")
    p.add_argument("--moments", required=True)
    p.add_argument("--gamma", type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_stevens)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MaxIterations, NoConvergence, NumericalDivergence) as exc:
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
