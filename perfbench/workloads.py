"""The three benchmark workloads.

A workload is a book of cycles; a cycle is a fixed list of ops.  Cycle
``i`` draws its inputs from its own stream ``(workload, i)``, so the inputs
of a cycle never depend on which cycles ran before it.  Building a cycle
(input generation) and checking an op's output happen outside the timed
region; only ``Op.run`` is timed.

A run is the first ``cycles_for(seconds)`` cycles of the book, in an order
drawn from --seed: at least ``run_cycles``, enough for 100 answered ops,
and more if ``seconds`` of op time at the nominal speed (``cycle_seconds``
per cycle, scaled times) asks for more.  So every run of the same code does
the same ops and fails the same ones, whatever the seed and the machine's
speed, and the spread between runs is that of the machine, not of the draw.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import checks
import gen

# nightly_rebalance draws its model portfolios from the first NIGHTLY_MODELS
# model seeds, and the advisor_cli house document from model seed 0.  ADMM
# cost is set mostly by the model and is heavy-tailed across models
# (NOTES.md, "Known findings"): seeds 0-23 include two models whose accounts
# stop at max_iter, about the share seen over a larger sample.
HOUSE_MODEL_SEED = 0
NIGHTLY_MODELS = 24

GAMMA = 0.5
RHO1_STRATEGIC = 5e-4
RHO1_TURNOVER = 2e-4
RHO2_STRATEGIC = 0.02
RHO2_TURNOVER = 0.01
CALIBRATION_METHODS = ("gcv", "press", "kfold")


@dataclass
class Op:
    kind: str
    run: object                 # () -> output; the only timed call
    check: object               # output -> list of problems
    iterations: object = None   # output -> solver iterations, for the by-op table
    units: int = 1              # results the op returns; each reported non-convergence
                                # among them takes 1/units of the op's pass


def _box(n, upper):
    return np.zeros(n), np.full(n, upper)


def _constraints(ra, n, upper):
    lower, up = _box(n, upper)
    return ra.ConstraintSet(budget=1.0, lower=lower, upper=up)


def _status(report):
    return [] if report.status == "converged" else [checks.not_converged(f"status {report.status}")]


def _te_quadratic(sigma, mu, gamma, strategic, current, rho2_s, rho2_t):
    """P and q of the smooth tracking-error objective with both L2 anchors."""
    n = mu.size
    p_mat = sigma + (rho2_s + rho2_t) * np.eye(n)
    q_vec = gamma * mu + sigma @ strategic + rho2_s * strategic + rho2_t * current
    return p_mat, q_vec


def _admm_rebalance_check(weights, sigma, mu, strategic, current, upper, rho1_s):
    lower, up = _box(mu.size, upper)
    p_mat, q_vec = _te_quadratic(sigma, mu, GAMMA, strategic, current, RHO2_STRATEGIC, 0.0)
    return checks.feasibility(weights, lower, up) + checks.l1_certificate(
        p_mat, q_vec, weights, [(strategic, rho1_s), (current, RHO1_TURNOVER)], lower, up)


def _inside(rng, metric):
    """A target strictly inside the attainable range of a metric that is
    nondecreasing in the trade-off: between its values at gamma = 0 and at
    gamma = 1e5, below the calibrators' doubling cap of 1e6."""
    lo, hi = metric(0.0), metric(1e5)
    return lo + rng.uniform(0.1, 0.9) * (hi - lo)


def cycles_for(workload, seconds):
    return max(workload.run_cycles, int(np.ceil(seconds / workload.cycle_seconds)))


class NightlyRebalance:
    """Model portfolios (n=50) from NIGHTLY_MODELS fixed model seeds; a
    cycle is one cold ADMM ``rebalance`` for one new account of each model,
    in model order."""

    name = "nightly_rebalance"
    n = 50
    upper = 0.2
    run_cycles = 5           # 120 accounts, 110 or so answered
    cycle_seconds = 4.2      # scaled op time of one cycle on the baseline
    trace_cycles = 2

    def __init__(self, ra, workdir):
        self.ra = ra
        self.models = [gen.model_portfolio(ra, np.random.default_rng([m, self.n]),
                                           self.n, self.upper)
                       for m in range(NIGHTLY_MODELS)]
        self.constraints = _constraints(ra, self.n, self.upper)

    def cycle(self, i):
        return [self._account(np.random.default_rng([1, i, m]), *model)
                for m, model in enumerate(self.models)]

    def _account(self, rng, sigma, mu, strategic):
        ra = self.ra
        current = gen.drifted_book(rng, strategic)
        config = ra.RoboConfig(strategic=strategic, current=current,
                               objective="tracking_error", gamma=GAMMA,
                               rho1_strategic=RHO1_STRATEGIC, rho1_turnover=RHO1_TURNOVER,
                               rho2_strategic=RHO2_STRATEGIC, constraints=self.constraints)

        def check(rep):
            return _status(rep) or _admm_rebalance_check(
                rep.weights, sigma, mu, strategic, current, self.upper, RHO1_STRATEGIC)

        return Op("rebalance_admm_n50", lambda: ra.rebalance(config, mu, sigma), check,
                  lambda rep: rep.iterations)


class TargetCalibration:
    """QP route only: bisection calibrations, TE-target rebalances and one
    large strategic solve per cycle of six ops."""

    name = "target_calibration"
    upper = 0.15
    run_cycles = 17          # 102 ops
    cycle_seconds = 2.5
    trace_cycles = 3

    def __init__(self, ra, workdir):
        self.ra = ra

    def cycle(self, i):
        rng = np.random.default_rng([2, i])
        return [self._calibrate(rng, 40, "volatility"),
                self._te_rebalance(rng, 40),
                self._calibrate(rng, 20, "return"),
                self._calibrate(rng, 40, "volatility"),
                self._te_rebalance(rng, 20),
                self._strategic(rng, 200)]

    def _model(self, rng, n):
        sigma, mu, strategic = gen.model_portfolio(self.ra, rng, n, self.upper)
        return sigma, mu, strategic, _constraints(self.ra, n, self.upper)

    def _qp_check(self, rep, sigma, mu):
        lower, up = _box(mu.size, self.upper)
        return _status(rep) or checks.feasibility(rep.weights, lower, up) + checks.qp_kkt(
            sigma, -rep.gamma * mu, rep.weights, rep.duals, lower, up)

    def _calibrate(self, rng, n, target_type):
        ra = self.ra
        sigma, mu, _, cons = self._model(rng, n)
        inputs = ra.MvoInputs(mu=mu, sigma=sigma)

        def metric(gamma):
            x = ra.solve_gamma_problem(inputs, gamma, cons).weights
            return float(np.sqrt(x @ sigma @ x)) if target_type == "volatility" else float(x @ mu)

        target = _inside(rng, metric)
        kwargs = {"target_vol" if target_type == "volatility" else "target_return": target}

        def check(out):
            _, rep = out
            x = rep.weights
            attained = np.sqrt(x @ sigma @ x) if target_type == "volatility" else x @ mu
            return self._qp_check(rep, sigma, mu) or checks.near(
                float(attained), target, checks.TARGET_TOL, target_type)

        return Op(f"calibrate_{target_type}_n{n}",
                  lambda: ra.calibrate_gamma(inputs, cons, **kwargs), check,
                  lambda out: len(out[1].meta.get("calibration", ())))

    def _te_rebalance(self, rng, n):
        ra = self.ra
        sigma, mu, strategic, cons = self._model(rng, n)
        current = gen.drifted_book(rng, strategic)
        common = dict(strategic=strategic, current=current, objective="tracking_error",
                      rho2_strategic=RHO2_STRATEGIC, rho2_turnover=RHO2_TURNOVER,
                      constraints=cons)
        te_target = _inside(rng, lambda gamma: ra.tracking_error(
            ra.rebalance(ra.RoboConfig(gamma=gamma, **common), mu, sigma).weights,
            strategic, sigma))
        config = ra.RoboConfig(te_target=te_target, **common)
        lower, up = _box(n, self.upper)

        def check(rep):
            p_mat, q_vec = _te_quadratic(sigma, mu, rep.gamma, strategic, current,
                                         RHO2_STRATEGIC, RHO2_TURNOVER)
            d = rep.weights - strategic
            return _status(rep) or checks.feasibility(rep.weights, lower, up) + checks.qp_kkt(
                p_mat, -q_vec, rep.weights, rep.duals, lower, up) + checks.near(
                float(np.sqrt(d @ sigma @ d)), te_target, checks.TARGET_TOL, "tracking error")

        return Op(f"rebalance_te_target_n{n}", lambda: ra.rebalance(config, mu, sigma), check)

    def _strategic(self, rng, n):
        ra = self.ra
        sigma, mu, _, cons = self._model(rng, n)
        inputs = ra.MvoInputs(mu=mu, sigma=sigma)
        gamma = gen.log_uniform(rng, 0.05, 2.0)
        return Op(f"solve_gamma_problem_n{n}",
                  lambda: ra.solve_gamma_problem(inputs, gamma, cons),
                  lambda rep: self._qp_check(rep, sigma, mu),
                  lambda rep: rep.iterations)


class AdvisorCli:
    """In-process ``roboalloc.cli.main`` calls on generated files: a cycle
    of seven ops over nine verb calls (the three ``calibrate`` methods form
    one penalty-selection op)."""

    name = "advisor_cli"
    n = 30
    upper = 0.2
    periods = 1500
    decay = 0.97
    reg_rows, reg_cols = 400, 30
    path_grid = "log:1e-5:1e-1:25"   # the README's example grid
    path_points = 25
    calib_range = (1e-4, 1e2, 25)
    calib_grid = "log:{}:{}:{}".format(*calib_range)
    kfolds = 5
    run_cycles = 15          # 105 ops, all answered (path in part)
    cycle_seconds = 2.3
    trace_cycles = 3

    def __init__(self, ra, workdir):
        import roboalloc.cli  # noqa: F401  (binds ra.cli)
        self.ra = ra
        self.workdir = workdir
        self.assets = [f"A{j + 1}" for j in range(self.n)]
        model_rng = np.random.default_rng([HOUSE_MODEL_SEED, self.n])
        self.sigma, self.mu, self.strategic = gen.model_portfolio(
            ra, model_rng, self.n, self.upper)
        # The book is fixed too: the cost of a warm-started path varies about
        # twofold across books, and p90 falls at the cheapest path ops of a
        # run, so a book per cycle would make p90 swing with the draw.
        self.book = gen.drifted_book(model_rng, self.strategic)

    def _verb(self, kind, argvs, check, table_on_failure=False, units=1):
        """An op that runs ``roboalloc.cli.main(argv)`` for each argv in turn,
        capturing the output.  Outputs are checked if every call exited with
        code 0; a ``table_on_failure`` verb (``path``, which writes its whole
        table and exits with code 2 when a point did not converge) is also
        checked on code 2, and the code must agree with the table.  ``units``
        is the number of results (path points) the op returns."""
        def run():
            results = []
            for argv in argvs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.ra.cli.main(argv)
                results.append((code, out.getvalue(), err.getvalue()))
            return results

        def checked(results):
            stdouts = [stdout for _, stdout, _ in results]
            codes = [code for code, _, _ in results]
            if all(code == 0 for code in codes) or (table_on_failure and codes == [2]):
                problems = check(stdouts)
                reported = any(p.startswith(checks.NOT_CONVERGED) for p in problems)
                if table_on_failure and reported != (codes == [2]):
                    problems.append(f"exit code {codes[0]} disagrees with the table's statuses")
                return problems
            return [checks.not_converged(f"exit code 2: {err.strip()[:200]}") if code == 2
                    else f"exit code {code}: {err.strip()[:200]}"
                    for code, _, err in results if code != 0]

        return Op(kind, run, checked, units=units)

    def cycle(self, i):
        rng = np.random.default_rng([3, i])
        d = os.path.join(self.workdir, f"c{i}")
        os.makedirs(d, exist_ok=True)
        f = lambda name: os.path.join(d, name)  # noqa: E731
        n, lower, up = self.n, *_box(self.n, self.upper)

        # market data: panel, reference moments (also the moments file the other verbs read)
        returns = gen.return_panel(rng, self.sigma, self.mu, self.periods)
        gen.write_panel_csv(f("panel.csv"), returns, self.assets)
        returns = np.loadtxt(f("panel.csv"), delimiter=",", skiprows=1,
                             usecols=range(1, n + 1))
        mu_ref, sigma_ref = gen.ewma_moments(returns, self.decay)
        with open(f("moments.json"), "w") as handle:
            json.dump({"assets": self.assets, "mu": mu_ref.tolist(),
                       "sigma": sigma_ref.ravel().tolist(),
                       "scheme": {"kind": "ewma", "decay": self.decay}}, handle)

        def check_estimate(_stdouts):
            with open(f("estimate_out.json")) as handle:
                doc = json.load(handle)
            return checks.close_arrays(doc["mu"], mu_ref, "mu") + \
                checks.close_arrays(doc["sigma"], sigma_ref.ravel(), "sigma")

        # views: integer grades on the model portfolio
        scores = gen.grades(rng, n)
        with open(f("views.json"), "w") as handle:
            json.dump({"strategic": self.strategic.tolist(), "r": 0.0, "sharpe": 0.5,
                       "grades": {a: int(g) for a, g in zip(self.assets, scores)}}, handle)
        s_x0 = sigma_ref @ self.strategic
        implied = 0.5 * s_x0 / np.sqrt(self.strategic @ s_x0)
        blended = implied + 0.5 * (scores / gen.GRADE_RANGE) * np.sqrt(np.diag(sigma_ref))

        def check_views(_stdouts):
            with open(f("views_out.json")) as handle:
                doc = json.load(handle)
            return checks.close_arrays(doc["mu_blended"], blended, "mu_blended")

        # rebalance document (ADMM route): the house model and its book
        rebalance_doc = {
            "mu": self.mu.tolist(), "sigma": self.sigma.ravel().tolist(), "gamma": GAMMA,
            "objective": "tracking_error", "strategic": self.strategic.tolist(),
            "current": self.book.tolist(),
            "penalties": [{"kind": "l1", "rho": RHO1_STRATEGIC, "anchor": "strategic"},
                          {"kind": "l1", "rho": RHO1_TURNOVER, "anchor": "current"},
                          {"kind": "l2", "rho": RHO2_STRATEGIC, "anchor": "strategic"}],
            "constraints": {"budget": 1.0, "lower": 0.0, "upper": self.upper}}
        with open(f("rebalance.json"), "w") as handle:
            json.dump(rebalance_doc, handle)
        house = (self.sigma, self.mu, self.strategic, self.book, self.upper)

        def check_rebalance(_stdouts):
            with open(f("rebalance_out.json")) as handle:
                doc = json.load(handle)
            return _admm_rebalance_check(
                np.asarray(doc["weights"]), *house, RHO1_STRATEGIC)

        def check_path(_stdouts):
            with open(f("path.csv"), newline="") as handle:
                rows = list(csv.reader(handle))[1:]
            if len(rows) != self.path_points:
                return [f"path has {len(rows)} rows"]
            problems = []
            for row in rows:
                status = row[-1]
                if status in ("max_iter", "diverged") or \
                        status.removeprefix("error:") in checks.NON_CONVERGENCE_ERRORS:
                    problems.append(checks.not_converged(f"path point {row[0]}: {status}"))
                    continue
                if status != "converged":
                    problems.append(f"path point {row[0]}: {status}")
                    continue
                x = np.array([float(v) for v in row[1:n + 1]])
                problems += _admm_rebalance_check(x, *house, float(row[0]))
            return problems

        # volatility target with a ridge filter (QP route) on the estimated moments
        lam, vec = np.linalg.eigh(sigma_ref)
        rho_filter = 0.01 * lam.mean()
        sigma_f = (vec * ((lam + rho_filter) ** 2 / lam)) @ vec.T
        sigma_f = 0.5 * (sigma_f + sigma_f.T)
        cons = _constraints(self.ra, n, self.upper)
        filtered = self.ra.MvoInputs(mu=mu_ref, sigma=sigma_f)

        def vol(gamma):
            x = self.ra.solve_gamma_problem(filtered, gamma, cons).weights
            return float(np.sqrt(x @ sigma_f @ x))

        vol_target = _inside(rng, vol)
        with open(f("voltarget.json"), "w") as handle:
            json.dump({"moments_file": f("moments.json"),
                       "target": {"type": "volatility", "value": vol_target},
                       "filter": {"kind": "ridge", "rho": rho_filter},
                       "constraints": {"budget": 1.0, "lower": 0.0, "upper": self.upper}},
                      handle)

        def check_voltarget(_stdouts):
            with open(f("voltarget_out.json")) as handle:
                doc = json.load(handle)
            x = np.asarray(doc["weights"])
            duals = {k: np.asarray(v) for k, v in (doc["duals"] or {}).items()} or None
            return checks.feasibility(x, lower, up) + checks.qp_kkt(
                sigma_f, -doc["gamma"] * mu_ref, x, duals, lower, up) + checks.near(
                float(np.sqrt(x @ sigma_f @ x)), vol_target, checks.TARGET_TOL, "volatility")

        # ridge calibration data
        xr, yr = gen.regression_data(rng, self.reg_rows, self.reg_cols)
        gen.write_regression_csv(f("regression.csv"), xr, yr)
        data = np.loadtxt(f("regression.csv"), delimiter=",", skiprows=1)
        xr, yr = data[:, 1:], data[:, 0]
        grid = np.geomspace(*self.calib_range)
        fold_seed = int(rng.integers(0, 2 ** 31))
        curves = _reference_curves(xr, yr, grid, self.kfolds, fold_seed)

        def check_calibrate(stdouts):
            problems = []
            for method, printed in zip(CALIBRATION_METHODS, stdouts):
                with open(f(f"calibrate_{method}.csv")) as handle:
                    got = np.array([float(line.split(",")[1])
                                    for line in handle.read().split("\n")[1:] if line])
                want = curves[method]
                best = float(grid[np.isclose(want, want.min())].min())
                if printed.strip() != f"best_rho2={best!r}":
                    problems.append(f"{method}: printed {printed.strip()!r}, expected best {best!r}")
                problems += checks.close_arrays(got, want, f"{method} curve")
            return problems

        # hedging decomposition: x* must equal gamma S^-1 mu
        stevens_gamma = gen.log_uniform(rng, 0.05, 1.0)
        x_star = stevens_gamma * np.linalg.solve(sigma_ref, mu_ref)

        def check_stevens(_stdouts):
            with open(f("stevens.csv"), newline="") as handle:
                rows = list(csv.reader(handle))[1:]
            got = [float(r[-1]) for r in rows]
            return checks.close_arrays(got, x_star, "x_star")

        calibrate = [["calibrate", "--data", f("regression.csv"), "--grid", self.calib_grid,
                      "--method", method, "--k", str(self.kfolds), "--seed", str(fold_seed),
                      "--out", f(f"calibrate_{method}.csv")] for method in CALIBRATION_METHODS]
        return [
            self._verb("estimate", [["estimate", "--returns", f("panel.csv"),
                                     "--scheme", f"ewma:{self.decay}",
                                     "--out", f("estimate_out.json")]], check_estimate),
            self._verb("views", [["views", "--views", f("views.json"), "--moments",
                                  f("moments.json"), "--out", f("views_out.json")]],
                       check_views),
            self._verb("optimize_rebalance", [["optimize", "--problem", f("rebalance.json"),
                                               "--out", f("rebalance_out.json")]],
                       check_rebalance),
            self._verb("optimize_voltarget", [["optimize", "--problem", f("voltarget.json"),
                                               "--out", f("voltarget_out.json")]],
                       check_voltarget),
            self._verb("path_rho1", [["path", "--problem", f("rebalance.json"),
                                      "--param", "rho1", "--grid", self.path_grid,
                                      "--out", f("path.csv")]], check_path,
                       table_on_failure=True, units=self.path_points),
            self._verb("calibrate_gcv_press_kfold", calibrate, check_calibrate),
            self._verb("stevens", [["stevens", "--moments", f("moments.json"), "--gamma",
                                    repr(stevens_gamma), "--out", f("stevens.csv")]],
                       check_stevens),
        ]


def _reference_curves(x, y, grid, k, fold_seed):
    """GCV and PRESS from the SVD of X, k-fold from explicit augmented
    least-squares refits on the documented seeded shuffle."""
    t = x.shape[0]
    u, d, _ = np.linalg.svd(x, full_matrices=False)
    uty = u.T @ y
    gcv, press = [], []
    for rho in grid:
        shrink = d ** 2 / (d ** 2 + rho)
        resid = y - u @ (shrink * uty)
        leverage = (u ** 2) @ shrink
        gcv.append(t ** 2 * (resid @ resid) / (t - shrink.sum()) ** 2)
        press.append(np.sum((resid / (1.0 - leverage)) ** 2))
    folds = np.array_split(np.random.default_rng(fold_seed).permutation(t), k)
    kfold = np.zeros(grid.size)
    for test in folds:
        train = np.setdiff1d(np.arange(t), test)
        for g, rho in enumerate(grid):
            aug_x = np.vstack([x[train], np.sqrt(rho) * np.eye(x.shape[1])])
            aug_y = np.concatenate([y[train], np.zeros(x.shape[1])])
            beta = np.linalg.lstsq(aug_x, aug_y, rcond=None)[0]
            kfold[g] += np.sum((y[test] - x[test] @ beta) ** 2)
    return {"gcv": np.array(gcv), "press": np.array(press), "kfold": kfold / t}


WORKLOADS = {w.name: w for w in (NightlyRebalance, TargetCalibration, AdvisorCli)}
