import json
import os
import subprocess
import sys

import numpy as np
import pytest

from roboalloc import qp, report
from roboalloc.cli import main
from roboalloc.errors import MaxIterations
from roboalloc.mvo import ConstraintSet, MvoInputs, calibrate_gamma
from roboalloc.regularizers import FilterSpec
from roboalloc.market_data import (
    MomentEstimates,
    WeightScheme,
    _read_csv,
    moments_to_dict,
)
from tests.test_regularizers import filtered_by_svd

PANEL = """date,aa,bb,cc
2021-01,0.010,0.020,0.005
2021-02,-0.004,0.013,0.002
2021-03,0.007,-0.008,0.001
2021-04,0.012,0.004,-0.003
2021-05,0.003,0.009,0.006
2021-06,-0.002,0.001,0.004
"""


@pytest.fixture()
def panel_csv(tmp_path):
    p = tmp_path / "returns.csv"
    p.write_text(PANEL)
    return p


@pytest.fixture()
def four_asset_moments(tmp_path, four_asset):
    mu, _, _, sigma = four_asset
    m = MomentEstimates(mu=mu, sigma=sigma, scheme=WeightScheme.uniform(),
                        assets=["a1", "a2", "a3", "a4"])
    path = tmp_path / "moments.json"
    path.write_text(json.dumps(moments_to_dict(m)))
    return path


class TestEstimate:
    def test_uniform(self, panel_csv, tmp_path):
        out = tmp_path / "m.json"
        code = main(["estimate", "--returns", str(panel_csv),
                     "--scheme", "uniform", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["assets"] == ["aa", "bb", "cc"]
        assert len(doc["sigma"]) == 9
        mu = np.array(doc["mu"])
        rows = np.array([[0.010, 0.020, 0.005], [-0.004, 0.013, 0.002],
                         [0.007, -0.008, 0.001], [0.012, 0.004, -0.003],
                         [0.003, 0.009, 0.006], [-0.002, 0.001, 0.004]])
        assert np.allclose(mu, rows.mean(axis=0), atol=1e-15)

    def test_ewma_scheme(self, panel_csv, tmp_path):
        out = tmp_path / "m.json"
        code = main(["estimate", "--returns", str(panel_csv),
                     "--scheme", "ewma:0.97", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["scheme"] == {"kind": "ewma", "decay": 0.97}

    @pytest.mark.parametrize("weights,code", [
        ([1, 2, 3, 4, 5, 6], 0), (["1", "2", "3", "4", "5", "6"], 1),
        ([1, 2, 3, 4, 5, True], 1)], ids=["numbers", "strings", "boolean"])
    def test_explicit_scheme_file(self, panel_csv, tmp_path, weights, code):
        scheme = tmp_path / "w.json"
        scheme.write_text(json.dumps(weights))
        out = tmp_path / "m.json"
        assert main(["estimate", "--returns", str(panel_csv), "--scheme",
                     f"explicit:{scheme}", "--out", str(out)]) == code
        assert out.exists() == (code == 0)
        if code == 0:
            assert json.loads(out.read_text())["scheme"] == {"kind": "explicit",
                                                             "weights": weights}

    @pytest.mark.parametrize("body,line", [
        ("2021-01,0.1,0.2\n2021-02,x,0.3\n", 3),
        ("2021-01,0.1,0.2\n2021-02,0.1,0.3,0.4\n", 3),
        ("2021-01,0.1,0.2\n\n2021-02,0.1,0.2\n2021-03,0.1\n", 5),
    ], ids=["not_a_number", "one_cell_too_many", "after_a_blank_line"])
    def test_csv_error_names_the_file_line(self, tmp_path, capsys, body, line):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,a,b\n" + body)
        assert main(["estimate", "--returns", str(bad), "--scheme", "uniform",
                     "--out", str(tmp_path / "m.json")]) == 1
        assert f"{bad}:{line}: " in capsys.readouterr().err

    def test_malformed_csv_exits_one_without_output(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,x\n2021-01,0.01\n2021-02,oops\n")
        out = tmp_path / "m.json"
        code = main(["estimate", "--returns", str(bad), "--scheme", "uniform",
                     "--out", str(out)])
        assert code == 1
        assert not out.exists()


class TestOptimize:
    def test_volatility_target(self, four_asset_moments, tmp_path):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "moments_file": str(four_asset_moments),
            "target": {"type": "volatility", "value": 0.15},
            "constraints": {"budget": 1.0},
        }))
        out = tmp_path / "rep.json"
        code = main(["optimize", "--problem", str(problem), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "converged"
        assert np.allclose(100 * np.array(doc["weights"]),
                           [26.30, 25.52, 32.28, 15.90], atol=0.02)

    def test_rebalance_config_matches_library(self, four_asset_moments, tmp_path,
                                              four_asset):
        mu, _, _, sigma = four_asset
        strategic = [0.4, 0.3, 0.2, 0.1]
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "moments_file": str(four_asset_moments),
            "objective": "tracking_error",
            "gamma": 0.2,
            "strategic": strategic,
            "current": [0.25, 0.25, 0.25, 0.25],
            "penalties": [
                {"kind": "l1", "rho": 5e-4, "anchor": "strategic"},
                {"kind": "l1", "rho": 2e-4, "anchor": "current"},
                {"kind": "l2", "rho": 0.02, "anchor": "strategic"},
            ],
            "constraints": {"budget": 1.0, "lower": 0.0, "upper": 1.0},
        }))
        out = tmp_path / "rep.json"
        code = main(["optimize", "--problem", str(problem), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())

        from roboalloc.pipeline import RoboConfig, rebalance
        cfg = RoboConfig(strategic=np.array(strategic),
                         current=np.full(4, 0.25), objective="tracking_error",
                         gamma=0.2, rho1_strategic=5e-4, rho1_turnover=2e-4,
                         rho2_strategic=0.02)
        rep = rebalance(cfg, mu, sigma)
        assert np.allclose(doc["weights"], rep.weights, atol=0.0)  # bit identical

    def test_infeasible_is_input_error(self, four_asset_moments, tmp_path):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "moments_file": str(four_asset_moments),
            "gamma": 0.1,
            "constraints": {"budget": 1.0, "upper": 0.2},
        }))
        code = main(["optimize", "--problem", str(problem),
                     "--out", str(tmp_path / "rep.json")])
        assert code == 1

    def test_budget_above_box_capacity_is_input_error(self, four_asset_moments,
                                                      tmp_path, capsys):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "moments_file": str(four_asset_moments),
            "gamma": 0.1,
            "constraints": {"budget": 1.0, "lower": 0.0, "upper": 0.2},
        }))
        code = main(["optimize", "--problem", str(problem),
                     "--out", str(tmp_path / "rep.json")])
        assert code == 1
        assert "Infeasible" in capsys.readouterr().err

    def test_penalties_not_a_list_is_input_error(self, four_asset_moments, tmp_path,
                                                 capsys):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "moments_file": str(four_asset_moments), "gamma": 0.1, "penalties": 5,
        }))
        code = main(["optimize", "--problem", str(problem),
                     "--out", str(tmp_path / "rep.json")])
        assert code == 1
        assert "penalties must be a JSON list" in capsys.readouterr().err
        assert not (tmp_path / "rep.json").exists()

    def test_unknown_key_rejected(self, four_asset_moments, tmp_path):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "moments_file": str(four_asset_moments), "gamma": 0.1, "junk": True,
        }))
        code = main(["optimize", "--problem", str(problem),
                     "--out", str(tmp_path / "rep.json")])
        assert code == 1


class TestDocumentNumbers:
    @pytest.mark.parametrize("change", [
        {"gamma": None},
        {"penalties": [{"kind": "l2", "rho": None}]},
    ], ids=["gamma_null", "rho_null"])
    def test_null_is_input_error(self, four_asset_moments, tmp_path, capsys, change):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({"moments_file": str(four_asset_moments),
                                       "gamma": 0.1, **change}))
        code = main(["optimize", "--problem", str(problem),
                     "--out", str(tmp_path / "rep.json")])
        assert code == 1
        assert "must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "rep.json").exists()


    @pytest.mark.parametrize("route", [
        {},
        {"strategic": [0.4, 0.3, 0.2, 0.1], "current": [0.25, 0.25, 0.25, 0.25]},
    ], ids=["plain", "rebalancing"])
    def test_null_constraints_is_input_error(self, four_asset_moments, tmp_path, capsys,
                                             route):
        # without the key each route has its default set; null is not a set
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({"moments_file": str(four_asset_moments),
                                       "gamma": 0.1, "constraints": None, **route}))
        verbs = [["optimize"]]
        if route:
            verbs.append(["path", "--grid", "linear:0:1e-3:2"])
        for argv in verbs:
            code = main(argv + ["--problem", str(problem), "--out", str(tmp_path / "out")])
            assert code == 1
            assert "constraints must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("route", [
        {},
        {"strategic": [0.4, 0.3, 0.2, 0.1], "current": [0.25, 0.25, 0.25, 0.25]},
    ], ids=["plain", "rebalancing"])
    def test_null_admm_is_input_error(self, four_asset_moments, tmp_path, capsys, route):
        # without the key the ADMM defaults apply; null is not a block
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "moments_file": str(four_asset_moments), "gamma": 0.1, "admm": None,
            "penalties": [{"kind": "lp", "p": 1.5, "rho": 0.01,
                           "anchor": [0.25, 0.25, 0.25, 0.25]}],
            "constraints": {"budget": 1.0, "lower": 0.0, "upper": 1.0}, **route}))
        verbs = [["optimize"]]
        if route:
            verbs.append(["path", "--grid", "linear:0:1e-3:2"])
        for argv in verbs:
            code = main(argv + ["--problem", str(problem), "--out", str(tmp_path / "out")])
            assert code == 1
            assert "admm must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestPlainPenalties:
    def test_every_penalty_honoured(self, four_asset_moments, tmp_path, four_asset):
        """Two L2 penalties, one with a full matrix, and an L1 penalty all
        enter the plain route; the oracle is the augmented QP."""
        from roboalloc.qp import QpProblem, augment_l1, solve_qp
        mu, _, _, sigma = four_asset
        gamma, rho_a, rho_b, rho1 = 0.25, 0.02, 0.05, 1e-3
        g_b = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        x0 = np.array([0.4, 0.3, 0.2, 0.1])
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "moments_file": str(four_asset_moments), "gamma": gamma,
            "penalties": [
                {"kind": "l2", "rho": rho_a, "anchor": x0.tolist()},
                {"kind": "l2", "rho": rho_b, "gamma": g_b.tolist()},
                {"kind": "l1", "rho": rho1, "anchor": x0.tolist()},
            ],
            "constraints": {"budget": 1.0},
        }))
        out = tmp_path / "rep.json"
        code = main(["optimize", "--problem", str(problem), "--out", str(out)])
        assert code == 0
        q_mat = sigma + rho_a * np.eye(4) + rho_b * g_b.T @ g_b
        lin = gamma * mu + rho_a * x0
        oracle = solve_qp(augment_l1(QpProblem(Q=q_mat, c=-lin, eq=(np.ones((1, 4)), [1.0])),
                                     np.eye(4), rho1, x0))
        assert np.abs(np.array(json.loads(out.read_text())["weights"])
                      - oracle.weights[:4]).max() <= 1e-6


class TestRebalanceDocuments:
    """Whatever the four (l1 | l2, strategic | current) slots of a
    rebalancing configuration cannot hold is rejected."""

    @pytest.mark.parametrize("change", [
        {"penalties": [{"kind": "lp", "p": 1.5, "rho": 1e-3, "anchor": "strategic"}]},
        {"penalties": [{"kind": "l2", "rho": 0.02, "anchor": "strategic"},
                       {"kind": "l2", "rho": 0.01, "anchor": [0.4, 0.3, 0.2, 0.1]}]},
        {"penalties": [{"kind": "l1", "rho": 1e-3, "anchor": [0.1, 0.2, 0.3, 0.4]}]},
        {"r": 0.01},
        {"mu": [0.1, 0.1, 0.1, 0.1]},
        {"constraints": None},
        {"admm": None},
        {"admm": {"max_iter": 1}},
        {"te_target": 0.01},
    ], ids=["lp_penalty", "same_slot_twice", "anchor_neither_book", "plain_key",
            "inline_moments_beside_file", "constraints_null", "admm_null", "admm_block",
            "gamma_beside_te_target"])
    def test_rejected(self, four_asset_moments, tmp_path, change):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "moments_file": str(four_asset_moments), "gamma": 0.2,
            "strategic": [0.4, 0.3, 0.2, 0.1], "current": [0.25, 0.25, 0.25, 0.25],
            "constraints": {"budget": 1.0, "lower": 0.0, "upper": 1.0}, **change}))
        for argv in (["optimize"], ["path", "--grid", "linear:0:1e-3:2"]):
            code = main(argv + ["--problem", str(problem),
                                "--out", str(tmp_path / "out")])
            assert code == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("constraints", [None, {}], ids=["absent", "empty"])
    def test_constraints_default_as_in_rebalance(self, tmp_path, constraints):
        # without the key, optimize and path solve on RoboConfig's default set
        # (budget 1, box [0, 1]) as rebalance does; an explicit {} is no
        # constraint at all, and this problem then invests 400%
        from roboalloc.mvo import ConstraintSet
        from roboalloc.pipeline import RoboConfig, rebalance
        mu, sigma = np.array([0.05, 0.06]), np.array([[0.04, 0.01], [0.01, 0.09]])
        doc = {"mu": mu.tolist(), "sigma": sigma.tolist(), "strategic": [0.5, 0.5],
               "current": [0.5, 0.5], "gamma": 2.0,
               "penalties": [{"kind": "l1", "rho": 0.01}]}
        if constraints is not None:
            doc["constraints"] = constraints
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps(doc))
        cfg = RoboConfig(strategic=[0.5, 0.5], current=[0.5, 0.5], gamma=2.0, rho1_strategic=0.01,
                         constraints=None if constraints is None else ConstraintSet())
        want = rebalance(cfg, mu, sigma).weights
        assert np.allclose(want, [0.5, 0.5] if constraints is None else [2.5, 1.5], atol=1e-9)
        assert main(["optimize", "--problem", str(problem), "--out", str(tmp_path / "o")]) == 0
        assert np.allclose(json.loads((tmp_path / "o").read_text())["weights"], want,
                           rtol=0.0, atol=1e-12)
        assert main(["path", "--problem", str(problem), "--param", "rho1",
                     "--grid", "linear:0:0.01:2", "--out", str(tmp_path / "p.csv")]) == 0
        last = (tmp_path / "p.csv").read_text().strip().splitlines()[-1].split(",")
        assert np.allclose([float(v) for v in last[1:3]], want, rtol=0.0, atol=1e-9)

    def test_path_keeps_te_target(self, four_asset_moments, tmp_path, four_asset):
        from roboalloc.pipeline import tracking_error
        _, _, _, sigma = four_asset
        strategic = [0.4, 0.3, 0.2, 0.1]
        problem = tmp_path / "p.json"
        l1 = [{"kind": "l1", "rho": 5e-4, "anchor": "strategic"}]
        # an L2 sweep, then an L1 sweep: every point meets the target on the walk
        for param, penalties in (("rho2", []), ("rho1", l1)):
            problem.write_text(json.dumps({
                "moments_file": str(four_asset_moments), "te_target": 0.02,
                "strategic": strategic, "current": [0.25, 0.25, 0.25, 0.25],
                "penalties": penalties,
                "constraints": {"budget": 1.0, "lower": 0.0, "upper": 1.0}}))
            out = tmp_path / f"{param}.csv"
            code = main(["path", "--problem", str(problem), "--param", param,
                         "--grid", "linear:0:0.01:3", "--out", str(out)])
            assert code == 0
            for line in out.read_text().strip().splitlines()[1:]:
                x = np.array([float(v) for v in line.split(",")[1:5]])
                assert tracking_error(x, strategic, sigma) == pytest.approx(0.02, abs=1e-9)


class TestPath:
    def test_lasso_sweep_csv(self, four_asset_moments, tmp_path):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "moments_file": str(four_asset_moments),
            "objective": "mvo",
            "gamma": 0.25,
            "strategic": [0.4, 0.3, 0.2, 0.1],
            "current": [0.4, 0.3, 0.2, 0.1],
            "penalties": [{"kind": "l1", "rho": 1e-4, "anchor": "strategic"}],
            "constraints": {"budget": 1.0},
        }))
        out = tmp_path / "path.csv"
        code = main(["path", "--problem", str(problem), "--param", "rho1",
                     "--grid", "log:1e-5:1e-1:5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("param,a1,a2,a3,a4,objective,status")
        assert len(lines) == 6
        assert all(line.endswith("converged") for line in lines[1:])

    def test_param_names_every_swept_penalty(self, four_asset_moments, tmp_path, capsys):
        from roboalloc.pipeline import _PATH_PARAMS
        assert main(["path", "--help"]) == 0
        usage = capsys.readouterr().out
        assert all(name in usage for name in _PATH_PARAMS)
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "moments_file": str(four_asset_moments), "gamma": 0.25,
            "strategic": [0.4, 0.3, 0.2, 0.1], "current": [0.25, 0.25, 0.25, 0.25],
            "penalties": [{"kind": "l1", "rho": 1e-4, "anchor": "current"}],
            "constraints": {"budget": 1.0, "lower": 0.0, "upper": 1.0}}))
        out = tmp_path / "path.csv"
        for param, code in (("rho1_turnover", 0), ("bogus", 1)):
            assert main(["path", "--problem", str(problem), "--param", param,
                         "--grid", "log:1e-5:1e-1:3", "--out", str(out)]) == code
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_negative_grid_exits_one(self, four_asset_moments, tmp_path, capsys):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "moments_file": str(four_asset_moments),
            "objective": "mvo",
            "gamma": 0.25,
            "strategic": [0.4, 0.3, 0.2, 0.1],
            "current": [0.4, 0.3, 0.2, 0.1],
            "constraints": {"budget": 1.0},
        }))
        out = tmp_path / "path.csv"
        code = main(["path", "--problem", str(problem), "--param", "rho1",
                     "--grid", "linear:-1:1:5", "--out", str(out)])
        assert code == 1
        assert "finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()


class TestCalibrate:
    def _write_data(self, tmp_path, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(24, 3))
        y = x @ np.array([1.0, -0.5, 0.2]) + 0.1 * rng.normal(size=24)
        rows = ["y,x1,x2,x3"]
        for yi, xi in zip(y, x):
            rows.append(",".join(repr(float(v)) for v in [yi, *xi]))
        path = tmp_path / "data.csv"
        path.write_text("\n".join(rows) + "\n")
        return path, x, y

    def test_gcv_curve_matches_library(self, tmp_path, capsys):
        data_path, x, y = self._write_data(tmp_path)
        out = tmp_path / "curve.csv"
        code = main(["calibrate", "--data", str(data_path), "--method", "gcv",
                     "--grid", "log:1e-4:1e2:10", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("best_rho2=")
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "rho2,score"
        assert len(lines) == 11
        from roboalloc.calibration import RidgeRegressionData, gcv, make_grid
        data = RidgeRegressionData(x=x, y=y)
        grid = make_grid("log", 1e-4, 1e2, 10)
        for line, rho in zip(lines[1:], grid):
            cells = line.split(",")
            assert float(cells[1]) == pytest.approx(gcv(data, rho), rel=1e-12)

    def test_kfold_deterministic_given_seed(self, tmp_path, capsys):
        data_path, _, _ = self._write_data(tmp_path, seed=5)
        out1 = tmp_path / "c1.csv"
        out2 = tmp_path / "c2.csv"
        for out in (out1, out2):
            code = main(["calibrate", "--data", str(data_path), "--method", "kfold",
                         "--k", "4", "--grid", "log:1e-3:10:7", "--seed", "11",
                         "--out", str(out)])
            assert code == 0
        assert out1.read_text() == out2.read_text()

    def test_every_method_matches_svd_formulas(self, tmp_path, capsys):
        data_path, x, y = self._write_data(tmp_path, seed=3)
        t = x.shape[0]
        grid = np.geomspace(1e-4, 1e2, 13)
        u, d, _ = np.linalg.svd(x, full_matrices=False)
        want = {"gcv": [], "press": [], "kfold": np.zeros(grid.size)}
        for rho2 in grid:
            shrink = d ** 2 / (d ** 2 + rho2)
            resid = y - u @ (shrink * (u.T @ y))
            want["gcv"].append(t ** 2 * (resid @ resid) / (t - shrink.sum()) ** 2)
            want["press"].append(np.sum((resid / (1.0 - (u ** 2) @ shrink)) ** 2))
        for test in np.array_split(np.random.default_rng(9).permutation(t), 4):
            train = np.setdiff1d(np.arange(t), test)
            for g, rho2 in enumerate(grid):
                aug_x = np.vstack([x[train], np.sqrt(rho2) * np.eye(3)])
                aug_y = np.concatenate([y[train], np.zeros(3)])
                beta = np.linalg.lstsq(aug_x, aug_y, rcond=None)[0]
                want["kfold"][g] += np.sum((y[test] - x[test] @ beta) ** 2) / t
        for method, curve in want.items():
            curve = np.asarray(curve)
            out = tmp_path / f"{method}.csv"
            code = main(["calibrate", "--data", str(data_path), "--method", method,
                         "--grid", "log:1e-4:1e2:13", "--k", "4", "--seed", "9",
                         "--out", str(out)])
            assert code == 0
            got = np.array([float(line.split(",")[1])
                            for line in out.read_text().strip().splitlines()[1:]])
            assert np.abs(got - curve).max() <= 1e-9 * np.abs(curve).max()
            best = float(grid[np.isclose(curve, curve.min())].min())
            assert capsys.readouterr().out.strip() == f"best_rho2={best!r}"

    def test_rows_parse_as_float_of_each_cell(self, tmp_path):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(30, 4)) * 10.0 ** rng.integers(-8, 9, (30, 4))
        cells = [[repr(float(v)) for v in row] for row in values]
        cells[0] = ["1", "-0", " 2.5", "3e-7 "]
        cells[1] = ["1E+3", "+4", ".5", '"-7."']
        path = tmp_path / "data.csv"
        path.write_text("y,x1,x2,x3\n" + "\n".join(",".join(row) for row in cells) + "\n")
        want = np.array([[float(c.strip('"')) for c in row] for row in cells])
        _, y, x = _read_csv(str(path), "y", float)
        got = np.column_stack([y, x])
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("header,row", [
        ("y,x1,x2,x3", "1.0,2.0"), ("y,x1,x2,x3", "1.0,2.0,x,4.0"),
        ("y,x1,x2,x3", "1.0,2.0,3.0,4.0,5.0"), ("y,x1,x2,x3,x4", "1.0,2.0,3.0,4.0")],
        ids=["short", "non_numeric", "long", "every_row_short"])
    def test_ragged_or_non_numeric_rows_exit_1(self, tmp_path, capsys, header, row):
        path = tmp_path / "data.csv"
        path.write_text(f"{header}\n{row}\n1.0,2.0,3.0,4.0\n")
        out = tmp_path / "curve.csv"
        code = main(["calibrate", "--data", str(path), "--method", "gcv",
                     "--grid", "log:1e-3:1:3", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:2: ")
        assert not out.exists()

    def test_bad_cell_after_a_blank_line_names_its_file_line(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("y,x1\n1.0,2.0\n\nx,3.0\n")
        assert main(["calibrate", "--data", str(path), "--method", "gcv",
                     "--grid", "log:1e-3:1:3", "--out", str(tmp_path / "c.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:4: ")

    @pytest.mark.parametrize("method", ["press", "gcv", "kfold"])
    @pytest.mark.parametrize("grid", ["linear:-5:1:4", "linear:nan:1:3", "log:1e-3:inf:3"])
    def test_negative_or_non_finite_grid_exits_1(self, tmp_path, capsys, method, grid):
        data_path, _, _ = self._write_data(tmp_path)
        out = tmp_path / "curve.csv"
        code = main(["calibrate", "--data", str(data_path), "--method", method,
                     "--grid", grid, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestViews:
    def test_grade_document(self, tmp_path, ten_asset):
        _, _, sigma = ten_asset
        assets = [f"c{i}" for i in range(10)]
        m = MomentEstimates(mu=np.zeros(10), sigma=sigma,
                            scheme=WeightScheme.uniform(), assets=assets)
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(moments_to_dict(m)))
        views = tmp_path / "v.json"
        views.write_text(json.dumps({
            "grades": {"c0": 1, "c1": 1, "c6": -1, "c7": -1, "c8": -1, "c9": -1},
            "sharpe": 0.5, "r": 0.0, "delta": 1.0, "tau": 1.0,
        }))
        out = tmp_path / "views_out.json"
        code = main(["views", "--views", str(views), "--moments", str(mpath),
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert np.allclose(100 * np.array(doc["mu_blended"]),
                           [4.10, 2.12, 3.02, 1.02, 4.09, 2.88, 3.08, 2.94, 2.71, 4.21],
                           atol=0.01)


    def test_document_names_its_moments_file(self, four_asset_moments, tmp_path):
        # without --moments, the document's moments_file is read, to the same bytes
        views = {"grades": {"a1": 1, "a4": -1}, "sharpe": 0.4}
        outs = []
        for name, doc, flag in (("flag", views, ["--moments", str(four_asset_moments)]),
                                ("key", {**views, "moments_file": str(four_asset_moments)}, [])):
            path, out = tmp_path / f"{name}.json", tmp_path / f"{name}_out.json"
            path.write_text(json.dumps(doc))
            assert main(["views", "--views", str(path), *flag, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] and b"mu_blended" in outs[0]


class TestViewsDocumentValues:
    @pytest.mark.parametrize("change", [
        {"grades": {"a1": None}}, {"grades": {"a1": 1}, "sharpe": None},
        {"grades": {"a1": 1}, "r": "x"}, {"grades": {"a1": 1}, "delta": True},
        {"grades": {"a1": 1}, "tau": None}, {"grades": {"a1": 1}, "scale_size": 7.5},
        {"grades": [1, 0, 0, 0]}, {"grades": {"zz": 1}}, {"grades": {"a1": 1.5}},
        {"grades": {"a1": 1}, "strategic": [0.5, 0.5]},
        {"P": [[1.0, None, 0.0, 0.0]], "Q": [0.02], "sigma_eps": [[1e-4]]},
        {"P": [[1.0, -1.0]], "Q": [0.02], "sigma_eps": [[1e-4]]},
        {"P": [[1.0, -1.0, 0.0, 0.0]], "Q": None, "sigma_eps": [[1e-4]]},
        {"P": [[1.0, -1.0, 0.0, 0.0]], "Q": [0.02], "sigma_eps": "x"},
    ], ids=["grade_null", "sharpe_null", "r_string", "delta_bool", "tau_null",
            "scale_not_integer", "grades_list", "grade_unknown_asset", "grade_fractional",
            "strategic_short",
            "P_null_entry", "P_columns", "Q_null", "sigma_eps_string"])
    def test_bad_value_is_input_error(self, four_asset_moments, tmp_path, change):
        views = tmp_path / "v.json"
        views.write_text(json.dumps(change))
        out = tmp_path / "out.json"
        code = main(["views", "--views", str(views), "--moments",
                     str(four_asset_moments), "--out", str(out)])
        assert code == 1
        assert not out.exists()


class TestVectorGamma:
    def test_vector_gamma_is_its_diagonal(self, four_asset_moments, tmp_path):
        reports = []
        for gamma in ([1.0, 2.0, 3.0, 4.0], np.diag([1.0, 2.0, 3.0, 4.0]).tolist()):
            problem = tmp_path / "p.json"
            problem.write_text(json.dumps({
                "moments_file": str(four_asset_moments), "gamma": 0.2,
                "penalties": [{"kind": "l1", "rho": 1e-3, "gamma": gamma,
                               "anchor": [0.25, 0.25, 0.25, 0.25]}],
                "constraints": {"budget": 1.0}}))
            out = tmp_path / "rep.json"
            assert main(["optimize", "--problem", str(problem), "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text())["weights"])
        assert reports[0] == reports[1]


class TestMatrixViews:
    def test_linear_view_document(self, tmp_path, four_asset):
        mu, _, _, sigma = four_asset
        m = MomentEstimates(mu=mu, sigma=sigma, scheme=WeightScheme.uniform(),
                            assets=["a", "b", "c", "d"])
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(moments_to_dict(m)))
        views = tmp_path / "v.json"
        views.write_text(json.dumps({
            "P": [[1.0, -1.0, 0.0, 0.0]],
            "Q": [0.02],
            "sigma_eps": [[1e-4]],
            "sharpe": 0.5, "r": 0.0,
        }))
        out = tmp_path / "out.json"
        code = main(["views", "--views", str(views), "--moments", str(mpath),
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert "mu_conditional" in doc and "sigma_conditional" in doc
        from roboalloc.mvo import implied_returns
        from roboalloc.views import ViewSet, bl_conditional
        mu_tilde = implied_returns(np.full(4, 0.25), sigma, 0.0, 0.5)
        expect_mu, expect_sigma = bl_conditional(
            mu_tilde, sigma, ViewSet(p=np.array([[1.0, -1.0, 0.0, 0.0]]),
                                     q=np.array([0.02]),
                                     sigma_eps=np.array([[1e-4]])))
        assert np.allclose(doc["mu_conditional"], expect_mu, atol=1e-12)
        assert np.allclose(doc["sigma_conditional"], expect_sigma.ravel(), atol=1e-12)


class TestSolverFailureExit:
    def test_non_convergence_writes_report_and_exits_two(self, four_asset_moments,
                                                         tmp_path):
        problem = tmp_path / "p.json"
        # an lp penalty still runs ADMM; every rebalancing document is exact
        problem.write_text(json.dumps({
            "moments_file": str(four_asset_moments),
            "gamma": 0.25,
            "penalties": [{"kind": "lp", "p": 1.5, "rho": 1e-3,
                           "anchor": [0.25, 0.25, 0.25, 0.25]}],
            "constraints": {"budget": 1.0, "lower": 0.0, "upper": 1.0},
            "admm": {"max_iter": 2},
        }))
        out = tmp_path / "rep.json"
        code = main(["optimize", "--problem", str(problem), "--out", str(out)])
        assert code == 2
        doc = json.loads(out.read_text())
        assert doc["status"] == "max_iter"
        assert len(doc["weights"]) == 4


    def test_max_iterations_exits_two_without_a_traceback(self, four_asset_moments,
                                                          tmp_path, capsys, monkeypatch):
        # an exact solve that runs out of iterations writes nothing
        def out_of_iterations(*args):
            raise MaxIterations("active set did not converge in 3 iterations")

        monkeypatch.setattr(qp, "_active_set", out_of_iterations)
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({"moments_file": str(four_asset_moments), "gamma": 0.25,
                                       "constraints": {"budget": 1.0, "lower": 0.0}}))
        out = tmp_path / "rep.json"
        assert main(["optimize", "--problem", str(problem), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MaxIterations: active set did not converge")
        assert "Traceback" not in err and not out.exists()

    def test_infeasible_constraints_exit_one(self, four_asset_moments, tmp_path, capsys):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "moments_file": str(four_asset_moments),
            "gamma": 0.25,
            "strategic": [0.25, 0.25, 0.25, 0.25],
            "current": [0.25, 0.25, 0.25, 0.25],
            "penalties": [{"kind": "l1", "rho": 1e-3, "anchor": "strategic"}],
            "constraints": {"budget": 1.0, "lower": 0.0, "upper": 0.2},
        }))
        out = tmp_path / "rep.json"
        code = main(["optimize", "--problem", str(problem), "--out", str(out)])
        assert code == 1
        assert "Infeasible" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["l1", "l2"], ids=["l1_route", "qp_route"])
    def test_path_on_infeasible_constraints_exits_one(self, four_asset_moments, tmp_path,
                                                      capsys, kind):
        # the constraint set is the same at every grid point, so the document
        # is infeasible: exit 1 as optimize does, not 2 with error rows
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "moments_file": str(four_asset_moments),
            "gamma": 0.25,
            "strategic": [0.25, 0.25, 0.25, 0.25],
            "current": [0.25, 0.25, 0.25, 0.25],
            "penalties": [{"kind": kind, "rho": 1e-3, "anchor": "strategic"}],
            "constraints": {"budget": 1.0, "lower": 0.0, "upper": 0.2},
        }))
        out = tmp_path / "path.csv"
        code = main(["path", "--problem", str(problem), "--param", kind.replace("l", "rho"),
                     "--grid", "log:1e-4:1e-2:3", "--out", str(out)])
        assert code == 1
        assert "Infeasible" in capsys.readouterr().err
        assert not out.exists()


class TestAdmmDocument:
    """An ``admm`` object that the solver cannot use, that names a removed
    penalty setting, or that sits on a document no ADMM runs on, is an input
    error, never a traceback or ignored."""

    @pytest.mark.parametrize("admm", [
        {"max_iter": 0}, {"max_iter": -3}, {"eps_primal": 0.0},
        {"phi0": 1.0}, {"mu": 1e3}, {"tau": 2.0}, {"restarts": 1}, {"seed": 3},
    ], ids=["max_iter_0", "max_iter_negative", "eps_zero", "phi0", "mu", "tau",
            "restarts", "seed"])
    def test_rejected(self, four_asset_moments, tmp_path, admm):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "moments_file": str(four_asset_moments), "gamma": 0.25,
            "penalties": [{"kind": "lp", "p": 1.5, "rho": 1e-3,
                           "anchor": [0.25, 0.25, 0.25, 0.25]}],
            "constraints": {"budget": 1.0, "lower": 0.0, "upper": 1.0},
            "admm": admm,
        }))
        out = tmp_path / "rep.json"
        assert main(["optimize", "--problem", str(problem), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"penalties": [{"kind": "l1", "rho": 0.01, "anchor": [0.5, 0.5]}], "gamma": 2.0},
        {"target": {"type": "volatility", "value": 0.25}},
    ], ids=["plain_l1", "target"])
    def test_without_an_admm_route(self, tmp_path, capsys, doc):
        # a valid block where every solve is exact could change nothing
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "mu": [0.05, 0.06], "sigma": [[0.04, 0.01], [0.01, 0.09]],
            "constraints": {"budget": 1.0, "lower": 0.0, "upper": 1.0},
            "admm": {"max_iter": 1}, **doc}))
        out = tmp_path / "rep.json"
        assert main(["optimize", "--problem", str(problem), "--out", str(out)]) == 1
        assert "admm applies only to plain problems with an lp penalty" in \
            capsys.readouterr().err
        assert not out.exists()


class TestStevens:
    def test_csv_columns(self, four_asset_moments, tmp_path):
        out = tmp_path / "stevens.csv"
        code = main(["stevens", "--moments", str(four_asset_moments),
                     "--gamma", "0.2578494857702563", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["asset", "alpha"]
        assert "x_star" in header
        row1 = lines[1].split(",")
        alpha1 = float(row1[1])
        assert 100 * alpha1 == pytest.approx(1.70, abs=0.01)
        x_star = [float(line.split(",")[-1]) for line in lines[1:]]
        assert np.allclose(100 * np.array(x_star), [36.00, 26.39, 27.67, 9.94],
                           atol=0.01)


    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_exits_one(self, four_asset_moments, tmp_path, gamma):
        out = tmp_path / "stevens.csv"
        assert main(["stevens", "--moments", str(four_asset_moments), "--gamma", gamma,
                     "--out", str(out)]) == 1
        assert not out.exists()


class TestMomentsDocuments:
    """Moments with a non-finite number, a value that is not a JSON number,
    an unknown key or an asset list that does not name every entry of mu
    are an input error (exit 1) for every verb that reads them, in a file or
    inline in a problem document."""

    @pytest.mark.parametrize("change", [
        {"mu": [0.07, float("nan"), 0.09, 0.10]},
        {"mu": [0.07, float("inf"), 0.09, 0.10]},
        {"sigma_entry": float("nan")},
        {"sigma_entry": float("-inf")},
        {"assets": ["a1", "a2", "a3"]},
        {"assets": ["a1", "a2", "a3", "a4", "a5"]},
        {"assets": ["a1", "a2", "a3", 4]},
        {"assets": "a1a2a3a4"},
        {"mu": "0.07"},
        {"mu": [0.07, "0.08", 0.09, 0.10]},
        {"sigma_entry": True},
        {"sigma_entry": None},
        {"junk": 1},
        {"mu": [], "sigma": [], "assets": []},
    ], ids=["mu_nan", "mu_inf", "sigma_nan", "sigma_inf", "short_assets",
            "long_assets", "non_string_asset", "assets_string", "mu_string",
            "mu_string_entry", "sigma_bool", "sigma_null", "unknown_key", "empty"])
    @pytest.mark.parametrize("verb", ["optimize", "path", "views", "stevens", "inline"])
    def test_rejected(self, four_asset_moments, tmp_path, capsys, change, verb):
        doc, change = json.loads(four_asset_moments.read_text()), dict(change)
        if "sigma_entry" in change:
            doc["sigma"][5] = change.pop("sigma_entry")
        doc.update(change)
        moments = tmp_path / "bad_moments.json"
        moments.write_text(json.dumps(doc))
        del doc["scheme"]  # inline, a problem document takes mu, sigma and assets
        source = doc if verb == "inline" else {"moments_file": str(moments)}
        plain = {**source, "gamma": 0.25, "constraints": {"budget": 1.0}}
        rebalancing = {**plain, "strategic": [0.25] * 4, "current": [0.25] * 4}
        for name, problem in (("plain.json", plain), ("rebalancing.json", rebalancing)):
            (tmp_path / name).write_text(json.dumps(problem))
        views = tmp_path / "v.json"
        views.write_text(json.dumps({"grades": {"a1": 1}}))
        optimize = ["optimize", "--problem", str(tmp_path / "plain.json")]
        path = ["path", "--problem", str(tmp_path / "rebalancing.json"),
                "--grid", "linear:0:1e-3:2"]
        argvs = {"optimize": [optimize], "path": [path], "inline": [optimize, path],
                 "views": [["views", "--views", str(views), "--moments", str(moments)]],
                 "stevens": [["stevens", "--moments", str(moments), "--gamma", "0.25"]]}[verb]
        # inline, an unknown key is one of the problem document
        want = "junk" if verb == "inline" and "junk" in change else "moments"
        out = tmp_path / "out"
        for argv in argvs:
            assert main(argv + ["--out", str(out)]) == 1
            assert want in capsys.readouterr().err
            assert not out.exists()

    def test_indefinite_inline_sigma(self, tmp_path, capsys):
        """Inline moments get the PSD check of a moments file, on the
        rebalancing route too."""
        sigma = np.eye(4)
        sigma[0, 1] = sigma[1, 0] = 2.0
        plain = {"mu": [0.07, 0.08, 0.09, 0.10], "sigma": sigma.tolist(), "gamma": 0.25,
                 "constraints": {"budget": 1.0}}
        rebalancing = {**plain, "strategic": [0.25] * 4, "current": [0.25] * 4}
        for doc in (plain, rebalancing):
            problem = tmp_path / "p.json"
            problem.write_text(json.dumps(doc))
            out = tmp_path / "out.json"
            assert main(["optimize", "--problem", str(problem), "--out", str(out)]) == 1
            assert "NotPositiveSemidefinite" in capsys.readouterr().err
            assert not out.exists()


class TestUsage:
    """A usage error exits 1 (2 is kept for solver non-convergence); --help
    exits 0; each verb takes only the flags it reads."""

    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["calibrate", "--help"]):
            assert main(argv) == 0
            assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        [], ["calibrate", "--data", "d.csv", "--out", "c.csv"], ["rebalance"],
        ["optimize", "--problem", "p.json", "--out", "r.json", "--tol", "1e-8"],
        ["optimize", "--problem", "p.json", "--out", "r.json", "--seed", "3"],
        ["path", "--problem", "p.json", "--grid", "linear:0:1:2", "--out", "t.csv",
         "--pretty"]],
        ids=["no_verb", "missing_grid", "unknown_verb", "tol", "seed_off_calibrate",
             "pretty_on_path"])
    def test_usage_error_exits_one(self, tmp_path, capsys, argv):
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err


    def test_parser_is_built_once_and_runs_the_verb_bound_now(self, monkeypatch, tmp_path):
        # a wrapper installed on a cmd_* function after the parser was built
        # (as a tracer does) is the one that runs
        from roboalloc import cli
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        calls = []
        monkeypatch.setattr(cli, "cmd_stevens", lambda args: calls.append(args.gamma) or 0)
        assert main(["stevens", "--moments", "m.json", "--gamma", "2",
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert calls == [2.0]


SMALL = {"mu": [0.05, 0.07, 0.09],
         "sigma": [[0.04, 0.01, 0.0], [0.01, 0.09, 0.02], [0.0, 0.02, 0.16]]}
BOXED = {"gamma": 0.5, "constraints": {"budget": 1.0, "lower": 0.0, "upper": 0.8}}


def optimize(tmp_path, name, doc):
    """``roboalloc optimize`` on the document ``doc``: its report."""
    problem, out = tmp_path / f"{name}.json", tmp_path / f"{name}_report.json"
    problem.write_text(json.dumps(doc))
    assert main(["optimize", "--problem", str(problem), "--out", str(out)]) == 0
    return json.loads(out.read_text())


class TestSmallDocuments:
    """Three-asset documents through ``optimize`` and ``path``, each pinning
    one route or one property of the solver."""

    def test_te_target_with_l1_penalties_is_met(self, tmp_path):
        # a tracking-error target with an l1 penalty is met on the solution path
        strategic = [0.5, 0.3, 0.2]
        r = optimize(tmp_path, "te", {
            **SMALL, "strategic": strategic, "current": [0.4, 0.4, 0.2], "te_target": 0.03,
            "penalties": [{"kind": "l1", "rho": 5e-4, "anchor": "strategic"},
                          {"kind": "l1", "rho": 2e-4, "anchor": "current"}]})
        x = np.array(r["weights"]) - strategic
        te = float(np.sqrt(x @ np.array(SMALL["sigma"]) @ x))
        assert abs(te - 0.03) <= 1e-9, te

    def test_lp_penalty_runs_admm_and_l1_the_active_set(self, tmp_path):
        # an lp penalty is a prox block and runs ADMM, which reports no duals;
        # the same document with an l1 penalty is solved on the active set
        r = optimize(tmp_path, "lp", {
            **SMALL, **BOXED, "penalties": [{"kind": "lp", "p": 1.5, "rho": 0.01}],
            "admm": {"max_iter": 20000}})
        assert r["status"] == "converged" and r["duals"] is None, r
        r = optimize(tmp_path, "l1", {**SMALL, **BOXED,
                                      "penalties": [{"kind": "l1", "rho": 0.01}]})
        assert r["status"] == "converged" and r["duals"] is not None, r

    def test_rank_one_covariance(self, tmp_path):
        # a rank-one covariance (sigma = v v', v = (0.2, 0.3, 0.1)) makes the free
        # block's KKT matrix singular: its steps and multipliers come from the
        # minimum-norm least squares of the bordered matrix
        sigma = [[0.04, 0.06, 0.02], [0.06, 0.09, 0.03], [0.02, 0.03, 0.01]]
        r = optimize(tmp_path, "rank1", {"mu": SMALL["mu"], "sigma": sigma, **BOXED})
        d = r["duals"]
        assert r["status"] == "converged", r
        assert max(abs(a - b) for a, b in zip(r["weights"], [0.2, 0.0, 0.8])) <= 1e-12, r
        assert max(abs(d["eq"][0] - 0.001), abs(d["lower"][1] - 0.002),
                   abs(d["upper"][2] - 0.032)) <= 1e-12, d

    def test_units_of_the_moments_do_not_move_the_weights(self, tmp_path):
        # mu and sigma in units 1e-8 as large: the KKT matrix's rows are scaled to
        # its curvature, so the same weights come from the same LU
        u = optimize(tmp_path, "unit", {**SMALL, **BOXED})
        t = optimize(tmp_path, "tiny", {
            "mu": [0.05e-8, 0.07e-8, 0.09e-8],
            "sigma": [[0.04e-8, 0.01e-8, 0.0], [0.01e-8, 0.09e-8, 0.02e-8],
                      [0.0, 0.02e-8, 0.16e-8]], **BOXED})
        assert t["status"] == "converged"
        assert max(abs(a - b) for a, b in zip(u["weights"], t["weights"])) <= 1e-12, (u, t)

    def test_path_param_takes_a_swept_penalty_name(self, tmp_path):
        # path --param takes every swept penalty's name; an unknown one exits 1
        problem = tmp_path / "turnover.json"
        problem.write_text(json.dumps({
            **SMALL, **BOXED, "strategic": [0.5, 0.3, 0.2], "current": [0.4, 0.4, 0.2],
            "penalties": [{"kind": "l1", "rho": 2e-4, "anchor": "current"}]}))
        for param, code in (("rho1_turnover", 0), ("bogus", 1)):
            assert main(["path", "--problem", str(problem), "--param", param,
                         "--grid", "log:1e-5:1e-1:5",
                         "--out", str(tmp_path / f"{param}.csv")]) == code


class TestVolatilityTargetOutOfReach:
    """Without constraints a volatility target is walked from gamma 0; a
    target that no gamma >= 0 reaches exits 1 with one ``error:`` line."""

    @pytest.mark.parametrize("mu,target", [([0.0, 0.0], 0.1), ([0.05, 0.07], -0.1)],
                             ids=["zero-excess", "negative"])
    def test_exits_1(self, tmp_path, capsys, mu, target):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({"mu": mu, "sigma": [[0.04, 0.0], [0.0, 0.09]],
                                       "target": {"type": "volatility", "value": target}}))
        code = main(["optimize", "--problem", str(problem), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 1 and not (tmp_path / "r.json").exists()
        assert err.startswith("error: TargetUnreachable: ") and err.count("\n") == 1, err


class TestFilterDocuments:
    """A ``"filter"`` regularizes the covariance from one ``eigh``: a
    filtered volatility target answers as the library does on the filtered
    covariance, and a zero covariance, a threshold above every value or an
    asymmetric covariance exits 1 with one ``error:`` line."""

    def write(self, tmp_path, sigma, filt):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "mu": [0.05, 0.07, 0.06], "sigma": sigma, "filter": filt,
            "target": {"type": "volatility", "value": 0.2},
            "constraints": {"budget": 1.0, "lower": 0.0, "upper": 1.0}}))
        return problem

    def test_filtered_volatility_target(self, tmp_path):
        sigma = [[0.04, 0.006, 0.01], [0.006, 0.09, 0.012], [0.01, 0.012, 0.0625]]
        spec = FilterSpec("ridge", 0.002)
        problem = self.write(tmp_path, sigma, {"kind": "ridge", "rho": 0.002})
        out = tmp_path / "r.json"
        assert main(["optimize", "--problem", str(problem), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        inputs = MvoInputs(mu=[0.05, 0.07, 0.06], sigma=filtered_by_svd(np.array(sigma), spec))
        gamma, rep = calibrate_gamma(inputs, ConstraintSet(budget=1.0, lower=0.0, upper=1.0),
                                     target_vol=0.2)
        assert doc["status"] == "converged" and doc["gamma"] == pytest.approx(gamma, rel=1e-10)
        assert np.abs(np.array(doc["weights"]) - rep.weights).max() <= 1e-10

    @pytest.mark.parametrize("sigma,filt,error", [
        ([[0.0] * 3] * 3, {"kind": "ridge", "rho": 0.001}, "AllSingularValuesFiltered"),
        ([[0.04, 0.0, 0.0], [0.0, 0.09, 0.0], [0.0, 0.0, 0.0625]],
         {"kind": "hard_threshold", "rho": 0.5}, "AllSingularValuesFiltered"),
        ([[0.04, 0.01, 0.0], [0.0, 0.09, 0.0], [0.0, 0.0, 0.0625]],
         {"kind": "ridge", "rho": 0.001}, "NotSymmetric")],
        ids=["zero", "threshold-above-all", "asymmetric"])
    def test_exits_1(self, tmp_path, capsys, sigma, filt, error):
        problem = self.write(tmp_path, sigma, filt)
        code = main(["optimize", "--problem", str(problem), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 1 and not (tmp_path / "r.json").exists()
        assert err.startswith(f"error: {error}: ") and err.count("\n") == 1, err


class TestReturnTargetMetAtGammaZero:
    def test_exits_0_with_gamma_zero(self, tmp_path):
        # a return target the zero book of gamma 0 meets: gamma -0.428 and
        # weights [-0.53, -0.33] before
        problem, out = tmp_path / "p.json", tmp_path / "r.json"
        problem.write_text(json.dumps({"mu": [0.05, 0.07], "sigma": [[0.04, 0.0], [0.0, 0.09]],
                                       "target": {"type": "return", "value": -0.05}}))
        assert main(["optimize", "--problem", str(problem), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["gamma"] == 0.0 and doc["weights"] == [0.0, 0.0]


class TestAtomicWrite:
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.csv"
        target.write_text("old\n")

        def full_disk(src, dst):
            raise OSError("No space left on device")

        monkeypatch.setattr(report.os, "replace", full_disk)
        with pytest.raises(OSError, match="No space left"):
            report.atomic_write(target, "new\n")
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.csv"]


class TestDeterminism:
    def test_identical_inputs_identical_bytes(self, four_asset_moments, tmp_path):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "moments_file": str(four_asset_moments),
            "gamma": 0.25,
            "constraints": {"budget": 1.0, "lower": 0.0},
        }))
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            code = main(["optimize", "--problem", str(problem), "--out", str(out),
                         "--pretty"])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# In a fresh interpreter: import the package and the CLI, then solve once on
# each route a CLI process or the benchmark's warm-up takes (an L1 rebalance,
# a gamma calibration, a TE-target rebalance and a penalty path), and list
# the scipy.optimize modules loaded.
FOOTPRINT = """
import sys
import numpy as np
import roboalloc, roboalloc.cli
sigma = np.diag([0.04, 0.05, 0.06, 0.07]) + 0.01
mu = np.array([0.05, 0.06, 0.07, 0.08])
strategic, current = np.full(4, 0.25), np.array([0.4, 0.3, 0.2, 0.1])
box = roboalloc.ConstraintSet(budget=1.0, lower=np.zeros(4), upper=np.full(4, 0.6))
l1 = roboalloc.RoboConfig(strategic=strategic, current=current, gamma=0.5,
                          rho1_strategic=5e-4, rho1_turnover=2e-4,
                          rho2_strategic=0.02, constraints=box)
te = roboalloc.RoboConfig(strategic=strategic, current=current, te_target=0.02,
                          rho2_strategic=0.02, rho2_turnover=0.01, constraints=box)
assert roboalloc.rebalance(l1, mu, sigma).converged
roboalloc.calibrate_gamma(roboalloc.MvoInputs(mu=mu, sigma=sigma), box, target_vol=0.2)
assert roboalloc.rebalance(te, mu, sigma).converged
roboalloc.regularization_path(l1, mu, sigma, [1e-4, 1e-3])
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "optimize"]))
"""


# In a fresh interpreter: import the CLI and run the four verbs that never
# factor a matrix, then one QP solve, printing after each whether
# scipy.linalg is loaded.
VERBS_FOOTPRINT = """
import json, sys
import numpy as np
import roboalloc, roboalloc.cli
rng = np.random.default_rng(0)
returns, x = rng.normal(0.005, 0.02, size=(12, 4)), rng.normal(size=(24, 3))
y = x @ np.array([1.0, -0.5, 0.2]) + 0.1 * rng.normal(size=24)
with open("panel.csv", "w") as h:
    h.write("date,a,b,c,d\\n" + "".join(f"2020-{i + 1:02d}," + ",".join(repr(float(v)) for v in r)
                                       + "\\n" for i, r in enumerate(returns)))
with open("data.csv", "w") as h:
    h.write("y,x1,x2,x3\\n" + "".join(",".join(repr(float(v)) for v in [yi, *xi]) + "\\n"
                                    for yi, xi in zip(y, x)))
with open("views.json", "w") as h:
    json.dump({"grades": {"a": 1, "d": -1}, "sharpe": 0.5, "r": 0.0, "delta": 1.0, "tau": 1.0}, h)
main = roboalloc.cli.main
codes = [main(["estimate", "--returns", "panel.csv", "--out", "moments.json"]),
         main(["views", "--views", "views.json", "--moments", "moments.json", "--out", "v.json"]),
         main(["stevens", "--moments", "moments.json", "--gamma", "0.5", "--out", "s.csv"])]
codes += [main(["calibrate", "--data", "data.csv", "--method", method,
                "--grid", "log:1e-4:1e2:10", "--out", method + ".csv"])
          for method in ("gcv", "press", "kfold")]
print(codes, "scipy.linalg" in sys.modules)
box = roboalloc.ConstraintSet(budget=1.0, lower=0.0, upper=0.6)
inputs = roboalloc.MvoInputs(mu=[0.05, 0.06, 0.07], sigma=0.04 * np.eye(3))
assert roboalloc.solve_gamma_problem(inputs, 0.5, box).converged
print("scipy.linalg" in sys.modules)
"""


class TestImportFootprint:
    @staticmethod
    def run(script, cwd=None):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=cwd,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip().splitlines()

    def test_solving_loads_no_scipy_optimize(self):
        # scipy serves the package only through scipy.linalg's LU factors
        assert self.run(FOOTPRINT) == ["[]"]

    def test_scipy_linalg_loads_at_the_first_factorization(self, tmp_path):
        # estimate, views, stevens and calibrate never factor a matrix, so a
        # CLI process running them never imports scipy.linalg; a QP does
        out = self.run(VERBS_FOOTPRINT, cwd=tmp_path)  # calibrate prints its best rho2
        assert out[-2:] == ["[0, 0, 0, 0, 0, 0] False", "True"]
