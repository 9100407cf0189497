import json
import os
import pathlib
import sys
import types
from dataclasses import replace

import numpy as np
import pytest

import roboalloc
from roboalloc import admm, cli, pipeline, qp
from roboalloc.errors import (
    AllocationError,
    Infeasible,
    MaxIterations,
    NotPositiveSemidefinite,
    TargetUnreachable,
)
from roboalloc.mvo import ConstraintSet, exact_problem
from roboalloc.pipeline import (
    RoboConfig,
    rebalance,
    regularization_path,
    te_target_to_gamma,
    tracking_error,
)
from roboalloc.prox import L2Ball
from roboalloc.qp import QpProblem, solve_qp
from roboalloc.views import grades_to_expected_returns
from tests.test_polish import oracle

EW10 = np.full(10, 0.1)
X0 = np.array([0.4, 0.3, 0.2, 0.1])


def plain_qp_oracle(config, mu, sigma, gamma):
    q_vec = gamma * np.asarray(mu, float)
    if config.objective == "tracking_error":
        q_vec = q_vec + sigma @ config.strategic
    return solve_qp(exact_problem(sigma, q_vec, None, config.constraints))


def walks_then_solves_once(ten_asset, monkeypatch, **slots):
    """A TE target is met on the solution path: the gamma-0 solve from the
    solver's cold start is the one solve, and the answer, read off the
    walk's piece and certified, is on the target to 1e-12 and within 1e-10
    of a cold solve, weights, duals and objective."""
    _, _, sigma = ten_asset
    scores = np.array([1, 0, 1, 0, 1, 0, 0, 1, 0, 1])
    _, _, mu = grades_to_expected_returns(EW10, sigma, 0.0, 0.5, scores)
    cfg = RoboConfig(strategic=EW10, current=EW10, objective="tracking_error",
                     rho2_turnover=0.01, **slots)
    starts, answers = [], []

    def recording(problem, x0=None, **kwargs):
        starts.append(x0)
        answers.append(solve_qp(problem, x0=x0, **kwargs))
        return answers[-1]

    monkeypatch.setattr(admm, "solve_qp", recording)
    gamma, rep = te_target_to_gamma(cfg, mu, sigma, 0.01)
    assert len(starts) == 1 and starts[0] is None and rep is not answers[0]
    assert rep.converged and rep.iterations == 0 and rep.gamma == gamma
    history = rep.meta["calibration"]
    assert all(b[0] >= a[0] and b[1] >= a[1] - 1e-12
               for a, b in zip(history, history[1:]))
    assert history[-1] == (gamma, tracking_error(rep.weights, EW10, sigma))
    monkeypatch.undo()
    assert tracking_error(rep.weights, EW10, sigma) == pytest.approx(
        0.01, rel=1e-12, abs=0.0)
    cold = rebalance(replace(cfg, gamma=gamma), mu, sigma)
    assert np.abs(rep.weights - cold.weights).max() <= 1e-10
    for key in ("eq", "ineq", "lower", "upper"):
        assert np.abs(rep.duals[key] - cold.duals[key]).max(initial=0.0) <= 1e-10
    assert abs(rep.objective - cold.objective) <= 1e-10


class TestRebalance:
    def test_no_penalties_reduces_to_constrained_solve(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        cfg = RoboConfig(strategic=X0, current=X0, objective="mvo", gamma=0.25)
        rep = rebalance(cfg, mu, sigma)
        oracle = plain_qp_oracle(cfg, mu, sigma, 0.25)
        assert np.abs(rep.weights - oracle.weights).max() <= 1e-6

    @pytest.mark.parametrize("objective", ["mvo", "tracking_error"])
    def test_neither_gamma_nor_target_solves_at_gamma_zero(self, four_asset_alt, objective):
        mu, _, _, sigma = four_asset_alt
        cfg = RoboConfig(strategic=X0, current=X0, objective=objective)
        rep = rebalance(cfg, mu, sigma)
        assert rep.gamma == 0.0 and rep.converged
        assert np.array_equal(rep.weights, rebalance(replace(cfg, gamma=0.0), mu, sigma).weights)
        oracle = plain_qp_oracle(cfg, mu, sigma, 0.0)
        assert np.abs(rep.weights - oracle.weights).max() <= 1e-10

    def test_dominant_turnover_penalty_freezes_book(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        current = np.array([0.3, 0.25, 0.25, 0.2])
        cfg = RoboConfig(strategic=X0, current=current, objective="tracking_error",
                         gamma=0.1, rho1_turnover=1e3)
        rep = rebalance(cfg, mu, sigma)
        assert rep.converged
        assert np.abs(rep.weights - current).max() <= 1e-6

    def test_output_stays_on_simplex_with_box(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        rng = np.random.default_rng(0)
        for _ in range(10):
            current = rng.dirichlet(np.ones(4))
            cfg = RoboConfig(strategic=X0, current=current,
                             objective="tracking_error", gamma=float(rng.random()),
                             rho1_strategic=float(10 ** rng.uniform(-4, -2)),
                             rho1_turnover=float(10 ** rng.uniform(-4, -2)),
                             rho2_strategic=float(10 ** rng.uniform(-3, -1)))
            rep = rebalance(cfg, mu, sigma)
            assert rep.converged
            assert rep.weights.sum() == pytest.approx(1.0, abs=1e-9)
            assert rep.weights.min() >= -1e-9
            assert rep.weights.max() <= 1.0 + 1e-9

    def test_infeasible_box_raises_on_l1_route(self, four_asset_alt):
        # four names capped at 0.2 cannot hold a budget of 1: phase 1 says so
        # before the L1 active set takes a step
        mu, _, _, sigma = four_asset_alt
        ew = np.full(4, 0.25)
        cfg = RoboConfig(strategic=ew, current=ew, objective="tracking_error",
                         gamma=0.1, rho1_strategic=1e-3,
                         constraints=ConstraintSet(budget=1.0, lower=0.0, upper=0.2))
        with pytest.raises(Infeasible):
            rebalance(cfg, mu, sigma)

    @pytest.mark.parametrize("constraints", [None, ConstraintSet(budget=1.0, lower=0.0,
                                                                  upper=1.0)],
                             ids=["free", "budget_box"])
    def test_indefinite_covariance_is_refused_on_l1_route(self, constraints):
        # a negative eigenvalue of sigma: the L1 solve runs to its cap and
        # then names the least eigenvalue
        ew = np.full(4, 0.25)
        cfg = RoboConfig(strategic=ew, current=ew, gamma=0.5, rho1_turnover=1e-3,
                         constraints=constraints)
        with pytest.raises(NotPositiveSemidefinite, match="-5.000e-02"):
            rebalance(cfg, [0.05, 0.06, 0.07, 0.04], np.diag([0.04, 0.09, -0.05, 0.02]))

    @pytest.mark.parametrize("slot", ["rho1_strategic", "rho2_strategic"],
                             ids=["l1_route", "qp_route"])
    @pytest.mark.parametrize("warm", [[np.nan, 0.5, 0.25, 0.25], [0.5, 0.5]],
                             ids=["nan", "wrong_size"])
    def test_bad_warm_start_rejected(self, four_asset_alt, slot, warm):
        # a NaN start once passed the QP's feasibility test and spun the
        # active set to MaxIterations; a short one was ignored on that route
        mu, _, _, sigma = four_asset_alt
        ew = np.full(4, 0.25)
        cfg = RoboConfig(strategic=ew, current=ew, gamma=0.1, **{slot: 1e-3})
        with pytest.raises(ValueError):
            rebalance(cfg, mu, sigma, warm=warm)

    def test_matched_blocks_are_symmetric(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        cfg_a = RoboConfig(strategic=X0, current=X0, objective="mvo", gamma=0.2,
                           rho1_strategic=2e-3, rho2_strategic=0.05,
                           rho1_turnover=1e-3, rho2_turnover=0.02)
        cfg_b = RoboConfig(strategic=X0, current=X0, objective="mvo", gamma=0.2,
                           rho1_strategic=1e-3, rho2_strategic=0.02,
                           rho1_turnover=2e-3, rho2_turnover=0.05)
        ra = rebalance(cfg_a, mu, sigma)
        rb = rebalance(cfg_b, mu, sigma)
        assert np.abs(ra.weights - rb.weights).max() <= 1e-6

    def test_turnover_nonincreasing_in_penalty(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        current = np.array([0.3, 0.25, 0.25, 0.2])
        turnovers = []
        for rho1 in (0.0, 1e-4, 1e-3, 1e-2, 1e-1):
            cfg = RoboConfig(strategic=X0, current=current, objective="mvo",
                             gamma=0.25, rho1_turnover=rho1)
            rep = rebalance(cfg, mu, sigma)
            turnovers.append(np.abs(rep.weights - current).sum())
        assert all(b <= a + 1e-8 for a, b in zip(turnovers, turnovers[1:]))

    def test_norm_ball_extra_set_binds(self, ten_asset):
        # ADMM projects onto the constraint set intersected with the extra
        # sets: an L2 cap below the uncapped answer's norm must bind
        _, _, sigma = ten_asset
        scores = np.array([1, 0, 1, 0, 1, 0, 0, 1, 0, 1])
        _, _, mu = grades_to_expected_returns(EW10, sigma, 0.0, 0.5, scores)
        current = np.random.default_rng(0).dirichlet(np.ones(10))
        slots = dict(strategic=EW10, current=current, objective="mvo", gamma=0.5,
                     rho1_turnover=1e-3)
        free = rebalance(RoboConfig(**slots), mu, sigma)
        cap = 0.5 * (np.linalg.norm(free.weights) + np.linalg.norm(EW10))
        rep = rebalance(RoboConfig(**slots, extra_sets=(L2Ball(cap),)), mu, sigma)
        assert rep.converged
        assert np.linalg.norm(rep.weights) == pytest.approx(cap, abs=1e-8)
        assert rep.weights.sum() == pytest.approx(1.0, abs=1e-8)
        assert rep.weights.min() >= -1e-8 and rep.weights.max() <= 1.0 + 1e-8

    def test_signal_allocation_grows_with_te_budget(self, ten_asset):
        _, _, sigma = ten_asset
        scores = np.array([1, 0, 1, 0, 1, 0, 0, 1, 0, 1])
        _, _, mu = grades_to_expected_returns(EW10, sigma, 0.0, 0.5, scores)
        weights_at = []
        for target in (0.002, 0.005, 0.01, 0.02):
            cfg = RoboConfig(strategic=EW10, current=EW10,
                             objective="tracking_error", te_target=target)
            rep = rebalance(cfg, mu, sigma)
            assert tracking_error(rep.weights, EW10, sigma) == pytest.approx(
                target, abs=1e-5)
            weights_at.append(rep.weights[7])  # high-vol equity sleeve, graded +
        assert all(b >= a - 1e-8 for a, b in zip(weights_at, weights_at[1:]))


class TestNonFiniteBooks:
    """A NaN in a book is rejected up front, on either route, with an error
    that names the book, before any problem is built."""

    @pytest.mark.parametrize("rho1", [0.0, 5e-4], ids=["qp_route", "l1_route"])
    @pytest.mark.parametrize("label", ["strategic", "current"])
    def test_rejected(self, label, rho1):
        books = {"strategic": X0.copy(), "current": X0.copy()}
        books[label][2] = np.nan
        with pytest.raises(ValueError, match=f"{label} portfolio must hold finite"):
            RoboConfig(**books, objective="tracking_error", gamma=0.1,
                       rho1_strategic=rho1, rho1_turnover=rho1)


class TestTeTargeting:
    def test_zero_target_returns_strategic(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        cfg = RoboConfig(strategic=X0, current=X0, objective="tracking_error")
        gamma, _ = te_target_to_gamma(cfg, mu, sigma, 0.0)
        assert gamma == 0.0
        rep = rebalance(replace(cfg, gamma=0.0), mu, sigma)
        assert np.abs(rep.weights - X0).max() <= 1e-7

    def test_negative_target_unreachable(self, four_asset_alt):
        # the walk's gamma-0 check refuses it: no tracking error is negative
        mu, _, _, sigma = four_asset_alt
        cfg = RoboConfig(strategic=X0, current=X0, objective="tracking_error")
        with pytest.raises(TargetUnreachable, match="unattainable: below the minimum attainable"):
            te_target_to_gamma(cfg, mu, sigma, -0.01)

    def test_te_monotone_in_gamma(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        cfg = RoboConfig(strategic=X0, current=X0, objective="tracking_error")
        tes = []
        for gamma in (0.0, 0.01, 0.05, 0.1, 0.2, 0.5):
            rep = rebalance(replace(cfg, gamma=gamma), mu, sigma)
            tes.append(tracking_error(rep.weights, X0, sigma))
        assert all(b >= a - 1e-10 for a, b in zip(tes, tes[1:]))

    def test_three_targets_hit(self, ten_asset):
        _, _, sigma = ten_asset
        scores = np.array([1, 0, 1, 0, 1, 0, 0, 1, 0, 1])
        _, _, mu = grades_to_expected_returns(EW10, sigma, 0.0, 0.5, scores)
        cfg = RoboConfig(strategic=EW10, current=EW10, objective="tracking_error")
        for target in (0.005, 0.01, 0.02):
            gamma, _ = te_target_to_gamma(cfg, mu, sigma, target)
            rep = rebalance(replace(cfg, gamma=gamma), mu, sigma)
            assert tracking_error(rep.weights, EW10, sigma) == pytest.approx(
                target, abs=1e-6)


    @pytest.mark.parametrize("rho1", [0.0, 1e-4], ids=["qp_route", "l1_route"])
    def test_target_below_gamma_zero_tracking_error_unreachable(self, ten_asset, rho1):
        # the turnover anchor keeps the gamma-0 book off the strategic one:
        # its tracking error is about 0.025, far above the 0.001 target
        _, _, sigma = ten_asset
        scores = np.array([1, 0, 1, 0, 1, 0, 0, 1, 0, 1])
        _, _, mu = grades_to_expected_returns(EW10, sigma, 0.0, 0.5, scores)
        cfg = RoboConfig(strategic=EW10, current=np.random.default_rng(0).dirichlet(np.ones(10)),
                         objective="tracking_error", rho1_strategic=rho1,
                         rho2_turnover=0.05, te_target=0.001)
        with pytest.raises(TargetUnreachable, match="below the minimum attainable"):
            te_target_to_gamma(cfg, mu, sigma, 0.001)
        with pytest.raises(TargetUnreachable):
            rebalance(cfg, mu, sigma)

    def test_qp_route_walks_then_solves_once(self, ten_asset, monkeypatch):
        walks_then_solves_once(ten_asset, monkeypatch)

    def test_l1_route_walks_then_solves_once(self, ten_asset, monkeypatch):
        # both L1 slots anchored at the book: the gamma-0 answer sits on
        # every kink and the budget row at once
        walks_then_solves_once(ten_asset, monkeypatch, rho1_strategic=1e-4,
                               rho1_turnover=1e-4)

    def test_extra_sets_rejected_before_any_solve(self, ten_asset, monkeypatch):
        _, _, sigma = ten_asset
        mu = np.linspace(0.02, 0.08, 10)
        cfg = RoboConfig(strategic=EW10, current=EW10, objective="tracking_error",
                         rho1_strategic=1e-4, extra_sets=(L2Ball(1.0),), te_target=0.01)
        solves = []
        monkeypatch.setattr(admm, "admm_solve", lambda *a, **k: solves.append(a))
        monkeypatch.setattr(admm, "solve_qp", lambda *a, **k: solves.append(a))
        with pytest.raises(ValueError, match="extra sets"):
            rebalance(cfg, mu, sigma)
        with pytest.raises(ValueError, match="extra sets"):
            te_target_to_gamma(cfg, mu, sigma, 0.01)
        assert solves == []

    @pytest.mark.parametrize("warm", [[0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4],
                                      [1.0, 0.0, 0.0, 0.0]],
                             ids=["equal", "reversed", "corner"])
    def test_weights_warm_start_on_l1_route_gives_cold_answer(self, four_asset_alt, warm):
        mu, _, _, sigma = four_asset_alt
        cfg = RoboConfig(strategic=X0, current=X0, objective="tracking_error",
                         gamma=0.1, rho1_strategic=1e-3)
        cold = rebalance(cfg, mu, sigma)
        rep = rebalance(cfg, mu, sigma, warm=np.array(warm))
        assert cold.converged and rep.converged
        assert np.abs(rep.weights - cold.weights).max() <= 1e-12

    @pytest.mark.parametrize("rho1", [0.0, 1e-3], ids=["qp_route", "l1_route"])
    def test_non_finite_target_rejected(self, four_asset_alt, rho1):
        mu, _, _, sigma = four_asset_alt
        cfg = RoboConfig(strategic=X0, current=X0, objective="tracking_error",
                         rho1_strategic=rho1, te_target=float("nan"))
        with pytest.raises(ValueError, match="target must be finite"):
            rebalance(cfg, mu, sigma)
        with pytest.raises(ValueError, match="target must be finite"):
            te_target_to_gamma(cfg, mu, sigma, float("inf"))

    def test_gamma_beside_a_target_is_rejected(self):
        # a target sets gamma: a config holding both would drop one of them
        with pytest.raises(ValueError, match="exclude each other"):
            RoboConfig(strategic=X0, current=X0, gamma=0.5, te_target=0.01)


class TestRegularizationPath:
    def test_ridge_endpoints(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        cfg = RoboConfig(strategic=X0, current=X0, objective="mvo", gamma=0.25,
                         constraints=ConstraintSet(budget=1.0))
        grid = np.geomspace(1e-9, 1e3, 13)
        table = regularization_path(cfg, mu, sigma, grid, param="rho2")
        assert all(s == "converged" for s in table.status)
        start_oracle = plain_qp_oracle(cfg, mu, sigma, 0.25)
        assert np.abs(table.weights[0] - start_oracle.weights).max() <= 1e-5
        assert np.abs(table.weights[-1] - X0).max() <= 1e-3  # 0.1pp

    def test_ridge_no_anchor_tends_to_equal_weights(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        ew = np.full(4, 0.25)
        cfg = RoboConfig(strategic=ew, current=ew, objective="mvo", gamma=0.25,
                         constraints=ConstraintSet(budget=1.0))
        table = regularization_path(cfg, mu, sigma, np.geomspace(1e-3, 1e3, 8),
                                    param="rho2")
        assert np.abs(table.weights[-1] - 0.25).max() <= 1e-3

    def test_lasso_without_anchor_reaches_long_only_solution(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        # anchor at zero: penalize |x| itself rather than a bet
        cfg = RoboConfig(strategic=np.zeros(4), current=np.zeros(4),
                         objective="mvo", gamma=0.25,
                         constraints=ConstraintSet(budget=1.0))
        table = regularization_path(cfg, mu, sigma, np.geomspace(1e-5, 1e3, 10),
                                    param="rho1")
        long_only = solve_qp(QpProblem(Q=sigma, c=-0.25 * mu,
                                       eq=(np.ones((1, 4)), [1.0]), lower=0.0))
        assert np.abs(table.weights[-1] - long_only.weights).max() <= 1e-3

    def test_elastic_net_limit_is_ridge_limit(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        ew = np.full(4, 0.25)
        cfg = RoboConfig(strategic=ew, current=ew, objective="mvo", gamma=0.25,
                         rho1_strategic=1e3, rho2_strategic=1e3,
                         constraints=ConstraintSet(budget=1.0))
        rep = rebalance(cfg, mu, sigma)
        assert np.abs(rep.weights - 0.25).max() <= 1e-3

    def test_csv_round_trip(self, tmp_path, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        cfg = RoboConfig(strategic=X0, current=X0, objective="mvo", gamma=0.25,
                         constraints=ConstraintSet(budget=1.0))
        table = regularization_path(cfg, mu, sigma, np.geomspace(1e-4, 1.0, 4),
                                    param="rho1", assets=list("wxyz"))
        out = tmp_path / "path.csv"
        table.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "param,w,x,y,z,objective,status"
        assert len(lines) == 5
        cells = lines[1].split(",")
        assert float(cells[0]) == pytest.approx(1e-4)
        assert cells[-1] == "converged"
        total = sum(float(c) for c in cells[1:5])
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_qp_route_points_start_from_previous_weights(self, four_asset_alt,
                                                         monkeypatch):
        mu, _, _, sigma = four_asset_alt
        cfg = RoboConfig(strategic=X0, current=np.full(4, 0.25), objective="mvo",
                         gamma=0.25)
        starts, answers = [], []

        def recording(problem, x0=None, **kwargs):
            starts.append(x0)
            answers.append(solve_qp(problem, x0=x0, **kwargs))
            return answers[-1]

        monkeypatch.setattr(admm, "solve_qp", recording)
        table = regularization_path(cfg, mu, sigma, np.geomspace(1e-3, 10.0, 6),
                                    param="rho2")
        assert table.status == ["converged"] * 6 and len(starts) == 6
        assert starts[0] is None
        assert all(s is a.weights for s, a in zip(starts[1:], answers))

    def test_failed_point_is_recorded_and_the_sweep_goes_on(self, four_asset_alt,
                                                             monkeypatch):
        # an AllocationError at one point is its row, with NaN weights and
        # objective; the next point starts from the last converged weights
        mu, _, _, sigma = four_asset_alt
        cfg = RoboConfig(strategic=X0, current=np.full(4, 0.25), objective="mvo",
                         gamma=0.25)
        grid = np.geomspace(1e-3, 10.0, 5)
        starts, solve = [], pipeline._solve

        def failing_at_the_third(point, mu, sigma, assembly, warm=None):
            starts.append(warm)
            if point.rho2_strategic == grid[2]:
                raise MaxIterations("stopped at the cap")
            return solve(point, mu, sigma, assembly, warm=warm)

        monkeypatch.setattr(pipeline, "_solve", failing_at_the_third)
        table = regularization_path(cfg, mu, sigma, grid, param="rho2")
        assert table.status == ["converged"] * 2 + ["error:MaxIterations"] + ["converged"] * 2
        assert np.isnan(table.weights[2]).all() and np.isnan(table.objective[2])
        assert np.isfinite(table.weights[[0, 1, 3, 4]]).all()
        assert np.isfinite(table.objective[[0, 1, 3, 4]]).all()
        assert starts[0] is None and starts[3] is starts[2]
        assert np.array_equal(starts[3], table.weights[1])

    @pytest.mark.parametrize("slot,param", [("rho1_strategic", "rho1"),
                                            ("rho2_strategic", "rho2")],
                             ids=["l1_route", "qp_route"])
    def test_infeasible_constraint_set_raises(self, four_asset_alt, slot, param):
        # the constraint set does not change along the grid: no row can be
        # feasible, so the path raises instead of recording error rows
        mu, _, _, sigma = four_asset_alt
        ew = np.full(4, 0.25)
        cfg = RoboConfig(strategic=ew, current=ew, gamma=0.1, **{slot: 1e-3},
                         constraints=ConstraintSet(budget=1.0, lower=0.0, upper=0.2))
        with pytest.raises(Infeasible):
            regularization_path(cfg, mu, sigma, [1e-4, 1e-3, 1e-2], param=param)

    @pytest.mark.parametrize("slot,param", [("rho1_strategic", "rho1"),
                                            ("rho2_strategic", "rho2")],
                             ids=["l1_route", "qp_route"])
    def test_input_error_raises(self, four_asset_alt, slot, param):
        # non-finite data is wrong at every grid point: it is raised, not
        # recorded as one error row per point
        mu, _, _, sigma = four_asset_alt
        mu = mu.copy()
        mu[1] = np.nan
        cfg = RoboConfig(strategic=X0, current=X0, gamma=0.1, **{slot: 1e-3})
        with pytest.raises(ValueError):
            regularization_path(cfg, mu, sigma, [1e-4, 1e-3, 1e-2], param=param)

    @pytest.mark.parametrize("grid", [np.linspace(-1.0, 1.0, 5), [1e-3, np.nan],
                                      [1e-3, np.inf]], ids=["negative", "nan", "inf"])
    def test_bad_grid_rejected_before_solving(self, four_asset_alt, monkeypatch, grid):
        mu, _, _, sigma = four_asset_alt
        cfg = RoboConfig(strategic=X0, current=X0, gamma=0.1)
        solves = []
        for seam in ("_assemble", "_solve"):
            monkeypatch.setattr(pipeline, seam, lambda *a, **k: solves.append(a))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            regularization_path(cfg, mu, sigma, grid, param="rho2")
        assert solves == []

    def test_unknown_parameter_rejected(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        cfg = RoboConfig(strategic=X0, current=X0, objective="mvo", gamma=0.25)
        with pytest.raises(ValueError):
            regularization_path(cfg, mu, sigma, [0.1], param="rho7")


class TestPathTableWarmStart:
    def test_warm_start_matches_cold(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        cfg = RoboConfig(strategic=X0, current=X0, objective="mvo", gamma=0.25,
                         rho1_strategic=1e-3,
                         constraints=ConstraintSet(budget=1.0))
        grid = np.geomspace(1e-4, 1e-1, 6)
        table = regularization_path(cfg, mu, sigma, grid, param="rho1")
        for value, row in zip(grid, table.weights):
            cold_cfg = RoboConfig(strategic=X0, current=X0, objective="mvo",
                                  gamma=0.25, rho1_strategic=float(value),
                                  constraints=ConstraintSet(budget=1.0))
            cold = rebalance(cold_cfg, mu, sigma)
            assert np.abs(row - cold.weights).max() <= 1e-6


def benchmark_generators():
    """The benchmark's input generators, ``perfbench/gen.py``, executed from
    their source so that nothing is written next to them."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    module = types.ModuleType("benchmark_gen")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def l1_violation(p_mat, q_vec, x, l1_terms, lower, upper, kink=1e-9):
    """Distance from optimality of ``0.5 x'Px - q'x + sum rho |x - a|_1``
    over the budget and the box: per coordinate, the subdifferential plus the
    box normal cone is an interval ``[lo_j + nu, hi_j + nu]``, and the best
    budget multiplier ``nu`` leaves this violation."""
    grad = p_mat @ x - q_vec
    lo, hi = grad.copy(), grad.copy()
    for anchor, rho in l1_terms:
        d = x - anchor
        at_kink = np.abs(d) <= kink
        lo += np.where(at_kink, -rho, rho * np.sign(d))
        hi += np.where(at_kink, rho, rho * np.sign(d))
    lo[x <= lower + kink] = -np.inf
    hi[x >= upper - kink] = np.inf
    return max(0.0, 0.5 * (lo.max() - hi.min()))


class TestNightlyModels:
    """Benchmark models 19 and 23 at the nightly penalties: under unbounded
    residual balancing their penalty kept flipping and every account of the
    second book stopped at ``max_iter``.  The weights are those of the lifted
    ``augment_l1`` QP, solved from the answer without the L1 terms."""

    @pytest.mark.parametrize("model", [19, 23])
    def test_converges_to_certified_answer(self, model):
        gen = benchmark_generators()
        n, upper = 50, 0.2
        sigma, mu, strategic = gen.model_portfolio(
            roboalloc, np.random.default_rng([model, n]), n, upper)
        current = gen.drifted_book(np.random.default_rng([1, 1, model]), strategic)
        cfg = RoboConfig(strategic=strategic, current=current, gamma=0.5,
                         rho1_strategic=5e-4, rho1_turnover=2e-4, rho2_strategic=0.02,
                         constraints=ConstraintSet(budget=1.0, lower=np.zeros(n),
                                                   upper=np.full(n, upper)))
        rep = rebalance(cfg, mu, sigma)
        assert rep.converged
        x = rep.weights
        assert abs(x.sum() - 1.0) <= 1e-8
        assert x.min() >= -1e-8 and x.max() <= upper + 1e-8
        p_mat = sigma + 0.02 * np.eye(n)
        q_vec = 0.5 * mu + sigma @ strategic + 0.02 * strategic
        assert l1_violation(p_mat, q_vec, x, [(strategic, 5e-4), (current, 2e-4)],
                            0.0, upper) <= 1e-7
        l1 = rep.meta["working_set"][0].l1
        smooth = solve_qp(exact_problem(p_mat, q_vec, None, cfg.constraints))
        exact = oracle(p_mat, q_vec, cfg.constraints, l1, warm=smooth.weights)
        assert np.abs(x - exact).max() <= 1e-9


class TestExactRouteCallBudget:
    """The fixed cost of one exact rebalance in Python-level calls: the
    ``sys.setprofile`` ``call`` and ``c_call`` events made directly from
    ``roboalloc`` frames during a warmed account of benchmark model 1 at the
    nightly penalties (a start-cache hit, 3 active-set iterations).  Building,
    keying, certifying and scoring the QP made 385 such calls, 230 once each
    of those stages ran with few numpy calls; the budget is 230 plus 10%."""

    BUDGET = 253

    def test_warmed_nightly_account(self):
        gen = benchmark_generators()
        n, upper = 50, 0.2
        sigma, mu, strategic = gen.model_portfolio(
            roboalloc, np.random.default_rng([1, n]), n, upper)
        current = gen.drifted_book(np.random.default_rng([1, 0, 1]), strategic)
        cfg = RoboConfig(strategic=strategic, current=current, gamma=0.5,
                         rho1_strategic=5e-4, rho1_turnover=2e-4, rho2_strategic=0.02,
                         constraints=ConstraintSet(budget=1.0, lower=np.zeros(n),
                                                   upper=np.full(n, upper)))
        first = rebalance(cfg, mu, sigma)
        package = os.path.dirname(roboalloc.__file__) + os.sep
        calls = []

        def profile(frame, event, _arg):
            caller = frame.f_back if event == "call" else frame
            if event in ("call", "c_call") and caller is not None \
                    and caller.f_code.co_filename.startswith(package):
                calls.append(caller.f_code.co_name)

        sys.setprofile(profile)
        try:
            rep = rebalance(cfg, mu, sigma)
        finally:
            sys.setprofile(None)
        assert rep.converged and rep.iterations == 3
        assert np.array_equal(rep.weights, first.weights)
        assert len(calls) <= self.BUDGET, f"{len(calls)} calls"


def house_book(n=12, upper=0.3, seed=5):
    """A benchmark-style model ``(sigma, mu, strategic, current)`` and its box."""
    gen = benchmark_generators()
    rng = np.random.default_rng([seed, n])
    sigma, mu, strategic = gen.model_portfolio(roboalloc, rng, n, upper)
    return sigma, mu, strategic, gen.drifted_book(rng, strategic)


class TestPathPointsAreRebalances:
    """``regularization_path`` assembles its QP once and derives every later
    point's problem from it; each row must still be, bit for bit, the
    ``rebalance`` of ``replace(config, slot=value)`` started from the last
    converged point's weights, as the path was before it derived."""

    @staticmethod
    def assert_rebalances(config, mu, sigma, grid, param):
        table = regularization_path(config, mu, sigma, grid, param=param)
        attr, warm = pipeline._PATH_PARAMS[param], None
        for i, value in enumerate(grid):
            try:
                rep = rebalance(replace(config, **{attr: float(value)}), mu, sigma, warm=warm)
            except Infeasible:
                raise
            except AllocationError as exc:
                assert table.status[i] == f"error:{type(exc).__name__}"
                assert np.isnan(table.weights[i]).all() and np.isnan(table.objective[i])
                continue
            assert table.status[i] == rep.status
            assert table.weights[i].tobytes() == rep.weights.tobytes()
            assert table.objective[i] == rep.objective
            warm = rep.weights if rep.converged else warm
        return table

    @staticmethod
    def config(**changes):
        sigma, mu, strategic, current = house_book()
        n = strategic.size
        config = RoboConfig(strategic=strategic, current=current, gamma=0.5,
                            rho1_strategic=5e-4, rho1_turnover=2e-4,
                            rho2_strategic=0.02, rho2_turnover=0.01,
                            constraints=ConstraintSet(budget=1.0, lower=np.zeros(n),
                                                      upper=np.full(n, 0.3)))
        return replace(config, **changes), mu, sigma

    @pytest.mark.parametrize("param", sorted(pipeline._PATH_PARAMS))
    def test_every_parameter(self, param):
        config, mu, sigma = self.config()
        table = self.assert_rebalances(config, mu, sigma, np.geomspace(1e-5, 1e-1, 9), param)
        assert table.status == ["converged"] * 9

    @pytest.mark.parametrize("param", ["rho1_strategic", "rho1_turnover", "rho2_strategic",
                                       "rho2_turnover"])
    def test_zero_drops_the_slot(self, param):
        # zero values have no rows or terms of the slot, and the base
        # config's slot is zero too: its first positive value adds them
        config, mu, sigma = self.config(**{param: 0.0})
        grid = [0.0, 0.0, 1e-4, 1e-3, 1e-3, 1e-2]
        table = self.assert_rebalances(config, mu, sigma, grid, param)
        assert table.status == ["converged"] * 6

    def test_zero_slot_has_no_rows(self):
        config, mu, sigma = self.config(rho1_turnover=0.0)
        made = {}
        for value in (0.0, 1e-3, 2e-3):
            point, (problem, _, _) = pipeline._point(made, config, "rho1_strategic", value,
                                                     mu, sigma)
            rows = 0 if value == 0.0 else config.n
            assert (problem.l1 is None) if rows == 0 else problem.l1[1].size == rows
            assert len(point.penalties()) == 2 + (rows > 0)

    @pytest.mark.parametrize("param", ["rho1_turnover", "rho2_strategic"])
    def test_tracking_error_target(self, param):
        # every point walks from its own cold gamma-0 solve to the target
        config, mu, sigma = self.config(gamma=None)
        strategic = config.strategic
        high = rebalance(replace(config, gamma=2.0), mu, sigma).weights
        config = replace(config, te_target=0.5 * tracking_error(high, strategic, sigma))
        table = self.assert_rebalances(config, mu, sigma, [0.0, 1e-4, 1e-3, 1e-2], param)
        assert table.status.count("converged") >= 3

    @pytest.mark.parametrize("param", ["rho1", "rho2"])
    def test_extra_set_goes_to_admm(self, param, four_asset_alt, monkeypatch):
        mu, _, _, sigma = four_asset_alt
        ew = np.full(4, 0.25)
        config = RoboConfig(strategic=ew, current=X0, gamma=0.25, rho1_strategic=1e-3,
                            rho2_strategic=1e-3, extra_sets=(L2Ball(0.55),),
                            constraints=ConstraintSet(budget=1.0, lower=0.0, upper=1.0))
        solves, admm_solve = [], admm.admm_solve

        def recording(*args, **kwargs):
            solves.append(args[0])
            return admm_solve(*args, **kwargs)

        monkeypatch.setattr(admm, "admm_solve", recording)
        self.assert_rebalances(config, mu, sigma, [0.0, 1e-3, 1e-2], param)
        assert len(solves) == 6

    def test_one_build_per_path(self, tmp_path, monkeypatch):
        # named before the change: on advisor_cli's path document (its house
        # model and book, both L1 slots and the L2 strategic slot, and the
        # log:1e-5:1e-1:25 grid) a path built 25 QpProblems and 25 _Kinks,
        # one per point; now it builds one of each and derives the rest
        gen = benchmark_generators()
        n, upper = 30, 0.2
        rng = np.random.default_rng([0, n])
        sigma, mu, strategic = gen.model_portfolio(roboalloc, rng, n, upper)
        book = gen.drifted_book(rng, strategic)
        doc = {"mu": mu.tolist(), "sigma": sigma.ravel().tolist(), "gamma": 0.5,
               "objective": "tracking_error", "strategic": strategic.tolist(),
               "current": book.tolist(),
               "penalties": [{"kind": "l1", "rho": 5e-4, "anchor": "strategic"},
                             {"kind": "l1", "rho": 2e-4, "anchor": "current"},
                             {"kind": "l2", "rho": 0.02, "anchor": "strategic"}],
               "constraints": {"budget": 1.0, "lower": 0.0, "upper": upper}}
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        builds = {"QpProblem": 0, "_Kinks": 0}
        problem_init, kinks_init = QpProblem.__post_init__, qp._Kinks.__init__

        def counted_problem(self):
            builds["QpProblem"] += 1
            problem_init(self)

        def counted_kinks(self, *args):
            builds["_Kinks"] += 1
            kinks_init(self, *args)

        monkeypatch.setattr(QpProblem, "__post_init__", counted_problem)
        monkeypatch.setattr(qp._Kinks, "__init__", counted_kinks)
        code = cli.main(["path", "--problem", str(tmp_path / "doc.json"), "--param", "rho1",
                         "--grid", "log:1e-5:1e-1:25", "--out", str(tmp_path / "path.csv")])
        assert code == 0
        assert builds == {"QpProblem": 1, "_Kinks": 1}
