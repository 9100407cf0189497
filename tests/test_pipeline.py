import numpy as np
import pytest

from roboalloc import admm, pipeline
from roboalloc.admm import AdmmParams
from roboalloc.mvo import ConstraintSet
from roboalloc.pipeline import (
    RoboConfig,
    rebalance,
    regularization_path,
    te_target_to_gamma,
    tracking_error,
)
from roboalloc.qp import QpProblem, solve_qp
from roboalloc.views import grades_to_expected_returns

EW10 = np.full(10, 0.1)
X0 = np.array([0.4, 0.3, 0.2, 0.1])


def plain_qp_oracle(config, mu, sigma, gamma):
    q_vec = gamma * np.asarray(mu, float)
    if config.objective == "tracking_error":
        q_vec = q_vec + sigma @ config.strategic
    eq, ineq, lower, upper = config.constraints.qp_pieces(config.n)
    return solve_qp(QpProblem(Q=sigma, c=-q_vec, eq=eq, ineq=ineq,
                              lower=lower, upper=upper))


class TestRebalance:
    def test_no_penalties_reduces_to_constrained_solve(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        cfg = RoboConfig(strategic=X0, current=X0, objective="mvo", gamma=0.25)
        rep = rebalance(cfg, mu, sigma)
        oracle = plain_qp_oracle(cfg, mu, sigma, 0.25)
        assert np.abs(rep.weights - oracle.weights).max() <= 1e-6

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
    """A NaN in a book is rejected up front, on either route, instead of
    failing inside the x-step or running the QP to its iteration cap."""

    @pytest.mark.parametrize("rho1", [0.0, 5e-4], ids=["qp_route", "admm_route"])
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
        rep = rebalance(cfg, mu, sigma, gamma=0.0)
        assert np.abs(rep.weights - X0).max() <= 1e-7

    def test_te_monotone_in_gamma(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        cfg = RoboConfig(strategic=X0, current=X0, objective="tracking_error")
        tes = []
        for gamma in (0.0, 0.01, 0.05, 0.1, 0.2, 0.5):
            rep = rebalance(cfg, mu, sigma, gamma=gamma)
            tes.append(tracking_error(rep.weights, X0, sigma))
        assert all(b >= a - 1e-10 for a, b in zip(tes, tes[1:]))

    def test_three_targets_hit(self, ten_asset):
        _, _, sigma = ten_asset
        scores = np.array([1, 0, 1, 0, 1, 0, 0, 1, 0, 1])
        _, _, mu = grades_to_expected_returns(EW10, sigma, 0.0, 0.5, scores)
        cfg = RoboConfig(strategic=EW10, current=EW10, objective="tracking_error")
        for target in (0.005, 0.01, 0.02):
            gamma, _ = te_target_to_gamma(cfg, mu, sigma, target)
            rep = rebalance(cfg, mu, sigma, gamma=gamma)
            assert tracking_error(rep.weights, EW10, sigma) == pytest.approx(
                target, abs=1e-6)


    def test_qp_route_samples_start_from_previous_weights(self, ten_asset,
                                                          monkeypatch):
        _, _, sigma = ten_asset
        scores = np.array([1, 0, 1, 0, 1, 0, 0, 1, 0, 1])
        _, _, mu = grades_to_expected_returns(EW10, sigma, 0.0, 0.5, scores)
        cfg = RoboConfig(strategic=EW10, current=EW10, objective="tracking_error",
                         rho2_turnover=0.01)
        starts, answers = [], []

        def recording(problem, x0=None, **kwargs):
            starts.append(x0)
            answers.append(solve_qp(problem, x0=x0, **kwargs))
            return answers[-1]

        monkeypatch.setattr(admm, "solve_qp", recording)
        gamma, _ = te_target_to_gamma(cfg, mu, sigma, 0.01)
        assert len(starts) > 3 and starts[0] is None
        assert all(s is a.weights for s, a in zip(starts[1:], answers))
        monkeypatch.undo()
        rep = rebalance(cfg, mu, sigma, gamma=gamma)
        assert tracking_error(rep.weights, EW10, sigma) == pytest.approx(0.01, abs=1e-6)

    def test_te_target_rebalance_solves_each_gamma_once(self, ten_asset, monkeypatch):
        _, _, sigma = ten_asset
        scores = np.array([1, 0, 1, 0, 1, 0, 0, 1, 0, 1])
        _, _, mu = grades_to_expected_returns(EW10, sigma, 0.0, 0.5, scores)
        cfg = RoboConfig(strategic=EW10, current=EW10, objective="tracking_error",
                         rho2_turnover=0.01, te_target=0.01)
        samples, solves = [], []

        def sampled(config, mu, sigma, gamma=None, warm=None):
            samples.append((gamma, rebalance(config, mu, sigma, gamma=gamma, warm=warm)))
            return samples[-1][1]

        def solved(problem, x0=None, **kwargs):
            solves.append(x0)
            return solve_qp(problem, x0=x0, **kwargs)

        monkeypatch.setattr(pipeline, "rebalance", sampled)
        monkeypatch.setattr(admm, "solve_qp", solved)
        rep = rebalance(cfg, mu, sigma)
        gammas = [g for g, _ in samples]
        assert len(gammas) == len(set(gammas)) > 3
        assert len(solves) == len(samples)
        assert rep is samples[-1][1] and rep.gamma == gammas[-1]
        assert tracking_error(rep.weights, EW10, sigma) == pytest.approx(0.01, abs=1e-6)

    def test_weights_as_warm_start_leave_admm_route_cold(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        cfg = RoboConfig(strategic=X0, current=X0, objective="tracking_error",
                         gamma=0.1, rho1_strategic=1e-3)
        cold = rebalance(cfg, mu, sigma)
        rep = rebalance(cfg, mu, sigma, warm=np.full(4, 0.25))
        assert np.array_equal(rep.weights, cold.weights)
        assert rep.iterations == cold.iterations


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
                         constraints=ConstraintSet(budget=1.0),
                         admm=AdmmParams())
        grid = np.geomspace(1e-4, 1e-1, 6)
        table = regularization_path(cfg, mu, sigma, grid, param="rho1")
        for value, row in zip(grid, table.weights):
            cold_cfg = RoboConfig(strategic=X0, current=X0, objective="mvo",
                                  gamma=0.25, rho1_strategic=float(value),
                                  constraints=ConstraintSet(budget=1.0))
            cold = rebalance(cold_cfg, mu, sigma)
            assert np.abs(row - cold.weights).max() <= 1e-6
