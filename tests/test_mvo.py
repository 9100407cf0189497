import numpy as np
import pytest

from roboalloc import errors, mvo
from roboalloc.admm import solve_mixed_lp
from roboalloc.mvo import (
    ConstraintSet,
    MvoInputs,
    calibrate_gamma,
    constant_correlation_r2,
    exact_problem,
    implied_returns,
    jagannathan_ma_shrinkage,
    max_sharpe_bound,
    sharpe_ratio,
    solve_gamma_problem,
    stevens_decomposition,
    te_transform,
)
from roboalloc.qp import solve_qp
from roboalloc.regularizers import PenaltySpec
from tests.conftest import cov_from, random_spd

BUDGET = ConstraintSet(budget=1.0)


class TestGammaProblem:
    def test_full_investment_scaling(self, four_asset):
        mu, _, _, sigma = four_asset
        # trade-off chosen so the unconstrained optimum is fully invested
        gamma = 1.0 / (np.ones(4) @ np.linalg.solve(sigma, mu))
        assert gamma == pytest.approx(0.2578, abs=5e-5)
        rep = solve_gamma_problem(MvoInputs(mu=mu, sigma=sigma), gamma)
        assert np.allclose(100 * rep.weights, [36.00, 26.39, 27.67, 9.94], atol=0.02)

    def test_zero_gamma_budget_gives_min_variance(self, four_asset):
        mu, _, _, sigma = four_asset
        rep = solve_gamma_problem(MvoInputs(mu=mu, sigma=sigma), 0.0, BUDGET)
        assert np.allclose(100 * rep.weights, [65.57, 29.06, 13.61, -8.24], atol=0.02)

    def test_zero_excess_returns_zero_position(self):
        inp = MvoInputs(mu=np.full(3, 0.02), sigma=np.eye(3), r=0.02)
        rep = solve_gamma_problem(inp, 5.0)
        assert np.abs(rep.weights).max() == 0.0

    def test_homogeneity_in_gamma(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            inp = MvoInputs(mu=rng.normal(size=n) * 0.05, sigma=random_spd(rng, n, 0.04))
            g = float(rng.random() + 0.05)
            x1 = solve_gamma_problem(inp, g).weights
            x2 = solve_gamma_problem(inp, 2 * g).weights
            assert np.abs(x2 - 2 * x1).max() <= 1e-10 * max(1.0, np.abs(x1).max())

    def test_singular_covariance_rejected(self):
        sigma = np.outer([1.0, 1.0], [1.0, 1.0]) * 0.01
        with pytest.raises(errors.SingularCovariance):
            solve_gamma_problem(MvoInputs(mu=[0.05, 0.06], sigma=sigma), 1.0)

    def test_unconstrained_solve_is_certified_closed_form(self):
        # solve_qp answers without constraints too: duals, both residuals,
        # and the weights of the closed form gamma S^-1 (mu - r 1)
        for seed in range(120):
            rng = np.random.default_rng([41, seed])
            n = int(rng.integers(1, 13))
            inp = MvoInputs(mu=rng.normal(size=n) * 0.05, sigma=random_spd(rng, n, 0.04),
                            r=float(rng.uniform(0.0, 0.02)))
            gamma = float(rng.uniform(0.0, 5.0))
            rep = solve_gamma_problem(inp, gamma)
            closed = gamma * np.linalg.solve(inp.sigma, inp.excess)
            assert rep.converged and rep.gamma == gamma and rep.duals is not None
            assert max(rep.r_norm, rep.s_norm) <= 1e-12
            assert np.abs(rep.weights - closed).max() <= 1e-12 * max(np.abs(closed).max(), 1e-300)


    @pytest.mark.parametrize("field,value", [
        ("mu", [np.nan, 0.06]), ("mu", [0.05, np.inf]), ("r", np.nan),
        ("sigma", [[np.nan, 0.0], [0.0, 0.09]])], ids=["mu_nan", "mu_inf", "r_nan", "sigma_nan"])
    def test_non_finite_inputs_rejected(self, field, value):
        # a NaN mu once solved to NaN weights reported as converged
        data = {"mu": [0.05, 0.06], "sigma": np.diag([0.04, 0.09]), "r": 0.0, field: value}
        with pytest.raises(ValueError, match="must hold finite numbers only"):
            solve_gamma_problem(MvoInputs(**data), 1.0)


class TestCalibrateGamma:
    def test_volatility_target_budget_only(self, four_asset):
        mu, _, _, sigma = four_asset
        gamma, rep = calibrate_gamma(MvoInputs(mu=mu, sigma=sigma), BUDGET,
                                     target_vol=0.15)
        assert np.allclose(100 * rep.weights, [26.30, 25.52, 32.28, 15.90], atol=0.02)
        vol = np.sqrt(rep.weights @ sigma @ rep.weights)
        assert vol == pytest.approx(0.15, abs=1e-6)

    def test_long_only_seven_percent_vol(self, nine_asset):
        mu, _, _, sigma = nine_asset
        cons = ConstraintSet(budget=1.0, lower=0.0)
        _, rep = calibrate_gamma(MvoInputs(mu=mu, sigma=sigma), cons, target_vol=0.07)
        expected = [28.39, 0.00, 0.00, 69.64, 0.00, 0.00, 0.00, 1.17, 0.79]
        assert np.allclose(100 * rep.weights, expected, atol=0.05)

    def test_asset_cap_reallocates(self, nine_asset):
        mu, _, _, sigma = nine_asset
        cons = ConstraintSet(budget=1.0, lower=0.0, upper=0.25)
        _, rep = calibrate_gamma(MvoInputs(mu=mu, sigma=sigma), cons, target_vol=0.07)
        expected = [25.00, 15.90, 0.00, 25.00, 10.70, 0.00, 0.00, 21.27, 2.13]
        assert np.allclose(100 * rep.weights, expected, atol=0.05)

    def test_unconstrained_closed_forms(self, four_asset):
        mu, _, _, sigma = four_asset
        inp = MvoInputs(mu=mu, sigma=sigma)
        gamma, rep = calibrate_gamma(inp, target_vol=0.10)
        assert np.sqrt(rep.weights @ sigma @ rep.weights) == pytest.approx(0.10, abs=1e-12)
        gamma, rep = calibrate_gamma(inp, target_return=0.06)
        assert rep.weights @ mu == pytest.approx(0.06, abs=1e-12)

    @pytest.mark.parametrize("seed", range(11), ids=["four_asset"] + [f"spd{i}" for i in range(1, 11)])
    @pytest.mark.parametrize("kind", ["target_vol", "target_return"])
    def test_unconstrained_target_is_walked_and_certified(self, four_asset, seed, kind):
        # the weights of the closed form gamma S^-1 e, read off the walk with
        # duals and both residuals; the closed form carried no duals
        if seed == 0:
            mu, _, _, sigma = four_asset
        else:
            rng = np.random.default_rng([40, seed])
            n = int(rng.integers(2, 9))
            mu, sigma = 0.02 + 0.1 * rng.random(n), random_spd(rng, n, 0.04)
        inp = MvoInputs(mu=mu, sigma=sigma)
        target = 0.12 if kind == "target_vol" else 0.09
        gamma, rep = calibrate_gamma(inp, **{kind: target})
        closed = gamma * np.linalg.solve(inp.sigma, inp.excess)
        assert gamma > 0.0 and rep.gamma == gamma and rep.converged
        assert rep.duals is not None and max(rep.r_norm, rep.s_norm) <= 1e-12
        assert np.abs(rep.weights - closed).max() <= 1e-12 * np.abs(closed).max()
        x = rep.weights
        value = np.sqrt(x @ inp.sigma @ x) if kind == "target_vol" else mu @ x
        assert value == pytest.approx(target, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("mu", [[0.05, 0.06], [0.05, 0.05]])
    @pytest.mark.parametrize("kind", ["target_vol", "target_return"])
    def test_unconstrained_singular_covariance_rejected(self, mu, kind):
        # without the refusal the walk of a rank-1 covariance ends Unbounded
        # (mu off its range) or at a min-norm optimum (mu on it)
        sigma = np.outer([1.0, 1.0], [1.0, 1.0]) * 0.01
        with pytest.raises(errors.SingularCovariance):
            calibrate_gamma(MvoInputs(mu=mu, sigma=sigma), **{kind: 0.1})

    def test_path_metric_monotone_at_breakpoints(self, nine_asset):
        mu, _, _, sigma = nine_asset
        cons = ConstraintSet(budget=1.0, lower=0.0, upper=0.25)
        gamma, rep = calibrate_gamma(MvoInputs(mu=mu, sigma=sigma), cons, target_vol=0.07)
        history = rep.meta["calibration"]
        gammas = [g for g, _ in history]
        vols = [v for _, v in history]
        assert len(history) > 3 and gammas[0] == 0.0 and gammas[-1] == gamma
        assert all(b >= a for a, b in zip(gammas, gammas[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(vols, vols[1:]))
        assert vols[-1] == pytest.approx(0.07, rel=1e-12, abs=0.0)

    def test_one_solve_after_walk_from_its_point(self, nine_asset, monkeypatch):
        mu, _, _, sigma = nine_asset
        inp = MvoInputs(mu=mu, sigma=sigma)
        cons = ConstraintSet(budget=1.0, lower=0.0, upper=0.25)
        starts, answers = [], []

        def recording(problem, x0=None, **kwargs):
            starts.append(x0)
            answers.append(solve_qp(problem, x0=x0, **kwargs))
            return answers[-1]

        monkeypatch.setattr(mvo, "solve_qp", recording)
        gamma, rep = calibrate_gamma(inp, cons, target_vol=0.07)
        # the gamma-0 solve alone: the answer is read off the walk's piece
        # and certified, with no active-set iteration
        assert len(starts) == 1 and starts[0] is None and rep is not answers[0]
        assert rep.converged and rep.iterations == 0 and rep.gamma == gamma
        assert np.abs(rep.weights - answers[0].weights).max() > 0.1
        monkeypatch.undo()
        cold = solve_gamma_problem(inp, gamma, cons)
        assert np.allclose(rep.weights, cold.weights, atol=1e-10, rtol=0.0)
        for key in ("eq", "lower", "upper"):
            assert np.allclose(rep.duals[key], cold.duals[key], atol=1e-10, rtol=0.0)
        assert abs(rep.objective - cold.objective) <= 1e-10

    @pytest.mark.parametrize("mu,target", [([0.0, 0.0], 0.1), ([0.05, 0.07], -0.1),
                                           ([1e-9, 1e-9], 0.1)])
    def test_unconstrained_volatility_target_out_of_reach(self, mu, target):
        # e'S^-1e = 0 divided by zero; a negative target gave gamma -0.29
        # and weights of volatility +0.1; the gamma 0.1 / sqrt(e'S^-1e) of
        # the last, about 1.7e7, is past the walk's 1e6, as with constraints
        inp = MvoInputs(mu=mu, sigma=np.diag([0.04, 0.09]))
        with pytest.raises(errors.TargetUnreachable, match="unattainable"):
            calibrate_gamma(inp, target_vol=target)

    def test_unconstrained_zero_volatility_target_is_gamma_zero(self):
        for mu in ([0.0, 0.0], [0.05, 0.07]):
            gamma, rep = calibrate_gamma(MvoInputs(mu=mu, sigma=np.diag([0.04, 0.09])),
                                         target_vol=0.0)
            assert gamma == 0.0 and not rep.weights.any()

    @pytest.mark.parametrize("target", [-0.05, 1e-7])
    def test_unconstrained_return_target_met_at_gamma_zero_is_gamma_zero(self, target):
        # the closed form gave gamma -0.428 for -0.05 and shorted the book to
        # meet it; the zero book of gamma 0 already does, as the constrained
        # route answers
        inp = MvoInputs(mu=[0.05, 0.07], sigma=np.diag([0.04, 0.09]))
        gamma, rep = calibrate_gamma(inp, target_return=target)
        assert gamma == 0.0 and not rep.weights.any()
        cons = ConstraintSet(budget=1.0, lower=0.0)
        assert calibrate_gamma(inp, cons, target_return=target)[0] == 0.0

    @pytest.mark.parametrize("kind", ["target_vol", "target_return"])
    def test_non_finite_target_rejected(self, four_asset, kind):
        mu, _, _, sigma = four_asset
        with pytest.raises(ValueError, match="target must be finite"):
            calibrate_gamma(MvoInputs(mu=mu, sigma=sigma), BUDGET, **{kind: np.nan})

    def test_unreachable_volatility(self, four_asset):
        mu, _, _, sigma = four_asset
        with pytest.raises(errors.TargetUnreachable):
            calibrate_gamma(MvoInputs(mu=mu, sigma=sigma), BUDGET, target_vol=0.01)

    def test_capped_universe_cannot_reach_high_vol(self, four_asset):
        mu, _, _, sigma = four_asset
        cons = ConstraintSet(budget=1.0, lower=0.0, upper=1.0)
        with pytest.raises(errors.TargetUnreachable):
            calibrate_gamma(MvoInputs(mu=mu, sigma=sigma), cons, target_vol=0.50)


class TestSharpe:
    def test_euclidean_norm_case(self):
        inp = MvoInputs(mu=np.array([3.0, 4.0]), sigma=np.eye(2))
        assert max_sharpe_bound(inp) == pytest.approx(5.0, abs=1e-12)

    def test_single_asset(self):
        inp = MvoInputs(mu=np.array([0.08]), sigma=np.array([[0.04]]), r=0.02)
        assert max_sharpe_bound(inp) == pytest.approx(0.3, abs=1e-12)

    def test_bound_dominates_solved_portfolios(self, four_asset):
        mu, _, _, sigma = four_asset
        inp = MvoInputs(mu=mu, sigma=sigma)
        bound = max_sharpe_bound(inp)
        for gamma in (0.05, 0.2578, 1.0):
            for cons in (None, BUDGET, ConstraintSet(budget=1.0, lower=0.0)):
                rep = solve_gamma_problem(inp, gamma, cons)
                if np.abs(rep.weights).max() == 0.0:
                    continue
                assert sharpe_ratio(rep.weights, inp) <= bound + 1e-8


    def test_zero_volatility_rejected(self):
        inp = MvoInputs(mu=[0.05, 0.06], sigma=np.diag([0.04, 0.09]))
        with pytest.raises(errors.ZeroVolatilityPortfolio):
            sharpe_ratio([0.0, 0.0], inp)


class TestImpliedReturns:
    def test_equal_weight_ten_assets(self, ten_asset):
        _, _, sigma = ten_asset
        x = np.full(10, 0.1)
        mu = implied_returns(x, sigma, 0.0, 0.5)
        expected = [2.57, 0.96, 3.02, 1.02, 4.09, 2.88, 5.76, 6.35, 6.76, 7.18]
        assert np.allclose(100 * mu, expected, atol=0.01)

    def test_diagonal_single_asset_book(self):
        sigma = np.diag([0.04, 0.09])
        mu = implied_returns(np.array([1.0, 0.0]), sigma, 0.01, 0.5)
        assert mu[0] == pytest.approx(0.01 + 0.5 * 0.2, abs=1e-14)
        # the unheld asset is uncorrelated, so it earns only the risk-free rate
        assert mu[1] == pytest.approx(0.01, abs=1e-14)

    def test_round_trip_through_solver(self, four_asset):
        mu, _, _, sigma = four_asset
        inp = MvoInputs(mu=mu, sigma=sigma)
        rep = solve_gamma_problem(inp, 0.2578)
        x = rep.weights
        sr = sharpe_ratio(x, inp)
        mu_imp = implied_returns(x, sigma, 0.0, sr)
        back = solve_gamma_problem(MvoInputs(mu=mu_imp, sigma=sigma), 1.0).weights
        scale = (x @ back) / (back @ back)
        assert np.abs(scale * back - x).max() <= 1e-10

    def test_zero_volatility_rejected(self):
        with pytest.raises(errors.ZeroVolatilityPortfolio):
            implied_returns(np.zeros(2), np.eye(2), 0.0, 0.5)


class TestStevens:
    def test_four_asset_regressions(self, four_asset):
        mu, _, _, sigma = four_asset
        gamma = 1.0 / (np.ones(4) @ np.linalg.solve(sigma, mu))  # rounds to 0.2578
        rep = stevens_decomposition(MvoInputs(mu=mu, sigma=sigma), gamma)
        assert np.allclose(100 * rep.alpha, [1.70, 2.06, 2.85, 1.41], atol=0.01)
        assert np.allclose(100 * rep.r2, [45.83, 37.77, 33.52, 41.50], atol=0.01)
        assert np.allclose(rep.beta[3], [0.750, 0.347, 0.063], atol=0.002)
        assert np.allclose(100 * rep.x_star, [36.00, 26.39, 27.67, 9.94], atol=0.01)

    def test_high_correlation_reverses_a_position(self, four_asset):
        mu, vols, corr, _ = four_asset
        corr = corr.copy()
        corr[2, 3] = corr[3, 2] = 0.95
        sigma = cov_from(vols, corr)
        gamma = 1.0 / (np.ones(4) @ np.linalg.solve(sigma, mu))
        rep = stevens_decomposition(MvoInputs(mu=mu, sigma=sigma), gamma)
        assert rep.alpha[3] == pytest.approx(-0.0161, abs=1e-4)
        assert rep.r2[3] == pytest.approx(0.9237, abs=1e-4)
        assert 100 * rep.omega[2] == pytest.approx(1054.10, abs=0.5)
        assert np.allclose(100 * rep.x_star, [52.10, 20.31, 93.44, -65.85], atol=0.01)

    def test_identity_correlation_collapses_to_inverse_variance(self):
        mu = np.array([0.05, 0.06, 0.07])
        sigma = np.diag([0.02, 0.03, 0.04])
        rep = stevens_decomposition(MvoInputs(mu=mu, sigma=sigma), 0.5)
        assert np.abs(rep.beta).max() == 0.0
        assert np.allclose(rep.alpha, mu, atol=1e-15)
        assert np.abs(rep.r2).max() == 0.0
        assert np.allclose(rep.x_star, 0.5 * mu / np.diag(sigma), atol=1e-14)

    def test_identities_on_random_instances(self):
        rng = np.random.default_rng(123)
        checked = 0
        while checked < 100:
            n = int(rng.integers(3, 9))
            sigma = random_spd(rng, n, 0.05)
            mu = rng.normal(size=n) * 0.05
            inp = MvoInputs(mu=mu, sigma=sigma)
            gamma = float(rng.random() + 0.1)
            rep = stevens_decomposition(inp, gamma)
            checked += 1
            # variance splits into hedged and residual parts
            assert np.abs(np.diag(sigma) - rep.sigma_hat ** 2 - rep.s ** 2).max() <= 1e-10
            assert np.abs(mu - rep.mu_hat - rep.alpha).max() <= 1e-12
            # leverage identity and precision diagonal
            recon = rep.y_star + rep.omega * (rep.y_star - rep.z_star)
            assert np.abs(recon - rep.x_star).max() <= 1e-10 * max(1.0, np.abs(rep.x_star).max())
            prec = np.linalg.inv(sigma)
            assert np.allclose(np.diag(prec), 1.0 / (np.diag(sigma) * (1 - rep.r2)),
                               rtol=1e-8)
            # matches the direct solve
            direct = gamma * np.linalg.solve(sigma, mu)
            assert np.abs(direct - rep.x_star).max() <= 1e-8 * max(1.0, np.abs(direct).max())

    def test_singular_covariance_rejected(self):
        # a third asset duplicating the first: the covariance check of the
        # closed form runs before any hedging regression
        sigma = np.array([[0.04, 0.01, 0.04], [0.01, 0.09, 0.01], [0.04, 0.01, 0.04]])
        with pytest.raises(errors.SingularCovariance, match="covariance nearly singular"):
            stevens_decomposition(MvoInputs(mu=[0.05, 0.06, 0.05], sigma=sigma), 0.5)

    def test_perfect_collinearity_detected(self):
        off = 0.04 * (1.0 - 2.5e-12)
        base = np.array([[0.04, off], [off, 0.04]])
        with pytest.raises((errors.PerfectCollinearity, errors.SingularCovariance)):
            stevens_decomposition(MvoInputs(mu=[0.05, 0.06], sigma=base), 0.5)


def stevens_by_regressions(inputs, gamma):
    """The hedging decomposition by one regression per asset: asset ``i`` on
    the other assets, ``b = S_xx^-1 S_xy``, then the weights built from it."""
    mu, sigma, n = inputs.mu, inputs.sigma, inputs.n
    alpha, beta, r2, s, mu_hat = (np.zeros(n), np.zeros((n, n - 1)), np.zeros(n),
                                  np.zeros(n), np.zeros(n))
    for i in range(n):
        idx = [j for j in range(n) if j != i]
        sxy = sigma[idx, i]
        beta[i] = np.linalg.solve(sigma[np.ix_(idx, idx)], sxy)
        r2[i] = beta[i] @ sxy / sigma[i, i]
        mu_hat[i] = beta[i] @ mu[idx]
        alpha[i] = mu[i] - mu_hat[i]
        s[i] = np.sqrt(sigma[i, i] * (1.0 - r2[i]))
    diag = np.diag(sigma)
    return {"alpha": alpha, "beta": beta, "r2": r2, "s": s, "mu_hat": mu_hat,
            "sigma_hat": np.sqrt(diag * r2), "omega": r2 / (1.0 - r2),
            "y_star": gamma * mu / diag, "z_star": gamma * mu_hat / (diag - s ** 2),
            "x_star": gamma * alpha / s ** 2}


class TestStevensOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_asset_regressions(self, seed):
        # every field read off the precision matrix matches the regressions.
        # Both carry rounding of order cond(S) * eps, so the covariances are
        # sample covariances of 4n draws at volatilities of 5-30%: a
        # condition number in the hundreds
        rng = np.random.default_rng(seed)
        for n in range(2, 41):
            vols = rng.uniform(0.05, 0.3, n)
            draws = rng.standard_normal((4 * n, n)) * vols
            inputs = MvoInputs(mu=rng.normal(size=n) * 0.05, sigma=draws.T @ draws / (4 * n))
            gamma = float(rng.random() + 0.1)
            rep = stevens_decomposition(inputs, gamma)
            for name, want in stevens_by_regressions(inputs, gamma).items():
                got = getattr(rep, name)
                assert got.shape == want.shape, (n, name)
                err = np.abs(got - want).max()
                assert err <= 1e-12 * np.abs(want).max(), (n, name, err)


class TestConstantCorrelation:
    def test_two_assets(self):
        assert constant_correlation_r2(2, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_zero_correlation(self):
        for n in (2, 5, 9):
            assert constant_correlation_r2(n, 0.0) == 0.0

    def test_matches_decomposition(self):
        n, rho = 4, 0.5
        corr = np.full((n, n), rho)
        np.fill_diagonal(corr, 1.0)
        rep = stevens_decomposition(MvoInputs(mu=np.full(n, 0.05), sigma=corr), 0.1)
        expected = constant_correlation_r2(n, rho)
        assert np.allclose(rep.r2, expected, atol=1e-12)

    def test_invalid_rho(self):
        with pytest.raises(errors.InvalidCorrelation):
            constant_correlation_r2(4, -0.5)


class TestJagannathanMa:
    def test_min_variance_with_box(self, four_asset):
        mu, _, _, sigma = four_asset
        cons = ConstraintSet(budget=1.0, lower=0.10, upper=0.40)
        rep = solve_gamma_problem(MvoInputs(mu=mu, sigma=sigma), 0.0, cons)
        assert np.allclose(100 * rep.weights, [40.00, 31.18, 18.82, 10.00], atol=0.02)
        st, vol_t, corr_t = jagannathan_ma_shrinkage(sigma, cons, rep)
        assert np.allclose(100 * vol_t, [16.80, 18.00, 20.00, 22.96], atol=0.02)
        assert 100 * corr_t[1, 0] == pytest.approx(54.10, abs=0.02)
        assert 100 * corr_t[3, 2] == pytest.approx(32.90, abs=0.02)
        # round trip: same problem without the box, shrunk covariance
        back = solve_gamma_problem(MvoInputs(mu=mu, sigma=st), 0.0, BUDGET)
        assert np.abs(back.weights - rep.weights).max() <= 1e-6

    def test_return_target_with_box(self, four_asset):
        mu, _, _, sigma = four_asset
        cons = ConstraintSet(budget=1.0, lower=0.10, upper=0.40)
        inp = MvoInputs(mu=mu, sigma=sigma)
        gamma, rep = calibrate_gamma(inp, cons, target_return=0.09)
        assert np.allclose(100 * rep.weights, [10.00, 15.00, 40.00, 35.00], atol=0.02)
        st, vol_t, corr_t = jagannathan_ma_shrinkage(sigma, cons, rep)
        assert 100 * vol_t[0] == pytest.approx(12.06, abs=0.02)
        assert 100 * corr_t[1, 0] == pytest.approx(43.87, abs=0.02)
        _, back = calibrate_gamma(MvoInputs(mu=mu, sigma=st), BUDGET,
                                  target_return=0.09)
        assert np.abs(back.weights - rep.weights).max() <= 1e-6

    def test_min_variance_with_binding_row(self, four_asset):
        # the budget-only minimizer holds 5.4% in assets 3 and 4; the row asks
        # for half
        mu, _, _, sigma = four_asset
        cons = ConstraintSet(budget=1.0, ineq=(np.array([[0.0, 0.0, 1.0, 1.0]]), [0.5]))
        rep = solve_gamma_problem(MvoInputs(mu=mu, sigma=sigma), 0.0, cons)
        assert rep.weights[2:].sum() == pytest.approx(0.5, abs=1e-12)
        assert rep.duals["ineq"][0] > 1e-3
        st, _, _ = jagannathan_ma_shrinkage(sigma, cons, rep)
        back = solve_gamma_problem(MvoInputs(mu=mu, sigma=st), 0.0, BUDGET)
        assert np.abs(back.weights - rep.weights).max() <= 1e-6

    def test_inactive_constraints_leave_covariance_alone(self, four_asset):
        mu, _, _, sigma = four_asset
        cons = ConstraintSet(budget=1.0, lower=-10.0, upper=10.0)
        rep = solve_gamma_problem(MvoInputs(mu=mu, sigma=sigma), 0.0, cons)
        st, _, _ = jagannathan_ma_shrinkage(sigma, cons, rep)
        assert np.array_equal(st, sigma)

    def test_unconstrained_answer_leaves_covariance_alone(self, four_asset):
        # no constraint binds, so every multiplier is zero and sigma comes back
        mu, _, _, sigma = four_asset
        rep = solve_gamma_problem(MvoInputs(mu=mu, sigma=sigma), 0.1)
        st, _, _ = jagannathan_ma_shrinkage(sigma, ConstraintSet(), rep)
        assert np.array_equal(st, sigma)

    def test_missing_duals(self, four_asset):
        _, _, _, sigma = four_asset
        # an lp penalty is a prox block: the ADMM route, whose answers carry no duals
        a1, b1 = np.linalg.cholesky(sigma).T, np.full(4, 0.1)
        rep = solve_mixed_lp(a1, b1, None, PenaltySpec(kind="lp", p=1.5, rho=0.01),
                             constraints=BUDGET)
        with pytest.raises(errors.MissingDuals):
            jagannathan_ma_shrinkage(sigma, BUDGET, rep)


class TestExactProblem:
    def test_wrong_eq_width_is_one_error_with_or_without_budget(self):
        # the budget row is stacked over eq; a block of the wrong width still
        # reaches QpProblem's check rather than numpy's concatenation error
        eq = (np.ones((1, 3)), [0.0])
        for budget in (None, 1.0):
            with pytest.raises(ValueError, match="equality block dimensions disagree"):
                exact_problem(np.eye(4), np.zeros(4), None, ConstraintSet(budget=budget, eq=eq))


class TestTeTransform:
    def test_zero_benchmark_is_identity(self, four_asset):
        mu, _, _, sigma = four_asset
        out = te_transform(mu, sigma, np.zeros(4), 0.5)
        assert np.allclose(out.mu, mu)

    def test_objective_difference_constant(self, four_asset):
        mu, _, _, sigma = four_asset
        rng = np.random.default_rng(4)
        b = rng.dirichlet(np.ones(4))
        gamma = 0.3
        out = te_transform(mu, sigma, b, gamma)
        consts = []
        for _ in range(8):
            x = rng.normal(size=4)
            te_val = 0.5 * (x - b) @ sigma @ (x - b) - gamma * (x - b) @ mu
            mvo_val = 0.5 * x @ sigma @ x - gamma * x @ out.mu
            consts.append(te_val - mvo_val)
        assert np.ptp(consts) <= 1e-12 * max(1.0, np.abs(consts).max())

    def test_two_solver_paths_agree(self, four_asset):
        mu, _, _, sigma = four_asset
        b = np.array([0.3, 0.3, 0.2, 0.2])
        gamma = 0.4
        out = te_transform(mu, sigma, b, gamma)
        x1 = solve_gamma_problem(MvoInputs(mu=out.mu, sigma=sigma), gamma, BUDGET).weights
        # direct formulation: substitute y = x - b, budget becomes 1'y = 0
        y = solve_gamma_problem(MvoInputs(mu=mu, sigma=sigma), gamma,
                                ConstraintSet(eq=(np.ones((1, 4)), [1.0 - b.sum()]))).weights
        assert np.abs((y + b) - x1).max() <= 1e-8

    def test_zero_gamma_rejected(self, four_asset):
        mu, _, _, sigma = four_asset
        with pytest.raises(ValueError):
            te_transform(mu, sigma, np.full(4, 0.25), 0.0)
