import numpy as np
import pytest

from roboalloc import errors
from roboalloc.views import (
    ViewSet,
    bl_conditional,
    grades_to_expected_returns,
    scale_range_index,
)
from tests.conftest import random_spd

EW10 = np.full(10, 0.1)


class TestConditional:
    def test_agreeing_views_change_nothing(self):
        rng = np.random.default_rng(0)
        sigma = random_spd(rng, 4, 0.04)
        mu = rng.normal(size=4) * 0.05
        p = rng.normal(size=(2, 4))
        vs = ViewSet(p=p, q=p @ mu, sigma_eps=0.01 * np.eye(2))
        mu_bar, _ = bl_conditional(mu, sigma, vs)
        assert np.abs(mu_bar - mu).max() <= 1e-12

    def test_identity_views_blend_linearly(self):
        rng = np.random.default_rng(1)
        sigma = random_spd(rng, 5, 0.04)
        mu = rng.normal(size=5) * 0.05
        manager = rng.normal(size=5) * 0.05
        tau = 0.7
        vs = ViewSet(p=np.eye(5), q=manager, sigma_eps=tau * sigma)
        mu_bar, sigma_bar = bl_conditional(mu, sigma, vs)
        expected_mu = (tau / (1 + tau)) * mu + (1 / (1 + tau)) * manager
        assert np.abs(mu_bar - expected_mu).max() <= 1e-12
        assert np.abs(sigma_bar - (tau / (1 + tau)) * sigma).max() <= 1e-12

    def test_uninformative_views_vanish(self):
        rng = np.random.default_rng(2)
        sigma = random_spd(rng, 4, 0.04)
        mu = rng.normal(size=4) * 0.05
        vs = ViewSet(p=np.eye(4), q=np.full(4, 0.2), sigma_eps=1e12 * np.eye(4))
        mu_bar, sigma_bar = bl_conditional(mu, sigma, vs)
        assert np.abs(mu_bar - mu).max() <= 1e-4 * max(1.0, np.abs(mu).max())
        assert np.abs(sigma_bar - sigma).max() <= 1e-4 * np.abs(sigma).max()

    def test_covariance_two_forms_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            sigma = random_spd(rng, n, 0.05)
            mu = rng.normal(size=n) * 0.05
            p = rng.normal(size=(k, n))
            eps = random_spd(rng, k, 0.01) + 0.001 * np.eye(k)
            _, sigma_bar = bl_conditional(mu, sigma, ViewSet(p, p @ mu + 0.01, eps))
            precision_form = np.linalg.inv(
                np.linalg.inv(sigma) + p.T @ np.linalg.solve(eps, p))
            assert np.abs(sigma_bar - precision_form).max() <= 1e-10

    def test_absolute_views_additive_portfolio(self):
        # with matching market covariance, the posterior optimum is the sum of
        # the anchor optimum and the view optimum
        rng = np.random.default_rng(4)
        sigma = random_spd(rng, 4, 0.05)
        mu_tilde = rng.normal(size=4) * 0.04
        mu_breve = rng.normal(size=4) * 0.04
        tau = 0.5
        vs = ViewSet(p=np.eye(4), q=mu_breve, sigma_eps=tau * sigma)
        mu_bar, sigma_bar = bl_conditional(mu_tilde, sigma, vs)
        gamma = 1.0
        x_bar = gamma * np.linalg.solve(sigma_bar, mu_bar)
        x_tilde = gamma * np.linalg.solve(sigma, mu_tilde)
        x_breve = gamma * np.linalg.solve(tau * sigma, mu_breve)
        assert np.abs(x_bar - (x_tilde + x_breve)).max() <= 1e-8

    def test_singular_view_system(self):
        sigma = 0.04 * np.eye(2)
        vs = ViewSet(p=np.zeros((2, 2)), q=np.zeros(2),
                     sigma_eps=np.diag([1.0, 1e-16]))
        with pytest.raises(errors.SingularViewCovariance):
            bl_conditional(np.zeros(2), sigma, vs)


class TestGradePipeline:
    def test_weak_bearish_equity_scenario(self, ten_asset):
        _, _, sigma = ten_asset
        scores = np.array([1, 1, 0, 0, 0, 0, -1, -1, -1, -1])
        mu_i, mu_m, mu_b = grades_to_expected_returns(EW10, sigma, 0.0, 0.5, scores)
        assert np.allclose(100 * mu_i,
                           [2.57, 0.96, 3.02, 1.02, 4.09, 2.88, 5.76, 6.35, 6.76, 7.18],
                           atol=0.01)
        assert np.allclose(100 * mu_m,
                           [5.64, 3.29, 3.02, 1.02, 4.09, 2.88, 0.40, -0.48, -1.34, 1.24],
                           atol=0.01)
        assert np.allclose(100 * mu_b,
                           [4.10, 2.12, 3.02, 1.02, 4.09, 2.88, 3.08, 2.94, 2.71, 4.21],
                           atol=0.01)

    def test_strong_bullish_european_equities(self, ten_asset):
        _, _, sigma = ten_asset
        scores = np.array([0, 0, 0, 0, 0, 0, 1, 3, 1, 1])
        _, mu_m, mu_b = grades_to_expected_returns(EW10, sigma, 0.0, 0.5, scores)
        assert 100 * mu_m[7] == pytest.approx(26.85, abs=0.01)
        assert 100 * mu_b[7] == pytest.approx(16.60, abs=0.01)

    def test_adverse_emerging_scenario_with_conviction(self, ten_asset):
        _, _, sigma = ten_asset
        scores = np.array([0, 0, 0, 0, 0, -3, 0, 0, 0, -3])
        _, mu_m, mu_b = grades_to_expected_returns(EW10, sigma, 0.0, 0.5, scores,
                                                   tau=0.5)
        assert 100 * mu_m[5] == pytest.approx(-4.72, abs=0.01)
        assert 100 * mu_b[5] == pytest.approx(-2.18, abs=0.01)
        assert 100 * mu_m[9] == pytest.approx(-10.62, abs=0.01)
        assert 100 * mu_b[9] == pytest.approx(-4.69, abs=0.01)

    def test_zero_score_means_no_move(self, ten_asset):
        _, _, sigma = ten_asset
        scores = np.array([0, 0, 0, 2, 0, 0, 0, 0, 0, 0])
        mu_i, _, mu_b = grades_to_expected_returns(EW10, sigma, 0.0, 0.5, scores)
        untouched = [i for i in range(10) if i != 3]
        assert np.array_equal(mu_b[untouched], mu_i[untouched])
        assert mu_b[3] > mu_i[3]

    def test_tau_limits(self, ten_asset):
        _, _, sigma = ten_asset
        scores = np.array([1, -2, 0, 3, 0, -1, 0, 2, 0, 1])
        mu_i, mu_m, hi = grades_to_expected_returns(EW10, sigma, 0.0, 0.5, scores,
                                                    tau=1e8)
        assert np.abs(hi - mu_i).max() <= 1e-6 * np.abs(mu_i).max()
        _, _, lo = grades_to_expected_returns(EW10, sigma, 0.0, 0.5, scores, tau=1e-8)
        assert np.abs(lo - mu_m).max() <= 1e-6 * np.abs(mu_m).max()

    def test_monotone_in_single_score(self, ten_asset):
        _, _, sigma = ten_asset
        base = np.zeros(10, dtype=int)
        _, _, mu0 = grades_to_expected_returns(EW10, sigma, 0.0, 0.5, base)
        for grade in (1, 2, 3):
            s = base.copy()
            s[4] = grade
            _, _, mu_g = grades_to_expected_returns(EW10, sigma, 0.0, 0.5, s)
            assert mu_g[4] > mu0[4]
            others = [i for i in range(10) if i != 4]
            assert np.array_equal(mu_g[others], mu0[others])
            mu0 = mu_g
            base = s

    def test_out_of_range_score_rejected(self, ten_asset):
        _, _, sigma = ten_asset
        with pytest.raises(errors.InputError):
            grades_to_expected_returns(EW10, sigma, 0.0, 0.5, np.array([4] + [0] * 9))

    @pytest.mark.parametrize("grade", [1.5, 1.0 + 1e-9, np.nan])
    def test_score_that_is_not_an_integer_rejected(self, ten_asset, grade):
        _, _, sigma = ten_asset
        with pytest.raises(errors.InputError, match="integers"):
            grades_to_expected_returns(EW10, sigma, 0.0, 0.5, np.array([grade] + [0] * 9))


class TestScaleRange:
    def test_seven_grades(self):
        assert scale_range_index(7) == 3

    def test_five_grades(self):
        assert scale_range_index(5) == 2

    def test_even_scale_rejected(self):
        with pytest.raises(errors.InputError):
            scale_range_index(6)
