import numpy as np
import pytest

from roboalloc import errors
from roboalloc.admm import solve_mixed_lp
from roboalloc.market_data import condition_number, eigen_decompose
from roboalloc.mvo import ConstraintSet
from roboalloc.qp import QpProblem, solve_qp
from roboalloc.regularizers import (
    FilterSpec,
    PenaltySpec,
    filter_covariance,
    filtered_normal_solve,
    ledoit_wolf_to_tikhonov,
    ridge_mvo,
    shrunk_correlation,
    spectral_filter,
    tikhonov_solve,
)
from tests.conftest import random_spd

BUDGET = ConstraintSet(budget=1.0)


class TestTikhonovSolve:
    def test_zero_penalty_is_least_squares(self):
        rng = np.random.default_rng(0)
        a1 = rng.normal(size=(8, 3))
        b1 = rng.normal(size=8)
        x, lam = tikhonov_solve(a1, b1, PenaltySpec(kind="l2", rho=0.0))
        expected, *_ = np.linalg.lstsq(a1, b1, rcond=None)
        assert np.allclose(x, expected, atol=1e-10)
        assert lam.size == 0

    def test_scalar_ridge_shrinks(self):
        v = np.array([1.0, -2.0, 0.5])
        x, _ = tikhonov_solve(np.eye(3), v, PenaltySpec(kind="l2", rho=0.5))
        assert np.allclose(x, v / 1.5, atol=1e-12)

    def test_constrained_agrees_with_qp(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a1 = rng.normal(size=(9, 4))
            b1 = rng.normal(size=9)
            rho = float(rng.random())
            g2 = rng.normal(size=(4, 4))
            x0 = rng.normal(size=4)
            pen = PenaltySpec(kind="l2", rho=rho, gamma_matrix=g2, anchor=x0)
            eq = (np.ones((1, 4)), np.array([1.0]))
            x, lam = tikhonov_solve(a1, b1, pen, eq=eq)
            qp = solve_qp(QpProblem(
                Q=a1.T @ a1 + rho * g2.T @ g2,
                c=-(a1.T @ b1 + rho * g2.T @ g2 @ x0), eq=eq))
            assert np.abs(x - qp.weights).max() <= 1e-8
            assert x.sum() == pytest.approx(1.0, abs=1e-10)

    def test_block_residual_guard(self):
        a1 = np.zeros((2, 2))
        with pytest.raises(errors.SingularKKT):
            tikhonov_solve(a1, np.ones(2), PenaltySpec(kind="l2", rho=0.0),
                           eq=(np.zeros((1, 2)), np.array([1.0])))

    @pytest.mark.parametrize("case", ["singular_block", "dependent_rows", "rows_miss_null"])
    def test_singular_block_system_raises(self, case):
        # a penalty and data that leave a direction free, equality rows that
        # repeat, or rows that do not take up the block's null direction
        a1, b1 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.ones(2)
        pen, eq = PenaltySpec(kind="l2", rho=0.5, gamma_matrix=[1.0, 1.0, 0.0]), None
        if case == "dependent_rows":
            pen = PenaltySpec(kind="l2", rho=0.5)
            eq = (np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]), np.array([1.0, 2.0]))
        elif case == "rows_miss_null":
            eq = (np.array([[1.0, 1.0, 0.0]]), np.array([1.0]))
        with pytest.raises(errors.SingularKKT):
            tikhonov_solve(a1, b1, pen, eq=eq)

    def test_units_of_the_data_do_not_decide_singularity(self):
        # the same problem with a1 and b1 in units 1e-6 times as large, rho
        # scaled to match: the same answer, with the multipliers scaled
        rng = np.random.default_rng(3)
        a1, b1 = rng.normal(size=(9, 4)), rng.normal(size=9)
        eq = (np.ones((1, 4)), np.array([1.0]))
        x, lam = tikhonov_solve(a1, b1, PenaltySpec(kind="l2", rho=0.3), eq=eq)
        xs, lams = tikhonov_solve(1e-6 * a1, 1e-6 * b1, PenaltySpec(kind="l2", rho=0.3e-12), eq=eq)
        assert np.abs(xs - x).max() <= 1e-10
        assert np.abs(lams - 1e-12 * lam).max() <= 1e-10 * 1e-12 * np.abs(lam).max()

    @pytest.mark.parametrize("where", ["a1", "b1", "eq_rows", "eq_level"])
    @pytest.mark.parametrize("solve", ["tikhonov", "filtered"])
    def test_non_finite_data_rejected(self, solve, where):
        # NaN in the data once came back as NaN weights
        rng = np.random.default_rng(4)
        data = dict(a1=rng.normal(size=(6, 3)), b1=rng.normal(size=6),
                    eq=(np.ones((1, 3)), np.array([1.0])))
        if where in ("a1", "b1"):
            data[where][1] = np.nan
        elif where == "eq_rows":
            data["eq"][0][0, 1] = np.nan
        else:
            data["eq"][1][0] = np.nan
        with pytest.raises(ValueError, match="must hold finite numbers only"):
            if solve == "tikhonov":
                tikhonov_solve(data["a1"], data["b1"], PenaltySpec(kind="l2", rho=0.1),
                               eq=data["eq"])
            else:
                filtered_normal_solve(data["a1"], data["b1"], FilterSpec("ridge", 0.1),
                                      eq=data["eq"])


class TestRidgeMvo:
    def test_zero_penalty_is_plain_solution(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        rep = ridge_mvo(mu, sigma, 0.25, 0.0, constraints=BUDGET)
        oracle = solve_qp(QpProblem(Q=sigma, c=-0.25 * mu, eq=(np.ones((1, 4)), [1.0])))
        assert np.abs(rep.weights - oracle.weights).max() <= 1e-10

    def test_heavy_penalty_converges_to_anchor(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        x0 = np.array([0.4, 0.3, 0.2, 0.1])
        gaps = []
        for rho in (1.0, 10.0, 100.0, 1000.0):
            rep = ridge_mvo(mu, sigma, 0.25, rho, x0=x0, constraints=BUDGET)
            gaps.append(np.abs(rep.weights - x0).max())
        assert gaps[-1] <= 1e-3
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_heavy_penalty_without_anchor_gives_equal_weights(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        rep = ridge_mvo(mu, sigma, 0.25, 1000.0, constraints=BUDGET)
        assert np.abs(rep.weights - 0.25).max() <= 1e-3

    def test_two_portfolio_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            sigma = random_spd(rng, n, 0.05)
            mu = rng.normal(size=n) * 0.05
            x0 = rng.normal(size=n)
            gamma = 0.4
            rho = float(rng.random() * 0.1 + 1e-3)
            rep = ridge_mvo(mu, sigma, gamma, rho, x0=x0)
            sigma_inv = np.linalg.inv(sigma)
            omega = np.linalg.inv(np.eye(n) + rho * sigma_inv)
            markowitz = gamma * sigma_inv @ mu
            anchor_part = rho * sigma_inv @ x0
            blend = omega @ (markowitz + anchor_part)
            assert np.abs(rep.weights - blend).max() <= 1e-10
            alt = omega @ markowitz + (np.eye(n) - omega) @ x0
            assert np.abs(rep.weights - alt).max() <= 1e-10

    def test_unconstrained_solve_is_certified_closed_form(self):
        # one solve_qp with or without constraints: duals, both residuals, and
        # the weights of the closed form (S + rho2 I)^-1 (gamma mu + rho2 x0)
        for seed in range(120):
            rng = np.random.default_rng([42, seed])
            n = int(rng.integers(1, 13))
            sigma, mu, x0 = random_spd(rng, n, 0.05), rng.normal(size=n) * 0.05, rng.normal(size=n)
            gamma, rho = float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 0.1))
            rep = ridge_mvo(mu, sigma, gamma, rho, x0=x0)
            closed = np.linalg.solve(sigma + rho * np.eye(n), gamma * mu + rho * x0)
            assert rep.converged and rep.gamma == gamma and rep.duals is not None
            assert max(rep.r_norm, rep.s_norm) <= 1e-12
            assert np.abs(rep.weights - closed).max() <= 1e-12 * np.abs(closed).max()

    def test_rank_one_covariance_without_penalty(self):
        # S = v v' and rho2 = 0: mu off the range of S descends without bound
        # along zero curvature; mu on it has the minimum-norm optimum
        v = np.array([1.0, 2.0, 3.0])
        sigma = np.outer(v, v)
        with pytest.raises(errors.Unbounded):
            ridge_mvo([1.0, 0.0, 0.0], sigma, 1.0, 0.0)
        rep = ridge_mvo(2.0 * v, sigma, 1.0, 0.0)
        assert rep.converged and max(rep.r_norm, rep.s_norm) <= 1e-12
        assert np.abs(rep.weights - 2.0 * v / (v @ v)).max() <= 1e-12

    def test_weight_matrix_vanishes(self, four_asset):
        _, _, _, sigma = four_asset
        omega = np.linalg.inv(np.eye(4) + 1e8 * np.linalg.inv(sigma))
        assert np.abs(omega).max() <= 1e-6


class TestShrunkCorrelation:
    def test_zero_is_identity_map(self, four_asset):
        _, vols, corr, sigma = four_asset
        vol_new, corr_new = shrunk_correlation(sigma, 0.0, "identity")
        assert np.allclose(vol_new, vols, atol=1e-12)
        assert np.allclose(corr_new, corr, atol=1e-12)

    def test_diagonal_mode_halves_at_unit_penalty(self):
        corr = np.array([[1.0, 0.8], [0.8, 1.0]])
        sigma = corr * 0.04
        vols, corr_new = shrunk_correlation(sigma, 1.0, "diag_sigma")
        assert corr_new[0, 1] == pytest.approx(0.4, abs=1e-12)
        assert np.allclose(vols, [0.2, 0.2])

    def test_identity_mode_limit_decorrelates(self, four_asset):
        _, _, _, sigma = four_asset
        _, corr_new = shrunk_correlation(sigma, 1e9, "identity")
        off = corr_new - np.eye(4)
        assert np.abs(off).max() <= 1e-3


class TestSpectralFilter:
    def test_plain_pinv_recovered(self):
        pinv, gram = spectral_filter(np.diag([2.0, 1.0]), FilterSpec("ridge", 0.0))
        assert np.allclose(pinv, np.diag([0.5, 1.0]), atol=1e-12)
        assert np.allclose(gram, np.diag([4.0, 1.0]), atol=1e-12)

    def test_ridge_gain_at_unit(self):
        pinv, _ = spectral_filter(np.diag([1.0]), FilterSpec("ridge", 1.0))
        assert pinv[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_hard_threshold_drops_small_directions(self):
        pinv, _ = spectral_filter(np.diag([2.0, 1.0]), FilterSpec("hard_threshold", 1.5))
        assert np.allclose(pinv, np.diag([0.5, 0.0]), atol=1e-15)

    @pytest.mark.parametrize("rho", [float("nan"), float("inf"), -1.0])
    def test_bad_rho_rejected(self, rho):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            FilterSpec("ridge", rho)

    def test_hard_threshold_everything_raises(self):
        with pytest.raises(errors.AllSingularValuesFiltered):
            spectral_filter(np.diag([0.5, 0.2]), FilterSpec("hard_threshold", 5.0))

    def test_small_rho_recovers_pinv(self):
        rng = np.random.default_rng(2)
        a1 = rng.normal(size=(6, 4))
        base = np.linalg.pinv(a1)
        pinv, _ = spectral_filter(a1, FilterSpec("ridge", 1e-12))
        assert np.abs(pinv - base).max() <= 1e-8

    def test_condition_number_never_worse(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a1 = rng.normal(size=(7, 4))
            kappa = condition_number(a1)
            for rho in (1e-4, 1e-2, 1.0, 100.0):
                pinv, _ = spectral_filter(a1, FilterSpec("ridge", rho))
                assert condition_number(pinv) <= kappa + 1e-12

    def test_condition_number_monotone_while_gains_decrease(self):
        # the gain s/(s^2+rho) is decreasing over the retained spectrum as long
        # as rho <= s_min^2, and on that regime conditioning improves steadily
        rng = np.random.default_rng(30)
        for _ in range(10):
            a1 = rng.normal(size=(7, 4))
            s_min = np.linalg.svd(a1, compute_uv=False).min()
            prev = np.inf
            for frac in (0.01, 0.1, 0.5, 1.0):
                pinv, _ = spectral_filter(a1, FilterSpec("ridge", frac * s_min ** 2))
                k = condition_number(pinv)
                assert k <= prev + 1e-9
                prev = k

    def test_uniform_scaling_filter_keeps_conditioning(self):
        rng = np.random.default_rng(4)
        a1 = rng.normal(size=(5, 3))
        pinv, _ = spectral_filter(a1, FilterSpec("diag_ridge", 3.0))
        assert condition_number(pinv) == pytest.approx(condition_number(a1), rel=1e-9)
        assert np.allclose(pinv, np.linalg.pinv(a1) / 4.0, atol=1e-12)

    def test_alternative_gram_rules(self):
        rng = np.random.default_rng(14)
        a1 = rng.normal(size=(6, 3))
        u, s, vt = np.linalg.svd(a1, full_matrices=False)
        rho = 0.4
        spec = FilterSpec("ridge", rho)
        _, gram_default = spectral_filter(a1, spec)  # squared reciprocal gains
        expected = (vt.T * ((s ** 2 + rho) / s) ** 2) @ vt
        assert np.abs(gram_default - expected).max() <= 1e-10
        _, gram_sq = spectral_filter(a1, spec, gram_rule="g_of_s_sq")
        expected_sq = (vt.T * ((s ** 4 + rho) / s ** 2)) @ vt
        assert np.abs(gram_sq - expected_sq).max() <= 1e-10
        _, gram_mix = spectral_filter(a1, spec, gram_rule="g_dagger_times_s")
        expected_mix = (vt.T * (s ** 2 + rho)) @ vt  # reciprocal gain times s
        assert np.abs(gram_mix - expected_mix).max() <= 1e-10
        # every rule collapses to the plain gram matrix as rho -> 0
        for rule in ("g_dagger_sq", "g_of_s_sq", "g_dagger_times_s"):
            _, gram0 = spectral_filter(a1, FilterSpec("ridge", 0.0), gram_rule=rule)
            assert np.abs(gram0 - a1.T @ a1).max() <= 1e-10


def filtered_by_svd(sigma, spec):
    """The filtered covariance as ``spectral_filter``'s gram matrix of the
    symmetric square root of ``sigma``, from its SVD."""
    vec, lam = eigen_decompose(sigma)
    root = (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.T
    return spectral_filter(root, spec)[1]


class TestFilterCovariance:
    """One ``eigh`` of the covariance gives what the SVD of its square root
    gives: the gains applied to the square roots of its eigenvalues."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind,rank", [("ridge", 10), ("diag_ridge", 10),
                                           ("hard_threshold", 10), ("diag_ridge", 4),
                                           ("hard_threshold", 4)])
    def test_matches_the_square_root_svd(self, seed, kind, rank):
        rng = np.random.default_rng([17, seed, rank])
        b = rng.standard_normal((10, rank)) * 0.1
        sigma = b @ b.T
        sigma = 0.5 * (sigma + sigma.T)
        s = np.sqrt(np.clip(np.linalg.eigvalsh(sigma), 0.0, None))
        rho = {"ridge": 0.01 * s.mean() ** 2, "diag_ridge": 0.3,
               "hard_threshold": 0.5 * (s[-3] + s[-4])}[kind]
        spec = FilterSpec(kind, rho)
        want, got = filtered_by_svd(sigma, spec), filter_covariance(sigma, spec)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_rank_deficient_covariance_drops_rounding_eigenvalues(self):
        # rank 10 of 30: eigenvalues near 1e-16 of the largest have square
        # roots near 1e-8 of the largest root, which the ridge's (s^2 + rho)^2
        # / s^2 turned into a filtered eigenvalue of 1.5e11
        b = 0.1 * np.random.default_rng(0).standard_normal((30, 10))
        sigma = b @ b.T
        spec = FilterSpec("ridge", 0.01 * np.linalg.eigvalsh(sigma).mean())
        got, want = filter_covariance(sigma, spec), spectral_filter(b.T, spec)[1]
        assert np.linalg.matrix_rank(got) == 10
        assert np.linalg.eigvalsh(got).max() == pytest.approx(0.687, abs=5e-4)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_zero_or_fully_filtered_covariance_raises(self):
        with pytest.raises(errors.AllSingularValuesFiltered, match="zero"):
            filter_covariance(np.zeros((3, 3)), FilterSpec("ridge", 0.1))
        with pytest.raises(errors.AllSingularValuesFiltered, match="every"):
            filter_covariance(np.diag([0.04, 0.01]), FilterSpec("hard_threshold", 0.3))

    def test_asymmetric_covariance_raises(self):
        with pytest.raises(errors.NotSymmetric):
            filter_covariance(np.array([[0.04, 0.01], [0.0, 0.09]]), FilterSpec("ridge", 0.1))


class TestFilteredNormalSolve:
    def test_trivial_filter_equals_tikhonov_zero(self):
        rng = np.random.default_rng(5)
        a1 = rng.normal(size=(8, 3))
        b1 = rng.normal(size=8)
        eq = (np.ones((1, 3)), np.array([1.0]))
        x1, l1 = filtered_normal_solve(a1, b1, FilterSpec("none"), eq=eq)
        x2, l2 = tikhonov_solve(a1, b1, PenaltySpec(kind="l2", rho=0.0), eq=eq)
        assert np.abs(x1 - x2).max() <= 1e-8
        assert np.abs(l1 - l2).max() <= 1e-8

    def test_ridge_filter_equals_quadratic_penalty(self):
        rng = np.random.default_rng(6)
        a1 = rng.normal(size=(9, 4))
        b1 = rng.normal(size=9)
        rho = 0.3
        x1, _ = filtered_normal_solve(a1, b1, FilterSpec("ridge", rho))
        x2, _ = tikhonov_solve(a1, b1, PenaltySpec(kind="l2", rho=rho))
        assert np.abs(x1 - x2).max() <= 1e-8

    def test_coherent_factorization_filter(self):
        # shared right singular vectors: the quadratic penalty acts as the
        # generalized gain s1 / (s1^2 + rho s2^2)
        rng = np.random.default_rng(7)
        n = 4
        q1, _ = np.linalg.qr(rng.normal(size=(6, n)))
        w, _ = np.linalg.qr(rng.normal(size=(n, n)))
        v, _ = np.linalg.qr(rng.normal(size=(n, n)))
        s1 = np.array([3.0, 2.0, 1.0, 0.5])
        s2 = np.array([0.5, 1.5, 1.0, 2.0])
        a1 = q1 @ np.diag(s1) @ v.T
        g2 = w @ np.diag(s2) @ v.T
        b1 = rng.normal(size=6)
        rho = 0.7
        x_pen, _ = tikhonov_solve(a1, b1, PenaltySpec(kind="l2", rho=rho,
                                                      gamma_matrix=g2))

        def gain(s):
            # s arrives sorted descending, matching s1's order
            return s / (s ** 2 + rho * s2[np.argsort(-s1)] ** 2)

        x_filt, _ = filtered_normal_solve(a1, b1, gain)
        assert np.abs(x_pen - x_filt).max() <= 1e-8

    def test_hard_threshold_everything_raises(self):
        # the filter leaves no singular value: nothing to solve on, as in
        # spectral_filter, and no block system is built
        eq = (np.ones((1, 2)), np.array([1.0]))
        with pytest.raises(errors.AllSingularValuesFiltered, match="every singular value"):
            filtered_normal_solve(np.diag([0.5, 0.2]), np.ones(2),
                                  FilterSpec("hard_threshold", 5.0), eq=eq)


class TestLedoitWolfBridge:
    def test_alpha_one_means_no_penalty(self):
        pen = ledoit_wolf_to_tikhonov(1.0, np.eye(3))
        assert pen.rho == 0.0

    def test_half_alpha_identity_target(self, four_asset):
        _, _, _, sigma = four_asset
        pen = ledoit_wolf_to_tikhonov(0.5, np.eye(4))
        assert pen.rho == pytest.approx(1.0)
        assert np.allclose(pen.gamma_matrix.T @ pen.gamma_matrix, np.eye(4))
        assert np.allclose(sigma + pen.rho * pen.gamma_matrix.T @ pen.gamma_matrix,
                           sigma + np.eye(4))

    def test_cholesky_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            phi = random_spd(rng, n)
            pen = ledoit_wolf_to_tikhonov(0.3, phi)
            assert np.abs(pen.gamma_matrix.T @ pen.gamma_matrix - phi).max() <= 1e-10
            assert np.allclose(pen.gamma_matrix, np.triu(pen.gamma_matrix))

    def test_not_positive_definite(self):
        with pytest.raises(errors.NotPositiveDefinite):
            ledoit_wolf_to_tikhonov(0.5, np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestPenaltyLimits:
    @staticmethod
    def dominant_quadratic_term():
        """``(solve_mixed_lp report, g2, x0, eq)`` with the quadratic weight
        1e8 and the L1 weight 0.05."""
        rng = np.random.default_rng(9)
        a1 = rng.normal(size=(6, 4))
        b1 = rng.normal(size=6)
        g2 = random_spd(rng, 4) + np.eye(4)
        x0 = rng.normal(size=4)
        eq = (np.ones((1, 4)), np.array([1.0]))
        pen2 = PenaltySpec(kind="l2", rho=1e8, gamma_matrix=g2, anchor=x0)
        penp = PenaltySpec(kind="l1", rho=0.05, anchor=x0)
        rep = solve_mixed_lp(a1, b1, pen2, penp, x0=x0,
                             constraints=ConstraintSet(eq=eq))
        return rep, g2, x0, eq

    def test_dominant_quadratic_term_reaches_formal_limit(self):
        # with the Lp weight fixed and the quadratic weight huge, the solution
        # approaches  argmin ||g2 (x - x0)||  s.t.  A2 x = b2
        rep, g2, x0, eq = self.dominant_quadratic_term()
        limit, _ = tikhonov_solve(np.zeros((1, 4)), np.zeros(1),
                                  PenaltySpec(kind="l2", rho=1.0, gamma_matrix=g2,
                                              anchor=x0), eq=eq)
        assert np.abs(rep.weights - limit).max() <= 1e-4

    def test_dominant_quadratic_term_takes_no_svd(self, monkeypatch):
        # a curvature of 1e8 against unit rows: a pivot test against
        # max(pivot, 1) refused both KKT solves of this problem
        from tests.test_qp import record_kkt
        svd = record_kkt(monkeypatch)
        rep, *_ = self.dominant_quadratic_term()
        assert rep.converged and svd and not any(svd)


class TestPenaltyMatrixVector:
    def test_vector_is_the_diagonal(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        root = np.linalg.cholesky(sigma).T
        b1 = np.linalg.solve(root.T, 0.25 * mu)
        x0 = np.array([0.4, 0.3, 0.2, 0.1])
        diag = [1.0, 2.0, 3.0, 4.0]
        vector = PenaltySpec(kind="l1", rho=2e-3, gamma_matrix=diag, anchor=x0)
        matrix = PenaltySpec(kind="l1", rho=2e-3, gamma_matrix=np.diag(diag), anchor=x0)
        assert vector.gamma_matrix.shape == (4, 4)
        budget = ConstraintSet(budget=1.0)
        a = solve_mixed_lp(root, b1, None, vector, x0=x0, constraints=budget)
        b = solve_mixed_lp(root, b1, None, matrix, x0=x0, constraints=budget)
        assert a.converged and b.converged
        assert np.array_equal(a.weights, b.weights)
        assert np.abs(a.weights - x0).max() > 1e-4  # the penalty leaves room to trade

    def test_other_shapes_rejected(self):
        for bad in (2.0, np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match="penalty matrix"):
                PenaltySpec(kind="l2", rho=1.0, gamma_matrix=bad)
