import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roboalloc import errors
from roboalloc.calibration import (
    RidgeRegressionData,
    ScoreSet,
    gcv,
    kfold_cv,
    make_grid,
    max_te_from_vol,
    mean_absolute_difference,
    press,
    te_level_rule,
)


def loo_refit_oracle(data, rho2):
    """Explicit leave-one-out: refit without each observation in turn."""
    t = data.x.shape[0]
    total = 0.0
    for i in range(t):
        mask = np.ones(t, dtype=bool)
        mask[i] = False
        x_tr, y_tr = data.x[mask], data.y[mask]
        beta = np.linalg.solve(x_tr.T @ x_tr + rho2 * data.penalty_gram,
                               x_tr.T @ y_tr)
        total += (data.y[i] - data.x[i] @ beta) ** 2
    return total


def random_data(rng, t=None, k=None):
    t = t or int(rng.integers(8, 31))
    k = k or int(rng.integers(1, 6))
    x = rng.normal(size=(t, k))
    beta = rng.normal(size=k)
    y = x @ beta + 0.3 * rng.normal(size=t)
    return RidgeRegressionData(x=x, y=y)


def test_weak_design_warning_names_the_caller():
    with pytest.warns(UserWarning, match="weakly determined") as record:
        RidgeRegressionData(x=np.ones((2, 3)), y=np.ones(2))
    assert record[0].filename == __file__


class TestPress:
    def test_single_observation_by_hand(self):
        with pytest.warns(UserWarning):  # T <= K is flagged
            data = RidgeRegressionData(x=np.array([[1.0]]), y=np.array([1.0]))
        # smoother 1/(1+1) = 0.5, fit 0.5, residual 0.5, leverage 0.5
        assert press(data, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_equals_explicit_refits(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            data = random_data(rng)
            rho2 = float(10 ** rng.uniform(-3, 2))
            assert press(data, rho2) == pytest.approx(
                loo_refit_oracle(data, rho2), abs=1e-10 * max(1.0, data.y @ data.y))

    def test_infinite_shrinkage_leaves_raw_response(self):
        rng = np.random.default_rng(1)
        data = random_data(rng, t=15, k=3)
        assert press(data, 1e12) == pytest.approx(float(data.y @ data.y), rel=1e-6)

    def test_leverage_singularity(self):
        data = RidgeRegressionData(x=np.array([[1.0], [0.0]]), y=np.array([1.0, 0.0]))
        with pytest.raises(errors.LeverageSingularity):
            press(data, 0.0)  # leverage hits 1 exactly


class TestGcv:
    def test_eigen_trace_matches_dense(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            data = random_data(rng)
            t = data.x.shape[0]
            rho2 = float(10 ** rng.uniform(-2, 2))
            val = gcv(data, rho2)
            s = np.linalg.inv(data.x.T @ data.x + rho2 * data.penalty_gram)
            dense = np.eye(t) - data.x @ s @ data.x.T
            resid = data.y - data.x @ (s @ data.x.T @ data.y)
            expected = t ** 2 * float(resid @ resid) / np.trace(dense) ** 2
            assert val == pytest.approx(expected, rel=1e-8)

    def test_orthonormal_design_trace(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(12, 3)))
        data = RidgeRegressionData(x=q, y=rng.normal(size=12))
        rho2 = 0.7
        val = gcv(data, rho2)
        # eigenvalues of X X' are 1 (x3) and 0 (x9)
        trace = 9.0 + 3.0 / (1.0 + 1.0 / rho2)
        resid = data.y - data.x @ np.linalg.solve(data.x.T @ data.x + rho2 * data.penalty_gram,
                                                  data.x.T @ data.y)
        assert val == pytest.approx(144.0 * float(resid @ resid) / trace ** 2, rel=1e-10)

    def test_heavy_penalty_limit(self):
        rng = np.random.default_rng(4)
        data = random_data(rng, t=20, k=3)
        assert gcv(data, 1e14) == pytest.approx(float(data.y @ data.y), rel=1e-4)

    def test_grid_argmin_exists(self):
        rng = np.random.default_rng(5)
        data = random_data(rng, t=25, k=4)
        grid = make_grid("log", 1e-4, 1e2, 25)
        curve = np.array([gcv(data, r) for r in grid])
        assert np.isfinite(curve).all()
        assert curve.argmin() >= 0  # a minimizer exists; uniqueness is not promised

    def test_singular_penalty_matrix(self):
        rng = np.random.default_rng(6)
        data = RidgeRegressionData(x=rng.normal(size=(10, 2)), y=rng.normal(size=10),
                                   gamma2=np.array([[1.0, 0.0], [0.0, 0.0]]))
        for rho2 in (0.0, 0.5, 3.0):
            hat = data.x @ np.linalg.solve(data.x.T @ data.x + rho2 * data.penalty_gram,
                                           data.x.T)
            resid = data.y - hat @ data.y
            expected = 100 * float(resid @ resid) / np.trace(np.eye(10) - hat) ** 2
            assert gcv(data, rho2) == pytest.approx(expected, rel=1e-10)


class TestKfold:
    def test_loocv_matches_press(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            data = random_data(rng, t=16, k=3)
            grid = make_grid("log", 1e-3, 10.0, 7)
            _, curve = kfold_cv(data, k=16, grid=grid, shuffle_seed=0)
            for rho2, err in zip(grid, curve):
                assert 16 * err == pytest.approx(press(data, rho2), rel=1e-10)

    def test_noiseless_data_prefers_smallest_penalty(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(24, 3))
        beta = rng.normal(size=3)
        data = RidgeRegressionData(x=x, y=x @ beta)
        grid = make_grid("log", 1e-6, 1e2, 9)
        best, curve = kfold_cv(data, k=6, grid=grid, shuffle_seed=1)
        assert best == grid[0]
        assert np.all(np.diff(curve) >= -1e-14)

    def test_partition_deterministic(self):
        rng = np.random.default_rng(9)
        data = random_data(rng, t=4, k=1)
        grid = [0.1, 1.0]
        b1, c1 = kfold_cv(data, 2, grid, shuffle_seed=3)
        b2, c2 = kfold_cv(data, 2, grid, shuffle_seed=3)
        assert b1 == b2
        assert np.array_equal(c1, c2)
        _, c3 = kfold_cv(data, 2, grid, shuffle_seed=4)
        assert not np.array_equal(c1, c3)  # different shuffle, different folds

    def test_empty_grid(self):
        rng = np.random.default_rng(10)
        with pytest.raises(errors.GridEmpty):
            kfold_cv(random_data(rng, t=10, k=2), 5, [], 0)

    def test_tie_break_smallest(self):
        rng = np.random.default_rng(11)
        data = random_data(rng, t=12, k=2)
        grid = [0.5, 0.5, 2.0]  # duplicated point forces a tie
        best, _ = kfold_cv(data, 3, grid, shuffle_seed=0)
        assert best == 0.5


def dense_curves(data, grid, k, shuffle_seed):
    """GCV and PRESS from the T x T hat matrix, k-fold from explicit refits
    on the documented seeded shuffle."""
    x, y, gram = data.x, data.y, data.penalty_gram
    t = x.shape[0]
    gcv_curve, press_curve = [], []
    for rho2 in grid:
        hat = x @ np.linalg.solve(x.T @ x + rho2 * gram, x.T)
        resid = y - hat @ y
        gcv_curve.append(t ** 2 * (resid @ resid) / np.trace(np.eye(t) - hat) ** 2)
        press_curve.append(np.sum((resid / (1.0 - np.diag(hat))) ** 2))
    folds = np.array_split(np.random.default_rng(shuffle_seed).permutation(t), k)
    kfold_curve = np.zeros(len(grid))
    for test in folds:
        train = np.setdiff1d(np.arange(t), test)
        for g, rho2 in enumerate(grid):
            beta = np.linalg.solve(x[train].T @ x[train] + rho2 * gram,
                                   x[train].T @ y[train])
            kfold_curve[g] += np.sum((y[test] - x[test] @ beta) ** 2)
    return np.array(gcv_curve), np.array(press_curve), kfold_curve / t


def _penalty_cases():
    """(name, data, grid): identity, full and singular Gamma2, and T < K."""
    rng = np.random.default_rng(14)
    full_rank = [0.0, 1e-3, 0.1, 1.0, 10.0]
    shapes = [("identity", 20, 4, None, full_rank),
              ("full", 20, 4, rng.normal(size=(4, 4)), full_rank),
              ("singular", 20, 4, rng.normal(size=(4, 2)) @ rng.normal(size=(2, 4)), full_rank),
              ("identity, T < K", 6, 10, None, full_rank[1:])]
    cases = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # T <= K is flagged
        for name, t, k, gamma2, grid in shapes:
            data = RidgeRegressionData(x=rng.normal(size=(t, k)), y=rng.normal(size=t),
                                       gamma2=gamma2)
            cases.append(pytest.param(data, grid, id=name))
    return cases


class TestWholeGrid:
    @pytest.mark.parametrize("data, grid", _penalty_cases())
    def test_curves_match_dense_formulas(self, data, grid):
        want_gcv, want_press, want_kfold = dense_curves(data, grid, 3, 5)
        for got, want in ((gcv(data, grid), want_gcv), (press(data, grid), want_press),
                          (kfold_cv(data, 3, grid, shuffle_seed=5)[1], want_kfold)):
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    @pytest.mark.parametrize("data, grid", _penalty_cases())
    def test_grid_equals_scalar_calls(self, data, grid):
        for f in (gcv, press):
            curve = f(data, grid)
            assert isinstance(curve, np.ndarray) and curve.shape == (len(grid),)
            for rho2, value in zip(grid, curve):
                scalar = f(data, rho2)
                assert isinstance(scalar, float)
                # the same formula in another summation order; at T < K and
                # small rho2 the leverages approach 1 and 1 - h loses digits
                assert scalar == pytest.approx(value, rel=1e-10)

    @pytest.mark.parametrize("bad", [-1.0, -1e-12, float("nan"), float("inf")])
    def test_negative_or_non_finite_penalty(self, bad):
        data = random_data(np.random.default_rng(15), t=12, k=2)
        for call in (lambda: gcv(data, bad), lambda: press(data, bad),
                     lambda: gcv(data, [0.1, bad]), lambda: press(data, [bad, 1.0]),
                     lambda: kfold_cv(data, 3, [0.1, bad], shuffle_seed=0)):
            with pytest.raises(errors.InputError):
                call()

    def test_unpenalized_fit_with_more_regressors_than_rows(self):
        rng = np.random.default_rng(16)
        with pytest.warns(UserWarning):
            data = RidgeRegressionData(x=rng.normal(size=(5, 8)), y=rng.normal(size=5))
        for call in (lambda: gcv(data, 0.0), lambda: press(data, [0.0, 1.0]),
                     lambda: kfold_cv(data, 2, [1.0, 0.0], shuffle_seed=0)):
            with pytest.raises(errors.SingularMatrix):
                call()
        assert np.isfinite(gcv(data, [1e-3, 1.0])).all()

    def test_subnormal_gram_is_singular_at_zero_penalty(self):
        # |x| near 1e-160: X'X is subnormal and its inverse overflows; no
        # RuntimeWarning (an error under this suite's settings) may escape
        rng = np.random.default_rng(18)
        data = RidgeRegressionData(x=1e-160 * rng.normal(size=(20, 3)), y=rng.normal(size=20))
        for call in (lambda: gcv(data, [0.0, 1.0]), lambda: press(data, 0.0),
                     lambda: kfold_cv(data, 4, [0.0, 1.0], shuffle_seed=0)):
            with pytest.raises(errors.SingularMatrix):
                call()
        curve = gcv(data, [1e-3, 1.0])
        assert np.isfinite(curve).all()
        assert curve == pytest.approx(np.full(2, data.y @ data.y), rel=1e-12)  # H = 0

    def test_null_space_shared_with_penalty(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(12, 3))
        x[:, 2] = 0.0
        data = RidgeRegressionData(x=x, y=rng.normal(size=12),
                                   gamma2=np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(errors.SingularMatrix):
            gcv(data, [0.1, 1.0])


class TestTeRules:
    def test_perfect_correlation_zero(self):
        assert max_te_from_vol(0.10, 1.0) == 0.0

    def test_spot_value(self):
        assert max_te_from_vol(0.10, 0.98) == pytest.approx(0.02, abs=1e-12)

    def test_anti_correlation_doubles(self):
        assert max_te_from_vol(0.10, -1.0) == pytest.approx(0.20, abs=1e-12)

    def test_all_neutral_scores_give_exact_zero(self):
        assert te_level_rule(ScoreSet(scores=np.zeros(5), sigma_plus=0.06)) == 0.0

    def test_uniform_bullish_scores_give_exact_zero(self):
        assert te_level_rule(ScoreSet(scores=np.full(4, 2), sigma_plus=0.06)) == 0.0

    def test_split_conviction_by_hand(self):
        scores = ScoreSet(scores=np.array([3, 3, -3, -3]), sigma_plus=0.06)
        # population std 3; mean absolute difference over ordered pairs 3
        assert np.std(scores.scores) == 3.0
        assert mean_absolute_difference(scores.scores) == 3.0
        assert te_level_rule(scores) == pytest.approx(0.06, abs=1e-15)

    @pytest.mark.parametrize("field", ["sigma_plus", "c"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_scaling_not_finite_and_nonnegative_rejected(self, field, value):
        # a NaN gave a NaN level, and c = -1 the level -0.017 for [1, -1, 0]
        scaling = {"sigma_plus": 0.02, **{field: value}}
        with pytest.raises(errors.InputError, match=f"{field} must be finite and nonnegative"):
            ScoreSet(scores=[1, -1, 0], **scaling)

    @pytest.mark.parametrize("sigma_benchmark", [np.nan, np.inf, -0.1])
    def test_benchmark_volatility_not_finite_and_nonnegative_rejected(self, sigma_benchmark):
        # max_te_from_vol(nan, 0.5) was NaN and max_te_from_vol(-0.1, 0.5) -0.1
        with pytest.raises(errors.InputError, match="sigma_benchmark"):
            max_te_from_vol(sigma_benchmark, 0.5)

    @pytest.mark.parametrize("grade", [0.5, np.nan])
    def test_score_that_is_not_an_integer_rejected(self, grade):
        with pytest.raises(errors.InputError, match="integers"):
            ScoreSet(scores=[grade, 1.0, -1.0], sigma_plus=0.06)

    def test_shift_invariance_and_scaling(self):
        rng = np.random.default_rng(12)
        s = rng.integers(-2, 3, size=6)
        base = te_level_rule(ScoreSet(scores=s, sigma_plus=0.05))
        shifted = te_level_rule(ScoreSet(scores=s + 1, sigma_plus=0.05))
        assert shifted == pytest.approx(base, abs=1e-15)
        doubled = te_level_rule(ScoreSet(scores=s, sigma_plus=0.10))
        assert doubled == pytest.approx(2 * base, rel=1e-15)

    def test_dispersion_bounded(self):
        # sanity ceiling on the dispersion factor for in-range grades
        rng = np.random.default_rng(13)
        for _ in range(200):
            s = rng.integers(-3, 4, size=int(rng.integers(2, 9)))
            factor = 0.5 * (np.std(s) + mean_absolute_difference(s))
            assert 0.0 <= factor <= 3.6213 + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=6, max_value=20), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=9999), st.floats(min_value=0.001, max_value=50))
def test_press_identity_property(t, k, seed, rho2):
    rng = np.random.default_rng(seed)
    if t <= k:
        t = k + 2
    data = RidgeRegressionData(x=rng.normal(size=(t, k)),
                               y=rng.normal(size=t))
    assert press(data, rho2) == pytest.approx(loo_refit_oracle(data, rho2),
                                              rel=1e-9, abs=1e-10)
