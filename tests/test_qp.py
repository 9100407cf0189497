import itertools

import numpy as np
import pytest

from roboalloc import errors, qp
from roboalloc.qp import QpProblem, augment_l1, solve_qp
from tests.conftest import random_spd


def enumerate_active_sets(q, c, a_eq, b_eq, g, h, lower=None, upper=None):
    """Brute-force optimum: try every subset of inequalities as equalities.

    Finite bounds enter as rows ``x_j >= lower_j`` and ``-x_j >= -upper_j``;
    subsets holding both bounds of one variable are skipped.
    """
    n = c.size
    g = np.zeros((0, n)) if g is None else g
    h = np.zeros(0) if h is None else h
    rows, rhs, var = list(g), list(h), [-1] * h.size
    for sign, bound in ((1.0, lower), (-1.0, upper)):
        if bound is None:
            continue
        for j in np.flatnonzero(np.isfinite(bound)):
            e = np.zeros(n)
            e[j] = sign
            rows.append(e)
            rhs.append(sign * bound[j])
            var.append(j)
    g_all = np.array(rows).reshape(-1, n)
    h_all = np.array(rhs)
    best = None
    m = h_all.size
    for k in range(m + 1):
        for combo in itertools.combinations(range(m), k):
            fixed = [var[i] for i in combo if var[i] >= 0]
            if len(fixed) != len(set(fixed)):
                continue
            rows = [a_eq] if a_eq is not None else []
            rhs = [b_eq] if a_eq is not None else []
            if combo:
                rows.append(g_all[list(combo)])
                rhs.append(h_all[list(combo)])
            if rows:
                a = np.vstack(rows)
                b = np.concatenate(rhs)
            else:
                a = np.zeros((0, n))
                b = np.zeros(0)
            if a.shape[0] > n:  # more rows than unknowns: the KKT matrix is singular
                continue
            kkt = np.zeros((n + a.shape[0], n + a.shape[0]))
            kkt[:n, :n] = q
            kkt[:n, n:] = a.T
            kkt[n:, :n] = a
            try:
                sol = np.linalg.solve(kkt, np.concatenate([-c, b]))
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            if np.abs(a @ x - b).max(initial=0.0) > 1e-9:
                continue
            if m and (g_all @ x - h_all).min() < -1e-9:
                continue
            val = 0.5 * x @ q @ x + c @ x
            if best is None or val < best[0] - 1e-12:
                best = (val, x)
    return best


def assert_kkt(problem, rep, tol=1e-8):
    """Stationarity, complementarity and dual signs of a report's multipliers."""
    x, duals = rep.weights, rep.duals
    n = problem.n
    lower = problem.lower if problem.lower is not None else np.full(n, -np.inf)
    upper = problem.upper if problem.upper is not None else np.full(n, np.inf)
    stat = problem.Q @ x + problem.c - duals["lower"] + duals["upper"]
    scale = max(1.0, np.abs(problem.c).max())
    if problem.eq is not None:
        a, b = problem.eq
        stat = stat + a.T @ duals["eq"]
        assert np.abs(a @ x - b).max() <= 1e-9
    if problem.ineq is not None:
        g, h = problem.ineq
        stat = stat - g.T @ duals["ineq"]
        assert (g @ x - h).min() >= -1e-9
        assert np.abs(duals["ineq"] * (g @ x - h)).max(initial=0.0) <= tol * scale
        assert duals["ineq"].min(initial=0.0) >= 0.0
    assert np.abs(stat).max() <= tol * scale
    assert (x - lower).min() >= -1e-9 and (upper - x).min() >= -1e-9
    for key, slack in (("lower", x - lower), ("upper", upper - x)):
        assert duals[key].min() >= 0.0
        active = duals[key] > 0
        assert np.abs(duals[key][active] * slack[active]).max(initial=0.0) <= tol * scale


def budget_box_problem(rng, n, gamma, upper=0.15, factors=5):
    """Factor-model covariance, budget 1 and a long-only box."""
    b = rng.normal(size=(n, factors)) * 0.15
    sigma = b @ b.T + np.diag(rng.uniform(0.01, 0.04, n))
    mu = 0.02 + sigma @ rng.uniform(0.5, 1.5, n) / n + rng.normal(0, 0.01, n)
    return QpProblem(Q=sigma, c=-gamma * mu, eq=(np.ones((1, n)), [1.0]),
                     lower=0.0, upper=upper)


class TestSolveQp:
    def test_two_asset_budget_by_hand(self):
        rep = solve_qp(QpProblem(Q=np.eye(2), c=np.zeros(2),
                                 eq=(np.ones((1, 2)), [1.0])))
        assert np.allclose(rep.weights, [0.5, 0.5], atol=1e-12)
        assert rep.duals["eq"][0] == pytest.approx(-0.5, abs=1e-12)

    def test_box_constrained_min_variance_with_duals(self, four_asset):
        _, _, _, sigma = four_asset
        rep = solve_qp(QpProblem(Q=sigma, c=np.zeros(4),
                                 eq=(np.ones((1, 4)), [1.0]),
                                 lower=0.10, upper=0.40))
        assert np.allclose(100 * rep.weights, [40.00, 31.18, 18.82, 10.00], atol=0.02)
        assert rep.duals["lower"][3] == pytest.approx(48.89e-4, abs=0.5e-4)
        assert rep.duals["upper"][0] == pytest.approx(28.58e-4, abs=0.5e-4)
        assert rep.duals["lower"][[0, 1, 2]].max() == 0.0

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            n = int(rng.integers(2, 5))
            q = random_spd(rng, n)
            c = rng.normal(size=n)
            m = int(rng.integers(1, 7))
            g = rng.normal(size=(m, n))
            x_feas = rng.normal(size=n)
            x_feas = x_feas / x_feas.sum() if abs(x_feas.sum()) > 0.3 else np.full(n, 1.0 / n)
            h = g @ x_feas - rng.random(m)  # strictly feasible on the budget plane
            a_eq = np.ones((1, n))
            b_eq = np.array([1.0])
            rep = solve_qp(QpProblem(Q=q, c=c, eq=(a_eq, b_eq), ineq=(g, h)))
            oracle = enumerate_active_sets(q, c, a_eq, b_eq, g, h)
            assert oracle is not None
            assert rep.objective == pytest.approx(oracle[0], abs=1e-8)
            assert np.allclose(rep.weights, oracle[1], atol=1e-6)

    def test_feasibility_and_kkt_residual(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            q = random_spd(rng, n)
            c = rng.normal(size=n)
            x_feas = rng.normal(size=n)
            g = rng.normal(size=(4, n))
            h = g @ x_feas - rng.random(4)
            rep = solve_qp(QpProblem(Q=q, c=c, ineq=(g, h)))
            x = rep.weights
            assert (g @ x - h).min() >= -1e-9
            lam = rep.duals["ineq"]
            stat = q @ x + c - g.T @ lam
            assert np.abs(stat).max() <= 1e-8 * max(1.0, np.abs(c).max())
            slack = g @ x - h
            assert np.abs(lam * slack).max() <= 1e-8
            assert lam.min() >= 0.0

    def test_duality_gap_small(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = 4
            q = random_spd(rng, n)
            c = rng.normal(size=n)
            g = np.vstack([np.eye(n)])
            h = -np.ones(n)
            rep = solve_qp(QpProblem(Q=q, c=c, ineq=(g, h)))
            lam = rep.duals["ineq"]
            # dual value: min_x L(x, lam) at the stationary point
            x_lam = np.linalg.solve(q, g.T @ lam - c)
            dual = 0.5 * x_lam @ q @ x_lam + c @ x_lam - lam @ (g @ x_lam - h)
            assert rep.objective - dual <= 1e-7
            assert rep.objective - dual >= -1e-9

    def test_bounds_and_rows_match_exhaustive_enumeration(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            n = int(rng.integers(2, 6))
            q = random_spd(rng, n)
            c = rng.normal(size=n)
            x_feas = rng.dirichlet(np.ones(n))
            lower = x_feas - rng.uniform(0.0, 0.3, n)
            upper = x_feas + rng.uniform(0.0, 0.3, n)
            m = int(rng.integers(0, 3))
            g = rng.normal(size=(m, n))
            h = g @ x_feas - rng.random(m)
            a_eq, b_eq = np.ones((1, n)), np.array([1.0])
            problem = QpProblem(Q=q, c=c, eq=(a_eq, b_eq), ineq=(g, h) if m else None,
                                lower=lower, upper=upper)
            rep = solve_qp(problem)
            oracle = enumerate_active_sets(q, c, a_eq, b_eq, g, h, lower, upper)
            assert oracle is not None
            assert rep.objective == pytest.approx(oracle[0], abs=1e-8)
            assert np.allclose(rep.weights, oracle[1], atol=1e-6)
            assert_kkt(problem, rep)

    def test_warm_start_from_neighbouring_gamma(self):
        rng = np.random.default_rng(3)
        neighbour = solve_qp(budget_box_problem(np.random.default_rng(3), 40, 0.30))
        problem = budget_box_problem(rng, 40, 0.33)
        cold = solve_qp(problem)
        warm = solve_qp(problem, x0=neighbour.weights)
        assert np.allclose(warm.weights, cold.weights, atol=1e-10, rtol=0.0)
        assert warm.iterations < cold.iterations
        assert_kkt(problem, warm)

    def test_infeasible_warm_start_is_ignored(self):
        problem = budget_box_problem(np.random.default_rng(4), 10, 0.5)
        cold = solve_qp(problem)
        rep = solve_qp(problem, x0=np.full(10, 0.5))
        assert np.allclose(rep.weights, cold.weights, atol=1e-12, rtol=0.0)

    def test_non_finite_warm_start_is_ignored(self):
        # NaN compares false with the feasibility tolerance: without its own
        # test such a start passed as feasible and the active set spun
        problem = budget_box_problem(np.random.default_rng(4), 10, 0.5)
        cold = solve_qp(problem)
        x0 = cold.weights.copy()
        x0[3] = np.nan
        rep = solve_qp(problem, x0=x0)
        assert np.array_equal(rep.weights, cold.weights)
        assert rep.iterations == cold.iterations

    def test_n200_budget_box_multipliers(self):
        problem = budget_box_problem(np.random.default_rng(11), 200, 0.8)
        rep = solve_qp(problem)
        assert_kkt(problem, rep)
        assert (rep.duals["upper"] > 0).sum() >= 1
        assert (rep.duals["lower"] > 0).sum() >= 100

    def test_budget_above_box_capacity_is_infeasible(self):
        with pytest.raises(errors.Infeasible):
            solve_qp(QpProblem(Q=np.eye(4), c=np.zeros(4),
                               eq=(np.ones((1, 4)), [1.0]), lower=0.0, upper=0.2))

    def test_full_step_skips_the_next_kkt_solve(self, monkeypatch):
        # the step after a full one is zero: the loop goes straight to the
        # multiplier test, so it makes fewer KKT solves (the cold start's
        # among them) than iterations
        calls = []
        free_step = qp._free_step

        def counted(*args):
            calls.append(1)
            return free_step(*args)

        monkeypatch.setattr(qp, "_free_step", counted)
        problem = budget_box_problem(np.random.default_rng(0), 20, 1.0, upper=0.3)
        rep = solve_qp(problem)
        assert len(calls) < rep.iterations
        assert_kkt(problem, rep)

    @pytest.mark.parametrize("seed", [71, 72, 95])
    def test_rank_two_hessian_keeps_the_rows(self, seed):
        # a singular Q_FF factors with pivots down to about 1e-10 of the
        # largest; steps from such a factor broke the budget by 0.04 to 0.17
        rng = np.random.default_rng([seed, 13])
        f = rng.standard_normal((13, 2))
        problem = QpProblem(Q=f @ f.T, c=rng.standard_normal(13),
                            eq=(np.ones((1, 13)), [1.0]), lower=-0.5, upper=0.8)
        assert_kkt(problem, solve_qp(problem))

    def test_infeasible(self):
        with pytest.raises(errors.Infeasible):
            solve_qp(QpProblem(Q=np.eye(2), c=np.zeros(2),
                               eq=(np.ones((1, 2)), [1.0]),
                               upper=np.array([0.2, 0.2])))

    def test_unbounded(self):
        with pytest.raises(errors.Unbounded):
            solve_qp(QpProblem(Q=np.zeros((1, 1)), c=np.array([1.0]),
                               upper=np.array([0.0])))

    @staticmethod
    def solve_at_degenerate_vertex(seed, n, rows):
        """``rows`` rows ``g x >= g v`` through one vertex ``v`` of ``n``
        weights, solved from ``v + inward`` toward a target beyond the
        vertex; the answer and ``enumerate_active_sets``' answer."""
        rng = np.random.default_rng([seed, 0])
        vertex = rng.normal(size=n)
        inward = rng.normal(size=n)
        inward /= np.linalg.norm(inward)
        g = rng.normal(size=(rows, n))
        g *= np.sign(g @ inward)[:, None]
        target = vertex - 3.0 * inward + 0.5 * rng.normal(size=n)
        rep = solve_qp(QpProblem(Q=np.eye(n), c=-target, ineq=(g, g @ vertex)),
                       x0=vertex + inward)
        _, ref = enumerate_active_sets(np.eye(n), -target, None, None, g, g @ vertex)
        return rep.weights, ref

    def test_degenerate_vertex_switches_to_blands_rule(self, monkeypatch):
        # fourteen rows through one vertex of five weights: the walk into the
        # vertex makes more than n + 2 zero steps in a row there, and the
        # multiplier test then picks by Bland's rule
        calls = []
        bland = qp._bland

        def counted(*args):
            calls.append(1)
            return bland(*args)

        monkeypatch.setattr(qp, "_bland", counted)
        x, ref = self.solve_at_degenerate_vertex(311, 5, 14)
        assert calls
        np.testing.assert_allclose(x, ref, atol=1e-9)

    @pytest.mark.parametrize("seed,n,rows", [(194, 4, 14), (330, 5, 12)])
    def test_rows_pinning_the_free_weights_stop_the_step(self, seed, n, rows):
        # once n rows pin x at the vertex the free step is exactly zero: a
        # rounded step there let the ratio test add a dependent row at a
        # zero step and the multiplier test drop it again, until MaxIterations
        x, ref = self.solve_at_degenerate_vertex(seed, n, rows)
        np.testing.assert_allclose(x, ref, atol=1e-9)


def cold_case(kind, seed):
    """A seeded problem of one family: n 5-40, a factor-model covariance (or
    a rank-deficient one), gamma from 0 to 100, box caps 0.1-1."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 41))
    b = rng.normal(size=(n, int(rng.integers(1, 6)))) * 0.15
    sigma = b @ b.T + np.diag(rng.uniform(0.01, 0.04, n))
    c = -float(rng.choice([0.0, 0.1, 1.0, 10.0, 100.0])) * rng.normal(0.05, 0.03, n)
    budget = (np.ones((1, n)), [1.0])
    cap = float(rng.uniform(max(0.1, 1.5 / n), 1.0))
    if kind == "budget_box":
        return QpProblem(Q=sigma, c=c, eq=budget, lower=0.0, upper=cap)
    if kind == "box_only":
        return QpProblem(Q=sigma, c=c + rng.normal(0.0, 0.05, n), lower=-cap, upper=cap)
    if kind == "infinite_upper":
        return QpProblem(Q=sigma, c=c, eq=budget, lower=0.0, upper=np.inf)
    if kind == "mixed_sign_row":
        a = rng.normal(size=(1, n))
        return QpProblem(Q=sigma, c=c, eq=(a, a @ rng.uniform(-cap, cap, n)),
                         lower=-cap, upper=cap)
    if kind == "tracking_error":
        return QpProblem(Q=sigma, c=c - sigma @ rng.dirichlet(np.ones(n)), eq=budget,
                         lower=0.0, upper=cap)
    # rank-deficient: odd seeds put c in the range of Q (a start exists),
    # even seeds leave a zero-curvature descent (phase 1 starts); half the
    # seeds drop the budget row
    q = b @ b.T
    c = q @ rng.normal(size=n) if seed % 2 else rng.normal(0.05, 0.03, n)
    return QpProblem(Q=q, c=c, eq=budget if seed % 4 < 2 else None, lower=0.0, upper=cap)


def count_phase1(monkeypatch):
    calls = []
    phase1 = qp._phase1

    def counted(*args):
        calls.append(1)
        return phase1(*args)

    monkeypatch.setattr(qp, "_phase1", counted)
    return calls


class TestColdStart:
    """A cold solve starts at the projected equality-constrained minimizer
    and ends at the answer a start from phase 1's point reaches."""

    @pytest.mark.parametrize("kind", ["budget_box", "box_only", "infinite_upper",
                                      "mixed_sign_row", "tracking_error", "rank_deficient"])
    def test_matches_a_phase1_start(self, kind, monkeypatch):
        calls = count_phase1(monkeypatch)
        for seed in range(20):
            problem = cold_case(kind, seed)
            ref = solve_qp(problem, x0=qp.feasible_point(problem))
            del calls[:]
            cold = solve_qp(problem)
            flat = kind == "rank_deficient" and seed % 2 == 0
            assert len(calls) == int(flat)
            assert_kkt(problem, cold)
            assert_kkt(problem, ref)
            if kind == "rank_deficient":  # the weights need not be unique
                assert cold.objective == pytest.approx(ref.objective, rel=1e-12, abs=1e-15)
            else:
                assert np.abs(cold.weights - ref.weights).max() <= 1e-10

    def test_row_the_start_violates_falls_back_to_phase1(self, monkeypatch):
        calls = count_phase1(monkeypatch)
        for seed in range(10):
            base = budget_box_problem(np.random.default_rng(seed), 30, 1.0, upper=0.3)
            start = qp._cold_start(base.Q, base.c, *base.eq, base.lower, base.upper)
            j = int(np.argmin(start))
            problem = QpProblem(Q=base.Q, c=base.c, eq=base.eq, lower=0.0, upper=0.3,
                                ineq=(np.eye(30)[[j]], [start[j] + 0.1]))
            ref = solve_qp(problem, x0=qp.feasible_point(problem))
            del calls[:]
            cold = solve_qp(problem)
            assert len(calls) == 1
            assert cold.weights[j] >= start[j] + 0.1 - 1e-9
            assert np.abs(cold.weights - ref.weights).max() <= 1e-10
            assert_kkt(problem, cold)

    def test_budget_beyond_the_box_is_still_infeasible(self, monkeypatch):
        calls = count_phase1(monkeypatch)
        problem = budget_box_problem(np.random.default_rng(2), 10, 1.0, upper=0.09)
        with pytest.raises(errors.Infeasible):
            solve_qp(problem)
        assert len(calls) == 1

    def test_n200_takes_few_iterations(self):
        # from phase 1's point (1/n in every weight) all 200 weights are
        # free and the active set fixes one bound per step: about 190 steps
        problem = budget_box_problem(np.random.default_rng(0), 200, 1.0, upper=0.15)
        rep = solve_qp(problem)
        assert rep.iterations < 100
        assert_kkt(problem, rep)


class TestNonFiniteData:
    """A NaN in Q once returned ``converged`` with a NaN objective and a NaN
    in c ran the active set to its iteration cap; both are input errors."""

    @staticmethod
    def problem(**change):
        data = dict(Q=np.eye(2), c=np.zeros(2), eq=(np.ones((1, 2)), [1.0]),
                    ineq=(np.array([[1.0, -1.0]]), [-1.0]), lower=0.0, upper=1.0)
        data.update(change)
        return data

    @pytest.mark.parametrize("field,change", [
        ("Q", dict(Q=np.array([[1.0, 0.0], [0.0, np.nan]]))),
        ("Q", dict(Q=np.array([[np.inf, 0.0], [0.0, 1.0]]))),
        ("c", dict(c=np.array([0.0, np.nan]))),
        ("eq", dict(eq=(np.array([[1.0, np.nan]]), [1.0]))),
        ("eq", dict(eq=(np.ones((1, 2)), [np.inf]))),
        ("ineq", dict(ineq=(np.array([[1.0, -1.0]]), [np.nan]))),
        ("lower bound", dict(lower=np.array([0.0, np.nan]))),
        ("upper bound", dict(upper=np.nan)),
    ], ids=["Q_nan", "Q_inf", "c", "eq_a", "eq_b", "ineq_h", "lower", "upper"])
    def test_problem_rejects(self, field, change):
        with pytest.raises(ValueError, match=f"^{field} must"):
            QpProblem(**self.problem(**change))

    def test_infinite_bounds_allowed(self):
        rep = solve_qp(QpProblem(**self.problem(lower=-np.inf, upper=np.array([np.inf, 1.0]))))
        assert rep.converged

    def test_solve_penalized_qp_route(self):
        from roboalloc.admm import solve_penalized
        from roboalloc.mvo import ConstraintSet
        cons = ConstraintSet(budget=1.0, lower=np.zeros(4), upper=np.ones(4))
        with pytest.raises(ValueError, match="^c must"):
            solve_penalized(np.eye(4), np.array([0.1, np.nan, 0.2, 0.3]), None, [], cons)

    def test_solve_gamma_problem(self, four_asset):
        from roboalloc.mvo import ConstraintSet, MvoInputs, solve_gamma_problem
        mu, _, _, sigma = four_asset
        with pytest.raises(ValueError, match="^c must"):
            solve_gamma_problem(MvoInputs(mu=np.where(mu > 0.09, np.nan, mu), sigma=sigma),
                                0.25, ConstraintSet(budget=1.0))


class TestAugmentL1:
    def test_zero_penalty_reduces_to_base(self, four_asset):
        mu, _, _, sigma = four_asset
        base = QpProblem(Q=sigma, c=-0.25 * mu, eq=(np.ones((1, 4)), [1.0]))
        aug = augment_l1(base, np.eye(4), 0.0, np.zeros(4))
        assert aug.n == 12
        rep_base = solve_qp(base)
        rep_aug = solve_qp(aug)
        assert np.allclose(rep_aug.weights[:4], rep_base.weights, atol=1e-8)

    def test_one_dimensional_shrink_by_hand(self):
        # min 0.5 x^2 + 0.3 |x - 1|: stationarity gives x = 0.3
        base = QpProblem(Q=np.eye(1), c=np.zeros(1))
        rep = solve_qp(augment_l1(base, np.eye(1), 0.3, np.array([1.0])))
        assert rep.weights[0] == pytest.approx(0.3, abs=1e-10)
        # grid oracle
        grid = np.linspace(-1, 2, 30001)
        vals = 0.5 * grid ** 2 + 0.3 * np.abs(grid - 1.0)
        assert abs(grid[vals.argmin()] - rep.weights[0]) <= 1e-4

    def test_split_parts_complementary(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        x0 = np.array([0.4, 0.3, 0.2, 0.1])
        base = QpProblem(Q=sigma, c=-0.25 * mu, eq=(np.ones((1, 4)), [1.0]))
        rep = solve_qp(augment_l1(base, np.eye(4), 5e-4, x0))
        x, dm, dp = rep.weights[:4], rep.weights[4:8], rep.weights[8:]
        assert np.abs(dm * dp).max() <= 1e-8
        assert np.allclose(dm, np.maximum(0.0, x0 - x), atol=1e-8)
        assert np.allclose(dp, np.maximum(0.0, x - x0), atol=1e-8)

    def test_zero_curvature_block_takes_the_nullspace_step(self, four_asset_alt,
                                                         monkeypatch):
        mu, _, _, sigma = four_asset_alt
        x0 = np.array([0.4, 0.3, 0.2, 0.1])
        base = QpProblem(Q=sigma, c=-0.25 * mu, eq=(np.ones((1, 4)), [1.0]))
        aug = augment_l1(base, np.eye(4), 5e-4, x0)
        calls = []
        reduced_step = qp._reduced_step

        def counted(*args):
            calls.append(1)
            return reduced_step(*args)

        monkeypatch.setattr(qp, "_reduced_step", counted)
        # both halves of the split strictly positive: Q_FF has zero blocks
        rep = solve_qp(aug, x0=np.concatenate([x0, np.full(4, 0.1), np.full(4, 0.1)]))
        assert calls
        assert rep.meta["degenerate_hessian"] is True
        assert np.allclose(rep.weights, solve_qp(aug).weights, atol=1e-9)
        assert_kkt(aug, rep)

    def test_negative_entries_rejected(self):
        base = QpProblem(Q=np.eye(2), c=np.zeros(2))
        with pytest.raises(errors.NegativeGammaEntries):
            augment_l1(base, np.array([[1.0, -0.5], [0.0, 1.0]]), 0.1, np.zeros(2))

    def test_diagonal_cost_matrix_prices_the_norm(self, four_asset_alt):
        # with per-asset unit costs the augmented objective equals the exact
        # weighted L1 penalty, so the optimum satisfies its stationarity
        mu, _, _, sigma = four_asset_alt
        costs = np.diag([0.5, 1.0, 1.5, 2.0])
        rho1 = 2e-3
        x0 = np.array([0.4, 0.3, 0.2, 0.1])
        base = QpProblem(Q=sigma, c=-0.25 * mu, eq=(np.ones((1, 4)), [1.0]))
        rep = solve_qp(augment_l1(base, costs, rho1, x0))
        x = rep.weights[:4]
        penalty_grad = rho1 * np.diag(costs) * np.sign(x - x0)
        grad = sigma @ x - 0.25 * mu + penalty_grad
        active = np.abs(x - x0) > 1e-9
        # on the non-sparse components the full gradient must be a budget dual
        vals = grad[active]
        assert np.ptp(vals) <= 1e-8
