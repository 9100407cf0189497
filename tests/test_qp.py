import itertools
import json
import sys
import threading
import weakref

import numpy as np
import pytest

from roboalloc import ConstraintSet, RoboConfig, errors, qp, rebalance
from roboalloc.cli import main
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
        assert np.abs(a @ x - b).max(initial=0.0) <= 1e-9
    if problem.ineq is not None:
        g, h = problem.ineq
        stat = stat - g.T @ duals["ineq"]
        assert (g @ x - h).min(initial=0.0) >= -1e-9
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


def least_squares_multipliers(grad, rows, free):
    """The least-squares multipliers ``y`` of ``grad + rows'y = 0`` over the
    ``free`` variables, one column per column of ``grad``."""
    if rows.shape[0] and free.any():
        return np.linalg.lstsq(rows[:, free].T, -grad[free], rcond=None)[0]
    return np.zeros(rows.shape[:1] + grad.shape[1:])


def count_calls(monkeypatch, name):
    """A list that grows by one entry per call of ``qp``'s function ``name``."""
    calls = []
    function = getattr(qp, name)

    def counted(*args):
        calls.append(1)
        return function(*args)

    monkeypatch.setattr(qp, name, counted)
    return calls


def kkt_widths(monkeypatch):
    """A list that grows by the width of the free block of each ``qp._kkt``
    call."""
    widths, kkt = [], qp._kkt

    def recorded(q_ff, c_f, g_f, gap=None):
        widths.append(c_f.shape[1])
        return kkt(q_ff, c_f, g_f, gap)

    monkeypatch.setattr(qp, "_kkt", recorded)
    return widths


def record_kkt(monkeypatch):
    """A list that grows by one entry per ``qp._kkt`` call: ``True`` where
    its LU was refused and an SVD solved the system."""
    svd = []
    kkt = qp._kkt

    def recorded(*args):
        out = kkt(*args)
        svd.append(out[3] is not None)
        return out

    monkeypatch.setattr(qp, "_kkt", recorded)
    return svd


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
        # from equal weights, a feasible start that is not optimal: the
        # refined cold start is already at the answer
        cold = solve_qp(problem, x0=np.full(40, 1 / 40))
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
        # multiplier test, so it makes fewer KKT solves than iterations, and
        # reads the last step's row multipliers, exact at the point it
        # reached, with no least squares.  It starts at equal weights, which
        # are feasible but not optimal: the refined cold start is optimal
        steps, kkt = [], qp._kkt

        def recorded(*args):
            steps.append(kkt(*args))
            return steps[-1]

        monkeypatch.setattr(qp, "_kkt", recorded)
        problem = budget_box_problem(np.random.default_rng(0), 20, 1.0, upper=0.3)
        rep = solve_qp(problem, x0=np.full(20, 0.05))
        assert len(steps) < rep.iterations
        assert all(null is None for *_, null in steps)
        assert np.array_equal(rep.duals["eq"], steps[-1][1])
        assert_kkt(problem, rep)

    @pytest.mark.parametrize("seed,rows,lifted", [
        pytest.param(71, 1, False, id="71"), pytest.param(72, 1, False, id="72"),
        pytest.param(95, 1, False, id="95"), pytest.param(71, 2, False, id="71-two_rows"),
        pytest.param(72, 3, False, id="72-three_rows"), pytest.param(95, 1, True, id="95-lifted"),
        pytest.param(71, 2, True, id="71-two_rows-lifted"),
        pytest.param(72, 3, True, id="72-three_rows-lifted")])
    def test_rank_two_hessian_keeps_the_rows(self, seed, rows, lifted):
        # a singular Q_FF whose KKT matrix is nonsingular factors on the
        # bordered LU; a Cholesky factor of Q_FF alone had pivots down to
        # about 1e-10 of the largest, and its steps broke the budget by 0.04
        # to 0.17.  Extra equality rows pass through an interior point, and
        # ``augment_l1`` adds a zero-curvature block of 26 split variables
        rng = np.random.default_rng([seed, 13])
        f = rng.standard_normal((13, 2))
        a = np.vstack([np.ones((1, 13)), rng.standard_normal((rows - 1, 13))])
        inside = np.full(13, 1.0 / 13) + 0.05 * rng.standard_normal(13)
        inside -= (inside.sum() - 1.0) / 13
        problem = QpProblem(Q=f @ f.T, c=rng.standard_normal(13),
                            eq=(a, a @ inside), lower=-0.5, upper=0.8)
        if lifted:
            problem = augment_l1(problem, np.eye(13), 0.1, inside + 0.05 * rng.standard_normal(13))
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

    def test_indefinite_q_is_refused_where_the_solve_stops(self, monkeypatch):
        # a negative eigenvalue: the active set runs to its cap, and the
        # failed solve names the least eigenvalue instead of MaxIterations
        problem = QpProblem(Q=np.diag([0.04, 0.09, -0.05, 0.02]),
                            c=-np.array([0.05, 0.06, 0.07, 0.04]),
                            eq=(np.ones((1, 4)), [1.0]), lower=0.0, upper=1.0)
        calls = count_calls(monkeypatch, "refuse_indefinite")
        with pytest.raises(errors.NotPositiveSemidefinite, match="-5.000e-02"):
            solve_qp(problem)
        assert len(calls) == 1

    @staticmethod
    def large_entry_rows():
        """Rows 1e6 (x_0 - x_1) >= 0 and 1e6 (x_2 - x_3) >= 0 beside L1 rows
        at 1/6, with a positive definite Q."""
        rng = np.random.default_rng([121, 5])
        f = rng.standard_normal((6, 6))
        g = 10.0 ** rng.integers(0, 7) * np.array([[1.0, -1.0, 0, 0, 0, 0],
                                                   [0, 0, 1.0, -1.0, 0, 0]])
        c = rng.standard_normal(6) + [1.0, 0.0, 1.0, 0.0, 0.0, 0.0]
        problem = QpProblem(Q=f @ f.T / 6 + 1e-3 * np.eye(6), c=c, eq=(np.ones((1, 6)), [1.0]),
                            ineq=(g, [0.0, 0.0]), lower=-1.0, upper=1.0,
                            l1=(np.eye(6), np.full(6, 1.0 / 6), 0.01))
        assert np.abs(g).max() == 1e6
        return problem

    def test_large_entry_rows_converge_from_a_cold_start(self):
        # this cold solve once ran to its cap of 2,800 iterations
        problem = self.large_entry_rows()
        rep = solve_qp(problem)
        assert rep.converged and rep.iterations <= 9
        assert max(rep.r_norm, rep.s_norm) <= 1e-12
        ref = solve_qp(problem, x0=qp.feasible_point(problem))
        assert np.abs(rep.weights - ref.weights).max() <= 1e-10

    def test_convex_problem_at_its_cap_still_raises_max_iterations(self, monkeypatch):
        # the problem above with its cap below the 9 iterations it needs
        problem = self.large_entry_rows()
        problem.max_iter = 5
        calls = count_calls(monkeypatch, "refuse_indefinite")
        with pytest.raises(errors.MaxIterations):
            solve_qp(problem)
        assert len(calls) == 1

    def test_finished_solves_take_no_eigendecomposition(self, monkeypatch):
        calls = count_calls(monkeypatch, "refuse_indefinite")
        rng = np.random.default_rng(44)
        for n in (10, 20, 60):
            problem = budget_box_problem(rng, n, 0.5)
            assert solve_qp(problem).converged
            assert solve_qp(augment_l1(problem, np.eye(n), 1e-3, np.full(n, 1.0 / n))).converged
        assert calls == []

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
        calls = count_calls(monkeypatch, "_bland")
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


class TestFactoredMultipliers:
    """A factored KKT solve returns the rows' multipliers with the step,
    exact at the point the step reaches, so the active set and the walk
    need no least-squares solve for them."""

    @staticmethod
    def working_set(kind, seed):
        """``(Q, rows, free)``: a seeded working set of 12 weights, the rows
        stacked as ``_active_set`` stacks them (equalities, then the general
        kink rows at their kinks: L1 rows or active inequalities)."""
        rng = np.random.default_rng([seed, 21])
        n = 12
        rows, free = np.ones((1, n)), np.ones(n, dtype=bool)
        if kind == "box":
            free[rng.choice(n, 5, replace=False)] = False
        elif kind == "inequalities":
            rows = np.vstack([rows, -rng.normal(size=(3, n))])
            free[rng.choice(n, 2, replace=False)] = False
        elif kind == "l1_kinks":
            general = rng.normal(size=(3, n)) * (rng.random((3, n)) < 0.5)
            rows = np.vstack([rows, general])
            free[rng.choice(n, 3, replace=False)] = False
        return random_spd(rng, n), rows, free

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind", ["budget", "box", "inequalities", "l1_kinks"])
    def test_match_least_squares(self, kind, seed):
        q, rows, free = self.working_set(kind, seed)
        grads = np.random.default_rng([seed, 22]).normal(size=(q.shape[0], 2))
        idx = np.flatnonzero(free)
        c_f = rows[:, idx]
        p, y, _, null = qp._kkt(q[np.ix_(idx, idx)], c_f, grads[idx])
        assert null is None
        # the least squares at the points the steps reach, one per column
        ref = least_squares_multipliers(grads + q[:, idx] @ p, rows, free)
        np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())
        # the active set's one-column step gives the same multipliers
        step, y_step, *_ = qp._kkt(q[np.ix_(idx, idx)], c_f, grads[idx, 0])
        np.testing.assert_allclose(step, p[:, 0], rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(y_step, y[:, 0], rtol=0.0, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("free", [1, 3])
    def test_rows_pinning_the_block_take_one_lu(self, free, seed):
        # one free weight under the budget row, or three under three rows:
        # the step is zero, or lands on the rows with a gap, and y solves
        # C_F'y = -g_F at the point it reaches, with no SVD
        rng = np.random.default_rng([seed, 25])
        q_ff, g_f = random_spd(rng, free), rng.normal(size=free)
        c_f = np.ones((1, 1)) if free == 1 else rng.normal(size=(3, 3))
        p, y, flat, null = qp._kkt(q_ff, c_f, g_f)
        assert not p.any() and (flat, null) == (False, None)
        ref = least_squares_multipliers(g_f, c_f, np.ones(free, dtype=bool))
        np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())
        assert np.abs(g_f + c_f.T @ y).max() <= 1e-12 * np.abs(g_f).max()
        gap = rng.normal(size=free)
        p, y, _, null = qp._kkt(q_ff, c_f, g_f, gap)
        np.testing.assert_allclose(c_f @ p, gap, rtol=0.0, atol=1e-12)
        ref = least_squares_multipliers(g_f + q_ff @ p, c_f, np.ones(free, dtype=bool))
        np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())
        assert null is None

    def test_one_free_weight_under_the_budget_row_factors(self):
        # the bordered matrix [[q, 1], [1, 0]] is nonsingular: the step is
        # exactly zero and the budget multiplier is -g
        p, y, _, null = qp._kkt(np.array([[0.04]]), np.ones((1, 1)), np.array([0.3]))
        assert null is None
        assert p.tolist() == [0.0]
        np.testing.assert_allclose(y, [-0.3], rtol=1e-15)

    def test_calibrate_gamma_takes_no_least_squares_solve(self, monkeypatch):
        from roboalloc.mvo import ConstraintSet, MvoInputs, calibrate_gamma, solve_gamma_problem
        base = budget_box_problem(np.random.default_rng(40), 40, 1.0)
        inputs = MvoInputs(mu=-base.c, sigma=base.Q)
        cons = ConstraintSet(budget=1.0, lower=0.0, upper=0.15)
        x = solve_gamma_problem(inputs, 1.0, cons).weights
        target = float(np.sqrt(x @ base.Q @ x))
        svd = record_kkt(monkeypatch)
        _, rep = calibrate_gamma(inputs, cons, target_vol=target)
        assert svd and not any(svd)
        x = rep.weights
        assert np.sqrt(x @ base.Q @ x) == pytest.approx(target, abs=1e-9)


def reference_nullspace(a, n):
    """Orthonormal basis of the nullspace of ``a`` (identity if no rows),
    with ``qp``'s singularity tolerance on the singular values."""
    if a.shape[0] == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > qp._SINGULAR * max(s[0], 1.0))) if s.size else 0
    return vt[rank:].T


def reference_reduced_step(q, grad, basis):
    """Minimizing step within the nullspace ``basis`` of the rows, from an
    eigendecomposition of the reduced Hessian: ``(p, flat, degenerate)``,
    ``flat`` for a zero-curvature descent (the direction alone) and
    ``degenerate`` for a singular reduced Hessian."""
    if basis.shape[1] == 0:
        return np.zeros(q.shape[0]), False, False
    h = basis.T @ q @ basis
    h = 0.5 * (h + h.T)
    g_r = basis.T @ grad
    lam, vec = np.linalg.eigh(h)
    scale = max(lam.max(), 1.0) if lam.size else 1.0
    positive = lam > 1e-12 * scale
    degenerate = not positive.all()
    g_modes = vec.T @ g_r
    flat_component = np.where(positive, 0.0, g_modes)
    if np.linalg.norm(flat_component) > 1e-10 * max(1.0, np.linalg.norm(g_r)):
        return basis @ (-vec @ flat_component), True, degenerate
    y = -vec @ np.where(positive, g_modes / np.where(positive, lam, 1.0), 0.0)
    return basis @ y, False, degenerate


def nullspace_step(q_ff, g_f, c_f, gap=None):
    """The free step by the nullspace method, ``(p, flat, degenerate)``: with
    a gap, the least-squares step onto the rows and the reduced step from
    there.  A flat step is the zero-curvature direction alone, read off
    ``g_f`` (``Q_FF`` adds nothing along zero curvature)."""
    basis = reference_nullspace(c_f, g_f.size)
    p, flat, degenerate = reference_reduced_step(q_ff, g_f, basis)
    if flat or gap is None:
        return p, flat, degenerate
    onto = np.linalg.lstsq(c_f, gap, rcond=None)[0]
    return onto + reference_reduced_step(q_ff, g_f + q_ff @ onto, basis)[0], flat, degenerate


def singular_block(kind, scale, seed):
    """``(Q_FF, C_F)``, a seeded free block whose bordered KKT matrix is
    singular, ``Q_FF`` times ``scale`` against unit-scale rows."""
    rng = np.random.default_rng([seed, 31])
    if kind == "dependent_rows":  # a fourth row in the span of three
        c_f = rng.normal(size=(3, 8))
        c_f, q_ff = np.vstack([c_f, rng.normal(size=3) @ c_f]), random_spd(rng, 8)
    elif kind == "pinning_rows":  # six rows of rank four on four weights
        c_f = rng.normal(size=(6, 4))
        c_f, q_ff = np.vstack([c_f[:4], rng.normal(size=(2, 4)) @ c_f[:4]]), random_spd(rng, 4)
    elif kind == "zero_curvature":  # rank-two Q_FF under two rows: four flat directions
        f = rng.normal(size=(8, 2))
        q_ff, c_f = f @ f.T, rng.normal(size=(2, 8))
    elif kind == "lifted":  # augment_l1's rows over (x, d-, d+) and the budget
        q_ff = np.zeros((12, 12))
        q_ff[:4, :4] = random_spd(rng, 4)
        c_f = np.vstack([np.hstack([np.eye(4), np.eye(4), -np.eye(4)]),
                         np.concatenate([np.ones(4), np.zeros(8)])])
    else:  # "zero_block": augment_l1's split weights alone, the budget row zero on them
        q_ff = np.zeros((8, 8))
        c_f = np.vstack([np.hstack([np.eye(4), -np.eye(4)]), np.zeros((1, 8))])
    return scale * q_ff, c_f


class TestSingularKkt:
    """Where ``_kkt``'s LU is refused, its minimum-norm least squares of the
    bordered matrix gives the nullspace method's step, the least-squares
    multipliers at the point it reaches, its zero-curvature descent and the
    rows' null directions."""

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("gradient,gap", [
        ("any", False), ("curved", False), ("any", True), ("curved", True), ("two", False)])
    @pytest.mark.parametrize("kind,scale", [
        (kind, scale) for kind in ("dependent_rows", "pinning_rows", "zero_curvature", "lifted")
        for scale in (1.0, 1e8, 1e-8)] + [("zero_block", 1.0)])
    def test_matches_the_nullspace_method(self, kind, scale, gradient, gap, seed):
        q_ff, c_f = singular_block(kind, scale, seed)
        rows, free = c_f.shape
        rng = np.random.default_rng([seed, 32])
        # a curved gradient has no part along zero curvature: Q_FF a + C_F'b
        curved = q_ff @ rng.normal(size=free) / scale + c_f.T @ rng.normal(size=rows)
        g_f = {"any": rng.normal(size=free), "curved": curved,
               "two": np.column_stack([rng.normal(size=free), curved])}[gradient]
        gap = rng.normal(size=rows) if gap else None
        p, y, flat, null_y = qp._kkt(q_ff, c_f, g_f, gap)
        assert null_y is not None
        # the null vectors (u, v) are orthonormal: their u-parts, the directions
        # of zero curvature, hold what their v-parts do not
        degenerate = null_y.shape[1] - (null_y ** 2).sum() > 0.5
        p, y, flat = p.reshape(free, -1), y.reshape(rows, -1), np.atleast_1d(flat)
        for j, g in enumerate(g_f.reshape(free, -1).T):
            ref, ref_flat, ref_degenerate = nullspace_step(q_ff, g, c_f, gap)
            assert (flat[j], degenerate) == (ref_flat, ref_degenerate)
            np.testing.assert_allclose(p[:, j], ref, rtol=0.0, atol=1e-10 * np.abs(ref).max())
            if ref_flat:  # a descent of zero curvature along the rows
                size = np.abs(p[:, j]).max()
                assert np.abs(c_f @ p[:, j]).max() <= 1e-10 * size * np.abs(c_f).max()
                assert np.abs(q_ff @ p[:, j]).max() <= 1e-10 * size * np.abs(q_ff).max()
                assert g @ p[:, j] < 0.0
            else:  # the multipliers at the point the step reaches, to 1e-10 of
                # the terms they balance in C_F'y = -(g + Q_FF p) before these cancel
                terms = max(np.abs(g).max(), np.abs(q_ff).max() * np.abs(p[:, j]).max())
                ref = least_squares_multipliers(g + q_ff @ p[:, j], c_f, np.ones(free, dtype=bool))
                np.testing.assert_allclose(y[:, j], ref, rtol=0.0,
                                           atol=1e-10 * max(np.abs(ref).max(), terms))
        # the y-parts of the null vectors span the rows' null directions
        basis = reference_nullspace(c_f.T, rows)
        np.testing.assert_allclose(null_y @ null_y.T, basis @ basis.T, rtol=0.0, atol=1e-10)


class TestScaledKkt:
    """``_kkt`` scales the rows to the curvature and tests its pivots against
    the largest, so the units of the data do not decide whether its LU is
    refused."""

    @pytest.mark.parametrize("scale", [1e-8, 1e4])
    def test_scaled_budget_box_takes_no_svd(self, scale, monkeypatch):
        # with Σ and μ scaled by 1e-8 a pivot test against max(pivot, 1)
        # refused the cold start's factor on 9 of these 10 seeds
        for seed in range(10):
            base = budget_box_problem(np.random.default_rng(seed), 50, 1.0)
            ref = solve_qp(base)
            svd = record_kkt(monkeypatch)
            rep = solve_qp(QpProblem(Q=scale * base.Q, c=scale * base.c, eq=base.eq,
                                     lower=base.lower, upper=base.upper))
            monkeypatch.undo()
            assert svd and not any(svd)
            assert rep.iterations == ref.iterations
            assert np.abs(rep.weights - ref.weights).max() <= 1e-12

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_rows_scaled_back_in_the_multipliers(self, scale):
        # the same block at any scale of Q_FF: one LU, and y in the units of
        # the unscaled rows
        q, rows, free = TestFactoredMultipliers.working_set("inequalities", 0)
        idx = np.flatnonzero(free)
        g_f = np.random.default_rng(23).normal(size=idx.size)
        p, y, _, null = qp._kkt(scale * q[np.ix_(idx, idx)], rows[:, idx], scale * g_f)
        ref_p, ref_y, _, _ = qp._kkt(q[np.ix_(idx, idx)], rows[:, idx], g_f)
        assert null is None
        np.testing.assert_allclose(p, ref_p, rtol=0.0, atol=1e-12 * np.abs(ref_p).max())
        np.testing.assert_allclose(y, scale * ref_y, rtol=0.0, atol=1e-12 * scale * np.abs(ref_y).max())


class TestKinks:
    @staticmethod
    def settle_one(kinks, side, x, j):
        """One weight's rule, the reference for ``_Kinks.settle``."""
        on = kinks.single[kinks.col == j]
        off = kinks.g[on, j] * x[j] - kinks.d[on]
        side[on] = np.where(np.abs(off) <= qp._CERT_TOL * np.maximum(1.0, np.abs(kinks.d[on])),
                            0.0, np.sign(off))

    @staticmethod
    def release_one(kinks, side, j, up):
        """One weight's rule, the reference for ``_Kinks.release``."""
        on = kinks.single[(kinks.col == j) & (side[kinks.single] == 0.0)]
        side[on] = (1.0 if up else -1.0) * np.sign(kinks.g[on, j])

    @pytest.mark.parametrize("seed", range(5))
    def test_several_weights_at_once_match_one_at_a_time(self, seed):
        # up to three single rows per weight, of either sign, and general rows
        rng = np.random.default_rng([seed, 23])
        n = 10
        cols = rng.integers(0, n, 20)
        g = np.zeros((24, n))
        g[np.arange(20), cols] = rng.choice([-2.0, -1.0, 0.5, 1.0], 20)
        g[20:] = rng.normal(size=(4, n))
        d = rng.normal(size=24)
        rho = rng.uniform(0.1, 1.0, 24)
        kinks = qp._Kinks(g, d, -rho, rho)
        x = rng.normal(size=n)
        x[cols[:5]] = d[:5] / g[np.arange(5), cols[:5]]  # weights at a kink of theirs
        side = rng.choice([-1.0, 0.0, 1.0], 24)
        moved = rng.choice(n, 6, replace=False)
        up = rng.random(6) < 0.5
        batch, loop = side.copy(), side.copy()
        kinks.settle(batch, x, moved)
        for j in moved:
            self.settle_one(kinks, loop, x, j)
        assert np.array_equal(batch, loop)
        assert (batch[:20] == 0.0).any()
        kinks.release(batch, moved, up)
        for j, u in zip(moved, up):
            self.release_one(kinks, loop, j, u)
        assert np.array_equal(batch, loop)

    def test_one_build_per_problem(self, monkeypatch):
        # the solve, its certificate and a walk share the problem's instance
        rng = np.random.default_rng(24)
        base = budget_box_problem(rng, 12, 1.0, upper=0.3)
        anchor = rng.dirichlet(np.ones(12))
        problem = QpProblem(Q=base.Q, c=base.c, eq=base.eq, lower=0.0, upper=0.3,
                            l1=(np.eye(12), anchor, 1e-3))
        builds = count_calls(monkeypatch, "_Kinks")
        rep = solve_qp(problem)
        pieces = list(qp.parametric_path(rep, base.c))
        assert len(builds) == 1 and pieces[-1][4] == np.inf

    @staticmethod
    def rise_fall(at, fixed, reduced, rise, fall, kinks=None, side=None):
        """The reference for ``_one_sided``, the formula the active set used
        before it: into ``rise`` and ``fall`` where ``fixed`` holds, the
        reduced gradient plus the widths of the weights' rows at a kink,
        infinite out of the box."""
        width = 0.0 if kinks is None or not kinks.single.size else np.bincount(
            kinks.col, np.where(side[kinks.single] == 0.0, kinks.width, 0.0), at.size)
        np.add(reduced, width, out=rise, where=fixed)
        np.subtract(width, reduced, out=fall, where=fixed)
        rise[at == qp._UPPER], fall[at == qp._LOWER] = np.inf, np.inf

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("rows", ["none", "general", "single"])
    def test_one_sided_derivatives_match_the_rise_fall_reference(self, seed, rows):
        # every state, single rows of either sign at and off their kinks, up
        # to three per weight: where the reference is finite the derivatives
        # equal it and their slopes are minus the signed slope in t; where it
        # is +inf the weight cannot leave that way, and the derivative is
        # never negative and its slope 0, so it is never an event
        rng = np.random.default_rng([seed, 47])
        n = 16
        at = rng.choice([qp._LOWER, qp._FREE, qp._UPPER, qp._KINK], n)
        at[:4] = [qp._LOWER, qp._FREE, qp._UPPER, qp._KINK]
        kinks = side = None
        if rows != "none":
            m = 24 if rows == "single" else 0
            cols = rng.integers(0, n, m)
            g = np.zeros((m + 3, n))
            g[np.arange(m), cols] = rng.choice([-2.0, -1.0, 0.5, 1.0], m)
            g[m:] = rng.normal(size=(3, n))
            rho = rng.uniform(0.1, 1.0, m + 3)
            kinks = qp._Kinks(g, rng.normal(size=m + 3), -rho, rho)
            side = rng.choice([-1.0, 0.0, 1.0], m + 3)
        reduced = rng.normal(size=(n, 2))
        rise, fall = np.full(n, np.inf), np.full(n, np.inf)
        self.rise_fall(at, at != qp._FREE, reduced[:, 0], rise, fall, kinks, side)
        reference = np.stack([rise, fall])
        slope = np.stack([-reduced[:, 1], reduced[:, 1]])
        one = qp._one_sided(at, reduced[:, :1], kinks, side)
        both = qp._one_sided(at, reduced, kinks, side)
        assert one.shape == (2, n, 1) and both.shape == (2, n, 2)
        assert np.array_equal(one[..., 0], both[..., 0])
        finite = np.isfinite(reference)
        assert finite.sum() == (at != qp._FREE).sum() + (at == qp._KINK).sum()
        assert np.array_equal(both[..., 0][finite], reference[finite])
        assert np.array_equal(both[..., 1][finite], slope[finite])
        assert (both[..., 0][~finite] >= 0.0).all() and (both[..., 1][~finite] == 0.0).all()
        assert (reference < 0.0).any() and (both[..., 0][~finite] == 0.0).any()
        if rows == "single":
            assert ((side[kinks.single] == 0.0) & (at[kinks.col] != qp._FREE)).any()

    def test_bland_ranks_a_weight_at_a_kink_as_its_kink_row(self):
        # n = 3: weight 0 at the kink of row 0 ranks as row 0's rank 6, after
        # weight 1's fall rank 4, though its own rise rank 0 is lower
        at = np.array([qp._KINK, qp._LOWER, qp._FREE])
        kinks = qp._Kinks(np.eye(3)[[0, 1]], np.zeros(2), -np.ones(2), np.ones(2))
        side = np.array([0.0, 1.0])
        assert qp._bland(np.array([0, 4]), at, side, kinks) == 4
        assert qp._bland(np.array([0, 4]), at, side) == 0

    def test_bland_picks_the_weight_whose_kink_row_ranks_lower(self):
        # rows 1 and 3 hold weight 0 at its kink and row 2 weight 1; row 0 on
        # weight 1 is off its kink and does not count: weight 0 ranks as row 1
        # (7), weight 1 as row 2 (8), so weight 0's fall rank 3 goes before
        # weight 1's rise rank 1
        at = np.array([qp._KINK, qp._KINK, qp._FREE])
        kinks = qp._Kinks(np.eye(3)[[1, 0, 1, 0]], np.zeros(4), -np.ones(4), np.ones(4))
        side = np.array([1.0, 0.0, 0.0, 0.0])
        assert qp._bland(np.array([1, 3]), at, side, kinks) == 3


def enumerate_l1(problem):
    """Brute-force optimum of a problem with L1 rows: each row on one side of
    its kink (a linear term and an inequality) or at it (an equality), each
    such smooth problem solved by ``enumerate_active_sets``."""
    g1, d, rho = problem.l1
    (a, b), (g, h) = problem.eq, problem.ineq
    best = None
    for signs in itertools.product((-1.0, 0.0, 1.0), repeat=d.size):
        s = np.array(signs)
        at, off = s == 0.0, s != 0.0
        found = enumerate_active_sets(
            problem.Q, problem.c + g1.T @ (rho * s), np.vstack([a, g1[at]]),
            np.concatenate([b, d[at]]), np.vstack([g, s[off, None] * g1[off]]),
            np.concatenate([h, s[off] * d[off]]), problem.lower, problem.upper)
        if found is not None:
            x = found[1]
            value = 0.5 * x @ problem.Q @ x + problem.c @ x + rho @ np.abs(g1 @ x - d)
            if best is None or value < best[0] - 1e-12:
                best = (value, x)
    return best[1]


class TestInequalityRowsAtKinks:
    """An inequality row ``g'x >= h`` meets L1 rows at their kinks: each case
    is solved cold and warm (from phase 1's point) and checked against an
    oracle that does not run the L1 active set, with its inequality
    multipliers nonnegative, complementary and certified."""

    Q = np.array([[0.04, 0.006, 0.0, 0.002], [0.006, 0.09, 0.01, 0.0],
                  [0.0, 0.01, 0.16, 0.004], [0.002, 0.0, 0.004, 0.05]])
    BUDGET = (np.ones((1, 4)), [1.0])
    ANCHOR = np.array([0.3, 0.2, 0.3, 0.2])

    @staticmethod
    def solve(problem, start):
        x0 = None if start == "cold" else qp.feasible_point(problem)
        rep = solve_qp(problem, x0)
        (g, h), lam = problem.ineq, rep.duals["ineq"]
        assert rep.converged and max(rep.r_norm, rep.s_norm) <= 1e-12
        assert lam.min(initial=0.0) >= 0.0
        assert np.abs(lam * (g @ rep.weights - h)).max(initial=0.0) <= 1e-12
        return rep

    @staticmethod
    def lifted(problem, rho, anchor=ANCHOR):
        """The answer of ``augment_l1``'s lift of ``problem``'s smooth part
        with L1 rows ``rho |x - anchor|``, solved by ``solve_qp``."""
        base = QpProblem(Q=problem.Q, c=problem.c, eq=problem.eq, ineq=problem.ineq,
                         lower=problem.lower, upper=problem.upper)
        return solve_qp(augment_l1(base, np.eye(problem.n), rho, anchor)).weights[:problem.n]

    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_weight_at_its_kink_with_an_active_row_on_it(self, start):
        # weight 0 is pulled below its anchor 0.3 by more than rho, and the
        # row x_0 >= 0.3 holds it there: its L1 row and the row both sit at
        # their kinks, and the row's multiplier takes the rest of the pull
        rho = 0.002
        problem = QpProblem(Q=self.Q, c=np.array([0.05, -0.02, -0.03, -0.01]),
                            eq=self.BUDGET, ineq=(np.eye(4)[:1], [0.3]), lower=0.0,
                            upper=1.0, l1=(np.eye(4), self.ANCHOR, rho))
        rep = self.solve(problem, start)
        assert rep.weights[0] == pytest.approx(0.3, abs=1e-14)
        assert rep.duals["ineq"][0] > 0.05
        np.testing.assert_allclose(rep.weights, self.lifted(problem, rho), atol=1e-9)

    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_row_and_general_l1_row_on_two_weights_at_their_kinks(self, start):
        # x_0 + x_1 >= 0.6 and 0.01 |x_0 - x_1 - 0.1| pin weights 0 and 1 at
        # (0.35, 0.25); the row binds and the L1 row's multiplier is inside
        problem = QpProblem(Q=self.Q, c=np.array([0.03, 0.02, -0.02, -0.02]), eq=self.BUDGET,
                            ineq=(np.array([[1.0, 1.0, 0.0, 0.0]]), [0.6]), lower=0.0,
                            l1=(np.array([[1.0, -1.0, 0.0, 0.0]]), [0.1], 0.01))
        rep = self.solve(problem, start)
        np.testing.assert_allclose(rep.weights[:2], [0.35, 0.25], atol=1e-14)
        assert rep.duals["ineq"][0] > 0.04
        np.testing.assert_allclose(rep.weights, enumerate_l1(problem), atol=1e-9)

    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_rows_with_large_entries_at_their_kinks_are_certified(self, start):
        # 1e5 (x_0 - x_1) >= 0 and 1e5 (x_2 - x_3) >= 0 bind, and g'x lands
        # 1.5e-11 above the first row's kink, rounding at the size of its terms:
        # both rows count as at their kinks, so the answer is certified
        rng = np.random.default_rng([38, 5])
        f = rng.standard_normal((6, 6))
        g = 1e5 * np.array([[1.0, -1.0, 0, 0, 0, 0], [0, 0, 1.0, -1.0, 0, 0]])
        c = rng.standard_normal(6) + [1.0, 0.0, 1.0, 0.0, 0.0, 0.0]
        problem = QpProblem(Q=f @ f.T / 6 + 1e-3 * np.eye(6), c=c, eq=(np.ones((1, 6)), [1.0]),
                            ineq=(g, [0.0, 0.0]), lower=-1.0, upper=1.0,
                            l1=(np.eye(6), np.full(6, 1.0 / 6), 0.01))
        rep = self.solve(problem, start)
        assert (rep.duals["ineq"] > 1e-6).all()
        np.testing.assert_allclose(rep.weights, self.lifted(problem, 0.01, np.full(6, 1.0 / 6)),
                                   atol=1e-9)

    @pytest.mark.parametrize("h", [0.0, -0.5])
    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_all_zero_row_changes_nothing(self, start, h):
        # 0'x >= h holds everywhere for h <= 0: the answer is the one without
        # the row, and the row's multiplier is zero
        rho = 0.005
        problem = QpProblem(Q=self.Q, c=np.array([0.01, -0.02, -0.03, 0.0]), eq=self.BUDGET,
                            ineq=(np.zeros((1, 4)), [h]), lower=0.0, upper=0.6,
                            l1=(np.eye(4), self.ANCHOR, rho))
        rep = self.solve(problem, start)
        assert rep.duals["ineq"][0] == 0.0
        np.testing.assert_allclose(rep.weights, self.lifted(problem, rho), atol=1e-9)


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
    # rank-deficient: odd seeds put c in the range of Q, even seeds leave a
    # zero-curvature descent that the box stops; half the seeds drop the
    # budget row
    q = b @ b.T
    c = q @ rng.normal(size=n) if seed % 2 else rng.normal(0.05, 0.03, n)
    return QpProblem(Q=q, c=c, eq=budget if seed % 4 < 2 else None, lower=0.0, upper=cap)


class TestColdStart:
    """A cold solve starts at the projected minimizer of the diagonal model,
    with no phase 1 where that point is feasible, and ends at the answer a
    start from phase 1's point reaches."""

    @pytest.mark.parametrize("kind", ["budget_box", "box_only", "infinite_upper",
                                      "mixed_sign_row", "tracking_error", "rank_deficient"])
    def test_matches_a_phase1_start(self, kind, monkeypatch):
        calls = count_calls(monkeypatch, "feasible_point")
        for seed in range(20):
            problem = cold_case(kind, seed)
            ref = solve_qp(problem, x0=qp.feasible_point(problem))
            del calls[:]
            cold = solve_qp(problem)
            assert not calls  # phase 1 runs only when the start fails
            assert_kkt(problem, cold)
            assert_kkt(problem, ref)
            if kind == "rank_deficient":  # the weights need not be unique
                assert cold.objective == pytest.approx(ref.objective, rel=1e-12, abs=1e-15)
            else:
                assert np.abs(cold.weights - ref.weights).max() <= 1e-10

    def test_row_the_start_violates_falls_back_to_phase1(self, monkeypatch):
        # a row on the weight that the start and every refined iterate hold
        # lowest, 0.1 above the highest of them: no point the start tries
        # meets it
        calls, feasible, tried = count_calls(monkeypatch, "feasible_point"), qp._feasible, []

        def recorded(problem, x):
            tried.append(x.copy())
            return feasible(problem, x)

        for seed in range(10):
            base = budget_box_problem(np.random.default_rng(seed), 30, 1.0, upper=0.3)
            start = qp._cold_start(base)
            del tried[:]
            with monkeypatch.context() as m:
                m.setattr(qp, "_feasible", recorded)
                qp._refine_start(base, start)
            highest = np.max([start, *tried], axis=0)
            j = int(np.argmin(highest))
            level = highest[j] + 0.1
            problem = QpProblem(Q=base.Q, c=base.c, eq=base.eq, lower=0.0, upper=0.3,
                                ineq=(np.eye(30)[[j]], [level]))
            ref = solve_qp(problem, x0=qp.feasible_point(problem))
            del calls[:]
            cold = solve_qp(problem)
            assert len(calls) == 1
            assert cold.weights[j] >= start[j] + 0.1 - 1e-9
            assert cold.weights[j] >= level - 1e-9
            assert np.abs(cold.weights - ref.weights).max() <= 1e-10
            assert_kkt(problem, cold)

    def test_budget_beyond_the_box_is_still_infeasible(self, monkeypatch):
        calls = count_calls(monkeypatch, "feasible_point")
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

    def test_n200_factors_no_full_width_block(self, monkeypatch):
        # the start factors nothing, and no refinement round or active-set
        # step frees every weight of a boxed budget problem
        widths = kkt_widths(monkeypatch)
        for seed in range(5):
            problem = budget_box_problem(np.random.default_rng(seed), 200, 1.0, upper=0.15)
            del widths[:]
            rep = solve_qp(problem)
            assert widths and max(widths) < 200
            assert_kkt(problem, rep)


def l1_rebalance(seed, n):
    """A nightly-like rebalance: a tracking-error objective with an L2 pull
    to the strategic book and L1 rows on the strategic and current books,
    budget 1 and a long-only box."""
    rng = np.random.default_rng([seed, 26])
    base = budget_box_problem(rng, n, 0.5, upper=0.2)
    strategic = rng.dirichlet(np.full(n, 5.0))
    current = strategic * np.exp(rng.normal(0.0, 0.3, n))
    current /= current.sum()
    q = base.Q + 0.02 * np.eye(n)
    c = base.c - base.Q @ strategic - 0.02 * strategic
    l1 = (np.vstack([np.eye(n), np.eye(n)]), np.concatenate([strategic, current]),
          np.repeat([5e-4, 2e-4], n))
    return QpProblem(Q=q, c=c, eq=base.eq, lower=0.0, upper=0.2, l1=l1)


class TestRefinedStart:
    """Primal-dual active-set rounds refine the projected cold start; the
    active set still finishes and certifies from the refined point."""

    @pytest.mark.parametrize("n", [5, 20, 50, 200])
    def test_budget_box_matches_a_phase1_start(self, n):
        for seed in range(5):
            problem = budget_box_problem(np.random.default_rng([seed, n]), n, 1.0,
                                         upper=max(0.15, 1.5 / n))
            cold = solve_qp(problem)
            ref = solve_qp(problem, x0=qp.feasible_point(problem))
            assert np.abs(cold.weights - ref.weights).max() <= 1e-10
            assert_kkt(problem, cold)

    @pytest.mark.parametrize("n", [20, 50])
    def test_l1_rebalance_matches_a_phase1_start(self, n):
        for seed in range(5):
            problem = l1_rebalance(seed, n)
            cold = solve_qp(problem)
            ref = solve_qp(problem, x0=qp.feasible_point(problem))
            assert np.abs(cold.weights - ref.weights).max() <= 1e-10
            assert max(cold.r_norm, cold.s_norm) <= 1e-12

    def test_n200_takes_one_step(self, monkeypatch):
        # the rounds reach the answer's bound set; from the projected start
        # alone the active set takes 36 steps
        problem = budget_box_problem(np.random.default_rng(0), 200, 1.0)
        rep = solve_qp(problem)
        assert rep.iterations <= 3
        assert_kkt(problem, rep)
        monkeypatch.setattr(qp, "_refine_start", lambda problem, x: x)
        qp._start.cache_clear()
        assert solve_qp(problem).iterations > 3

    def test_start_whose_prediction_holds_makes_no_solve(self, monkeypatch):
        # with Q a multiple of the identity the projected start is the answer,
        # and the first prediction repeats its states
        rng = np.random.default_rng(27)
        problem = QpProblem(Q=0.04 * np.eye(30), c=rng.normal(0.0, 0.01, 30),
                            eq=(np.ones((1, 30)), [1.0]), lower=0.0, upper=0.2)
        start = qp._cold_start(problem)
        assert ((start > 0.0) & (start < 0.2)).any() and (start == 0.0).any()
        solves = count_calls(monkeypatch, "_kkt")
        assert qp._refine_start(problem, start) is start
        assert not solves
        rep = solve_qp(problem)
        assert rep.iterations == 1
        assert_kkt(problem, rep)

    def test_row_the_refined_start_breaks_keeps_the_projected_start(self, monkeypatch):
        # a row through the projected start that the refined point breaks:
        # the active set starts at the projected point, with no phase 1
        base = budget_box_problem(np.random.default_rng(28), 30, 1.0, upper=0.3)
        start = qp._cold_start(base)
        refined = qp._refine_start(base, start)
        j = int(np.argmax(start - refined))
        assert refined[j] < start[j] - 1e-3
        problem = QpProblem(Q=base.Q, c=base.c, eq=base.eq, lower=0.0, upper=0.3,
                            ineq=(np.eye(30)[[j]], [start[j]]))
        phase1, starts = count_calls(monkeypatch, "feasible_point"), []
        active_set = qp._active_set

        def recorded(problem, x0, max_iter):
            starts.append(x0)
            return active_set(problem, x0, max_iter)

        monkeypatch.setattr(qp, "_active_set", recorded)
        cold = solve_qp(problem)
        assert not phase1 and np.array_equal(starts[0], start)
        monkeypatch.undo()
        ref = solve_qp(problem, x0=qp.feasible_point(problem))
        assert np.abs(cold.weights - ref.weights).max() <= 1e-10
        assert_kkt(problem, cold)


def same_answer(a, b):
    """Whether two reports carry the same weights, duals, status and
    iterations, bit for bit."""
    return (a.status == b.status and a.iterations == b.iterations
            and np.array_equal(a.weights, b.weights)
            and a.duals.keys() == b.duals.keys()
            and all(np.array_equal(a.duals[k], b.duals[k]) for k in a.duals))


def fresh(problem):
    """``solve_qp``'s answer with no cached cold start."""
    qp._start.cache_clear()
    return solve_qp(problem)


def with_current(problem, current):
    """The rebalance ``problem`` of ``l1_rebalance`` around another book."""
    g, d, rho = problem.l1
    n = problem.n
    return QpProblem(Q=problem.Q, c=problem.c, eq=problem.eq, lower=problem.lower,
                     upper=problem.upper, l1=(g, np.concatenate([d[:n], current]), rho))


class TestStartCache:
    """Cold solves of problems that agree in everything the start reads
    share one cached start; the answers are those of an empty cache."""

    def test_accounts_of_one_model_share_one_start(self, monkeypatch):
        model = l1_rebalance(0, 30)
        rng = np.random.default_rng(5)
        accounts = [with_current(model, rng.dirichlet(np.ones(30))) for _ in range(5)]
        expected = [fresh(problem) for problem in accounts]
        qp._start.cache_clear()
        refines = count_calls(monkeypatch, "_refine_start")
        reports = [solve_qp(problem) for problem in accounts]
        assert len(refines) == 1
        info = qp._start.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 4, 1)
        assert all(same_answer(a, b) for a, b in zip(reports, expected))

    def test_the_table_keeps_no_inputs(self):
        problem = l1_rebalance(2, 20)
        q = weakref.ref(problem.Q)
        solve_qp(problem)
        assert qp._start.cache_info().currsize == 1
        del problem
        assert q() is None

    @pytest.mark.parametrize("change", ["c", "lower", "upper", "b"])
    def test_a_changed_input_misses(self, change):
        base = budget_box_problem(np.random.default_rng(3), 20, 1.0)
        c, lower, upper, b = base.c.copy(), np.zeros(20), np.full(20, 0.15), np.ones(1)
        {"c": c, "lower": lower, "upper": upper, "b": b}[change][0] += 0.01
        problem = QpProblem(Q=base.Q, c=c, eq=(base.eq[0], b), lower=lower, upper=upper)
        expected = fresh(problem)
        qp._start.cache_clear()
        solve_qp(base)
        misses = qp._start.cache_info().misses
        assert same_answer(solve_qp(problem), expected)
        assert qp._start.cache_info().misses - misses == 1

    def test_mutated_weights_leave_a_later_hit_alone(self):
        problem = budget_box_problem(np.random.default_rng(4), 20, 1.0)
        first = solve_qp(problem)
        expected = first.weights.copy()
        first.weights[:] = 0.0
        misses = qp._start.cache_info().misses
        again = solve_qp(problem)
        assert qp._start.cache_info().misses == misses
        assert np.array_equal(again.weights, expected)

    def test_one_problem_more_than_the_capacity_evicts_the_oldest(self):
        problems = [QpProblem(Q=np.eye(3), c=[0.0, 0.0, -1e-3 * i], eq=(np.ones((1, 3)), [1.0]),
                              lower=0.0) for i in range(qp._START_CACHE + 1)]
        for problem in problems:
            solve_qp(problem)
        misses = qp._start.cache_info().misses
        solve_qp(problems[-1])
        solve_qp(problems[1])
        assert qp._start.cache_info().misses == misses
        solve_qp(problems[0])
        assert qp._start.cache_info().misses - misses == 1

    def test_threads_get_the_serial_answers(self):
        models = [l1_rebalance(seed, 20) for seed in range(4)]
        rng = np.random.default_rng(6)
        problems = [with_current(models[i % 4], rng.dirichlet(np.ones(20))) for i in range(24)]
        expected = [fresh(problem) for problem in problems]
        qp._start.cache_clear()
        answers = [[None] * len(problems) for _ in range(4)]

        def work(t):
            for i in range(len(problems)):
                i = (i + 5 * t) % len(problems)  # each thread in its own order
                answers[t][i] = solve_qp(problems[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(same_answer(a, b) for row in answers for a, b in zip(row, expected))


class TestRowGap:
    """The active set's KKT solves carry the equality rows' gap, so a cold
    answer ends on its budget row even when the unconstrained minimizer of a
    large ``|c|`` lies far outside the box."""

    @pytest.mark.parametrize("gamma", [1e4, 1e5])
    @pytest.mark.parametrize("seed", range(3))
    def test_high_gamma_answer_ends_on_the_budget_row(self, seed, gamma):
        problem = budget_box_problem(np.random.default_rng([seed, 40]), 40, gamma)
        rep = solve_qp(problem)
        assert abs(rep.weights.sum() - 1.0) <= 1e-14
        assert_kkt(problem, rep)
        ref = solve_qp(problem, x0=qp.feasible_point(problem))
        assert np.abs(rep.weights - ref.weights).max() <= 1e-10

    @pytest.mark.parametrize("rho", [1e-2, 1.0, 1e3])
    @pytest.mark.parametrize("gamma", [1e4, 1e5])
    def test_l1_answer_ends_on_the_budget_row(self, gamma, rho):
        # kinks at a strategic and a current book
        for seed in range(3):
            rng = np.random.default_rng([seed, 41])
            base = budget_box_problem(rng, 40, gamma)
            books = np.concatenate([rng.dirichlet(np.full(40, 5.0)),
                                    rng.dirichlet(np.full(40, 2.0))])
            problem = QpProblem(Q=base.Q, c=base.c, eq=base.eq, lower=0.0, upper=0.15,
                                l1=(np.vstack([np.eye(40), np.eye(40)]), books, rho))
            rep = solve_qp(problem)
            assert abs(rep.weights.sum() - 1.0) <= 1e-14
            assert rep.status == "converged"


class TestCertifiedStatus:
    """A report, plain or on the L1 route, is ``converged`` only when its
    certificate passes; otherwise its status is ``uncertified``."""

    @staticmethod
    def seeded_l1_problem():
        # a single-weight L1 QP on which a Cholesky-and-Schur solve reported
        # ``converged`` at s_norm 3.3e-4, 6.7e-9 above the optimum
        rng = np.random.default_rng([337, 7])
        n = rng.integers(3, 30)
        r = rng.integers(1, n + 1)
        f = rng.standard_normal((n, r))
        q, c = f @ f.T / r, rng.standard_normal(n)
        k = rng.integers(1, 2 * n)
        g = np.eye(n)[rng.integers(0, n, k)]
        d, rho = 0.05 * rng.standard_normal(k), 0.05 * rng.random(k)
        return QpProblem(Q=q, c=c, eq=(np.ones((1, n)), [1.0]), lower=-0.2, upper=0.5,
                         l1=(g, d, rho))

    def test_seeded_problem_is_certified_or_not_converged(self):
        rep = solve_qp(self.seeded_l1_problem())
        assert max(rep.r_norm, rep.s_norm) <= 1e-12 or not rep.converged

    def test_failing_certificate_is_not_converged(self, monkeypatch, tmp_path):
        certificate = qp.certificate

        def failing(*args):
            r_norm, _, lam_lo, lam_up = certificate(*args)
            return r_norm, 1e-3, lam_lo, lam_up

        monkeypatch.setattr(qp, "certificate", failing)
        rep = solve_qp(self.seeded_l1_problem())
        assert rep.status == "uncertified" and not rep.converged
        # the CLI writes the report and exits 2, as on any non-convergence
        problem, out = tmp_path / "p.json", tmp_path / "rep.json"
        problem.write_text(json.dumps({
            "mu": [0.05, 0.07, 0.09], "gamma": 0.5,
            "sigma": [[0.04, 0.01, 0.0], [0.01, 0.09, 0.02], [0.0, 0.02, 0.16]],
            "constraints": {"budget": 1.0, "lower": 0.0, "upper": 0.8},
            "penalties": [{"kind": "l1", "rho": 0.01}]}))
        assert main(["optimize", "--problem", str(problem), "--out", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert doc["status"] == "uncertified" and doc["residuals"]["dual"] == 1e-3

    @staticmethod
    def plain_problem():
        """A budget-box QP with one active inequality row: its answer has
        equality, inequality and bound multipliers."""
        rng = np.random.default_rng([338, 1])
        n = 8
        q = random_spd(rng, n, 0.05)
        g = np.zeros((1, n))
        g[0, :3] = -1.0  # the first three weights hold at most 0.2
        return QpProblem(Q=q, c=-0.1 * rng.random(n) - np.eye(n)[0], eq=(np.ones((1, n)), [1.0]),
                         ineq=(g, [-0.2]), lower=0.0, upper=0.5)

    def test_plain_solve_is_certified(self):
        rep = solve_qp(self.plain_problem())
        assert rep.converged and rep.duals["ineq"][0] > 0.0 and rep.duals["upper"].max() > 0.0
        assert max(rep.r_norm, rep.s_norm) <= 1e-14

    @pytest.mark.parametrize("block", ["eq", "ineq"])
    def test_plain_solve_with_perturbed_multipliers_is_uncertified(self, block, monkeypatch):
        """The active set's multipliers, shifted by 1e-3, fail stationarity:
        the report says so instead of ``converged``."""
        active_set = qp._active_set

        def perturbed(*args):
            x, at, side, it, (nu, mu) = active_set(*args)
            if block == "eq":
                nu = nu + 1e-3
            else:  # every kink row here is an inequality, whose mu is -lam
                mu = mu - 1e-3
            return x, at, side, it, (nu, mu)

        monkeypatch.setattr(qp, "_active_set", perturbed)
        rep = solve_qp(self.plain_problem())
        assert rep.status == "uncertified" and not rep.converged
        assert rep.s_norm >= 1e-3 - 1e-12 and rep.r_norm <= 1e-14


    def test_report_reads_the_answer_not_the_working_set(self):
        """A working set that calls a weight at its lower bound while it
        sits at 0.6 above it: a check that read the bound multipliers off
        that state found ``Qx + c + A'nu - lam_lo`` zero with ``lam_lo =
        0.2``; the certificate, which reads ``x``, finds the weight off its
        bound and the gradient 0.2 there."""
        problem = QpProblem(Q=np.eye(2), c=np.zeros(2), eq=(np.ones((1, 2)), [1.0]),
                            lower=0.0, upper=1.0)
        rep = qp._report(problem, np.array([0.6, 0.4]), np.array([qp._LOWER, qp._FREE]),
                         np.zeros(0), 1, np.array([-0.4]), np.zeros(0))
        assert rep.status == "uncertified" and rep.r_norm == 0.0
        assert rep.s_norm == pytest.approx(0.2, abs=1e-15)
        assert not rep.duals["lower"].any() and not rep.duals["upper"].any()

    def test_certificate_without_kink_rows_gives_bound_duals(self):
        """On a budget-box problem (no L1 or inequality rows) the
        certificate reads the bound multipliers off the data and ``nu``, and
        they are the report's."""
        problem = budget_box_problem(np.random.default_rng(339), 12, 2.0, upper=0.2)
        assert problem._kinks is None
        rep = solve_qp(problem)
        r_norm, s_norm, lam_lo, lam_up = qp.certificate(problem, rep.weights, rep.duals["eq"],
                                                        np.zeros(0), np.zeros(0))
        assert rep.converged and max(r_norm, s_norm) <= 1e-14
        assert lam_lo.max() > 0.0 and lam_up.max() > 0.0
        assert np.array_equal(lam_lo, rep.duals["lower"])
        assert np.array_equal(lam_up, rep.duals["upper"])
        assert_kkt(problem, rep)


def scaled_rebalance(seed, s):
    """A tracking-error rebalance (n 5-39, budget row, box [0, 0.3], gamma
    0.5, turnover L1 rows and a strategic ridge) with ``Q``, ``c`` and both
    penalties in units ``s`` times the first's: the same problem."""
    rng = np.random.default_rng(seed)
    n = 5 + seed % 35
    a = rng.normal(size=(n, n))
    sigma = 0.04 * (a @ a.T / n) + np.diag(rng.uniform(0.01, 0.05, n))
    mu = rng.normal(0.05, 0.03, n)
    strategic, current = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    config = RoboConfig(strategic=strategic, current=current, gamma=0.5,
                        rho1_turnover=2e-3 * s, rho2_strategic=1e-3 * s,
                        constraints=ConstraintSet(budget=1.0, lower=0.0, upper=0.3))
    return rebalance(config, s * mu, s * sigma)


class TestObjectiveScale:
    @pytest.mark.parametrize("s", [1e-8, 1e-6, 1e-5, 1e-4, 1e-2, 1e2, 1e4])
    def test_units_of_the_objective_change_no_answer(self, s):
        # the multiplier test is judged against the dual scale: with an
        # absolute -1e-9 the active set stopped, at s = 1e-8, 1e-6 and 1e-5,
        # on working sets whose wrong-signed multipliers were below it, and
        # 30, 17 and 4 of these 40 answers moved (by up to 0.074), each of
        # them certified
        for seed in range(40):
            base, rep = scaled_rebalance(seed, 1.0), scaled_rebalance(seed, s)
            assert rep.converged and base.converged
            assert np.abs(rep.weights - base.weights).max() <= 1e-9


def warm_probe(kind, seed):
    """A budget-box problem, its cold report and a warm start 5e-10 off it,
    ``None`` where the cold answer has no weight to move.  ``bound``: box
    [0, 0.5] and L1 rows ``eye(n)`` anchored at 1/n, rho 0.01; one weight at
    0 is raised.  ``kink``: box [0, 1], a Dirichlet anchor and rho 0.05; one
    weight at its anchor is raised.  ``plain``: ``bound`` without L1 rows.
    One free weight is lowered by as much, so the budget holds.  Returns
    ``(problem, cold, x0, j, there)``, weight ``j`` raised off ``there``."""
    rng = np.random.default_rng([seed, 11 if kind == "kink" else 9])
    n = int(rng.integers(3, 30))
    f = rng.standard_normal((n, n))
    q = f @ f.T / n + 1e-3 * np.eye(n)
    if kind == "kink":
        c, anchor, upper, rho = 0.05 * rng.standard_normal(n), rng.dirichlet(np.ones(n)), 1.0, 0.05
    else:
        c, anchor, upper, rho = 3.0 * rng.standard_normal(n), np.full(n, 1.0 / n), 0.5, 0.01
    problem = QpProblem(Q=q, c=c, eq=(np.ones((1, n)), [1.0]), lower=0.0, upper=upper,
                        l1=None if kind == "plain" else (np.eye(n), anchor, rho))
    cold = solve_qp(problem)
    x = cold.weights
    at_kink = np.abs(x - anchor) <= 1e-12 if kind != "plain" else np.zeros(n, dtype=bool)
    on = at_kink if kind == "kink" else x <= 1e-12
    free = (x > 1e-12) & (x < upper - 1e-12) & ~at_kink
    if not on.any() or not free.any():
        return None
    x0, j = x.copy(), int(np.argmax(on))
    x0[j] += 5e-10
    x0[np.argmax(free)] -= 5e-10
    return problem, cold, x0, j, anchor[j] if kind == "kink" else 0.0


class TestWarmStartOnBoundsAndKinks:
    """A warm start within the feasibility tolerance of a bound or of a
    weight's kink is read as there and put exactly there, so the answer
    sits where its multipliers say and the certificate passes: a warm start
    5e-10 off the cold answer gives the cold answer, ``converged``.  Left
    5e-10 off, every L1 case here was ``uncertified``."""

    @pytest.mark.parametrize("kind,seed", [
        *(("bound", s) for s in (3, 8, 12, 15, 17, 18, 20, 23, 31, 32)),
        *(("kink", s) for s in range(10)),
        *(("plain", s) for s in (3, 8, 12, 15, 17, 18, 20, 23, 31, 32)),
    ])
    def test_warm_start_gives_the_cold_answer(self, kind, seed):
        problem, cold, x0, j, there = warm_probe(kind, seed)
        rep = solve_qp(problem, x0=x0)
        assert cold.converged and rep.converged and rep.weights[j] == there
        assert np.abs(rep.weights - cold.weights).max() <= 1e-14
        assert all(np.abs(rep.duals[k] - cold.duals[k]).max(initial=0.0) <= 1e-12
                   for k in cold.duals)

    @pytest.mark.parametrize("seed", [4, 8, 9, 17, 20, 101, 164, 176, 185, 208])
    def test_anchor_just_above_a_bound(self, seed):
        """One weight's anchor 5e-10 (or 5e-11) above its lower bound, with
        rho 5 and a linear term pulling that weight up: its optimum is at the
        anchor.  A cold start has the weight at the bound, its row read as
        off its kink; a warm start at the anchors has it at its kink, nearer
        than the bound, and stays there.  Both give one answer, certified
        (cold solves here were ``uncertified`` when the row was read as at its
        kink, and warm ones cycled to ``MaxIterations`` when the weight was
        moved onto its bound)."""
        rng = np.random.default_rng([seed, 17])
        n = int(rng.integers(3, 20))
        f = rng.standard_normal((n, n))
        anchor, k = rng.dirichlet(np.ones(n)), int(rng.integers(n))
        eps = [5e-10, 5e-11][seed % 2]
        anchor[k], anchor[(k + 1) % n] = eps, anchor[(k + 1) % n] - eps
        c = 3.0 * rng.standard_normal(n)
        c[k] = -abs(c[k]) - 0.5
        problem = QpProblem(Q=f @ f.T / n + 1e-3 * np.eye(n), c=c, eq=(np.ones((1, n)), [anchor.sum()]),
                            lower=0.0, upper=1.0, l1=(np.eye(n), anchor, 5.0))
        cold, warm = solve_qp(problem), solve_qp(problem, x0=anchor)
        assert cold.converged and warm.converged
        assert np.abs(cold.weights - warm.weights).max() <= 1e-15

    @pytest.mark.parametrize("seed", [0, 1, 3, 13, 17, 33, 37, 45, 49, 59])
    def test_gap_step_stops_at_its_full_length(self, seed):
        """Five weights 0.9e-9 above their bounds are put on them, which
        opens a 4.5e-9 gap in the budget that the one free weight alone
        closes, passing its kink 3e-9 away.  That step ends at its full
        length: a kink crossing that let the objective's slope along it set
        the length carried the weight to its upper bound, 0.98 off the
        budget, and cycled to ``MaxIterations``."""
        rng = np.random.default_rng([seed, 31])
        n = 12
        f = rng.standard_normal((n, n))
        anchor = rng.dirichlet(np.ones(n))
        x0 = anchor.copy()
        x0[2:7], x0[0] = 0.9e-9, anchor[0] + (-3e-9 if seed % 2 else 3e-9)
        c = rng.standard_normal(n)
        c[2:7] = np.abs(c[2:7]) + 1.0
        c[0] = (-1.0 if seed % 2 else 1.0) * (abs(c[0]) + 1.0)
        problem = QpProblem(Q=f @ f.T / n + 1e-3 * np.eye(n), c=c, eq=(np.ones((1, n)), [x0.sum()]),
                            lower=0.0, upper=1.0, l1=(np.eye(n), anchor, float(rng.uniform(0.01, 3))))
        cold, warm = solve_qp(problem), solve_qp(problem, x0=x0)
        assert cold.converged and warm.converged and warm.r_norm <= 1e-15
        assert np.abs(cold.weights - warm.weights).max() <= 1e-12


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

    def test_wrong_length_l1_weights(self):
        # numpy's broadcasting error before
        with pytest.raises(ValueError, match="^l1 block dimensions disagree$"):
            QpProblem(Q=np.eye(2), c=np.zeros(2), l1=(np.eye(2), np.zeros(2), [1, 2, 3]))

    def test_q_asymmetric_within_tolerance_stores_its_symmetric_part(self):
        q = random_spd(np.random.default_rng(32), 5)
        q[0, 1] += 1e-14
        problem = QpProblem(Q=q, c=np.zeros(5))
        assert np.array_equal(problem.Q, 0.5 * (q + q.T))
        assert np.array_equal(problem.Q, problem.Q.T)

    def test_infinite_bounds_allowed(self):
        rep = solve_qp(QpProblem(**self.problem(lower=-np.inf, upper=np.array([np.inf, 1.0]))))
        assert rep.converged

    @pytest.mark.parametrize("bounds", [
        dict(upper=[-np.inf, 1.0]), dict(lower=[0.0, np.inf]), dict(lower=np.inf, upper=np.inf),
        dict(lower=-np.inf, upper=-np.inf)], ids=["upper", "lower", "both_plus", "both_minus"])
    def test_bound_infinite_on_its_wrong_side_is_infeasible(self, bounds):
        # no weight lies below -inf or above +inf: such a bound once gave
        # ``converged`` with NaN weights
        with pytest.raises(errors.Infeasible):
            QpProblem(Q=np.eye(2), c=np.zeros(2), **bounds)

    def test_solve_gamma_problem_upper_of_minus_inf(self, four_asset):
        from roboalloc.mvo import ConstraintSet, MvoInputs, solve_gamma_problem
        mu, _, _, sigma = four_asset
        with pytest.raises(errors.Infeasible):
            solve_gamma_problem(MvoInputs(mu=mu, sigma=sigma), 0.25,
                                ConstraintSet(upper=[np.inf, -np.inf, 1.0, 1.0]))

    def test_solve_penalized_qp_route(self):
        from roboalloc.admm import solve_penalized
        from roboalloc.mvo import ConstraintSet
        cons = ConstraintSet(budget=1.0, lower=np.zeros(4), upper=np.ones(4))
        with pytest.raises(ValueError, match="^c must"):
            solve_penalized(np.eye(4), np.array([0.1, np.nan, 0.2, 0.3]), None, [], cons)

    def test_solve_gamma_problem(self, four_asset):
        from roboalloc.mvo import ConstraintSet, MvoInputs, solve_gamma_problem
        mu, _, _, sigma = four_asset
        # MvoInputs rejects the NaN before any QP is built
        with pytest.raises(ValueError, match="^mu and r must hold finite numbers only"):
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
        svd = record_kkt(monkeypatch)
        # both halves of the split strictly positive: Q_FF has zero blocks
        rep = solve_qp(aug, x0=np.concatenate([x0, np.full(4, 0.1), np.full(4, 0.1)]))
        assert any(svd)
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
