import itertools

import numpy as np
import pytest
import scipy.linalg

from roboalloc import admm, prox
from roboalloc.admm import (
    AdmmParams,
    AdmmState,
    solve_cardinality,
    solve_mixed_lp,
    solve_penalized,
)
from roboalloc.errors import Infeasible, NoConvergence
from roboalloc.mvo import ConstraintSet, exact_problem
from roboalloc.prox import L1Ball
from roboalloc.qp import QpProblem, augment_l1, solve_qp
from roboalloc.regularizers import PenaltySpec, ridge_mvo
from tests.conftest import random_spd

BUDGET = ConstraintSet(budget=1.0)
ALPHA = 1.6  # the loop's over-relaxation


def matrix_root(sigma):
    lam, vec = np.linalg.eigh(sigma)
    return (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.T


def mvo_ls(mu, sigma, gamma):
    """Express the risk/return objective as least squares (a1, b1)."""
    a1 = matrix_root(sigma)
    b1 = np.linalg.solve(a1.T, gamma * np.asarray(mu, float))
    return a1, b1


class TestGenericEngine:
    """The loop on the smallest problems ``solve_penalized`` takes."""

    def test_consensus_to_anchor(self):
        # min 0.5||x - a||^2 split as x - z = 0, with a zero L1 penalty on z
        a = np.array([0.3, -0.7, 1.2])
        rep = solve_penalized(np.eye(3), a, (np.eye(3), np.zeros(3), 0.0), [])
        assert rep.converged
        assert np.abs(rep.weights - a).max() <= 1e-9

    def test_coupling_dual_matches_kkt_multiplier(self):
        # min 0.5||x - a||^2 + 0.5||z - b||^2  s.t.  x - z = 0
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])

        def z_step(v, phi):  # prox of 0.5||z - b||^2 / phi
            return (b + phi * v) / (1.0 + phi)

        rep = solve_penalized(np.eye(2), a, None, [(np.eye(2), np.zeros(2), z_step)])
        x = rep.weights
        lam = rep.meta["coupling_dual"]
        # stationarity in x gives lam = a - x at the optimum
        assert np.abs(lam - (a - x)).max() <= 1e-4

    @pytest.mark.filterwarnings("ignore")
    def test_divergence_flagged(self):
        # P = -I with the starting penalty 1 makes the x-step singular
        # an L1 prox block, not L1 rows, keeps the problem on ADMM
        rep = solve_penalized(-np.eye(3), np.ones(3), None,
                              [(np.eye(3), np.zeros(3),
                                lambda v, phi: prox.prox_l1(v, 0.1 / phi))],
                              params=AdmmParams(max_iter=50))
        assert rep.status == "diverged"

    def test_penalty_rescaling_transparent(self, four_asset_alt):
        # the balancing window changes the penalty and rescales u; the
        # fixed point must stay the exact L1 solution
        mu, _, _, sigma = four_asset_alt
        a1, b1 = mvo_ls(mu, sigma, 0.25)
        pen = PenaltySpec(kind="lp", rho=1e-2, p=1.0, anchor=np.zeros(4))  # L1 on ADMM
        rep = solve_mixed_lp(a1, b1, None, pen, constraints=BUDGET)
        oracle = solve_qp(augment_l1(QpProblem(Q=sigma, c=-0.25 * mu,
                                               eq=(np.ones((1, 4)), [1.0])),
                                     np.eye(4), 1e-2, np.zeros(4)))
        assert rep.converged
        lam = np.linalg.eigvalsh(a1.T @ a1)
        assert rep.meta["state"].phi != np.sqrt(lam[0] * lam[-1])  # the penalty moved
        assert np.abs(rep.weights - oracle.weights[:4]).max() <= 1e-6


class TestParams:
    @pytest.mark.parametrize("change", [
        {"max_iter": 0}, {"max_iter": -3}, {"eps_primal": 0.0},
        {"eps_primal": float("nan")}, {"eps_dual": float("nan")},
    ], ids=["max_iter_0", "max_iter_negative", "eps_zero", "eps_primal_nan", "eps_dual_nan"])
    def test_rejected(self, change):
        with pytest.raises(ValueError):
            AdmmParams(**change)


class TestTikhonovConstrained:
    def test_budget_box_matches_qp(self, four_asset):
        mu, _, _, sigma = four_asset
        a1, b1 = mvo_ls(mu, sigma, 0.2578)
        cons = ConstraintSet(budget=1.0, lower=0.10, upper=0.40)
        rep = solve_mixed_lp(a1, b1, PenaltySpec(kind="l2", rho=0.0), None, constraints=cons)
        oracle = solve_qp(QpProblem(Q=sigma, c=-0.2578 * mu,
                                    eq=(np.ones((1, 4)), [1.0]),
                                    lower=0.10, upper=0.40))
        assert rep.converged
        assert np.abs(rep.weights - oracle.weights).max() <= 1e-6

    def test_leverage_ball_becomes_active(self, four_asset):
        mu, _, _, sigma = four_asset
        spread = mu - 0.08  # long/short tilt
        a1, b1 = mvo_ls(spread + 0.001, sigma, 2.0)
        unconstrained = solve_mixed_lp(
            a1, b1, PenaltySpec(kind="l2", rho=0.0), None,
            constraints=ConstraintSet(eq=(np.ones((1, 4)), [0.0])))
        assert np.abs(unconstrained.weights).sum() > 1.2
        capped = solve_mixed_lp(
            a1, b1, PenaltySpec(kind="l2", rho=0.0), None,
            constraints=ConstraintSet(eq=(np.ones((1, 4)), [0.0])),
            extra_sets=(L1Ball(1.2),))
        assert capped.converged
        assert np.abs(capped.weights).sum() == pytest.approx(1.2, abs=1e-6)

    def test_strong_penalty_pins_to_anchor(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        a1, b1 = mvo_ls(mu, sigma, 0.25)
        anchor = np.full(4, 0.25)
        rep = solve_mixed_lp(
            a1, b1, PenaltySpec(kind="l2", rho=1e4, anchor=anchor), None,
            constraints=ConstraintSet(budget=1.0, lower=0.0, upper=1.0))
        assert np.abs(rep.weights - anchor).max() <= 1e-4


class TestMixedLp:
    def test_lasso_matches_augmented_qp(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        gamma = 0.25
        x0 = np.array([0.4, 0.3, 0.2, 0.1])
        a1, b1 = mvo_ls(mu, sigma, gamma)
        for rho1 in (1e-4, 5e-4, 2e-3, 1e-2, 5e-2):
            pen = PenaltySpec(kind="l1", rho=rho1, anchor=x0)
            rep = solve_mixed_lp(a1, b1, None, pen, x0=x0, constraints=BUDGET)
            aug = augment_l1(QpProblem(Q=sigma, c=-gamma * mu,
                                       eq=(np.ones((1, 4)), [1.0])),
                             np.eye(4), rho1, x0)
            oracle = solve_qp(aug)
            assert rep.converged
            assert np.abs(rep.weights - oracle.weights[:4]).max() <= 1e-6

    def test_moderate_penalty_sparsifies_bets(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        x0 = np.array([0.4, 0.3, 0.2, 0.1])
        a1, b1 = mvo_ls(mu, sigma, 0.25)
        pen = PenaltySpec(kind="l1", rho=1.3e-2, anchor=x0)
        rep = solve_mixed_lp(a1, b1, None, pen, x0=x0, constraints=BUDGET)
        bets = rep.weights - x0
        n_zero = np.sum(np.abs(bets) <= 1e-10)
        assert 1 <= n_zero < 4
        assert np.abs(rep.weights.sum() - 1.0) <= 1e-9

    def test_large_penalty_forces_long_only(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        a1, b1 = mvo_ls(mu, sigma, 0.25)
        plain = solve_qp(QpProblem(Q=sigma, c=-0.25 * mu, eq=(np.ones((1, 4)), [1.0])))
        assert plain.weights.min() < -1e-3  # shorts without the penalty
        pen = PenaltySpec(kind="l1", rho=0.5, anchor=np.zeros(4))
        rep = solve_mixed_lp(a1, b1, None, pen, x0=np.zeros(4), constraints=BUDGET)
        assert rep.weights.min() >= -1e-8

    def test_quadratic_member_recovers_ridge(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        x0 = np.array([0.4, 0.3, 0.2, 0.1])
        a1, b1 = mvo_ls(mu, sigma, 0.25)
        pen2 = PenaltySpec(kind="l2", rho=0.02, anchor=x0)
        penp = PenaltySpec(kind="lp", rho=0.0, p=2.0, anchor=x0)
        rep = solve_mixed_lp(a1, b1, pen2, penp, x0=x0, constraints=BUDGET)
        oracle = ridge_mvo(mu, sigma, 0.25, 0.02, x0=x0, constraints=BUDGET)
        assert np.abs(rep.weights - oracle.weights).max() <= 1e-6

    def test_negative_gamma_entries_supported(self):
        # spread penalty |x1 - x2| needs a signed penalty matrix
        rng = np.random.default_rng(0)
        sigma = random_spd(rng, 3, 0.05)
        mu = np.array([0.05, 0.055, 0.07])
        a1, b1 = mvo_ls(mu, sigma, 0.5)
        g1 = np.array([[1.0, -1.0, 0.0]])
        pen = PenaltySpec(kind="l1", rho=5e-3, gamma_matrix=g1, anchor=np.zeros(3))
        rep = solve_mixed_lp(a1, b1, None, pen, x0=np.zeros(3), constraints=BUDGET)
        assert rep.converged
        # the spread collapses once the penalty dominates
        strong = PenaltySpec(kind="l1", rho=0.5, gamma_matrix=g1, anchor=np.zeros(3))
        rep2 = solve_mixed_lp(a1, b1, None, strong, x0=np.zeros(3), constraints=BUDGET)
        assert abs(rep2.weights[0] - rep2.weights[1]) <= 1e-7

    def test_objective_matches_qp_on_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            sigma = random_spd(rng, n, 0.05)
            mu = rng.normal(size=n) * 0.05
            gamma = 0.25
            x0 = rng.dirichlet(np.ones(n))
            rho1 = float(10 ** rng.uniform(-4, -1.5))
            a1, b1 = mvo_ls(mu, sigma, gamma)
            pen = PenaltySpec(kind="l1", rho=rho1, anchor=x0)
            rep = solve_mixed_lp(a1, b1, None, pen, x0=x0,
                                 constraints=ConstraintSet(budget=1.0))
            aug = augment_l1(QpProblem(Q=sigma, c=-gamma * mu,
                                       eq=(np.ones((1, n)), [1.0])),
                             np.eye(n), rho1, x0)
            oracle = solve_qp(aug)
            oracle_obj = (0.5 * oracle.weights[:n] @ sigma @ oracle.weights[:n]
                          - gamma * mu @ oracle.weights[:n]
                          + rho1 * np.abs(oracle.weights[:n] - x0).sum())
            # identical objective up to the constant dropped in the ls form
            mine = (0.5 * rep.weights @ sigma @ rep.weights - gamma * mu @ rep.weights
                    + rho1 * np.abs(rep.weights - x0).sum())
            assert abs(mine - oracle_obj) <= 1e-6
            assert rep.converged and rep.r_norm <= 1e-10


class TestCardinality:
    def test_full_support_matches_convex_solution(self, four_asset):
        mu, _, _, sigma = four_asset
        a1, b1 = mvo_ls(mu, sigma, 0.2578)
        cons = ConstraintSet(budget=1.0, lower=0.0, upper=1.0)
        card = solve_cardinality(a1, b1, None, np.eye(4), np.zeros(4), 4, cons)
        convex = solve_qp(QpProblem(Q=sigma, c=-0.2578 * mu,
                                    eq=(np.ones((1, 4)), [1.0]), lower=0.0, upper=1.0))
        assert np.abs(card.weights - convex.weights).max() <= 1e-6

    def test_two_name_portfolio_matches_enumeration(self, four_asset):
        import itertools
        mu, _, _, sigma = four_asset
        gamma = 0.2578
        a1, b1 = mvo_ls(mu, sigma, gamma)
        card = solve_cardinality(a1, b1, None, np.eye(4), np.zeros(4), 2, BUDGET)
        best = np.inf
        for sup in itertools.combinations(range(4), 2):
            off = [i for i in range(4) if i not in sup]
            rows = np.vstack([np.ones((1, 4)), np.eye(4)[off]])
            rhs = np.concatenate([[1.0], np.zeros(len(off))])
            rep = solve_qp(QpProblem(Q=sigma, c=-gamma * mu, eq=(rows, rhs)))
            best = min(best, rep.objective)
        assert card.objective == pytest.approx(best, abs=1e-6)
        assert np.sum(np.abs(card.weights) > 1e-8) <= 2

    def test_single_bet_from_current_book_means_no_trade(self, four_asset):
        mu, _, _, sigma = four_asset
        x0 = np.array([0.3, 0.3, 0.2, 0.2])
        a1, b1 = mvo_ls(mu, sigma, 0.1)
        rep = solve_cardinality(a1, b1, None, np.eye(4), x0, 1, BUDGET)
        bets = rep.weights - x0
        assert np.sum(np.abs(bets) > 1e-8) <= 1
        # a single bet cannot move the budget, so nothing trades
        assert np.abs(bets).max() <= 1e-8

    def test_no_feasible_support_is_infeasible(self, four_asset):
        # budget 1 and every weight at most 0.6: no single asset holds the
        # budget, so every support's polish is infeasible (CLI exit 1)
        mu, _, _, sigma = four_asset
        a1, b1 = mvo_ls(mu, sigma, 0.2578)
        cons = ConstraintSet(budget=1.0, lower=0.0, upper=0.6)
        with pytest.raises(Infeasible, match="no support"):
            solve_cardinality(a1, b1, None, np.eye(4), np.zeros(4), 1, cons)

    def test_node_cap_is_no_convergence(self, four_asset):
        # the relaxation holds four bets, so the root branches and a cap of
        # one node stops the search before any support is solved
        mu, _, _, sigma = four_asset
        a1, b1 = mvo_ls(mu, sigma, 0.2578)
        with pytest.raises(NoConvergence, match=r"bound -?[0-9.e-]+, incumbent none"):
            solve_cardinality(a1, b1, None, np.eye(4), np.zeros(4), 2, BUDGET,
                              params=AdmmParams(max_iter=1))
        rep = solve_cardinality(a1, b1, None, np.eye(4), np.zeros(4), 2, BUDGET)
        assert rep.converged and rep.meta["nodes"] > 1 and len(rep.meta["support"]) <= 2

    def test_only_the_qp_runs(self, four_asset, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("cardinality must not run ADMM")

        monkeypatch.setattr(admm, "solve_penalized", refuse)
        monkeypatch.setattr(admm, "admm_solve", refuse)
        mu, _, _, sigma = four_asset
        a1, b1 = mvo_ls(mu, sigma, 0.2578)
        cons = ConstraintSet(budget=1.0, lower=0.0, upper=0.6)
        rep = solve_cardinality(a1, b1, None, np.eye(4), np.full(4, 0.25), 2, cons)
        assert rep.converged and np.sum(np.abs(rep.weights - 0.25) > 1e-8) <= 2

    def test_objective_is_the_qp_value(self):
        # with every bet allowed both solvers answer the same least-squares
        # problem; the cardinality report leaves out the constant 0.5 b1'b1
        rng = np.random.default_rng(5)
        a1, b1 = rng.normal(size=(6, 4)), rng.normal(size=6)
        pen = PenaltySpec(kind="l2", rho=0.1)
        card = solve_cardinality(a1, b1, pen, np.eye(4), np.zeros(4), 4, BUDGET)
        mixed = solve_mixed_lp(a1, b1, pen, None, constraints=BUDGET)
        assert np.abs(card.weights - mixed.weights).max() <= 1e-12
        assert card.objective + 0.5 * b1 @ b1 == pytest.approx(mixed.objective, rel=1e-12)


def _cardinality_case(seed):
    """A seeded cardinality problem: n in [4, 8], n1 in [1, n - 1], the budget
    with and without the box [0, 0.6], a zero or Dirichlet anchor, and in
    every fifth case a non-identity diagonal gamma1."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    n1 = int(rng.integers(1, n))
    sigma = random_spd(rng, n) + 0.01 * np.eye(n)
    mu = rng.normal(0.05, 0.05, size=n)
    a1 = np.linalg.cholesky(sigma).T
    b1 = np.linalg.solve(a1.T, 0.3 * mu)
    x0 = rng.dirichlet(np.ones(n)) if seed % 4 >= 2 else np.zeros(n)
    cons = (ConstraintSet(budget=1.0, lower=0.0, upper=0.6) if seed % 2
            else ConstraintSet(budget=1.0))
    g1 = np.diag(rng.uniform(0.5, 2.0, size=n)) if seed % 5 == 4 else np.eye(n)
    return a1, b1, PenaltySpec(kind="l2", rho=0.01), g1, x0, n1, cons


def _enumerated_optimum(a1, b1, pen, g1, x0, n1, cons):
    """The least objective over every support of ``n1`` bets, or ``None``."""
    n = x0.size
    p_mat, q_vec = a1.T @ a1 + pen.rho * np.eye(n), a1.T @ b1 + pen.rho * x0
    base = exact_problem(p_mat, q_vec, None, cons)
    best = None
    for support in itertools.combinations(range(n), n1):
        off = [i for i in range(n) if i not in support]
        rows = np.vstack([base.eq[0], g1[off]])
        rhs = np.concatenate([base.eq[1], g1[off] @ x0])
        try:
            rep = solve_qp(QpProblem(Q=p_mat, c=-q_vec, eq=(rows, rhs), ineq=base.ineq,
                                     lower=base.lower, upper=base.upper))
        except Infeasible:
            continue
        best = rep.objective if best is None else min(best, rep.objective)
    return best


@pytest.mark.parametrize("seed", range(40))
def test_cardinality_matches_support_enumeration(seed):
    a1, b1, pen, g1, x0, n1, cons = _cardinality_case(seed)
    best = _enumerated_optimum(a1, b1, pen, g1, x0, n1, cons)
    if best is None:
        with pytest.raises(Infeasible, match="no support"):
            solve_cardinality(a1, b1, pen, g1, x0, n1, cons)
        return
    rep = solve_cardinality(a1, b1, pen, g1, x0, n1, cons)
    assert rep.converged
    assert abs(rep.objective - best) <= 1e-9 * max(1.0, abs(best))
    bets = g1 @ (rep.weights - x0)
    assert np.sum(np.abs(bets) > 1e-14) <= n1
    assert abs(rep.weights.sum() - 1.0) <= 1e-12
    if seed % 2:
        assert rep.weights.min() >= -1e-12 and rep.weights.max() <= 0.6 + 1e-12


# --- reference loop: the over-relaxed ADMM iteration (Boyd et al., 2011,
# §3.4.3) on A x + B z = c, with B = -I held as a dense matrix, scipy's checked
# lu_solve, dense products throughout and one step call per block ---


def reference_admm_solve(x_update, z_update, coupling, params, z0=None, phi=1.0,
                         alpha=1.0):
    a, b, c = coupling
    m = c.size
    z = np.zeros(b.shape[1]) if z0 is None else np.asarray(z0, dtype=float).copy()
    u = np.zeros(m)
    x = None
    r_norm = s_norm = np.inf
    status = "max_iter"
    it = 0
    for it in range(1, params.max_iter + 1):
        x = x_update(z, u, phi)
        ax = a @ x
        ax_relaxed = alpha * ax - (1.0 - alpha) * (b @ z - c)
        z_new = z_update(ax_relaxed, u, phi)
        r = ax + b @ z_new - c
        s = phi * (a.T @ (b @ (z_new - z)))
        z = z_new
        u = u + (ax_relaxed + b @ z_new - c)
        r_norm = float(np.linalg.norm(r))
        s_norm = float(np.linalg.norm(s))
        if not np.isfinite(r_norm) or r_norm > 1e12 or s_norm > 1e12:
            status = "diverged"
            break
        if r_norm <= params.eps_primal and s_norm <= params.eps_dual:
            status = "converged"
            break
        if it <= 100:  # residual balancing, first 100 iterations only
            if r_norm ** 2 > 1e3 * s_norm ** 2:
                phi_new = phi * 2.0
            elif s_norm ** 2 > 1e3 * r_norm ** 2:
                phi_new = phi / 2.0
            else:
                phi_new = phi
            u *= phi / phi_new
            phi = phi_new
    return AdmmState(x=x, z=z, u=u, phi=phi, r_norm=r_norm, s_norm=s_norm,
                     iterations=it), status


class ReferenceStackedProblem:
    def __init__(self, p_mat, q_vec, a_eq, b_eq, blocks):
        self.p, self.q, self.a_eq, self.b_eq = p_mat, q_vec, a_eq, b_eq
        self.gammas = [g for g, _, _ in blocks]
        self.offsets = [d for _, d, _ in blocks]
        self.steppers = [s for _, _, s in blocks]
        self.n = q_vec.size
        self.gram = sum(g.T @ g for g in self.gammas)
        self.a_stack = np.vstack(self.gammas)
        self.b_stack = -np.eye(self.a_stack.shape[0])
        self.c_stack = np.concatenate(self.offsets)
        self.sizes = [d.size for d in self.offsets]
        self._factors = {}
        lam = np.linalg.eigvalsh(p_mat)
        self.phi = np.sqrt(max(lam[0], 1e-6 * lam[-1]) * lam[-1]) if lam[-1] > 0 else 1.0

    def _factor(self, phi):
        if phi not in self._factors:
            me = self.a_eq.shape[0]
            kkt = np.zeros((self.n + me, self.n + me))
            kkt[:self.n, :self.n] = self.p + phi * self.gram
            if me:
                kkt[:self.n, self.n:] = self.a_eq.T
                kkt[self.n:, :self.n] = self.a_eq
            self._factors[phi] = scipy.linalg.lu_factor(kkt)
        return self._factors[phi]

    def x_update(self, z, u, phi):
        rhs = self.q.copy()
        start = 0
        for g, d, size in zip(self.gammas, self.offsets, self.sizes):
            rhs += phi * (g.T @ (z[start:start + size] + d - u[start:start + size]))
            start += size
        me = self.a_eq.shape[0]
        full = np.concatenate([rhs, self.b_eq]) if me else rhs
        sol = scipy.linalg.lu_solve(self._factor(phi), full)
        return sol[:self.n]

    def z_update(self, ax, u, phi):
        out = np.empty(self.c_stack.size)
        start = 0
        for d, size, stepper in zip(self.offsets, self.sizes, self.steppers):
            v = ax[start:start + size] - d + u[start:start + size]
            out[start:start + size] = stepper(v, phi)
            start += size
        return out

    def z_init(self, x_init):
        return np.concatenate([g @ x_init - d for g, d in zip(self.gammas, self.offsets)])


def reference_penalized(p_mat, q_vec, blocks, constraints, params, x_init, alpha):
    """The ADMM route of ``solve_penalized`` on the reference loop, its box
    and halfspaces read off the constraints' dense ``QpProblem`` blocks."""
    n = q_vec.size
    problem = exact_problem(p_mat, q_vec, None, constraints)
    (a_eq, b_eq), lower, upper = problem.eq, problem.lower, problem.upper
    bounded = np.isfinite(lower).any() or np.isfinite(upper).any()
    sets = [prox.Box(lower, upper)] if bounded else []
    sets += [prox.Halfspace(-g, -h) for g, h in zip(*problem.ineq)]  # g'x >= h
    blocks = list(blocks)
    if sets:
        blocks.append((np.eye(n), np.zeros(n),
                       lambda v, _phi: prox.project_intersection(v, sets)))
    prob = ReferenceStackedProblem(p_mat, q_vec, a_eq, b_eq, blocks)
    return reference_admm_solve(prob.x_update, prob.z_update,
                                (prob.a_stack, prob.b_stack, prob.c_stack), params,
                                z0=prob.z_init(x_init), phi=prob.phi, alpha=alpha)


def l1_step(rho):
    return lambda v, phi: prox.prox_l1(v, rho / phi)


def rebalance_problem(seed, n, gamma1=None):
    """Tracking-error rebalance data: P, q, two L1 terms (strategic and
    turnover anchors) as ADMM blocks and as the L1 rows of
    ``solve_penalized``, and the current book."""
    rng = np.random.default_rng(seed)
    sigma = random_spd(rng, n, 0.04)
    mu = rng.normal(0.05, 0.02, n)
    strategic = rng.dirichlet(np.full(n, 5.0))
    current = strategic * np.exp(rng.normal(0.0, 0.3, n))
    current /= current.sum()
    g = np.eye(n) if gamma1 is None else gamma1
    p_mat = sigma + 0.02 * np.eye(n)
    q_vec = 0.5 * mu + sigma @ strategic + 0.02 * strategic
    blocks = [(g, g @ strategic, l1_step(5e-4)), (g, g @ current, l1_step(2e-4))]
    l1 = (np.vstack([g, g]), np.concatenate([g @ strategic, g @ current]),
          np.repeat([5e-4, 2e-4], n))
    return p_mat, q_vec, blocks, l1, current


class TestInfeasible:
    """An empty constraint set is found by phase 1 before ADMM runs."""

    @pytest.mark.parametrize("cons", [
        ConstraintSet(budget=1.0, lower=0.0, upper=0.2),
        ConstraintSet(budget=1.0, lower=0.0, ineq=(np.array([[1.0, 1.0, 0.0, 0.0]]), [1.5])),
        ConstraintSet(eq=(np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]]), [1.0, 0.5])),
    ], ids=["box_below_budget", "halfspace_beyond_budget", "inconsistent_equalities"])
    def test_raised_before_iterating(self, cons):
        p_mat, q_vec, _, l1, current = rebalance_problem(0, 4)
        with pytest.raises(Infeasible):
            solve_penalized(p_mat, q_vec, l1, [], cons, x_init=current)


class TestOneProblem:
    """``solve_penalized`` builds one ``QpProblem`` per call, before it
    picks a route, and both routes read it: malformed data is the same
    ``ValueError`` on either."""

    @staticmethod
    def call(route, p_mat, q_vec, blocks, l1, current):
        cons = ConstraintSet(budget=1.0, lower=0.0, upper=0.5)
        if route == "qp":  # L1 rows only
            return solve_penalized(p_mat, q_vec, l1, [], cons, x_init=current)
        return solve_penalized(p_mat, q_vec, None, blocks, cons, x_init=current)

    @pytest.mark.parametrize("route", ["qp", "admm"])
    def test_one_problem_per_call(self, route, monkeypatch):
        built, init = [], QpProblem.__post_init__

        def counting(problem):
            built.append(problem)
            init(problem)

        monkeypatch.setattr(QpProblem, "__post_init__", counting)
        rep = self.call(route, *rebalance_problem(0, 6))
        assert rep.converged and len(built) == 1

    @pytest.mark.parametrize("route", ["qp", "admm"])
    @pytest.mark.parametrize("defect,message", [
        ("asymmetric", "Q must be symmetric"), ("nan", "Q must hold finite numbers only")])
    def test_malformed_p_rejected_alike(self, route, defect, message):
        p_mat, q_vec, blocks, l1, current = rebalance_problem(1, 5)
        p_mat = p_mat.copy()
        p_mat[0, 1] = p_mat[0, 1] + 1e-3 if defect == "asymmetric" else np.nan
        with pytest.raises(ValueError, match=message):
            self.call(route, p_mat, q_vec, blocks, l1, current)


def admm_route(p_mat, q_vec, blocks, cons, params, x_init):
    """``admm_solve`` on the stacked problem, as ``solve_penalized``'s ADMM
    route runs it."""
    prob = admm._StackedProblem(exact_problem(p_mat, q_vec, None, cons), blocks)
    return admm.admm_solve(prob, params, z0=prob.a @ x_init - prob.c)


class TestSameIterates:
    """The loop's stacked arrays (one ``A`` for all blocks, each block's
    step on its own rows) and its LAPACK x-step reproduce the dense
    reference loop, which runs block by block, at the module's relaxation
    and at none.  Each runs ``admm_solve`` on the stacked problem
    (``admm_route``)."""

    @pytest.mark.parametrize("seed,n", [(0, 6), (1, 12), (2, 20), (3, 30), (4, 9)])
    def test_stacked_loop_bit_identical(self, seed, n):
        self.check_stacked_loop(seed, n, ALPHA)

    def test_unrelaxed_loop_bit_identical(self, monkeypatch):
        monkeypatch.setattr(admm, "_RELAXATION", 1.0)
        self.check_stacked_loop(0, 6, 1.0)

    @staticmethod
    def check_stacked_loop(seed, n, alpha):
        p_mat, q_vec, blocks, _, current = rebalance_problem(seed, n)
        upper = max(0.3, 2.0 / n)
        cons = ConstraintSet(budget=1.0, lower=np.zeros(n), upper=np.full(n, upper))
        params = AdmmParams(max_iter=3000)
        rep = admm_route(p_mat, q_vec, blocks, cons, params, current)
        ref, status = reference_penalized(p_mat, q_vec, blocks, cons, params, current,
                                          alpha)
        assert rep.iterations == ref.iterations
        assert rep.status == status
        assert np.array_equal(rep.weights, ref.x)
        state = rep.meta["state"]
        assert np.array_equal(state.z, ref.z) and np.array_equal(state.u, ref.u)
        assert (rep.r_norm, rep.s_norm, state.phi) == (ref.r_norm, ref.s_norm, ref.phi)

    def test_general_blocks_through_dykstra(self, monkeypatch):
        n = 8
        rng = np.random.default_rng(11)
        gamma1 = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        p_mat, q_vec, blocks, _, current = rebalance_problem(5, n, gamma1)
        cons = ConstraintSet(budget=1.0, lower=np.zeros(n), upper=np.full(n, 0.4),
                             ineq=(np.ones((1, n)) * np.r_[1.0, 1.0, np.zeros(n - 2)],
                                   np.array([0.5])))
        params = AdmmParams(max_iter=3000)
        sizes, project = [], prox.project_intersection
        monkeypatch.setattr(prox, "project_intersection",
                            lambda v, sets: sizes.append(len(sets)) or project(v, sets))
        rep = admm_route(p_mat, q_vec, blocks, cons, params, current)
        ref, status = reference_penalized(p_mat, q_vec, blocks, cons, params, current,
                                          ALPHA)
        assert set(sizes) == {2}  # box and halfspace, on both loops: Dykstra runs
        assert rep.iterations == ref.iterations
        assert rep.status == status
        assert np.abs(rep.weights - ref.x).max() <= 1e-12

    def test_interleaved_l1_blocks_bit_identical(self):
        # an lp block between the two L1 blocks, each block taking its own step
        n = 8
        p_mat, q_vec, blocks, _, current = rebalance_problem(6, n)
        blocks.insert(1, (np.eye(n), current.copy(),
                          lambda v, phi: prox.prox_lp(v, 1e-3 / phi, 3.0)))
        cons = ConstraintSet(budget=1.0, lower=np.zeros(n), upper=np.full(n, 0.4))
        params = AdmmParams(max_iter=3000)
        rep = admm_route(p_mat, q_vec, blocks, cons, params, current)
        ref, status = reference_penalized(p_mat, q_vec, blocks, cons, params, current,
                                          ALPHA)
        assert rep.converged and status == "converged"
        assert rep.iterations == ref.iterations
        assert np.array_equal(rep.weights, ref.x)
        assert np.array_equal(rep.meta["state"].u, ref.u)

    @pytest.mark.parametrize("where", ["q", "x_init", "offset"])
    def test_non_finite_input_rejected(self, where):
        # x_init is checked at the boundary, q and the L1 rows by QpProblem
        message = {"q": "c must hold finite numbers only", "x_init": "infs or NaNs",
                   "offset": "l1 must hold finite numbers only"}[where]
        p_mat, q_vec, _, l1, current = rebalance_problem(0, 5)
        if where == "q":
            q_vec = q_vec.copy()
            q_vec[2] = np.nan
        elif where == "x_init":
            current = current.copy()
            current[1] = np.inf
        else:
            g, d, rho = l1
            l1 = (g, np.full_like(d, np.nan), rho)
        with pytest.raises(ValueError, match=message):
            solve_penalized(p_mat, q_vec, l1, [], BUDGET, x_init=current)
