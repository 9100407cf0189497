import numpy as np
import pytest
import scipy.linalg

from roboalloc import prox
from roboalloc.admm import (
    AdmmParams,
    AdmmState,
    adaptive_penalty,
    admm_solve,
    solve_cardinality,
    solve_mixed_lp,
    solve_penalized,
    solve_tikhonov_constrained,
)
from roboalloc.mvo import ConstraintSet
from roboalloc.prox import L1Ball
from roboalloc.qp import QpProblem, augment_l1, solve_qp
from roboalloc.regularizers import PenaltySpec, ridge_mvo
from tests.conftest import random_spd

BUDGET = ConstraintSet(budget=1.0)


def matrix_root(sigma):
    lam, vec = np.linalg.eigh(sigma)
    return (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.T


def mvo_ls(mu, sigma, gamma):
    """Express the risk/return objective as least squares (a1, b1)."""
    a1 = matrix_root(sigma)
    b1 = np.linalg.solve(a1.T, gamma * np.asarray(mu, float))
    return a1, b1


class TestAdaptivePenalty:
    def test_primal_dominates(self):
        p = AdmmParams()
        assert adaptive_penalty(1.0, np.sqrt(10.0), np.sqrt(1e-3), p) == 2.0

    def test_balanced(self):
        p = AdmmParams()
        assert adaptive_penalty(1.5, 1.0, 1.0, p) == 1.5

    def test_dual_dominates(self):
        p = AdmmParams()
        assert adaptive_penalty(1.0, np.sqrt(1e-3), np.sqrt(10.0), p) == 0.5


class TestGenericEngine:
    def test_consensus_to_anchor(self):
        a = np.array([0.3, -0.7, 1.2])
        n = 3

        def x_update(z, u, phi):
            # min 0.5||x - a||^2 + phi/2 ||x - z + u||^2
            return (a + phi * (z - u)) / (1.0 + phi)

        def z_update(x, u, phi):
            return x + u

        rep = admm_solve(x_update, z_update,
                         (np.eye(n), -np.eye(n), np.zeros(n)), AdmmParams())
        assert rep.converged
        assert np.abs(rep.weights - a).max() <= 1e-9

    def test_coupling_dual_matches_kkt_multiplier(self):
        # min 0.5||x - a||^2 + 0.5||z - b||^2  s.t.  x - z = 0
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])

        def x_update(z, u, phi):
            return (a + phi * (z - u)) / (1.0 + phi)

        def z_update(x, u, phi):
            return (b + phi * (x + u)) / (1.0 + phi)

        rep = admm_solve(x_update, z_update,
                         (np.eye(2), -np.eye(2), np.zeros(2)), AdmmParams())
        x = rep.weights
        lam = rep.meta["coupling_dual"]
        # stationarity in x gives lam = a - x at the optimum
        assert np.abs(lam - (a - x)).max() <= 1e-4

    def test_divergence_flagged(self):
        def x_update(z, u, phi):
            return np.array([1e14])

        def z_update(x, u, phi):
            return -x

        rep = admm_solve(x_update, z_update,
                         (np.eye(1), -np.eye(1), np.zeros(1)),
                         AdmmParams(max_iter=50))
        assert rep.status == "diverged"

    def test_penalty_rescaling_transparent(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        a1, b1 = mvo_ls(mu, sigma, 0.25)
        pen = PenaltySpec(kind="l1", rho=5e-4, anchor=np.zeros(4))
        fixed = solve_mixed_lp(a1, b1, None, pen, constraints=BUDGET,
                               params=AdmmParams(adaptive=False, max_iter=60000))
        adaptive = solve_mixed_lp(a1, b1, None, pen, constraints=BUDGET,
                                  params=AdmmParams(adaptive=True))
        assert fixed.converged and adaptive.converged
        assert np.abs(fixed.weights - adaptive.weights).max() <= 1e-6


class TestTikhonovConstrained:
    def test_budget_box_matches_qp(self, four_asset):
        mu, _, _, sigma = four_asset
        a1, b1 = mvo_ls(mu, sigma, 0.2578)
        cons = ConstraintSet(budget=1.0, lower=0.10, upper=0.40)
        rep = solve_tikhonov_constrained(a1, b1, PenaltySpec(kind="l2", rho=0.0), cons)
        oracle = solve_qp(QpProblem(Q=sigma, c=-0.2578 * mu,
                                    eq=(np.ones((1, 4)), [1.0]),
                                    lower=0.10, upper=0.40))
        assert rep.converged
        assert np.abs(rep.weights - oracle.weights).max() <= 1e-6

    def test_leverage_ball_becomes_active(self, four_asset):
        mu, _, _, sigma = four_asset
        spread = mu - 0.08  # long/short tilt
        a1, b1 = mvo_ls(spread + 0.001, sigma, 2.0)
        unconstrained = solve_tikhonov_constrained(
            a1, b1, PenaltySpec(kind="l2", rho=0.0),
            ConstraintSet(eq=(np.ones((1, 4)), [0.0])))
        assert np.abs(unconstrained.weights).sum() > 1.2
        capped = solve_tikhonov_constrained(
            a1, b1, PenaltySpec(kind="l2", rho=0.0),
            ConstraintSet(eq=(np.ones((1, 4)), [0.0])),
            extra_sets=(L1Ball(1.2),))
        assert capped.converged
        assert np.abs(capped.weights).sum() == pytest.approx(1.2, abs=1e-6)

    def test_strong_penalty_pins_to_anchor(self, four_asset_alt):
        mu, _, _, sigma = four_asset_alt
        a1, b1 = mvo_ls(mu, sigma, 0.25)
        anchor = np.full(4, 0.25)
        rep = solve_tikhonov_constrained(
            a1, b1, PenaltySpec(kind="l2", rho=1e4, anchor=anchor),
            ConstraintSet(budget=1.0, lower=0.0, upper=1.0))
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

    def test_restart_determinism(self, four_asset):
        mu, _, _, sigma = four_asset
        a1, b1 = mvo_ls(mu, sigma, 0.2578)
        params = AdmmParams(seed=7)
        r1 = solve_cardinality(a1, b1, None, np.eye(4), np.zeros(4), 2, BUDGET,
                               params=params)
        r2 = solve_cardinality(a1, b1, None, np.eye(4), np.zeros(4), 2, BUDGET,
                               params=AdmmParams(seed=7))
        assert np.array_equal(r1.weights, r2.weights)
        assert r1.meta["restarts"] == r2.meta["restarts"]
        assert r1.meta["support"] == r2.meta["support"]


# --- reference loop: the ADMM iteration before the B = -I and identity-block
# shortcuts, with scipy's checked lu_solve and dense products throughout ---


def reference_admm_solve(x_update, z_update, coupling, params, z0=None, u0=None):
    a, b, c = coupling
    m = c.size
    z = np.zeros(b.shape[1]) if z0 is None else np.asarray(z0, dtype=float).copy()
    u = np.zeros(m) if u0 is None else np.asarray(u0, dtype=float).copy()
    phi = params.phi0
    x = None
    r_norm = s_norm = np.inf
    status = "max_iter"
    it = 0
    for it in range(1, params.max_iter + 1):
        x = x_update(z, u, phi)
        z_new = z_update(x, u, phi)
        r = a @ x + b @ z_new - c
        s = phi * (a.T @ (b @ (z_new - z)))
        z = z_new
        u = u + r
        r_norm = float(np.linalg.norm(r))
        s_norm = float(np.linalg.norm(s))
        if not np.isfinite(r_norm) or r_norm > 1e12 or s_norm > 1e12:
            status = "diverged"
            break
        if r_norm <= params.eps_primal and s_norm <= params.eps_dual:
            status = "converged"
            break
        if params.adaptive:
            phi_new = adaptive_penalty(phi, r_norm, s_norm, params)
            if phi_new != phi:
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

    def z_update(self, x, u, phi):
        out = np.empty(self.c_stack.size)
        start = 0
        for g, d, size, stepper in zip(self.gammas, self.offsets, self.sizes,
                                       self.steppers):
            v = g @ x - d + u[start:start + size]
            out[start:start + size] = stepper(v, phi)
            start += size
        return out

    def z_init(self, x_init):
        return np.concatenate([g @ x_init - d for g, d in zip(self.gammas, self.offsets)])


def reference_penalized(p_mat, q_vec, blocks, constraints, params, x_init):
    """The ADMM route of ``solve_penalized`` on the reference loop."""
    n = q_vec.size
    a_eq, b_eq, sets = constraints.admm_pieces(n)
    blocks = list(blocks)
    if sets:
        blocks.append((np.eye(n), np.zeros(n),
                       lambda v, _phi: prox.project_intersection(v, sets)))
    prob = ReferenceStackedProblem(p_mat, q_vec, a_eq, b_eq, blocks)
    return reference_admm_solve(prob.x_update, prob.z_update,
                                (prob.a_stack, prob.b_stack, prob.c_stack), params,
                                z0=prob.z_init(x_init))


def l1_step(rho):
    return lambda v, phi: prox.prox_l1(v, rho / phi)


def rebalance_problem(seed, n, gamma1=None):
    """Tracking-error rebalance data: P, q, two L1 blocks (strategic and
    turnover anchors) and the current book."""
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
    return p_mat, q_vec, blocks, current


class TestSameIterates:
    """The loop's shortcuts (``B = -I``, identity blocks, LAPACK x-step)
    reproduce the dense reference loop."""

    @pytest.mark.parametrize("seed,n", [(0, 6), (1, 12), (2, 20), (3, 30), (4, 9)])
    def test_identity_blocks_bit_identical(self, seed, n):
        p_mat, q_vec, blocks, current = rebalance_problem(seed, n)
        upper = max(0.3, 2.0 / n)
        cons = ConstraintSet(budget=1.0, lower=np.zeros(n), upper=np.full(n, upper))
        params = AdmmParams(max_iter=3000)
        rep = solve_penalized(p_mat, q_vec, blocks, cons, params=params, x_init=current)
        ref, status = reference_penalized(p_mat, q_vec, blocks, cons, params, current)
        assert rep.iterations == ref.iterations
        assert rep.status == status
        assert np.array_equal(rep.weights, ref.x)
        state = rep.meta["state"]
        assert np.array_equal(state.z, ref.z) and np.array_equal(state.u, ref.u)
        assert (rep.r_norm, rep.s_norm, state.phi) == (ref.r_norm, ref.s_norm, ref.phi)

    def test_general_blocks_through_dykstra(self):
        n = 8
        rng = np.random.default_rng(11)
        gamma1 = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        p_mat, q_vec, blocks, current = rebalance_problem(5, n, gamma1)
        cons = ConstraintSet(budget=1.0, lower=np.zeros(n), upper=np.full(n, 0.4),
                             ineq=(np.ones((1, n)) * np.r_[1.0, 1.0, np.zeros(n - 2)],
                                   np.array([0.5])))
        params = AdmmParams(max_iter=3000)
        rep = solve_penalized(p_mat, q_vec, blocks, cons, params=params, x_init=current)
        ref, status = reference_penalized(p_mat, q_vec, blocks, cons, params, current)
        assert len(cons.admm_pieces(n)[2]) == 2  # box and halfspace: Dykstra runs
        assert rep.iterations == ref.iterations
        assert rep.status == status
        assert np.abs(rep.weights - ref.x).max() <= 1e-12

    def test_general_coupling(self):
        # min 0.5||x - a||^2 + 0.5||z - b||^2  s.t.  x - 2z = 0
        a, b = np.array([1.0, -0.5, 0.25]), np.array([0.0, 1.0, 2.0])

        def x_update(z, u, phi):
            return (a + phi * (2.0 * z - u)) / (1.0 + phi)

        def z_update(x, u, phi):
            return (b + 2.0 * phi * (x + u)) / (1.0 + 4.0 * phi)

        coupling = (np.eye(3), -2.0 * np.eye(3), np.zeros(3))
        params = AdmmParams()
        rep = admm_solve(x_update, z_update, coupling, params)
        ref, status = reference_admm_solve(x_update, z_update, coupling, params)
        assert rep.converged and status == "converged"
        assert rep.iterations == ref.iterations
        assert np.array_equal(rep.weights, ref.x)
        assert np.abs(rep.weights - 2.0 * (2.0 * a + b) / 5.0).max() <= 1e-9

    @pytest.mark.parametrize("where", ["q", "x_init", "offset"])
    def test_non_finite_input_rejected(self, where):
        p_mat, q_vec, blocks, current = rebalance_problem(0, 5)
        if where == "q":
            q_vec = q_vec.copy()
            q_vec[2] = np.nan
        elif where == "x_init":
            current = current.copy()
            current[1] = np.inf
        else:
            g, d, step = blocks[0]
            blocks[0] = (g, np.full_like(d, np.nan), step)
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_penalized(p_mat, q_vec, blocks, BUDGET, x_init=current)

    def test_non_finite_warm_start_rejected(self):
        p_mat, q_vec, blocks, current = rebalance_problem(0, 5)
        rep = solve_penalized(p_mat, q_vec, blocks, BUDGET, x_init=current)
        state = rep.meta["state"]
        bad = AdmmState(x=state.x, z=state.z, u=np.full_like(state.u, np.nan),
                        phi=state.phi, r_norm=state.r_norm, s_norm=state.s_norm,
                        iterations=state.iterations)
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_penalized(p_mat, q_vec, blocks, BUDGET, warm=bad)
