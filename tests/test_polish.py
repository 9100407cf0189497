"""The exact L1 route: ``solve_penalized`` sends every problem with L1
rows, no prox block and no set but the constraint set to ``qp.solve_qp``,
whose active set handles the L1 rows' kinks.  Its weights
match the lifted ``augment_l1`` QP, its multipliers pass an independent KKT
check and the certificate built from the problem data, no ADMM loop runs,
and problems with Lp blocks or norm balls still run ADMM."""

import numpy as np
import pytest

from roboalloc import admm, qp
from roboalloc.admm import solve_mixed_lp, solve_penalized
from roboalloc.mvo import ConstraintSet, exact_problem
from roboalloc.pipeline import RoboConfig, rebalance
from roboalloc.prox import L2Ball
from roboalloc.qp import QpProblem, augment_l1, solve_qp
from roboalloc.regularizers import PenaltySpec
from roboalloc.views import grades_to_expected_returns
from tests.conftest import random_spd

EW10 = np.full(10, 0.1)


@pytest.fixture
def admm_runs(monkeypatch):
    """The problems ``admm_solve`` is called on."""
    runs, loop = [], admm.admm_solve

    def recording(prob, *args, **kwargs):
        runs.append(prob)
        return loop(prob, *args, **kwargs)

    monkeypatch.setattr(admm, "admm_solve", recording)
    return runs


def oracle(p_mat, q_vec, cons, l1, warm=None):
    """The exact answer as ``augment_l1``'s QP.

    When the first ``n`` of the L1 rows ``l1 = (G, d, rho)`` make a
    positive diagonal matrix they are split on ``x`` itself; every other
    row ``(g, d)`` on a new variable ``y = g x``, so ``augment_l1`` prices
    ``rho |y - d| = rho |g x - d|`` exactly for any ``g``.  The solve is
    cold, or starts at the lift of the feasible weights ``warm``: the active
    set ends only at an optimum of the lifted QP, wherever it starts."""
    n = q_vec.size
    g, d, rho = l1
    g0 = g[:n]
    split_x = (g0.shape[0] == n and np.array_equal(g0, np.diag(np.diag(g0)))
               and (np.diag(g0) > 0).all())
    first = n if split_x else 0
    k = d.size - first
    m = n + k
    weight, anchor = np.zeros(m), np.zeros(m)
    if split_x:
        weight[:n] = rho[:n] * np.diag(g0)
        anchor[:n] = d[:n] / np.diag(g0)
    base = exact_problem(np.zeros((n, n)), np.zeros(n), None, cons)
    eq, ineq = base.eq, base.ineq
    rows = np.vstack([np.hstack([eq[0], np.zeros((eq[0].shape[0], k))]),
                      np.hstack([g[first:], -np.eye(k)])])
    weight[n:], anchor[n:] = rho[first:], d[first:]
    q_mat = np.zeros((m, m))
    q_mat[:n, :n] = p_mat
    pad = np.full(m - n, np.inf)
    problem = QpProblem(
        Q=q_mat, c=np.concatenate([-q_vec, np.zeros(m - n)]),
        eq=(rows, np.concatenate([eq[1], np.zeros(k)])),
        ineq=(np.hstack([ineq[0], np.zeros((ineq[1].size, m - n))]), ineq[1]),
        lower=np.concatenate([base.lower, -pad]), upper=np.concatenate([base.upper, pad]))
    x0 = None
    if warm is not None:
        y = np.concatenate([warm, g[first:] @ warm])
        x0 = np.concatenate([y, np.maximum(anchor - y, 0.0), np.maximum(y - anchor, 0.0)])
    return solve_qp(augment_l1(problem, np.diag(weight), 1.0, anchor), x0=x0).weights[:n]


def kkt_violation(p_mat, q_vec, cons, l1, x, duals):
    """Largest violation of optimality of ``x`` with the reported ``duals``,
    for L1 rows on one weight each: feasibility, signs and complementarity of the
    multipliers, and 0 in each weight's interval of stationarity."""
    base = exact_problem(np.zeros((x.size, x.size)), np.zeros(x.size), None, cons)
    eq, ineq, lower, upper = base.eq, base.ineq, base.lower, base.upper
    grad = p_mat @ x - q_vec + eq[0].T @ duals["eq"] - duals["lower"] + duals["upper"]
    worst = [np.abs(eq[0] @ x - eq[1]).max(), (lower - x).max(), (x - upper).max(),
             -duals["lower"].min(), -duals["upper"].min(),
             np.abs(duals["lower"] * np.where(np.isfinite(lower), x - lower, 1.0)).max(),
             np.abs(duals["upper"] * np.where(np.isfinite(upper), upper - x, 1.0)).max()]
    if ineq[1].size:
        slack = ineq[0] @ x - ineq[1]
        grad = grad - ineq[0].T @ duals["ineq"]
        worst += [-slack.min(), -duals["ineq"].min(), np.abs(duals["ineq"] * slack).max()]
    low, high = grad.copy(), grad.copy()
    g, d, rho = l1
    col = np.abs(g).argmax(axis=1)
    coef = g[np.arange(d.size), col]
    off = coef * x[col] - d
    kink = np.abs(off) <= 1e-12
    slope = rho * coef * np.sign(off)
    np.add.at(low, col, np.where(kink, -rho * np.abs(coef), slope))
    np.add.at(high, col, np.where(kink, rho * np.abs(coef), slope))
    worst.append(np.maximum(low, -high).max())
    return max(worst)


def config(seed, n, gamma1, anchors, l2, general):
    """A rebalance with one or two L1 anchors, ``gamma1`` the identity
    (``None``), a positive diagonal or a general nonnegative matrix, with or
    without L2 anchors, over budget and box with or without ``ineq`` rows."""
    rng = np.random.default_rng([seed, n])
    sigma = random_spd(rng, n, 0.04)
    mu = rng.normal(0.05, 0.05, n)
    strategic, current = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    matrix = {"identity": None, "diagonal": rng.uniform(0.5, 2.0, n),
              "general": np.eye(n) + 0.3 * rng.uniform(0.0, 1.0, (n, n))}[gamma1]
    ineq = None
    if general:  # x_0 + x_1 >= 0.1 and x_2 + x_3 + x_4 <= 0.5
        rows = np.zeros((2, n))
        rows[0, :2], rows[1, 2:5] = 1.0, -1.0
        ineq = (rows, [0.1, -0.5])
    cons = ConstraintSet(budget=1.0, lower=0.0, upper=max(0.3, 2.0 / n), ineq=ineq)
    slots = dict(rho1_strategic=2e-3, gamma1_strategic=matrix)
    if anchors == 2:
        slots.update(rho1_turnover=1e-3)
    if l2:
        slots.update(rho2_strategic=0.02, rho2_turnover=0.01)
    cfg = RoboConfig(strategic=strategic, current=current, objective="tracking_error",
                     gamma=0.5, constraints=cons, **slots)
    return cfg, mu, sigma


CASES = [(5, "identity", 1, False, False), (5, "identity", 2, True, True),
         (5, "general", 2, False, True), (20, "diagonal", 1, True, False),
         (20, "general", 1, False, True), (20, "identity", 2, True, False),
         (20, "diagonal", 2, False, True), (50, "identity", 1, True, False),
         (50, "diagonal", 1, False, True)]


@pytest.mark.parametrize("n,gamma1,anchors,l2,general", CASES,
                         ids=[f"{n}-{g}-{a}anchor{'-l2' if l2 else ''}{'-ineq' if i else ''}"
                              for n, g, a, l2, i in CASES])
def test_polished_weights_are_exact_and_certified(n, gamma1, anchors, l2, general,
                                                  admm_runs):
    cfg, mu, sigma = config(n, n, gamma1, anchors, l2, general)
    rep = rebalance(cfg, mu, sigma)
    assert rep.converged and admm_runs == []
    assert rep.duals is not None and set(rep.duals) == {"eq", "ineq", "lower", "upper"}
    assert max(rep.r_norm, rep.s_norm) <= 1e-12
    problem = rep.meta["working_set"][0]  # the QP the route solved
    p_mat, q_vec, l1 = problem.Q, -problem.c, problem.l1
    assert np.abs(rep.weights - oracle(p_mat, q_vec, cfg.constraints, l1)).max() <= 1e-10
    if gamma1 != "general":
        assert kkt_violation(p_mat, q_vec, cfg.constraints, l1, rep.weights,
                             rep.duals) <= 1e-12


def test_wrong_working_set_is_refused():
    # a warm start at the current book puts every turnover row at its kink
    # and no weight at a bound, against a handful of kinks at the answer:
    # the multiplier test drops the wrong states and the weights are those
    # of the cold solve
    cfg, mu, sigma = config(3, 20, "identity", 2, False, False)
    cold = rebalance(cfg, mu, sigma)
    warm = rebalance(cfg, mu, sigma, warm=cfg.current)
    assert warm.converged and (np.abs(warm.weights - cfg.current) > 1e-6).sum() > 10
    assert np.abs(warm.weights - cold.weights).max() <= 1e-13
    assert max(warm.r_norm, warm.s_norm) <= 1e-12


def test_certificate_refuses_a_moved_point():
    # the certificate reads only the problem data: the exact answer passes,
    # the same point nudged along the budget does not
    cfg, mu, sigma = config(4, 20, "identity", 2, True, False)
    rep = rebalance(cfg, mu, sigma)
    problem = rep.meta["working_set"][0]  # the QP with L1 rows that the route solved
    args = (rep.duals["eq"], np.zeros(0), rep.duals["ineq"])
    r_norm, s_norm, lower, upper = qp.certificate(problem, rep.weights, *args)
    assert max(r_norm, s_norm) <= 1e-12
    assert np.array_equal(lower, rep.duals["lower"]) and np.array_equal(upper, rep.duals["upper"])
    free = np.flatnonzero((rep.weights > 1e-3) & (rep.weights < 0.29))[:2]
    moved = rep.weights.copy()
    moved[free] += [1e-6, -1e-6]
    assert qp.certificate(problem, moved, *args)[1] > 1e-8


class TestNeverPolished:
    """Lp blocks and norm-ball extra sets still run ADMM."""

    def test_lp_block(self, admm_runs):
        rng = np.random.default_rng(1)
        a1, b1 = rng.normal(size=(8, 5)), rng.normal(size=8)
        rep = solve_mixed_lp(a1, b1, None, PenaltySpec(kind="lp", rho=1e-2, p=1.5),
                             constraints=ConstraintSet(budget=1.0, lower=0.0, upper=0.6))
        assert rep.converged and len(admm_runs) == 1 and rep.duals is None

    def test_norm_ball_extra_set(self, admm_runs, ten_asset):
        _, _, sigma = ten_asset
        cfg = RoboConfig(strategic=EW10, current=np.random.default_rng(0).dirichlet(np.ones(10)),
                         objective="mvo", gamma=0.5, rho1_turnover=1e-3,
                         extra_sets=(L2Ball(0.35),))
        rep = rebalance(cfg, np.linspace(0.02, 0.08, 10), sigma)
        assert len(admm_runs) == 1 and rep.duals is None


def test_ten_asset_mvo_turnover_case_polished_early(ten_asset, admm_runs):
    # cond(sigma) about 3,700: ADMM's residual stop took 8,496 iterations and
    # left the weights 5.5e-9 from the exact answer
    _, _, sigma = ten_asset
    scores = np.array([1, 0, 1, 0, 1, 0, 0, 1, 0, 1])
    _, _, mu = grades_to_expected_returns(EW10, sigma, 0.0, 0.5, scores)
    current = np.random.default_rng(0).dirichlet(np.ones(10))
    cfg = RoboConfig(strategic=EW10, current=current, objective="mvo", gamma=0.5,
                     rho1_turnover=1e-3)
    rep = rebalance(cfg, mu, sigma)
    assert rep.converged and rep.iterations <= 100
    assert admm_runs == []
    exact = solve_qp(augment_l1(exact_problem(sigma, 0.5 * mu, None, cfg.constraints),
                                np.eye(10), 1e-3, current))
    assert np.abs(rep.weights - exact.weights[:10]).max() <= 1e-12


def test_generic_split_without_constraints_polishes(admm_runs):
    # no sets at all: the soft-threshold rows alone make the working set
    rng = np.random.default_rng(7)
    p_mat = random_spd(rng, 6)
    q_vec = rng.normal(size=6)
    rep = solve_penalized(p_mat, q_vec, (np.eye(6), np.zeros(6), 0.3), [])
    assert admm_runs == []
    x = rep.weights
    grad = p_mat @ x - q_vec
    kink = x == 0.0
    assert np.abs(grad[~kink] + 0.3 * np.sign(x[~kink])).max() <= 1e-12
    assert np.abs(grad[kink]).max(initial=0.0) <= 0.3


def test_large_rho_unanchored_lasso_polished(four_asset_alt, admm_runs):
    # acceptance test 09's last lasso point: at rho1 = 1e3 ADMM's residual
    # stop took 1,126 iterations to land 5e-10 from the answer
    mu, _, _, sigma = four_asset_alt
    cfg = RoboConfig(strategic=np.zeros(4), current=np.zeros(4), objective="mvo",
                     gamma=0.25, constraints=ConstraintSet(budget=1.0), rho1_strategic=1e3)
    rep = rebalance(cfg, mu, sigma)
    assert rep.converged and admm_runs == []
    long_only = solve_qp(QpProblem(Q=sigma, c=-0.25 * mu, eq=(np.ones((1, 4)), [1.0]),
                                   lower=0.0))
    assert np.abs(rep.weights - long_only.weights).max() <= 1e-11


def l1_value(p_mat, q_vec, l1, x):
    g, d, rho = l1
    return 0.5 * x @ p_mat @ x - q_vec @ x + rho @ np.abs(g @ x - d)


def l1_rows(terms):
    """The L1 terms ``(G, d, rho)``, one per penalty, stacked as the rows
    that ``solve_penalized`` takes."""
    g, d, rho = zip(*terms)
    return (np.vstack(g), np.concatenate(d),
            np.concatenate([np.full(di.size, r) for di, r in zip(d, rho)]))


class TestDegenerateWorkingSets:
    """Seeded problems whose L1 working sets are degenerate, against the
    lifted ``augment_l1`` QP: the weights to 1e-10 (the objective to 1e-12
    relative when ``P`` is singular), the certificate at 1e-12 relative to
    the scale of the data and, for rows on one weight each, the independent
    KKT check of the duals."""

    @staticmethod
    def solve(p_mat, q_vec, l1, cons, warm=None, unique=True):
        rep = solve_penalized(p_mat, q_vec, l1, [], cons, x_init=warm)
        x = rep.weights
        g, _, rho = l1
        force = max(1.0, np.abs(q_vec).max(), np.abs(p_mat @ x).max(),
                    (rho * np.abs(g).max(axis=1)).max())
        assert rep.converged and rep.r_norm <= 1e-12 * max(1.0, np.abs(x).max())
        assert rep.s_norm <= 1e-12 * force
        exact = oracle(p_mat, q_vec, cons, l1)
        if unique:
            assert np.abs(rep.weights - exact).max() <= 1e-10
        else:
            best = l1_value(p_mat, q_vec, l1, exact)
            assert l1_value(p_mat, q_vec, l1, rep.weights) <= best + 1e-12 * abs(best)
        if (np.count_nonzero(g, axis=1) == 1).all():
            assert kkt_violation(p_mat, q_vec, cons, l1, x, rep.duals) <= 1e-12 * force
        return rep

    @staticmethod
    def rebalance_parts(seed, n, strategic, current, rho1=(2e-3, 1e-3), upper=0.5):
        rng = np.random.default_rng([seed, n, 7])
        sigma = random_spd(rng, n, 0.04)
        cfg = RoboConfig(strategic=strategic, current=current, gamma=0.5,
                         rho1_strategic=rho1[0], rho1_turnover=rho1[1],
                         constraints=ConstraintSet(budget=1.0, lower=0.0, upper=upper))
        problem = rebalance(cfg, rng.normal(0.05, 0.05, n), sigma).meta["working_set"][0]
        return problem.Q, -problem.c, problem.l1, cfg.constraints

    @pytest.mark.parametrize("seed", range(6))
    def test_kink_on_a_bound(self, seed):
        # strategic weights of 0 above lower bounds of 0: kink and bound coincide
        rng = np.random.default_rng([seed, 1])
        n = 8
        strategic = rng.dirichlet(np.ones(n))
        strategic[:4] = 0.0
        strategic /= strategic.sum()
        parts = self.rebalance_parts(seed, n, strategic, rng.dirichlet(np.ones(n)),
                                     rho1=(2e-2, 1e-3))
        rep = self.solve(*parts)
        assert (rep.weights[:4] == 0.0).any()

    @pytest.mark.parametrize("seed", range(6))
    def test_both_anchors_equal_on_one_weight(self, seed):
        rng = np.random.default_rng([seed, 2])
        n = 8
        strategic = rng.dirichlet(np.full(n, 5.0))
        current = strategic.copy()
        current[[6, 7]] += [0.04, -0.04]  # anchors equal on weights 0-5
        parts = self.rebalance_parts(seed, n, strategic, current, rho1=(2e-2, 1e-2))
        rep = self.solve(*parts)
        assert (rep.weights[:6] == strategic[:6]).any()

    @pytest.mark.parametrize("seed", range(6))
    def test_signed_general_rows(self, seed):
        # rows that mix long and short bets, one of them on its kink
        rng = np.random.default_rng([seed, 3])
        n = 7
        p_mat = random_spd(rng, n, 0.04)
        q_vec = rng.normal(0.0, 0.05, n)
        anchor = rng.dirichlet(np.ones(n))
        g1 = np.eye(n) + 0.4 * rng.normal(size=(n, n))
        g2 = rng.normal(size=(3, n))
        l1 = l1_rows([(g1, g1 @ anchor, 5e-3), (g2, g2 @ anchor, 2e-2)])
        cons = ConstraintSet(budget=1.0, lower=-0.2, upper=0.6)
        self.solve(p_mat, q_vec, l1, cons)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("anchored", [False, True], ids=["lasso", "anchored"])
    def test_budget_only_large_rho(self, seed, anchored):
        # rho1 = 1e3 with the budget row alone: the kinks fix (nearly) every weight
        rng = np.random.default_rng([seed, 4])
        n = 6
        p_mat = random_spd(rng, n, 0.04)
        q_vec = rng.normal(0.0, 0.05, n)
        anchor = rng.dirichlet(np.ones(n)) if anchored else np.zeros(n)
        l1 = (np.eye(n), anchor, np.full(n, 1e3))
        rep = self.solve(p_mat, q_vec, l1, ConstraintSet(budget=1.0))
        if anchored:
            assert np.abs(rep.weights - anchor).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_rank_deficient_p(self, seed):
        # P of rank 2 on 8 weights: the answer's weights need not be unique
        rng = np.random.default_rng([seed, 5])
        n = 8
        factor = rng.normal(size=(n, 2))
        p_mat = factor @ factor.T * 0.02
        q_vec = rng.normal(0.0, 0.02, n)
        strategic, current = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        l1 = l1_rows([(np.eye(n), strategic, 1e-3), (np.eye(n), current, 5e-4)])
        self.solve(p_mat, q_vec, l1, ConstraintSet(budget=1.0, lower=0.0, upper=0.4),
                   unique=False)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("at", ["strategic", "current"])
    def test_warm_start_on_kinks(self, seed, at):
        # a warm start at an anchor sits on every kink of that anchor's rows
        rng = np.random.default_rng([seed, 6])
        n = 10
        strategic, current = rng.dirichlet(np.full(n, 2.0)), rng.dirichlet(np.full(n, 2.0))
        parts = self.rebalance_parts(seed, n, strategic, current)
        cold = self.solve(*parts)
        warm = self.solve(*parts, warm={"strategic": strategic, "current": current}[at])
        assert np.abs(warm.weights - cold.weights).max() <= 1e-12
