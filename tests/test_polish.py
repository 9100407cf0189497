"""ADMM polish: on L1-penalized problems over a box and halfspaces the loop
turns an iterate into the exact answer and keeps it only under a
certificate of optimality; a refused candidate leaves the loop as it was,
and problems with other steps or sets never polish."""

import math

import numpy as np
import pytest

from roboalloc import admm, prox
from roboalloc.admm import solve_mixed_lp, solve_penalized
from roboalloc.mvo import ConstraintSet
from roboalloc.pipeline import RoboConfig, _terms, rebalance
from roboalloc.prox import L2Ball
from roboalloc.qp import QpProblem, augment_l1, solve_qp
from roboalloc.regularizers import PenaltySpec
from roboalloc.views import grades_to_expected_returns
from tests.conftest import random_spd

EW10 = np.full(10, 0.1)


def oracle(p_mat, q_vec, cons, blocks):
    """The exact answer as ``augment_l1``'s QP.

    A first block with a nonnegative diagonal ``G`` is split on ``x``
    itself; every other block ``(G, d)`` on a new variable ``y = G x``, so
    ``augment_l1`` prices ``rho ||y - d||_1 = rho ||G x - d||_1`` exactly for
    any ``G``."""
    n = q_vec.size
    g0 = blocks[0][0]
    split_x = np.array_equal(g0, np.diag(np.diag(g0))) and (np.diag(g0) > 0).all()
    lifted = blocks[1:] if split_x else blocks
    m = n + sum(g.shape[0] for g, _, _ in lifted)
    weight, anchor = np.zeros(m), np.zeros(m)
    if split_x:
        weight[:n] = blocks[0][2].rho * np.diag(g0)
        anchor[:n] = blocks[0][1] / np.diag(g0)
    eq, ineq, lower, upper = cons.qp_pieces(n)
    rows, rhs = [np.hstack([eq[0], np.zeros((eq[0].shape[0], m - n))])], [eq[1]]
    start = n
    for g, d, step in lifted:
        k = g.shape[0]
        block = np.zeros((k, m))
        block[:, :n], block[:, start:start + k] = g, -np.eye(k)
        rows.append(block)
        rhs.append(np.zeros(k))
        weight[start:start + k], anchor[start:start + k] = step.rho, d
        start += k
    q_mat = np.zeros((m, m))
    q_mat[:n, :n] = p_mat
    pad = np.full(m - n, np.inf)
    problem = QpProblem(
        Q=q_mat, c=np.concatenate([-q_vec, np.zeros(m - n)]),
        eq=(np.vstack(rows), np.concatenate(rhs)),
        ineq=None if ineq is None else (np.hstack([ineq[0], np.zeros((ineq[0].shape[0],
                                                                      m - n))]), ineq[1]),
        lower=np.concatenate([np.broadcast_to(lower, (n,)), -pad]),
        upper=np.concatenate([np.broadcast_to(upper, (n,)), pad]))
    return solve_qp(augment_l1(problem, np.diag(weight), 1.0, anchor)).weights[:n]


def kkt_violation(p_mat, q_vec, cons, blocks, x, duals):
    """Largest violation of optimality of ``x`` with the reported ``duals``,
    for diagonal L1 blocks: feasibility, signs and complementarity of the
    multipliers, and 0 in each weight's interval of stationarity."""
    eq, ineq, lower, upper = cons.qp_pieces(x.size)
    lower, upper = np.broadcast_to(lower, x.shape), np.broadcast_to(upper, x.shape)
    grad = p_mat @ x - q_vec + eq[0].T @ duals["eq"] - duals["lower"] + duals["upper"]
    worst = [np.abs(eq[0] @ x - eq[1]).max(), (lower - x).max(), (x - upper).max(),
             -duals["lower"].min(), -duals["upper"].min(),
             np.abs(duals["lower"] * (x - lower)).max(),
             np.abs(duals["upper"] * (upper - x)).max()]
    if ineq is not None:
        slack = ineq[0] @ x - ineq[1]
        grad = grad - ineq[0].T @ duals["ineq"]
        worst += [-slack.min(), -duals["ineq"].min(), np.abs(duals["ineq"] * slack).max()]
    low, high = grad.copy(), grad.copy()
    for g, d, step in blocks:
        w = step.rho * np.diag(g)
        off = np.diag(g) * x - d
        kink = np.abs(off) <= 1e-12
        low += np.where(kink, -w, w * np.sign(off))
        high += np.where(kink, w, w * np.sign(off))
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
def test_polished_weights_are_exact_and_certified(n, gamma1, anchors, l2, general):
    cfg, mu, sigma = config(n, n, gamma1, anchors, l2, general)
    rep = rebalance(cfg, mu, sigma)
    assert rep.converged and rep.meta["polish"]["iteration"] == rep.iterations
    assert rep.duals is not None and set(rep.duals) == {"eq", "ineq", "lower", "upper"}
    assert max(rep.r_norm, rep.s_norm) <= 1e-12
    p_mat, q_vec, blocks, _ = _terms(cfg, mu, sigma, cfg.gamma)
    assert np.abs(rep.weights - oracle(p_mat, q_vec, cfg.constraints, blocks)).max() <= 1e-10
    if gamma1 != "general":
        assert kkt_violation(p_mat, q_vec, cfg.constraints, blocks, rep.weights,
                             rep.duals) <= 1e-12


def test_wrong_working_set_is_refused(monkeypatch):
    # every L1 row read on the wrong side of its kink: each candidate fails
    # its certificate and the loop ends as it does with no polish at all
    cfg, mu, sigma = config(3, 20, "identity", 2, False, False)
    monkeypatch.setattr(admm, "_POLISH_FIRST", math.inf)
    plain = rebalance(cfg, mu, sigma)
    monkeypatch.undo()
    attempt, refused = admm._Polish.attempt, []

    def flipped(self, x, z):
        z = z.copy()
        z[self.l1] = -z[self.l1]
        out = attempt(self, x, z)
        refused.append(out is None)
        return out

    monkeypatch.setattr(admm._Polish, "attempt", flipped)
    rep = rebalance(cfg, mu, sigma)
    assert refused and all(refused)
    assert rep.meta["polish"] == {"iteration": None, "attempts": len(refused)}
    assert rep.duals is None
    assert (rep.status, rep.iterations, rep.r_norm, rep.s_norm) == \
        (plain.status, plain.iterations, plain.r_norm, plain.s_norm)
    assert np.array_equal(rep.weights, plain.weights)


def test_certificate_refuses_a_moved_point():
    # the certificate reads only the problem data: the exact answer passes,
    # the same point nudged along the budget does not
    cfg, mu, sigma = config(4, 20, "identity", 2, True, False)
    p_mat, q_vec, blocks, _ = _terms(cfg, mu, sigma, cfg.gamma)
    a_eq, b_eq, sets = cfg.constraints.admm_pieces(20)
    polish = admm._Polish.of(admm._StackedProblem(p_mat, q_vec, a_eq, b_eq, blocks, sets))
    rep = rebalance(cfg, mu, sigma)
    args = (rep.duals["eq"], np.zeros(0), rep.duals["ineq"])
    r_norm, s_norm, lower, upper = polish.certificate(rep.weights, *args)
    assert max(r_norm, s_norm) <= 1e-12
    assert np.array_equal(lower, rep.duals["lower"]) and np.array_equal(upper, rep.duals["upper"])
    free = np.flatnonzero((rep.weights > 1e-3) & (rep.weights < 0.29))[:2]
    moved = rep.weights.copy()
    moved[free] += [1e-6, -1e-6]
    assert polish.certificate(moved, *args)[1] > 1e-8


class TestNeverPolished:
    """Lp blocks and norm-ball extra sets are outside the polish:
    ``_Polish.of`` declines every problem they make."""

    @pytest.fixture
    def made(self, monkeypatch):
        made, of = [], admm._Polish.of.__func__

        def recording(cls, prob):
            made.append(of(cls, prob))
            return made[-1]

        monkeypatch.setattr(admm._Polish, "of", classmethod(recording))
        return made

    def test_lp_block(self, made):
        rng = np.random.default_rng(1)
        a1, b1 = rng.normal(size=(8, 5)), rng.normal(size=8)
        rep = solve_mixed_lp(a1, b1, None, PenaltySpec(kind="lp", rho=1e-2, p=1.5),
                             constraints=ConstraintSet(budget=1.0, lower=0.0, upper=0.6))
        assert rep.converged and made == [None] and "polish" not in rep.meta

    def test_norm_ball_extra_set(self, made, ten_asset):
        _, _, sigma = ten_asset
        cfg = RoboConfig(strategic=EW10, current=np.random.default_rng(0).dirichlet(np.ones(10)),
                         objective="mvo", gamma=0.5, rho1_turnover=1e-3,
                         extra_sets=(L2Ball(0.35),))
        rep = rebalance(cfg, np.linspace(0.02, 0.08, 10), sigma)
        assert made == [None] and "polish" not in rep.meta


def test_ten_asset_mvo_turnover_case_polished_early(ten_asset):
    # cond(sigma) about 3,700: the residual stop took 8,496 iterations and
    # left the weights 5.5e-9 from the exact answer
    _, _, sigma = ten_asset
    scores = np.array([1, 0, 1, 0, 1, 0, 0, 1, 0, 1])
    _, _, mu = grades_to_expected_returns(EW10, sigma, 0.0, 0.5, scores)
    current = np.random.default_rng(0).dirichlet(np.ones(10))
    cfg = RoboConfig(strategic=EW10, current=current, objective="mvo", gamma=0.5,
                     rho1_turnover=1e-3)
    rep = rebalance(cfg, mu, sigma)
    assert rep.converged and rep.iterations <= 100
    assert rep.meta["polish"]["iteration"] == rep.iterations
    eq, _, lower, upper = cfg.constraints.qp_pieces(10)
    exact = solve_qp(augment_l1(QpProblem(Q=sigma, c=-0.5 * mu, eq=eq, lower=lower,
                                          upper=upper), np.eye(10), 1e-3, current))
    assert np.abs(rep.weights - exact.weights[:10]).max() <= 1e-12


def test_generic_split_without_constraints_polishes():
    # no sets at all: the soft-threshold rows alone make the working set
    rng = np.random.default_rng(7)
    p_mat = random_spd(rng, 6)
    q_vec = rng.normal(size=6)
    rep = solve_penalized(p_mat, q_vec, [(np.eye(6), np.zeros(6),
                                          prox.SoftThreshold(0.3))])
    assert rep.meta["polish"]["iteration"] == rep.iterations
    x = rep.weights
    grad = p_mat @ x - q_vec
    kink = x == 0.0
    assert np.abs(grad[~kink] + 0.3 * np.sign(x[~kink])).max() <= 1e-12
    assert np.abs(grad[kink]).max(initial=0.0) <= 0.3


def test_large_rho_unanchored_lasso_polished(four_asset_alt):
    # acceptance test 09's last lasso point: at rho1 = 1e3 the KKT step left
    # the budget row 3e-11 off, so every attempt was refused and the residual
    # stop took 1,126 iterations to land 5e-10 from the answer
    mu, _, _, sigma = four_asset_alt
    cfg = RoboConfig(strategic=np.zeros(4), current=np.zeros(4), objective="mvo",
                     gamma=0.25, constraints=ConstraintSet(budget=1.0), rho1_strategic=1e3)
    rep = rebalance(cfg, mu, sigma)
    assert rep.converged and rep.meta["polish"]["iteration"] == rep.iterations
    long_only = solve_qp(QpProblem(Q=sigma, c=-0.25 * mu, eq=(np.ones((1, 4)), [1.0]),
                                   lower=0.0))
    assert np.abs(rep.weights - long_only.weights).max() <= 1e-11
