"""Penalized portfolio problems: ``solve_penalized`` takes L1 penalties as
rows and the others as prox blocks.  Without a prox block or an extra set
the problem goes to ``qp.solve_qp``, exact on the L1 rows' kinks; the rest
(Lp penalties, norm balls and other extra sets) go to ``admm_solve``,
scaled, over-relaxed ADMM on the same ``qp.QpProblem``, the L1 rows one
soft-thresholding block there.  Cardinality is an exact branch-and-bound
on the QP.  ``admm_solve`` is the one ADMM loop: it starts at the penalty
``sqrt(lmin lmax)`` of the spectrum of ``P``, rescales it in its first
``_BALANCE_ITERATIONS`` iterations only, then holds it fixed, and
over-relaxes every iteration by ``_RELAXATION`` (Boyd et al., 2011,
§3.4.3; the default of OSQP)."""

from __future__ import annotations

import heapq
import itertools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import prox
from .errors import Infeasible, NoConvergence
from .market_data import refuse_indefinite
from .mvo import ConstraintSet, exact_problem
from .qp import QpProblem, _linalg, feasible_point, solve_qp
from .regularizers import penalty_matrix, penalty_terms
from .report import CONVERGED, DIVERGED, MAX_ITER, SolveReport

_DIVERGE_LIMIT = 1e12
_BALANCE_RATIO = 1e3       # squared-residual ratio that rescales the penalty
_BALANCE_STEP = 2.0        # by this factor
_BALANCE_ITERATIONS = 100  # after which the penalty is fixed
_SPECTRAL_FLOOR = 1e-6     # floor of lmin / lmax in the starting penalty
_RELAXATION = 1.6          # over-relaxation alpha; 1 is plain ADMM
_ZERO_BET = 1e-9           # a node's bet this small, relative to the largest (or 1), is zero
_GAP_TOL = 1e-12           # relative gap at which the cardinality search stops


@dataclass
class AdmmParams:
    """Stop tolerances and iteration cap of ``admm_solve``; ``max_iter`` also
    caps the nodes of ``solve_cardinality``.  The tolerances must be finite
    and positive and ``max_iter`` an integer of at least 1 (``ValueError``
    otherwise).  Nothing reads ``seed``: it is kept for callers that still
    pass it (acceptance test 11)."""

    eps_primal: float = 1e-10
    eps_dual: float = 1e-10
    max_iter: int = 10000
    seed: int = 0

    def __post_init__(self):
        if not all(0 < eps < math.inf for eps in (self.eps_primal, self.eps_dual)):
            raise ValueError("tolerances must be finite and positive")
        m = self.max_iter
        if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
            raise ValueError(f"max_iter must be an integer of at least 1, not {m!r}")


def lu_factor(a):
    """``scipy.linalg.lu_factor(a)``, scipy being imported at the first
    factorization (``qp._linalg``)."""
    return _linalg().lu_factor(a)


def lu_solve(factors, b):
    """``scipy.linalg.lu_solve`` of ``b`` on ``lu_factor``'s ``factors``,
    without its finiteness check."""
    return _linalg().lu_solve(factors, b, check_finite=False)


def admm_solve(problem: QpProblem, blocks=(), extra_sets=(), params: AdmmParams | None = None,
               x_init=None) -> SolveReport:
    """Scaled, over-relaxed ADMM on ``problem`` with prox ``blocks`` and
    ``extra_sets``.

    The problem ``min 0.5 x'Qx + c'x + sum_i g_i(G_i x - d_i)`` is split as
    ``A x - z = c_s``, ``A`` stacking the ``G_i`` and ``c_s`` the ``d_i`` of
    one list of blocks ``(G_i, d_i, step_i)``: the L1 rows first as one
    soft-thresholding block (``prox.prox_l1``), then ``blocks``, where
    ``step_i(v, phi)`` is the prox of ``g_i / phi``, then, when any set is
    left (``extra_sets``, a ``Box`` when a bound is finite, one
    ``Halfspace`` per inequality row), an identity block with a zero offset
    whose step projects onto their intersection
    (``prox.project_intersection``).  The x-step is one LU solve of the KKT
    matrix with the equality rows, factored once per penalty ``phi``; the
    z-step is each block's own step on its rows.

    The loop starts at ``z_i = G_i x_init - d_i`` (``z = 0`` without
    ``x_init``), ``u = 0`` and the penalty ``sqrt(lmin lmax)`` of the
    spectrum of ``Q`` (Ghadimi et al., IEEE TAC 2015), or 1 when ``Q`` is
    zero.  Each iteration forms ``A x`` once.  With ``alpha =
    _RELAXATION``, the z-step and the dual update use the relaxed ``alpha A
    x + (1 - alpha)(z + c_s)`` in place of ``A x``; the stop test uses the
    primal residual ``A x - z - c_s`` and the dual residual ``phi A'(z_old -
    z)``.  In its first ``_BALANCE_ITERATIONS`` iterations the loop doubles
    (halves) the penalty when the squared primal (dual) residual exceeds the
    other by ``_BALANCE_RATIO``, rescaling ``u`` to keep the fixed point;
    then the penalty is fixed.  A ``Q`` that ``market_data.refuse_indefinite``
    refuses, read from the spectrum the penalty starts from, is
    ``NotPositiveSemidefinite`` before the first iteration.  A non-finite
    block offset is a ``ValueError``; what the loop itself produces is guarded by the
    divergence test, a non-finite primal residual ending it as
    ``diverged``.  The report holds the last ``x``, the status, the
    iterations and both residual norms; its ``objective`` is NaN.
    """
    params = params or AdmmParams()
    n, (a_eq, b_eq), p_mat, q = problem.n, problem.eq, problem.Q, -problem.c
    if problem.l1 is not None:
        g, d, rho = problem.l1
        blocks = [(g, d, lambda v, phi: prox.prox_l1(v, rho / phi)), *blocks]
    sets = list(extra_sets)
    if np.isfinite(problem.lower).any() or np.isfinite(problem.upper).any():
        sets.append(prox.Box(problem.lower, problem.upper))
    sets += [prox.Halfspace(-g, -h) for g, h in zip(*problem.ineq)]  # g'x >= h
    if sets:
        blocks = [*blocks, (np.eye(n), np.zeros(n),
                            lambda v, _phi: prox.project_intersection(v, sets))]
    a = np.vstack([g for g, _, _ in blocks])
    c = np.asarray_chkfinite(np.concatenate([d for _, d, _ in blocks]))
    gram = sum(g.T @ g for g, _, _ in blocks)
    stops = [0, *itertools.accumulate(d.size for _, d, _ in blocks)]
    split = [(slice(i, j), g, step) for i, j, (g, _, step) in zip(stops, stops[1:], blocks)]
    me = a_eq.shape[0]
    rhs = np.concatenate([q, b_eq])
    rhs_x = rhs[:n]
    lam = np.linalg.eigvalsh(p_mat)
    refuse_indefinite(lam)  # the residuals certify a convex problem only
    lo, top = lam[[0, -1]]
    phi = math.sqrt(max(lo, _SPECTRAL_FLOOR * top) * top) if top > 0 else 1.0
    factors = {}  # phi -> LU of the x-step's KKT matrix
    alpha, beta = _RELAXATION, 1.0 - _RELAXATION
    z = np.zeros(c.size) if x_init is None else a @ x_init - c
    u = np.zeros(c.size)
    x = None
    r_norm = s_norm = math.inf
    status = MAX_ITER
    it = 0
    for it in range(1, params.max_iter + 1):
        if phi not in factors:
            factors[phi] = lu_factor(np.block([[p_mat + phi * gram, a_eq.T],
                                               [a_eq, np.zeros((me, me))]]))
        zc = z + c
        w = zc - u
        np.copyto(rhs_x, q)
        for rows, g, _ in split:
            rhs_x += phi * (g.T @ w[rows])
        x = lu_solve(factors[phi], rhs)[:n]
        ax = a @ x
        ax_relaxed = alpha * ax + beta * zc
        v = ax_relaxed - c + u
        z_new = np.empty(c.size)
        for rows, _, step in split:
            z_new[rows] = step(v[rows], phi)
        r = ax - z_new - c
        u += ax_relaxed - z_new - c
        s = phi * (a.T @ (z - z_new))
        z = z_new
        r_norm = math.sqrt(r @ r)
        s_norm = math.sqrt(s @ s)
        if not math.isfinite(r_norm) or r_norm > _DIVERGE_LIMIT or s_norm > _DIVERGE_LIMIT:
            status = DIVERGED
            break
        if r_norm <= params.eps_primal and s_norm <= params.eps_dual:
            status = CONVERGED
            break
        if it <= _BALANCE_ITERATIONS:
            if r_norm ** 2 > _BALANCE_RATIO * s_norm ** 2:
                phi *= _BALANCE_STEP
                u /= _BALANCE_STEP
            elif s_norm ** 2 > _BALANCE_RATIO * r_norm ** 2:
                phi /= _BALANCE_STEP
                u *= _BALANCE_STEP
    return SolveReport(weights=x, objective=math.nan, status=status, iterations=it,
                       r_norm=r_norm, s_norm=s_norm)


def solve_penalized(p_mat, q_vec, l1, blocks, constraints: ConstraintSet | None = None,
                    extra_sets=(), params: AdmmParams | None = None, x_init=None,
                    objective=None) -> SolveReport:
    """Minimize ``0.5 x'Px - q'x + sum_l rho_l |G_l x - d_l| + sum_i
    g_i(G_i x - d_i)`` over the constraint set intersected with
    ``extra_sets``.

    ``l1`` holds the L1 rows ``(G, d, rho)`` as ``qp.QpProblem`` takes them
    (``None`` for none); ``blocks`` holds one ``(G_i, d_i, step_i)`` per
    other non-smooth term, where ``step_i(v, phi)`` is the prox of ``g_i /
    phi``.  The problem is ``mvo.exact_problem``'s, one ``QpProblem`` for
    both routes, so malformed ``P``, ``q``, L1 rows or constraints are the
    same ``ValueError`` on either; ``solve_problem`` takes the routes.
    """
    return solve_problem(exact_problem(p_mat, q_vec, l1, constraints), blocks, extra_sets,
                         params, x_init, objective)


def solve_problem(problem: QpProblem, blocks=(), extra_sets=(), params: AdmmParams | None = None,
                  x_init=None, objective=None) -> SolveReport:
    """Solve an assembled ``problem`` with prox ``blocks`` over its
    constraint set intersected with ``extra_sets``.

    ``x_init`` is the one start point, normally the weights of a nearby
    problem's answer; it must be a finite vector of ``n`` weights
    (``ValueError`` otherwise).  Without a block or an extra set the problem
    is solved exactly by ``solve_qp`` on the L1 rows; it starts from
    ``x_init`` if that is feasible, else at ``solve_qp``'s own cold start.
    Otherwise phase 1 of ``solve_qp`` first finds the constraint set
    nonempty (``Infeasible`` if not), and ``admm_solve`` runs from
    ``x_init``; a non-finite block offset is a ``ValueError`` before its
    first iteration.  ``objective`` evaluates the reported objective at the
    answer of either route.
    """
    n = problem.n
    if x_init is not None:
        x_init = np.asarray_chkfinite(x_init, dtype=float)
        if x_init.shape != (n,):
            raise ValueError(f"x_init must be a vector of {n} weights, not shape {x_init.shape}")
    if not blocks and not extra_sets:
        report = solve_qp(problem, x0=x_init)
    else:
        feasible_point(problem)
        report = admm_solve(problem, blocks, extra_sets, params, x_init)
    if objective is not None:
        report.objective = float(objective(report.weights))
    return report


def _least_squares_parts(a1, b1, penalties, default_anchor=None):
    """P, q, L1 rows, prox blocks and objective of ``0.5 ||a1 x - b1||^2``
    plus the penalty specs in ``penalties`` (``None`` entries skipped); a
    penalty without an anchor is anchored at ``default_anchor``, else at
    zero."""
    a1 = np.atleast_2d(np.asarray(a1, dtype=float))
    b1 = np.asarray(b1, dtype=float).ravel()
    penalties = [pen if pen.anchor is not None or default_anchor is None
                 else replace(pen, anchor=default_anchor)
                 for pen in penalties if pen is not None]
    p_mat, q_vec, l1, blocks, penalty = penalty_terms(penalties, a1.T @ a1, a1.T @ b1)

    def objective(x):
        res = a1 @ x - b1
        return 0.5 * res @ res + penalty(x)

    return p_mat, q_vec, l1, blocks, objective


def solve_mixed_lp(a1, b1, penalty_l2, penalty_lp, x0=None,
                   constraints: ConstraintSet | None = None, extra_sets=()) -> SolveReport:
    """Least squares with an L2 penalty plus an Lp penalty split off through
    ``Gamma_p (x - x0) = z``; the z-step is the componentwise Lp prox.

    Either penalty may be ``None``.  ``solve_penalized`` routes the problem:
    an ``l1`` second penalty is L1 rows, solved exactly by ``solve_qp``
    without an extra set; an ``lp`` one (``p = 1`` included) is a prox block
    and runs ADMM, which projects onto the constraint set intersected with
    ``extra_sets`` (norm balls and the like).  The penalty matrices may
    carry negative entries, which is what rules out the augmented-QP route.
    The solve starts cold, with the default ``AdmmParams``.
    """
    p_mat, q_vec, l1, blocks, objective = _least_squares_parts(
        a1, b1, [penalty_l2, penalty_lp], x0)
    return solve_penalized(p_mat, q_vec, l1, blocks, constraints, extra_sets,
                           objective=objective)


def solve_cardinality(a1, b1, penalty_l2, gamma1, x0, n1,
                      constraints: ConstraintSet | None = None,
                      params: AdmmParams | None = None) -> SolveReport:
    """Restrict the bets ``gamma1 (x - x0)`` to at most ``n1`` nonzeros, exactly.

    Best-first branch-and-bound on the exact QP (Bienstock, *Math. Prog.*
    1996; Bertsimas & Shioda, *Comput. Optim. Appl.* 2009).  A node pins
    bets to zero as equality rows and keeps others; its ``solve_qp`` answer
    drops the count, so it bounds every node below.  An answer with at most
    ``n1`` bets above ``_ZERO_BET`` is queued again with the others pinned,
    as exact zeros; a node that leaves at most ``n1`` bets unpinned is a
    candidate.  Other nodes branch on their largest bet neither pinned nor
    kept: one child pins it, the other keeps it on the parent's answer, or
    pins all the rest once ``n1`` are kept.  The search stops when no bound
    is below the incumbent (to ``_GAP_TOL``), so the answer is optimal.
    The report's ``objective`` is that QP value, ``0.5 x'Px - q'x``: it
    leaves out the constants of the least-squares objective that
    ``solve_mixed_lp`` reports (``0.5 b1'b1``, and the anchor term of an
    anchored L2 penalty).  ``meta`` holds its ``support`` and the ``nodes``
    taken.  A search past ``params.max_iter`` nodes is ``NoConvergence``,
    naming the bound and the incumbent; no feasible support is
    ``Infeasible``.
    """
    params = params or AdmmParams()
    if penalty_l2 is not None and penalty_l2.kind != "l2":
        raise ValueError("penalty_l2 must be an l2 penalty")
    p_mat, q_vec, _, _, _ = _least_squares_parts(a1, b1, [penalty_l2], x0)
    n = q_vec.size
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).ravel()
    g1 = penalty_matrix(gamma1, n)
    m = g1.shape[0]
    if not 1 <= n1 <= m:
        raise ValueError(f"n1 must be in [1, {m}]")
    base = exact_problem(p_mat, q_vec, None, constraints)
    heap, order = [], itertools.count()

    def push(pinned, kept, rep=None):
        """Queue a node on its parent's ``rep``, else on its own QP (``False``
        if infeasible); ties pop the newest node first, so the search dives."""
        if rep is None:
            rows = g1[sorted(pinned)]
            pins = (np.vstack([base.eq[0], rows]), np.concatenate([base.eq[1], rows @ x0]))
            try:
                rep = solve_qp(replace(base, eq=pins))
            except Infeasible:
                return False
        heapq.heappush(heap, (rep.objective, -next(order), pinned, kept, rep))
        return True

    push(frozenset(), frozenset())
    best, cut, nodes = None, math.inf, 0
    while heap and heap[0][0] < cut:
        if nodes == params.max_iter:
            raise NoConvergence(
                f"branch-and-bound stopped at {nodes} nodes: bound {heap[0][0]:.12g}, "
                f"incumbent {'none' if best is None else f'{best.objective:.12g}'}")
        nodes += 1
        _, _, pinned, kept, rep = heapq.heappop(heap)
        if m - len(pinned) <= n1:  # a candidate, popped below the cut: the incumbent
            best, support = rep, sorted(set(range(m)) - pinned)
            cut = rep.objective - _GAP_TOL * max(1.0, abs(rep.objective))
            continue
        bets = np.abs(g1 @ (rep.weights - x0))
        zero = pinned | set(np.flatnonzero(bets <= _ZERO_BET * max(1.0, bets.max())).tolist())
        if m - len(zero) <= n1 and push(zero, kept):
            continue
        j = max((i for i in range(m) if i not in pinned | kept), key=bets.__getitem__)
        push(pinned | {j}, kept)
        if len(kept) + 1 < n1:
            push(pinned, kept | {j}, rep)
        else:
            push(frozenset(range(m)) - kept - {j}, kept | {j})
    if best is None:
        raise Infeasible(f"no support with at most {n1} bets is feasible")
    best.meta["support"], best.meta["nodes"] = support, nodes
    return best
