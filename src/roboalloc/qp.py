"""Dense convex quadratic programming with exact multipliers.

Solves ``min 0.5 x'Qx + c'x`` subject to ``A x = b``, ``G x >= h`` and
bounds, with a primal active-set method.  The working set is the variables
fixed at a bound plus the general rows (the equalities and the active
inequalities).  Active bounds only fix variables, so each step solves the
KKT system ``[Q_FF C_F'; C_F 0]`` of the free block F with a Cholesky
factor of ``Q_FF`` and of the Schur complement of the few general rows,
factored afresh at each iteration (Nocedal & Wright, *Numerical
Optimization*, 16.5).  When ``Q_FF`` is not positive definite or ``C_F``
loses rank (the zero blocks of ``augment_l1``, zero-curvature directions
that end in ``Unbounded``, dependent rows) the step falls back to the
nullspace of ``C_F`` and an eigendecomposition of the reduced Hessian,
which handles singular Hessians and flags them in
``meta['degenerate_hessian']``.  All iterates stay feasible.  A solve
starts at the caller's ``x0`` when it is feasible; a cold solve with at
most one equality row starts at the equality-constrained minimizer
projected onto the box and the row, which already lies on most of the
optimum's bounds.  When neither start is feasible, phase 1 minimizes
elastic slacks on the general rows from a point inside the bounds.
Multipliers follow the stationarity convention

    Q x + c + A' nu - G' lam_ineq - lam_lo + lam_up = 0,

with ``lam_ineq``, ``lam_lo`` and ``lam_up`` nonnegative: ``nu`` and
``lam_ineq`` by least squares over the free block, the bound multipliers
read off the reduced gradient at the fixed variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import (
    EmptyIntersection,
    Infeasible,
    MaxIterations,
    NegativeGammaEntries,
    Unbounded,
)
from .prox import Box, project_hyperplane_intersection
from .report import CONVERGED, SolveReport

_FEAS_TOL = 1e-9
_LOWER, _FREE, _UPPER = -1, 0, 1  # per-variable bound state


def _check_finite(name: str, *arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"{name} must hold finite numbers only")


@dataclass
class QpProblem:
    Q: np.ndarray
    c: np.ndarray
    eq: tuple | None = None      # (A, b) with A x = b
    ineq: tuple | None = None    # (G, h) with G x >= h
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    meta: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        self.c = np.asarray(self.c, dtype=float).ravel()
        n = self.c.size
        if self.Q.shape != (n, n):
            raise ValueError("Q and c dimensions disagree")
        _check_finite("Q", self.Q)
        _check_finite("c", self.c)
        if np.abs(self.Q - self.Q.T).max() > 1e-12 * max(1.0, np.abs(self.Q).max()):
            raise ValueError("Q must be symmetric")
        self.Q = 0.5 * (self.Q + self.Q.T)
        if self.eq is not None:
            a, b = self.eq
            self.eq = (np.atleast_2d(np.asarray(a, float)), np.asarray(b, float).ravel())
            if self.eq[0].shape != (self.eq[1].size, n):
                raise ValueError("equality block dimensions disagree")
            _check_finite("eq", *self.eq)
        if self.ineq is not None:
            g, h = self.ineq
            self.ineq = (np.atleast_2d(np.asarray(g, float)), np.asarray(h, float).ravel())
            if self.ineq[0].shape != (self.ineq[1].size, n):
                raise ValueError("inequality block dimensions disagree")
            _check_finite("ineq", *self.ineq)
        for name in ("lower", "upper"):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=float).ravel()
                if v.size == 1:
                    v = np.full(n, v[0])
                if v.size != n:
                    raise ValueError(f"{name} bound has wrong length")
                if np.isnan(v).any():
                    raise ValueError(f"{name} bound must not be NaN")
                setattr(self, name, v)
        if self.lower is not None and self.upper is not None:
            if (self.lower > self.upper + 1e-15).any():
                raise Infeasible("lower bound exceeds upper bound")

    @property
    def n(self) -> int:
        return self.c.size


def _nullspace(a, n):
    """Orthonormal basis of the nullspace of ``a`` (identity if no rows)."""
    if a.shape[0] == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > 1e-11 * max(s[0], 1.0))) if s.size else 0
    return vt[rank:].T


def _reduced_step(q, grad, basis):
    """Minimizing step within the working-set manifold.

    Returns ``(p, flat, degenerate)`` where ``flat`` flags a direction of
    descent with (numerically) zero curvature, i.e. the subproblem is
    unbounded until a blocking constraint clamps it, and ``degenerate`` a
    singular reduced Hessian.
    """
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
        # zero-curvature descent: pure direction, length set by the line search
        direction = -vec @ flat_component
        return basis @ direction, True, degenerate
    y = -vec @ np.where(positive, g_modes / np.where(positive, lam, 1.0), 0.0)
    return basis @ y, False, degenerate


def _cholesky(a):
    """Lower Cholesky factor of ``a``, or ``None`` if ``a`` is not
    (numerically) positive definite."""
    factor, info = dpotrf(a, lower=1)
    if info != 0:
        return None
    pivots = np.diag(factor) ** 2
    return factor if pivots.min() > 1e-12 * max(pivots.max(), 1.0) else None


def _free_step(q_ff, g_f, c_f, gap=None):
    """Step of the equality-constrained subproblem on the free block.

    Solves ``[Q_FF C_F'; C_F 0] [p; y] = [-g_F; gap]`` (``gap`` zero when
    ``None``: the current point is on the rows) with a Cholesky factor of
    ``Q_FF`` and the Schur complement ``C_F Q_FF^-1 C_F'``.  When ``Q_FF``
    is not positive definite or ``C_F`` loses rank, the nullspace step takes
    over, from the least-squares step onto the rows when there is a gap.
    Returns ``(p_F, residual, flat, degenerate)``: ``residual`` is the
    largest entry of the projected gradient, zero when the current point
    already solves the subproblem, and ``flat`` and ``degenerate`` are as in
    ``_reduced_step``.
    """
    if g_f.size == 0:
        return g_f, 0.0, False, False
    l_ff = _cholesky(q_ff)
    r = g_f  # stationarity residual g_F + C_F'y
    if l_ff is not None and c_f.shape[0]:
        w = dpotrs(l_ff, c_f.T, lower=1)[0]
        l_s = _cholesky(c_f @ w)
        rhs = -(w.T @ g_f) if gap is None else -(w.T @ g_f + gap)
        r = None if l_s is None else g_f + c_f.T @ dpotrs(l_s, rhs, lower=1)[0]
    if l_ff is not None and r is not None:
        return -dpotrs(l_ff, r, lower=1)[0], np.abs(r).max(), False, False
    basis = _nullspace(c_f, g_f.size)
    if gap is None:
        p, flat, degenerate = _reduced_step(q_ff, g_f, basis)
    else:
        onto = np.linalg.lstsq(c_f, gap, rcond=None)[0]
        p, flat, degenerate = _reduced_step(q_ff, g_f + q_ff @ onto, basis)
        p = onto + p
    return p, np.abs(basis.T @ g_f).max(initial=0.0), flat, degenerate


def _multipliers(grad, a_eq, g_act, free):
    """Working-set multipliers at the current point.

    ``nu`` and ``lam`` (for the active general inequalities) are least-squares
    solutions of stationarity over the free variables.  The returned reduced
    gradient ``grad + A'nu - G_act'lam`` is zero on the free variables and
    equals ``lam_lo`` at a variable fixed at its lower bound and ``-lam_up``
    at one fixed at its upper bound.  ``grad`` may also be an ``n x k``
    matrix, one gradient per column.
    """
    rows = np.vstack([a_eq, -g_act])
    if rows.shape[0] and free.any():
        sol = np.linalg.lstsq(rows[:, free].T, -grad[free], rcond=None)[0]
    else:
        sol = np.zeros(rows.shape[:1] + grad.shape[1:])
    me = a_eq.shape[0]
    return sol[:me], sol[me:], grad + rows.T @ sol


def _active_set(q, c, a_eq, g, h, lo, up, x0, max_iter, tol=_FEAS_TOL):
    """Primal active-set loop from a feasible ``x0``.

    The working set is the per-variable bound state ``at`` (``_LOWER``,
    ``_FREE`` or ``_UPPER``) plus the list ``act`` of active general
    inequalities; the equalities are always in it.  Constraints are ranked
    inequalities first, then lower and upper bounds by variable; the ratio
    test breaks ties by that rank, and after a run of degenerate steps the
    multiplier test switches to Bland's rule on it to break cycles.
    Returns ``(x, at, act, iterations, degenerate)``.
    """
    n, m = c.size, h.size
    x = x0.copy()
    at = np.where(np.abs(x - lo) <= tol, _LOWER,
                  np.where(np.abs(up - x) <= tol, _UPPER, _FREE))
    act = [int(i) for i in np.flatnonzero(np.abs(g @ x - h) <= tol)]
    has_lo, has_up = np.isfinite(lo), np.isfinite(up)
    ratios = np.empty(m + 2 * n)   # indexed by rank
    degenerate_run = 0
    bland = False
    saw_degenerate = False
    for it in range(1, max_iter + 1):
        free = at == _FREE
        idx = np.flatnonzero(free)
        g_act = g[act]
        grad = q @ x + c
        p = np.zeros(n)
        p[idx], residual, flat, degenerate = _free_step(
            q.take(idx, 0).take(idx, 1), grad[idx],
            np.vstack([a_eq, g_act]).take(idx, 1))
        saw_degenerate |= degenerate
        if not flat and (np.abs(p).max(initial=0.0) <= 1e-11 * (1.0 + np.abs(x).max())
                         or residual <= 1e-13 * np.abs(grad).max()):
            _, lam, reduced = _multipliers(grad, a_eq, g_act, free)
            fixed = np.flatnonzero(~free)
            mult = np.concatenate([lam, np.where(at[fixed] == _LOWER,
                                                 reduced[fixed], -reduced[fixed])])
            neg = np.flatnonzero(mult < -1e-9)
            if neg.size == 0:
                return x, at, act, it, saw_degenerate
            if bland:  # lowest-ranked constraint among the violators
                rank = np.concatenate([act, m + fixed + n * (at[fixed] == _UPPER)])
                drop = neg[np.argmin(rank[neg])]
            else:
                drop = int(np.argmin(mult))
            if drop < len(act):
                act.pop(drop)
            else:
                at[fixed[drop - len(act)]] = _FREE
            continue
        # ratio test over the inactive rows and the free variables' bounds
        ratios.fill(np.inf)
        gp = g @ p
        rows = gp < -1e-13
        rows[act] = False
        np.divide(h - g @ x, gp, out=ratios[:m], where=rows)
        np.divide(lo - x, p, out=ratios[m:m + n], where=free & has_lo & (p < -1e-13))
        np.divide(up - x, p, out=ratios[m + n:], where=free & has_up & (p > 1e-13))
        np.maximum(ratios, 0.0, out=ratios)
        alpha = np.inf if flat else 1.0
        blocking = -1
        if ratios.size and ratios.min() < alpha - 1e-15:
            alpha = ratios.min()
            blocking = int(np.argmax(ratios <= alpha + 1e-15))  # lowest rank among ties
        if flat and blocking < 0:
            if grad @ p < -1e-12:
                raise Unbounded("zero-curvature descent with no blocking constraint")
            alpha = 0.0  # numerically flat but not a real descent: stay put
        x = x + alpha * p
        if blocking >= 0:
            if blocking < m:
                act.append(blocking)
            elif blocking < m + n:
                j = blocking - m
                at[j], x[j] = _LOWER, lo[j]
            else:
                j = blocking - m - n
                at[j], x[j] = _UPPER, up[j]
        degenerate_run = degenerate_run + 1 if alpha <= 1e-14 else 0
        if degenerate_run > n + 2:
            bland = True
    raise MaxIterations(f"active set did not terminate in {max_iter} iterations")


def _phase1(a_eq, b_eq, g, h, lo, up, max_iter):
    """Feasible point by minimizing elastic slacks on the violated rows.

    The start is the least-squares solution of the equalities clipped into
    the bounds.  Each general row it violates gets one nonnegative slack
    that absorbs the violation, so the bounds hold throughout and the
    problem is feasible exactly when the slacks can reach zero.
    """
    n = lo.size
    if a_eq.shape[0]:
        x0, *_ = np.linalg.lstsq(a_eq, b_eq, rcond=None)
        if np.linalg.norm(a_eq @ x0 - b_eq, np.inf) > 1e-7 * max(1.0, np.abs(b_eq).max()):
            raise Infeasible("equality constraints are inconsistent")
    else:
        x0 = np.zeros(n)
    x0 = np.clip(x0, lo, up)
    r_eq, r_in = b_eq - a_eq @ x0, h - g @ x0
    bad_eq = np.flatnonzero(np.abs(r_eq) > _FEAS_TOL)
    bad_in = np.flatnonzero(r_in > _FEAS_TOL)
    k = bad_eq.size + bad_in.size
    if k == 0:
        return x0
    # variables (x, s): min 1's + eps/2 ||.||^2  s.t.  Ax + Ds = b, Gx + Es >= h, s >= 0
    d = np.zeros((a_eq.shape[0], k))
    d[bad_eq, np.arange(bad_eq.size)] = np.sign(r_eq[bad_eq])
    e = np.zeros((h.size, k))
    e[bad_in, bad_eq.size + np.arange(bad_in.size)] = 1.0
    y0 = np.concatenate([x0, np.abs(r_eq[bad_eq]), r_in[bad_in]])
    y, *_ = _active_set(1e-8 * np.eye(n + k), np.concatenate([np.zeros(n), np.ones(k)]),
                        np.hstack([a_eq, d]), np.hstack([g, e]), h,
                        np.concatenate([lo, np.zeros(k)]),
                        np.concatenate([up, np.full(k, np.inf)]), y0, max_iter)
    if y[n:].sum() > 1e-7:
        raise Infeasible(f"no feasible point, residual {y[n:].sum():.3e}")
    return y[:n]


def _cold_start(q, c, a_eq, b_eq, lo, up):
    """Projected unconstrained minimizer: the minimizer of ``0.5 x'Qx + c'x``
    on the equality row (one ``_free_step`` from zero), projected onto the
    box and the row (Moré & Toraldo, *SIAM J. Optim.* 1991).  It lies on
    most of the optimum's bounds, where phase 1's point lies on none.
    ``None`` with two or more equality rows, for a zero-curvature descent,
    or when the projection finds the row out of the box's reach."""
    if a_eq.shape[0] > 1:
        return None
    v, _, flat, _ = _free_step(q, c, a_eq, b_eq)
    if flat:
        return None
    if not b_eq.size:
        return Box(lo, up).project(v)
    try:
        return project_hyperplane_intersection(v, a_eq[0], b_eq[0], Box(lo, up))
    except EmptyIntersection:
        return None


def _feasible(x, a_eq, b_eq, g, h, lo, up) -> bool:
    """Whether ``x`` is finite and meets every constraint to ``_FEAS_TOL``."""
    return x.size == lo.size and np.isfinite(x).all() and max(
        np.abs(a_eq @ x - b_eq).max(initial=0.0), (h - g @ x).max(initial=0.0),
        (lo - x).max(initial=0.0), (x - up).max(initial=0.0)) <= _FEAS_TOL


def _dense_pieces(problem: QpProblem):
    """``(A, b, G, h, lower, upper, max_iter)``: absent blocks empty, absent
    bounds infinite, and the iteration cap, 100 per variable and per
    constraint row (each finite bound counts as a row) plus 200."""
    n = problem.n
    a_eq, b_eq = problem.eq if problem.eq is not None else (np.zeros((0, n)), np.zeros(0))
    g, h = problem.ineq if problem.ineq is not None else (np.zeros((0, n)), np.zeros(0))
    lo = problem.lower if problem.lower is not None else np.full(n, -np.inf)
    up = problem.upper if problem.upper is not None else np.full(n, np.inf)
    max_iter = 100 * (n + h.size + int(np.isfinite(lo).sum())
                      + int(np.isfinite(up).sum())) + 200
    return a_eq, b_eq, g, h, lo, up, max_iter


def feasible_point(problem: QpProblem) -> np.ndarray:
    """A point of the problem's constraint set, from phase 1; raises
    ``Infeasible`` when the set is empty.  The objective is not read."""
    return _phase1(*_dense_pieces(problem))


def solve_qp(problem: QpProblem, x0: np.ndarray | None = None) -> SolveReport:
    """Minimize ``0.5 x'Qx + c'x`` over the problem's constraint set.

    ``x0`` is an optional starting point (a warm start); it is used only if
    it is finite and feasible.  Otherwise the solve starts cold at
    ``_cold_start``'s projected minimizer when that point passes the same
    test, and at phase 1's point when it does not.  Phase 1
    and the active set each stop at the cap ``_dense_pieces`` works out
    from the problem's size (``MaxIterations``).  Returns a report whose
    ``duals`` dict carries multipliers for every declared constraint block,
    with inactive entries at zero, and whose ``meta['working_set']`` is the
    final ``(bound states, active inequality rows)`` that
    ``parametric_path`` starts from.
    """
    q, c = problem.Q, problem.c
    a_eq, b_eq, g, h, lo, up, max_iter = _dense_pieces(problem)

    pieces = (a_eq, b_eq, g, h, lo, up)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float).ravel()
    if x0 is None or not _feasible(x0, *pieces):
        x0 = _cold_start(q, c, a_eq, b_eq, lo, up)
        if x0 is None or not _feasible(x0, *pieces):
            x0 = _phase1(*pieces, max_iter)

    x, at, act, iters, degenerate = _active_set(q, c, a_eq, g, h, lo, up, x0, max_iter)
    nu, lam_act, reduced = _multipliers(q @ x + c, a_eq, g[act], at == _FREE)
    duals = {
        "eq": nu,
        "ineq": np.zeros(h.size),
        "lower": np.where(at == _LOWER, np.clip(reduced, 0.0, None), 0.0),
        "upper": np.where(at == _UPPER, np.clip(-reduced, 0.0, None), 0.0),
    }
    duals["ineq"][act] = np.clip(lam_act, 0.0, None)

    objective = 0.5 * x @ q @ x + c @ x
    report = SolveReport(weights=x, objective=float(objective), status=CONVERGED,
                         iterations=iters, duals=duals)
    report.meta["working_set"] = (at, act)
    if degenerate:
        report.meta["degenerate_hessian"] = True
    return report


def parametric_path(problem: QpProblem, slope, start: SolveReport):
    """Solution path of ``min 0.5 x'Qx + (c + t slope)'x`` over ``t >= 0``.

    Markowitz's critical line (1956): on a fixed working set the solution
    and its multipliers are affine in ``t``.  The walk starts from
    ``start``, the ``solve_qp`` report of ``problem`` (``t = 0``), and its
    working set.  On each segment the step ``dx`` is ``_free_step``'s KKT
    solve with ``slope`` in place of the gradient, and the multipliers'
    slopes are ``_multipliers`` of ``Q dx + slope``.  A segment ends at the
    first event: a free variable reaches a bound, an inactive inequality
    becomes active, or a working-set multiplier reaches zero; that
    constraint joins or leaves the working set, ties going to the lowest
    rank as in ``_active_set``.  When ``slope`` pulls along a direction of
    zero curvature the solution at ``t`` is not unique, and x moves along it
    at fixed ``t`` to the blocking constraint (``Unbounded`` if none).

    Yields ``(t, x, dx, rate, length)`` per piece: the solution at parameter
    ``t + rate s`` is ``x + s dx`` for ``s`` in ``[0, length]``, ``rate``
    being 1 on a segment and 0 on a move at fixed ``t``; the last segment
    has infinite length.  Pivots stop at the cap ``_dense_pieces`` works
    out (``MaxIterations``).
    """
    n = problem.n
    q, c = problem.Q, problem.c
    slope = np.asarray(slope, dtype=float).ravel()
    a_eq, _, g, h, lo, up, max_iter = _dense_pieces(problem)
    m = h.size
    has_lo, has_up = np.isfinite(lo), np.isfinite(up)
    at, act = start.meta["working_set"]
    at, act = at.copy(), list(act)
    x, t = start.weights.copy(), 0.0
    dual_tol = 1e-12 * np.abs(slope).max(initial=0.0)
    ratios = np.empty(m + 2 * n)   # indexed by rank, as in _active_set
    mult = np.empty((m + 2 * n, 2))  # working-set multipliers and their slopes
    for _ in range(max_iter):
        free = at == _FREE
        idx = np.flatnonzero(free)
        g_act = g[act]
        dx = np.zeros(n)
        dx[idx], _, flat, _ = _free_step(q.take(idx, 0).take(idx, 1), slope[idx],
                                         np.vstack([a_eq, g_act]).take(idx, 1))
        tiny = 1e-13 * max(1.0, np.abs(dx).max())
        ratios.fill(np.inf)
        gd = g @ dx
        rows = gd < -tiny
        rows[act] = False
        np.divide(h - g @ x, gd, out=ratios[:m], where=rows)
        np.divide(lo - x, dx, out=ratios[m:m + n], where=free & has_lo & (dx < -tiny))
        np.divide(up - x, dx, out=ratios[m + n:], where=free & has_up & (dx > tiny))
        np.maximum(ratios, 0.0, out=ratios)
        if not flat:
            _, lam, reduced = _multipliers(
                np.column_stack([q @ x + c + t * slope, q @ dx + slope]), a_eq, g_act, free)
            mult.fill(0.0)
            mult[act] = lam
            mult[m:m + n][at == _LOWER] = reduced[at == _LOWER]
            mult[m + n:][at == _UPPER] = -reduced[at == _UPPER]
            np.divide(np.maximum(mult[:, 0], 0.0), -mult[:, 1], out=ratios,
                      where=mult[:, 1] < -dual_tol)
        length = ratios.min()
        if flat and length == np.inf:
            raise Unbounded("zero-curvature direction with no blocking constraint")
        yield t, x, dx, 0.0 if flat else 1.0, length
        if length == np.inf:
            return
        k = int(np.argmax(ratios <= length * (1.0 + 1e-14)))  # lowest rank among ties
        x = x + length * dx
        if not flat:
            t += length
        if k < m:
            if k in act:
                act.remove(k)
            else:
                act.append(k)
            continue
        j, bound = (k - m) % n, _LOWER if k < m + n else _UPPER
        if at[j] == bound:  # its multiplier reached zero
            at[j] = _FREE
        else:
            at[j], x[j] = bound, (lo if bound == _LOWER else up)[j]
    raise MaxIterations(f"parametric path did not end in {max_iter} pivots")


def augment_l1(problem: QpProblem, gamma1: np.ndarray, rho1: float,
               x0: np.ndarray) -> QpProblem:
    """Rewrite an L1 penalty around ``x0`` as a QP over ``(x, d-, d+)``.

    ``gamma1`` must be entrywise nonnegative; at the optimum the split is
    complementary (``d- = max(0, x0-x)``, ``d+ = max(0, x-x0)``) and the
    penalty term evaluates to ``sum_j colsum_j(gamma1) |x_j - x0_j|``.  For
    the usual diagonal unit-cost matrices this equals
    ``rho1 ||gamma1 (x-x0)||_1`` exactly; a matrix whose rows mix bets of
    opposite signs only bounds that norm from above, and the splitting
    solver is the route that prices the composed norm itself.
    """
    gamma1 = np.atleast_2d(np.asarray(gamma1, dtype=float))
    if (gamma1 < 0).any():
        raise NegativeGammaEntries("L1 split needs a nonnegative penalty matrix")
    n = problem.n
    x0 = np.asarray(x0, dtype=float).ravel()
    zero = np.zeros((n, n))
    q = np.block([[problem.Q, zero, zero], [zero, zero, zero], [zero, zero, zero]])
    lin = rho1 * (gamma1.T @ np.ones(n))
    c = np.concatenate([problem.c, lin, lin])

    eq_rows = [np.hstack([np.eye(n), np.eye(n), -np.eye(n)])]
    eq_rhs = [x0]
    if problem.eq is not None:
        a, b = problem.eq
        eq_rows.append(np.hstack([a, np.zeros((a.shape[0], 2 * n))]))
        eq_rhs.append(b)
    eq = (np.vstack(eq_rows), np.concatenate(eq_rhs))

    ineq = None
    if problem.ineq is not None:
        gg, hh = problem.ineq
        ineq = (np.hstack([gg, np.zeros((gg.shape[0], 2 * n))]), hh)

    lower = np.concatenate([
        problem.lower if problem.lower is not None else np.full(n, -np.inf),
        np.zeros(2 * n),
    ])
    upper = np.concatenate([
        problem.upper if problem.upper is not None else np.full(n, np.inf),
        np.full(2 * n, np.inf),
    ])
    out = QpProblem(Q=q, c=c, eq=eq, ineq=ineq, lower=lower, upper=upper)
    out.meta["augmented_from"] = n
    return out
