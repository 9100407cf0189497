"""Scaled ADMM with adaptive penalty, plus structured solvers for the
penalized portfolio problems (smoothed, sparse and cardinality-constrained)."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lu_factor
from scipy.linalg.lapack import dgetrs

from . import prox
from .errors import NoConvergence
from .mvo import ConstraintSet
from .qp import QpProblem, solve_qp
from .regularizers import penalty_matrix, penalty_terms
from .report import CONVERGED, DIVERGED, MAX_ITER, SolveReport

_DIVERGE_LIMIT = 1e12


@dataclass
class AdmmParams:
    phi0: float = 1.0
    mu: float = 1e3            # residual balance factor
    tau_up: float = 2.0
    tau_down: float = 2.0
    eps_primal: float = 1e-10
    eps_dual: float = 1e-10
    max_iter: int = 10000
    adaptive: bool = True
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if min(self.phi0, self.mu, self.eps_primal, self.eps_dual) <= 0:
            raise ValueError("phi0, mu and tolerances must be positive")
        if min(self.tau_up, self.tau_down) < 1.0:
            raise ValueError("penalty multipliers must be >= 1")


@dataclass
class AdmmState:
    x: np.ndarray
    z: np.ndarray
    u: np.ndarray
    phi: float
    r_norm: float
    s_norm: float
    iterations: int


def lu_solve(lu_and_piv, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` for a float vector ``b`` on ``lu_factor(a)``.

    The same LAPACK ``getrs`` call as ``scipy.linalg.lu_solve``, so the
    same bits, without its per-call finiteness and shape checks: the ADMM
    loop validates its data once, on entry.
    """
    lu, piv = lu_and_piv
    x, info = dgetrs(lu, piv, b)
    if info:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


def adaptive_penalty(phi: float, r_norm: float, s_norm: float,
                     params: AdmmParams) -> float:
    """Rescale the penalty to keep the two squared residuals within a factor."""
    r2, s2 = r_norm ** 2, s_norm ** 2
    if r2 > params.mu * s2:
        return phi * params.tau_up
    if s2 > params.mu * r2:
        return phi / params.tau_down
    return phi


def admm_solve(x_update, z_update, coupling, params: AdmmParams | None = None,
               z0: np.ndarray | None = None, u0: np.ndarray | None = None,
               objective=None) -> SolveReport:
    """Generic scaled ADMM on ``min f(x) + g(z)  s.t.  A x + B z = c``.

    ``x_update(z, u, phi)`` must return the minimizer of
    ``f(x) + phi/2 ||Ax + Bz - c + u||^2`` and ``z_update(x, u, phi)`` the
    analogue for ``g``.  The scaled dual ``u`` is rescaled whenever the
    penalty changes so the fixed point is preserved.  ``B`` may be ``None``
    for ``-I``, the usual ``A x - z = c``; an explicit ``-I`` is recognised
    once, and the loop then forms the residuals without products by ``B``.
    ``c`` and the starting ``z0``/``u0`` must be finite (``ValueError``
    otherwise); what the loop itself produces is guarded by the divergence
    test, a non-finite primal residual ending it as ``diverged``.
    """
    params = params or AdmmParams()
    a, b, c = coupling
    c = np.asarray_chkfinite(c, dtype=float)
    m = c.size
    if b is not None and b.shape == (m, m) and np.array_equal(b, -np.eye(m)):
        b = None
    z = np.zeros(m if b is None else b.shape[1]) if z0 is None \
        else np.asarray_chkfinite(z0, dtype=float).copy()
    u = np.zeros(m) if u0 is None else np.asarray_chkfinite(u0, dtype=float).copy()
    phi = params.phi0
    x = None
    r_norm = s_norm = math.inf
    status = MAX_ITER
    it = 0
    for it in range(1, params.max_iter + 1):
        x = x_update(z, u, phi)
        z_new = z_update(x, u, phi)
        if b is None:
            r = a @ x - z_new - c
            s = phi * (a.T @ (z - z_new))
        else:
            r = a @ x + b @ z_new - c
            s = phi * (a.T @ (b @ (z_new - z)))
        z = z_new
        u = u + r
        r_norm = math.sqrt(r @ r)
        s_norm = math.sqrt(s @ s)
        if not math.isfinite(r_norm) or r_norm > _DIVERGE_LIMIT or s_norm > _DIVERGE_LIMIT:
            status = DIVERGED
            break
        if r_norm <= params.eps_primal and s_norm <= params.eps_dual:
            status = CONVERGED
            break
        if params.adaptive:
            phi_new = adaptive_penalty(phi, r_norm, s_norm, params)
            if phi_new != phi:
                u *= phi / phi_new
                phi = phi_new
    obj = float(objective(x)) if objective is not None else float("nan")
    report = SolveReport(weights=x, objective=obj, status=status, iterations=it,
                         r_norm=r_norm, s_norm=s_norm)
    report.meta["state"] = AdmmState(x=x, z=z, u=u, phi=phi, r_norm=r_norm,
                                     s_norm=s_norm, iterations=it)
    report.meta["coupling_dual"] = phi * u
    return report


# --- structured layer --------------------------------------------------------


class _StackedProblem:
    """ADMM data for ``min 0.5 x'Px - q'x + sum_i g_i(G_i x - d_i)`` with
    equality constraints in the x-step and prox/projection blocks in z.
    Blocks whose ``G_i`` is the identity skip their products with it."""

    def __init__(self, p_mat, q_vec, a_eq, b_eq, blocks):
        self.p = p_mat
        self.q = q_vec
        self.a_eq = a_eq
        self.b_eq = b_eq
        self.n = q_vec.size
        self.gram = sum(g.T @ g for g, _, _ in blocks)
        self.a_stack = np.vstack([g for g, _, _ in blocks])
        self.c_stack = np.concatenate([d for _, d, _ in blocks])
        eye = np.eye(self.n)
        self.blocks = []  # (G_i, or None for the identity, d_i, slice of z, step_i)
        stop = 0
        for g, d, stepper in blocks:
            start, stop = stop, stop + d.size
            identity = g.shape == eye.shape and np.array_equal(g, eye)
            self.blocks.append((None if identity else g, d, slice(start, stop), stepper))
        self._factors = {}

    def _factor(self, phi):
        if phi not in self._factors:
            me = self.a_eq.shape[0]
            kkt = np.zeros((self.n + me, self.n + me))
            kkt[:self.n, :self.n] = self.p + phi * self.gram
            if me:
                kkt[:self.n, self.n:] = self.a_eq.T
                kkt[self.n:, :self.n] = self.a_eq
            self._factors[phi] = lu_factor(kkt)
        return self._factors[phi]

    def x_update(self, z, u, phi):
        rhs = self.q.copy()
        for g, d, seg, _ in self.blocks:
            w = z[seg] + d - u[seg]
            rhs += phi * (w if g is None else g.T @ w)
        sol = lu_solve(self._factor(phi), np.concatenate([rhs, self.b_eq]))
        self._eq_dual = sol[self.n:]
        return sol[:self.n]

    def z_update(self, x, u, phi):
        out = np.empty(self.c_stack.size)
        for g, d, seg, stepper in self.blocks:
            out[seg] = stepper((x if g is None else g @ x) - d + u[seg], phi)
        return out

    def z_init(self, x_init):
        return np.concatenate([(x_init if g is None else g @ x_init) - d
                               for g, d, _, _ in self.blocks])


def solve_penalized(p_mat, q_vec, blocks, constraints: ConstraintSet | None = None,
                    extra_sets=(), params: AdmmParams | None = None, warm=None,
                    x_init=None, objective=None) -> SolveReport:
    """Minimize ``0.5 x'Px - q'x + sum_i g_i(G_i x - d_i)`` over the
    constraint set intersected with ``extra_sets``.

    ``blocks`` holds one ``(G_i, d_i, step_i)`` per non-smooth term, where
    ``step_i(v, phi)`` is the prox of ``g_i / phi``.  With no block and no
    extra set the problem is a QP, solved exactly by ``solve_qp`` and
    warm-started from the weights ``warm``.  Otherwise ADMM runs on the
    blocks in their order with the constraint projection as the last
    block, starting from the ``AdmmState`` ``warm`` or else from
    ``x_init``.  A warm start of the other kind is ignored.  ``objective``
    evaluates the reported objective at the answer.  On the ADMM route a
    non-finite ``q``, offset, equality level or start raises ``ValueError``
    before the first iteration.
    """
    n = q_vec.size
    constraints = ConstraintSet() if constraints is None else constraints
    if not blocks and not extra_sets:
        eq, ineq, lower, upper = constraints.qp_pieces(n)
        report = solve_qp(QpProblem(Q=p_mat, c=-q_vec, eq=eq, ineq=ineq,
                                    lower=lower, upper=upper),
                          x0=warm if isinstance(warm, np.ndarray) else None)
        if objective is not None:
            report.objective = float(objective(report.weights))
        return report

    a_eq, b_eq, sets = constraints.admm_pieces(n)
    q_vec, b_eq = np.asarray_chkfinite(q_vec), np.asarray_chkfinite(b_eq)
    sets = [*extra_sets, *sets]
    blocks = list(blocks)
    if sets:
        blocks.append((np.eye(n), np.zeros(n),
                       lambda v, _phi: prox.project_intersection(v, sets)))
    prob = _StackedProblem(p_mat, q_vec, a_eq, b_eq, blocks)
    if isinstance(warm, AdmmState) and warm.z.size == prob.c_stack.size:
        z0, u0 = warm.z, warm.u
    elif x_init is not None:
        z0, u0 = prob.z_init(np.asarray(x_init, float)), None
    else:
        z0 = u0 = None
    report = admm_solve(prob.x_update, prob.z_update, (prob.a_stack, None, prob.c_stack),
                        params, z0=z0, u0=u0, objective=objective)
    report.meta["eq_dual"] = getattr(prob, "_eq_dual", np.zeros(0))
    return report


def _least_squares_parts(a1, b1, penalties, default_anchor=None):
    """P, q, prox blocks and objective of ``0.5 ||a1 x - b1||^2`` plus the
    penalty specs in ``penalties`` (``None`` entries skipped); a penalty
    without an anchor is anchored at ``default_anchor``, else at zero."""
    a1 = np.atleast_2d(np.asarray(a1, dtype=float))
    b1 = np.asarray(b1, dtype=float).ravel()
    penalties = [pen if pen.anchor is not None or default_anchor is None
                 else replace(pen, anchor=default_anchor)
                 for pen in penalties if pen is not None]
    p_mat, q_vec, blocks, penalty = penalty_terms(penalties, a1.T @ a1, a1.T @ b1)

    def objective(x):
        res = a1 @ x - b1
        return 0.5 * res @ res + penalty(x)

    return p_mat, q_vec, blocks, objective


def solve_tikhonov_constrained(a1, b1, penalty, constraints: ConstraintSet | None = None,
                               extra_sets=(), params: AdmmParams | None = None,
                               x_init=None, warm=None) -> SolveReport:
    """Quadratically penalized least squares over box / halfspace / norm-ball
    sets, with equalities folded into the x-step.

    ``penalty`` is an L2 penalty spec (rho, matrix, anchor); the z-step is a
    projection onto the intersection of the remaining sets.  Without extra
    sets the problem is a QP and is solved exactly.
    """
    p_mat, q_vec, blocks, objective = _least_squares_parts(a1, b1, [penalty])
    return solve_penalized(p_mat, q_vec, blocks, constraints, extra_sets, params,
                           warm=warm, x_init=x_init, objective=objective)


def solve_mixed_lp(a1, b1, penalty_l2, penalty_lp, x0=None,
                   constraints: ConstraintSet | None = None, extra_sets=(),
                   params: AdmmParams | None = None, x_init=None,
                   warm=None) -> SolveReport:
    """Least squares with an L2 penalty plus an Lp penalty split off through
    ``Gamma_p (x - x0) = z``; the z-step is the componentwise Lp prox.

    The penalty matrices may carry negative entries, which is what rules out
    the augmented-QP route.
    """
    p_mat, q_vec, blocks, objective = _least_squares_parts(
        a1, b1, [penalty_l2, penalty_lp], x0)
    return solve_penalized(p_mat, q_vec, blocks, constraints, extra_sets, params,
                           warm=warm, x_init=x_init, objective=objective)


def _feasible_points(n, constraints: ConstraintSet, extra_sets, relax, x0, rng):
    """Candidate starts: anchor, equal weights, convex relaxation, random."""
    starts = []
    a_eq, b_eq, sets = constraints.admm_pieces(n)
    regions = [*extra_sets, *sets]
    if a_eq.shape[0]:
        regions = [prox.AffineSet(a_eq, b_eq)] + regions

    def feasibilize(v):
        if not regions:
            return v
        try:
            return prox.project_intersection(v, regions, max_sweeps=200)
        except Exception:
            return v

    starts.append(feasibilize(x0.copy()))
    starts.append(feasibilize(np.full(n, 1.0 / n)))
    if relax is not None:
        starts.append(relax)
    while len(starts) < 5:
        starts.append(feasibilize(rng.normal(loc=1.0 / n, scale=0.5, size=n)))
    return starts


def solve_cardinality(a1, b1, penalty_l2, gamma1, x0, n1,
                      constraints: ConstraintSet | None = None, extra_sets=(),
                      params: AdmmParams | None = None,
                      z_bounds=(-np.inf, np.inf)) -> SolveReport:
    """Restrict ``gamma1 (x - x0)`` to at most ``n1`` nonzeros.

    The z-step projects onto the sparse set, which makes the problem
    non-convex: the solver restarts from several feasible points, polishes
    each candidate support with an exact convex solve and reports the best
    objective.  Per-restart diagnostics land in ``meta['restarts']``.
    """
    params = params or AdmmParams()
    if penalty_l2 is not None and penalty_l2.kind != "l2":
        raise ValueError("penalty_l2 must be an l2 penalty")
    p_mat, q_vec, _, objective = _least_squares_parts(a1, b1, [penalty_l2], x0)
    n = q_vec.size
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).ravel()
    g1 = penalty_matrix(gamma1, n)
    if not 1 <= n1 <= g1.shape[0]:
        raise ValueError(f"n1 must be in [1, {g1.shape[0]}]")
    constraints = ConstraintSet() if constraints is None else constraints
    rng = np.random.default_rng(params.seed)

    def exact(pinned=()):
        """Exact convex solve with the bets ``pinned`` held at zero."""
        eq, ineq, lower, upper = constraints.qp_pieces(n)
        if len(pinned):
            rows, rhs = g1[pinned], g1[pinned] @ x0
            eq = (rows, rhs) if eq is None else (np.vstack([eq[0], rows]),
                                                 np.concatenate([eq[1], rhs]))
        return solve_qp(QpProblem(Q=p_mat, c=-q_vec, eq=eq, ineq=ineq,
                                  lower=lower, upper=upper))

    # convex relaxation start: drop the cardinality restriction entirely
    try:
        relax = exact().weights
    except Exception:
        relax = None

    def sparse_step(v, _phi):
        return prox.project_cardinality(v, n1, z_bounds)

    best = None
    diagnostics = []
    starts = _feasible_points(n, constraints, extra_sets, relax, x0,
                              rng)[:max(params.restarts, 1)]
    sub = replace(params, max_iter=min(params.max_iter, 2000))
    for k, start in enumerate(starts):
        rep = solve_penalized(p_mat, q_vec, [(g1, g1 @ x0, sparse_step)], constraints,
                              extra_sets, sub, x_init=start, objective=objective)
        bets = g1 @ (rep.weights - x0)
        support = set(np.argsort(-np.abs(bets), kind="stable")[:n1].tolist())
        entry = {"restart": k, "admm_status": rep.status,
                 "iterations": rep.iterations, "support": sorted(support)}
        try:
            polished = exact([i for i in range(g1.shape[0]) if i not in support])
            entry["objective"] = polished.objective
            if best is None or polished.objective < best[0] - 1e-15:
                best = (polished.objective, polished, sorted(support))
        except Exception as exc:  # infeasible support: record and move on
            entry["error"] = str(exc)
        diagnostics.append(entry)
    if best is None:
        raise NoConvergence(f"all {len(starts)} restarts failed: {diagnostics}")
    _, report, support = best
    report.meta["restarts"] = diagnostics
    report.meta["support"] = support
    return report
