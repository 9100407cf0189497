"""Scaled, over-relaxed ADMM for the convex penalized portfolio problems,
and an exact branch-and-bound on the QP for the cardinality-constrained one.

``admm_solve`` is the one ADMM loop.  It runs on the stacked arrays of a
``_StackedProblem``: ``min 0.5 x'Px - q'x + sum_i g_i(G_i x - d_i)`` split as
``A x - z = c``, ``A`` stacking the ``G_i`` and ``c`` the ``d_i``.  It starts
at the penalty ``sqrt(lmin lmax)`` of the spectrum of ``P``, rescales it in
its first ``_BALANCE_ITERATIONS`` iterations only, then holds it fixed, and
over-relaxes every iteration by ``_RELAXATION`` (Boyd et al., 2011, §3.4.3;
the default of OSQP).  On L1-penalized problems over a box and halfspaces it
polishes the iterate on a geometric schedule into the exact answer, kept
only when a certificate of optimality holds (``_Polish``)."""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lu_factor
from scipy.linalg.lapack import dgetrs

from . import prox
from .errors import Infeasible, NoConvergence
from .mvo import ConstraintSet
from .qp import QpProblem, _free_step, _multipliers, feasible_point, solve_qp
from .regularizers import penalty_matrix, penalty_terms
from .report import CONVERGED, DIVERGED, MAX_ITER, SolveReport

_DIVERGE_LIMIT = 1e12
_BALANCE_RATIO = 1e3       # squared-residual ratio that rescales the penalty
_BALANCE_STEP = 2.0        # by this factor
_BALANCE_ITERATIONS = 100  # after which the penalty is fixed
_SPECTRAL_FLOOR = 1e-6     # floor of lmin / lmax in the starting penalty
_RELAXATION = 1.6          # over-relaxation alpha; 1 is plain ADMM
_POLISH_FIRST = 10         # iteration of the first polish attempt
_POLISH_GROWTH = 1.5       # each later attempt at ceil(1.5 x) the iteration of the last
_ACTIVE_TOL = 1e-9         # a Dykstra-projected bound or halfspace this close is active
_CERT_TOL = 1e-12          # certificate tolerance, relative to the scale of the data
_ZERO_BET = 1e-9           # a node's bet this small, relative to the largest (or 1), is zero
_GAP_TOL = 1e-12           # relative gap at which the cardinality search stops


@dataclass
class AdmmParams:
    """Stop tolerances and iteration cap of ``admm_solve``; ``max_iter`` also
    caps the nodes of ``solve_cardinality``.  Nothing reads ``seed``: it is
    kept for callers that still pass it (acceptance test 11)."""

    eps_primal: float = 1e-10
    eps_dual: float = 1e-10
    max_iter: int = 10000
    seed: int = 0

    def __post_init__(self):
        if not (self.eps_primal > 0 and self.eps_dual > 0):
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


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


class _StackedProblem:
    """ADMM data for ``min 0.5 x'Px - q'x + sum_i g_i(G_i x - d_i)`` subject
    to ``a_eq x = b_eq`` and ``x`` in every set of ``sets``.

    ``blocks`` holds one ``(G_i, d_i, step_i)`` per non-smooth term.  The
    split is ``A x - z = c`` with ``A`` (``a``) stacking the ``G_i`` and ``c``
    the ``d_i``; when ``sets`` is nonempty an identity block with a zero
    offset is stacked last and projected onto their intersection.  The
    x-step is a KKT solve with the equality rows; its right-hand side
    (``rhs``) carries ``b_eq`` as its tail.  The z-step is one
    ``prox.prox_l1`` call with a per-row threshold on the rows ``l1`` of the
    ``prox.SoftThreshold`` blocks, each other block's own step, and one
    ``prox.project_intersection`` call on the rows ``box`` of the constraint
    block.  Blocks whose ``G_i`` is the identity skip their products with it.
    ``phi``, the starting penalty, is ``sqrt(lmin lmax)`` of the spectrum of
    ``P`` (Ghadimi et al., IEEE TAC 2015), or 1 when ``P`` is zero.
    """

    def __init__(self, p_mat, q_vec, a_eq, b_eq, blocks, sets=()):
        n = q_vec.size
        self.p, self.q, self.a_eq, self.n = p_mat, q_vec, a_eq, n
        self.sets = list(sets)
        eye = np.eye(n)
        blocks = list(blocks)
        if self.sets:
            blocks.append((eye, np.zeros(n), None))
        self.a = np.vstack([g for g, _, _ in blocks])
        self.c = np.asarray_chkfinite(np.concatenate([d for _, d, _ in blocks]))
        self.gram = sum(g.T @ g for g, _, _ in blocks)
        self.rhs = np.concatenate([q_vec, b_eq])
        self.x_blocks = []    # (rows, G_i or None for the identity), in block order
        self.steps = []       # (rows, step_i) of the blocks with their own step
        self.rows = np.zeros(self.c.size, dtype=np.intp)  # x entry of each identity row
        l1_rows, l1_rho = [], []
        stop = 0
        for g, d, step in blocks:
            start, stop = stop, stop + d.size
            rows = slice(start, stop)
            identity = g.shape == eye.shape and np.array_equal(g, eye)
            self.x_blocks.append((rows, None if identity else g))
            if identity:
                self.rows[rows] = np.arange(n)
            if isinstance(step, prox.SoftThreshold):
                l1_rows.append(np.arange(start, stop))
                l1_rho.append(np.full(d.size, step.rho))
            elif step is not None:
                self.steps.append((rows, step))
        self.general = [(rows, g) for rows, g in self.x_blocks if g is not None]
        self.box = slice(stop - n, stop) if self.sets else None
        l1_rows = np.concatenate(l1_rows) if l1_rows else np.zeros(0, dtype=np.intp)
        self.l1 = _rows(l1_rows) if l1_rows.size else None
        self.l1_rho = np.concatenate(l1_rho) if l1_rho else np.zeros(0)
        self._factors = {}
        lo, top = np.linalg.eigvalsh(p_mat)[[0, -1]]
        self.phi = math.sqrt(max(lo, _SPECTRAL_FLOOR * top) * top) if top > 0 else 1.0

    def factor(self, phi):
        if phi not in self._factors:
            me = self.a_eq.shape[0]
            kkt = np.zeros((self.n + me, self.n + me))
            kkt[:self.n, :self.n] = self.p + phi * self.gram
            if me:
                kkt[:self.n, self.n:] = self.a_eq.T
                kkt[self.n:, :self.n] = self.a_eq
            self._factors[phi] = lu_factor(kkt)
        return self._factors[phi]

    def times(self, x):
        """``A x``, without products by identity blocks."""
        ax = x[self.rows]
        for rows, g in self.general:
            ax[rows] = g @ x
        return ax


def _rows(index):
    """The row index array as a slice when it is one contiguous run."""
    if index[-1] - index[0] + 1 == index.size:
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


class _Polish:
    """The exact answer of an L1-penalized QP read off an ADMM iterate, kept
    only under a certificate of optimality (OSQP's solution polishing,
    Stellato et al., *Math. Prog. Comp.* 2020).

    It applies to a ``_StackedProblem`` whose blocks all soft-threshold and
    whose sets are at most one ``Box`` plus ``Halfspace``s:
    ``min 0.5 x'Px - q'x + sum_l rho_l |g_l'x - d_l|`` subject to
    ``a_eq x = b_eq``, ``h_rows x >= h_rhs`` and the box.  ``attempt`` reads
    a working set from ``z``: an L1 row whose ``z`` is exactly zero sits at
    its kink, a box row at a bound is fixed there, and a halfspace within
    ``_ACTIVE_TOL`` of its boundary is active (the box rows too, when
    Dykstra projects onto the box and halfspaces together).  A kink on one
    weight fixes that weight as a bound does; the other kinks and the
    active halfspaces are equality rows; every other L1 row adds
    ``rho_l sign(z_l) g_l`` to the linear term.  One KKT solve of the free
    block (``qp._free_step``) and least-squares multipliers
    (``qp._multipliers``) give a candidate, which ``certificate`` accepts or
    refuses from the problem data alone.  Its ``duals`` hold one ``ineq``
    multiplier per halfspace, in the order of ``prob.sets``.
    """

    def __init__(self, prob, box, halves):
        n = prob.n
        self.p, self.q = prob.p, prob.q
        self.a_eq, self.b_eq = prob.a_eq, prob.rhs[n:].copy()
        self.l1 = prob.l1 if prob.l1 is not None else slice(0, 0)
        self.g, self.d, self.rho = prob.a[self.l1], prob.c[self.l1], prob.l1_rho
        nonzero = self.g != 0.0
        count = nonzero.sum(axis=1)
        self.single = np.flatnonzero(count == 1)   # rows on one weight
        self.col = nonzero[self.single].argmax(axis=1)
        self.coef = self.g[self.single, self.col]
        self.d_single = self.d[self.single]
        self.pull = self.rho[self.single] * self.coef
        self.general = np.flatnonzero(count > 1)
        self.g_general = self.g[self.general]
        self.rho_general = self.rho[self.general]
        self.box = prob.box
        self.lower = np.broadcast_to(np.asarray(box.lower, dtype=float), (n,))
        self.upper = np.broadcast_to(np.asarray(box.upper, dtype=float), (n,))
        self.h_rows = -np.array([s.a for s in halves], dtype=float).reshape(len(halves), n)
        self.h_rhs = -np.array([s.b for s in halves], dtype=float)
        self.exact_box = not halves
        self.level = max(1.0, np.abs(self.b_eq).max(initial=0.0),
                         np.abs(self.h_rhs).max(initial=0.0),
                         np.abs(self.d).max(initial=0.0))
        self.force = max(1.0, np.abs(self.q).max(initial=0.0),
                         (self.rho[:, None] * np.abs(self.g)).max(initial=0.0))

    @classmethod
    def of(cls, prob):
        """The polish of ``prob``, or ``None`` when it does not apply."""
        boxes = [s for s in prob.sets if isinstance(s, prox.Box)]
        halves = [s for s in prob.sets if isinstance(s, prox.Halfspace)]
        if prob.steps or len(boxes) > 1 or len(boxes) + len(halves) < len(prob.sets):
            return None
        return cls(prob, boxes[0] if boxes else prox.Box(), halves)

    def tolerances(self, x):
        """Primal and dual tolerances of the certificate at ``x``."""
        return (_CERT_TOL * max(self.level, np.abs(x).max()),
                _CERT_TOL * max(self.force, np.abs(self.p @ x).max()))

    def attempt(self, x, z):
        """``(weights, duals, r_norm, s_norm)`` on the working set read from
        ``z`` (``x`` the matching ADMM iterate), or ``None`` if the
        certificate refuses the candidate."""
        zl = z[self.l1]
        kink = zl == 0.0
        fixed = np.full(x.size, np.nan)
        k1 = kink[self.single]
        cols, values = self.col[k1], self.d_single[k1] / self.coef[k1]
        fixed[cols] = values
        if self.box is not None:
            zb = z[self.box]
            near = 0.0 if self.exact_box else _ACTIVE_TOL * self.level
            at_lo, at_up = zb <= self.lower + near, zb >= self.upper - near
            fixed[at_lo] = self.lower[at_lo]
            fixed[at_up] = self.upper[at_up]
            active = np.flatnonzero(np.abs(self.h_rows @ zb - self.h_rhs) <= near)
        else:
            active = np.zeros(0, dtype=np.intp)
        if np.any(np.abs(values - fixed[cols]) > _CERT_TOL * np.maximum(1.0, np.abs(values))):
            return None  # two fixings of one weight disagree
        free = np.isnan(fixed)
        x = np.where(free, x, fixed)
        kinks = self.general[kink[self.general]]
        eq_rows = np.vstack([self.a_eq, self.g[kinks]])
        h_act = self.h_rows[active]
        rows = np.vstack([eq_rows, h_act])
        rhs = np.concatenate([self.b_eq, self.d[kinks], self.h_rhs[active]])
        lin = self.g.T @ (self.rho * np.sign(zl)) - self.q
        idx = np.flatnonzero(free)
        p_ff, c_f = self.p.take(idx, 0).take(idx, 1), rows[:, idx]
        step, _, flat, _ = _free_step(p_ff, (self.p @ x + lin)[idx], c_f, rhs - rows @ x)
        if flat:
            return None
        x[idx] += step
        # a large rho leaves the step's rows a rounding gap off: close it
        x[idx] += _free_step(p_ff, np.zeros(idx.size), c_f, rhs - rows @ x)[0]
        tol_p, tol_d = self.tolerances(x)
        if self.infeasibility(x) > tol_p:  # refused before the multipliers are worked out
            return None
        nu, lam_act, _ = _multipliers(self.p @ x + lin, eq_rows, h_act, free)
        me = self.a_eq.shape[0]
        mu = self.rho_general * np.sign(zl[self.general])
        mu[kink[self.general]] = nu[me:]
        lam = np.zeros(self.h_rhs.size)
        lam[active] = lam_act
        r_norm, s_norm, lam_lo, lam_up = self.certificate(x, nu[:me], mu, lam)
        if r_norm > tol_p or s_norm > tol_d:
            return None
        return x, {"eq": nu[:me], "ineq": lam, "lower": lam_lo, "upper": lam_up}, r_norm, s_norm

    def infeasibility(self, x):
        """The largest violation of the equalities, halfspaces and box at ``x``."""
        return max(np.abs(self.a_eq @ x - self.b_eq).max(initial=0.0),
                   (self.h_rhs - self.h_rows @ x).max(initial=0.0),
                   (self.lower - x).max(initial=0.0), (x - self.upper).max(initial=0.0))

    def certificate(self, x, nu, mu, lam):
        """``(r_norm, s_norm, lam_lo, lam_up)`` of the point ``x`` with
        multipliers ``nu`` (equality rows), ``mu`` (the general L1 rows'
        terms ``rho_l s_l``) and ``lam`` (halfspaces), from the problem data.

        ``r_norm`` is ``infeasibility(x)``.  ``s_norm`` is the largest
        violation of optimality: a general row off its kink must have
        ``mu_l = rho_l sign(g_l'x - d_l)``, one at its kink
        ``|mu_l| <= rho_l``; ``lam`` must be nonnegative and vanish off its
        halfspace; and for each weight, 0 must lie in its gradient
        ``(Px - q + a_eq'nu - h_rows'lam + sum_l mu_l g_l)_j`` plus the
        subdifferential of its own L1 rows plus the box's normal cone.  A row
        within the primal tolerance of its kink, or a weight of its bound,
        counts as there.  The bound multipliers are what the normal cone
        takes up.
        """
        tol_p, _ = self.tolerances(x)
        slack = self.h_rows @ x - self.h_rhs
        grad = (self.p @ x - self.q + self.a_eq.T @ nu - self.h_rows.T @ lam
                + self.g_general.T @ mu)
        off = self.coef * x[self.col] - self.d_single
        at_kink = np.abs(off) <= tol_p
        grad += np.bincount(self.col, np.where(at_kink, 0.0, self.pull * np.sign(off)), x.size)
        width = np.bincount(self.col, np.where(at_kink, np.abs(self.pull), 0.0), x.size)
        excess = np.sign(grad) * np.maximum(np.abs(grad) - width, 0.0)
        lam_lo = np.where(x <= self.lower + tol_p, np.maximum(excess, 0.0), 0.0)
        lam_up = np.where(x >= self.upper - tol_p, np.maximum(-excess, 0.0), 0.0)
        off = self.g_general @ x - self.d[self.general]
        side = np.where(np.abs(off) <= tol_p, np.abs(mu) - self.rho_general,
                        np.abs(mu - self.rho_general * np.sign(off)))
        s_norm = max(np.abs(excess - lam_lo + lam_up).max(initial=0.0),
                     side.max(initial=0.0), (-lam).max(initial=0.0),
                     np.abs(lam * slack).max(initial=0.0))
        return self.infeasibility(x), s_norm, lam_lo, lam_up


def admm_solve(prob: _StackedProblem, params: AdmmParams | None = None,
               z0: np.ndarray | None = None, objective=None) -> SolveReport:
    """Scaled, over-relaxed ADMM on the stacked problem ``prob``.

    The loop starts at ``z0`` (zero if ``None``), ``u = 0`` and the penalty
    ``prob.phi``.  Each iteration forms ``A x`` once.  With ``alpha =
    _RELAXATION``, the z-step and the dual update use the relaxed
    ``alpha A x + (1 - alpha)(z + c)`` in place of ``A x``; the stop test
    uses the primal residual ``A x - z - c`` and the dual residual
    ``phi A'(z_old - z)``.  In its first ``_BALANCE_ITERATIONS`` iterations
    the loop doubles (halves) the penalty when the squared primal (dual)
    residual exceeds the other by ``_BALANCE_RATIO``, rescaling ``u`` to keep
    the fixed point; then the penalty is fixed.  ``z0`` must be finite
    (``ValueError`` otherwise); what the loop itself produces is guarded by
    the divergence test, a non-finite primal residual ending it as
    ``diverged``.

    When ``_Polish`` applies to ``prob`` (every block soft-thresholds, the
    sets are a box and halfspaces), the loop tries a polish at iteration
    ``_POLISH_FIRST`` and then at ``ceil(_POLISH_GROWTH k)`` after an
    attempt at ``k``, reading the iterate only.  The first certified
    candidate ends the loop as ``converged``: the report carries its exact
    weights, its multipliers as ``duals`` (``solve_qp``'s keys), the
    certificate's residuals as ``r_norm``/``s_norm`` and
    ``meta['polish'] = {'iteration', 'attempts'}`` (``iteration`` is
    ``None`` when every attempt was refused).  A refused candidate changes
    nothing, and the loop runs on under the residual stop test.  The final
    iterate is recorded in ``meta['state']``, the scaled dual ``phi u`` in
    ``meta['coupling_dual']`` and the equality multipliers, of the polish or
    else of the last x-step, in ``meta['eq_dual']``.
    """
    params = params or AdmmParams()
    n, c, a, sets = prob.n, prob.c, prob.a, prob.sets
    l1, box = prob.l1, prob.box
    alpha, beta = _RELAXATION, 1.0 - _RELAXATION
    z = np.zeros(c.size) if z0 is None else np.asarray_chkfinite(z0, dtype=float).copy()
    u = np.zeros(c.size)
    rhs = prob.rhs
    rhs_x = rhs[:n]
    phi = prob.phi
    factor, thresholds = prob.factor(phi), prob.l1_rho / phi
    x = sol = polished = None
    r_norm = s_norm = math.inf
    status = MAX_ITER
    it = attempts = 0
    polish = _Polish.of(prob)
    next_polish = _POLISH_FIRST if polish is not None else math.inf
    for it in range(1, params.max_iter + 1):
        zc = z + c
        w = zc - u
        pw = phi * w
        np.copyto(rhs_x, prob.q)
        for rows, g in prob.x_blocks:
            rhs_x += pw[rows] if g is None else phi * (g.T @ w[rows])
        sol = lu_solve(factor, rhs)
        x = sol[:n]
        ax = prob.times(x)
        ax_relaxed = alpha * ax + beta * zc
        v = ax_relaxed - c + u
        z_new = np.empty(c.size)
        if l1 is not None:
            z_new[l1] = prox.prox_l1(v[l1], thresholds)
        for rows, step in prob.steps:
            z_new[rows] = step(v[rows], phi)
        if box is not None:
            z_new[box] = prox.project_intersection(v[box], sets)
        r = ax - z_new - c
        u += ax_relaxed - z_new - c
        s = phi * (a.T @ (z - z_new))
        z = z_new
        r_norm = math.sqrt(r @ r)
        s_norm = math.sqrt(s @ s)
        if not math.isfinite(r_norm) or r_norm > _DIVERGE_LIMIT or s_norm > _DIVERGE_LIMIT:
            status = DIVERGED
            break
        if it == next_polish:
            attempts += 1
            next_polish = math.ceil(it * _POLISH_GROWTH)
            polished = polish.attempt(x, z)
            if polished is not None:
                status = CONVERGED
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
            else:
                continue
            factor, thresholds = prob.factor(phi), prob.l1_rho / phi
    state = AdmmState(x=x, z=z, u=u, phi=phi, r_norm=r_norm, s_norm=s_norm, iterations=it)
    duals, eq_dual = None, sol[n:]
    if polished is not None:
        x, duals, r_norm, s_norm = polished
        eq_dual = duals["eq"]
    obj = float(objective(x)) if objective is not None else float("nan")
    report = SolveReport(weights=x, objective=obj, status=status, iterations=it,
                         duals=duals, r_norm=r_norm, s_norm=s_norm)
    report.meta["state"] = state
    report.meta["coupling_dual"] = phi * u
    report.meta["eq_dual"] = eq_dual
    if polish is not None:
        report.meta["polish"] = {"iteration": it if polished is not None else None,
                                 "attempts": attempts}
    return report


def solve_penalized(p_mat, q_vec, blocks, constraints: ConstraintSet | None = None,
                    extra_sets=(), params: AdmmParams | None = None, x_init=None,
                    objective=None) -> SolveReport:
    """Minimize ``0.5 x'Px - q'x + sum_i g_i(G_i x - d_i)`` over the
    constraint set intersected with ``extra_sets``.

    ``blocks`` holds one ``(G_i, d_i, step_i)`` per non-smooth term, where
    ``step_i(v, phi)`` is the prox of ``g_i / phi``; a ``prox.SoftThreshold``
    step is also read as data, its rows joining one stacked ``prox_l1``
    call.  ``x_init`` is the one start point, normally the weights of a
    nearby problem's answer; it must be a finite vector of ``n`` weights
    (``ValueError`` otherwise).  With no block and no extra set the problem
    is a QP, solved exactly by ``solve_qp``, which starts from ``x_init``
    only if it is feasible.  Otherwise phase 1 of ``solve_qp`` first finds
    the constraint set nonempty (``Infeasible`` if not), and ADMM runs on the
    blocks in their order with the constraint projection as the last block,
    from ``z_i = G_i x_init - d_i``, ``u = 0`` and the penalty worked out
    from ``P``.  ``objective`` evaluates the reported objective at the
    answer.  On the ADMM route a non-finite ``P``, ``q``, offset or
    equality level raises ``ValueError`` before the first iteration.
    """
    n = q_vec.size
    if x_init is not None:
        x_init = np.asarray_chkfinite(x_init, dtype=float)
        if x_init.shape != (n,):
            raise ValueError(f"x_init must be a vector of {n} weights, not shape {x_init.shape}")
    constraints = ConstraintSet() if constraints is None else constraints
    eq, ineq, lower, upper = constraints.qp_pieces(n)
    if not blocks and not extra_sets:
        report = solve_qp(QpProblem(Q=p_mat, c=-q_vec, eq=eq, ineq=ineq,
                                    lower=lower, upper=upper), x0=x_init)
        if objective is not None:
            report.objective = float(objective(report.weights))
        return report

    a_eq, b_eq, sets = constraints.admm_pieces(n)
    p_mat, q_vec, b_eq = map(np.asarray_chkfinite, (p_mat, q_vec, b_eq))
    feasible_point(QpProblem(Q=np.zeros((n, n)), c=np.zeros(n), eq=eq, ineq=ineq,
                             lower=lower, upper=upper))
    prob = _StackedProblem(p_mat, q_vec, a_eq, b_eq, blocks, [*extra_sets, *sets])
    z0 = None if x_init is None else prob.times(x_init) - prob.c
    return admm_solve(prob, params, z0=z0, objective=objective)


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


def solve_mixed_lp(a1, b1, penalty_l2, penalty_lp, x0=None,
                   constraints: ConstraintSet | None = None, extra_sets=(),
                   params: AdmmParams | None = None) -> SolveReport:
    """Least squares with an L2 penalty plus an Lp penalty split off through
    ``Gamma_p (x - x0) = z``; the z-step is the componentwise Lp prox.

    Either penalty may be ``None``: with no Lp penalty and no extra set the
    problem is a QP and is solved exactly.  ADMM projects onto the
    constraint set intersected with ``extra_sets`` (norm balls and the
    like).  The penalty matrices may carry negative entries, which is what
    rules out the augmented-QP route.  The solve starts cold.
    """
    p_mat, q_vec, blocks, objective = _least_squares_parts(
        a1, b1, [penalty_l2, penalty_lp], x0)
    return solve_penalized(p_mat, q_vec, blocks, constraints, extra_sets, params,
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
    p_mat, q_vec, _, _ = _least_squares_parts(a1, b1, [penalty_l2], x0)
    n = q_vec.size
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).ravel()
    g1 = penalty_matrix(gamma1, n)
    m = g1.shape[0]
    if not 1 <= n1 <= m:
        raise ValueError(f"n1 must be in [1, {m}]")
    eq, ineq, lower, upper = (ConstraintSet() if constraints is None else constraints).qp_pieces(n)
    eq = eq or (np.zeros((0, n)), np.zeros(0))
    heap, order = [], itertools.count()

    def push(pinned, kept, rep=None):
        """Queue a node on its parent's ``rep``, else on its own QP (``False``
        if infeasible); ties pop the newest node first, so the search dives."""
        if rep is None:
            rows = g1[sorted(pinned)]
            pins = (np.vstack([eq[0], rows]), np.concatenate([eq[1], rows @ x0]))
            try:
                rep = solve_qp(QpProblem(Q=p_mat, c=-q_vec, eq=pins, ineq=ineq,
                                         lower=lower, upper=upper))
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
