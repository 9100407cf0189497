"""Dense convex quadratic programming with exact multipliers.

Solves ``min 0.5 x'Qx + c'x + sum_l rho_l |g_l'x - d_l|`` subject to
``A x = b``, ``G x >= h`` and bounds, with a primal active-set method.  An
inequality row is a one-sided kink, an L1 row at ``h`` whose lower side
costs without bound (Fletcher's exact penalty).  The working set is the
variables fixed at a bound or at a kink of their own L1 rows, plus the
general rows: the equalities and the other rows at their kinks, active
inequalities among them.  Fixed variables drop out, so each step
solves the KKT system ``[Q_FF C_F'; C_F 0]`` of the free block F in
``_kkt``.  Its rows are scaled by ``max|Q_FF| / max|C_F|``, so that the
test for a singular matrix does not depend on the units of the data, and
the scaled matrix has one LU factor (Nocedal & Wright, *Numerical
Optimization*, 16.2), factored afresh at each active-set step (the path
walk updates one inverse per pivot instead); it also covers rows that pin
the block and a singular ``Q_FF`` whose null directions the rows take up.
A pivot at most ``_SINGULAR`` of the largest refuses the LU.
When the KKT matrix is singular (dependent rows, or zero curvature along
the rows, as in the zero blocks of ``augment_l1``, which ends in
``Unbounded`` if nothing blocks it) one SVD of the same scaled matrix
gives its minimum-norm least squares (Golub & Van Loan, *Matrix
Computations*, 5.5): the step, the multipliers, the descent along zero
curvature and the rows' null directions.  Each solve carries the working
rows' gap ``b - C x`` on its right-hand side, and at a stationary ``x``
the small step that closes it is still taken, so the rounding error that a
start can leave in the rows (eps times its largest entries) does not stay
in the answer.  All iterates stay feasible.  A solve starts at the
caller's ``x0`` when it is feasible; a cold solve with at most one equality
row starts at the diagonal model's minimizer ``-c / diag(Q)`` projected
exactly onto the box and the row (a breakpoint search), which factors
nothing and lies on most of the optimum's bounds, refined by a few
primal-dual active-set rounds on the box and the row (Hintermüller, Ito &
Kunisch 2002), which predict the bound set from the multipliers with the
same diagonal and fix many bounds at once.  When neither
start is feasible, phase 1 minimizes elastic slacks on the general rows
from a point inside the bounds.  The cold start reads ``Q``, ``c``, the
rows and the box but not the L1 rows, and ``_start``, a
``functools.lru_cache``, keeps the last ``_START_CACHE`` of them, keyed by
a digest of what it reads: the accounts of one model, whose L1 rows alone
differ, share one start, the answer is the one an empty cache gives, and
``_start.cache_info()`` counts the hits.
Multipliers follow the stationarity convention

    Q x + c + A' nu - G' lam_ineq - lam_lo + lam_up = 0,

with ``lam_ineq``, ``lam_lo`` and ``lam_up`` nonnegative: ``nu`` and
``-lam_ineq`` are the row multipliers that the KKT solve of the step
returns with it.  Every report's bound multipliers and residuals come from
``certificate``, which reads the problem data and those row multipliers
only, and the status is ``converged`` only when it passes.

The active set and the path walk share one working set ``(at, side)``,
each weight's state and each kink row's side of its kink (0 at it), and
rank the ``n`` weights and the kink rows (L1 rows, then inequality rows):
weight ``j``'s lower bound or rise ranks ``j``, its upper bound or fall
``n + j``, row ``l`` ``2n + l``.  Step lengths and multipliers are read by
rank, and ``_pivot`` applies the event at a rank.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import cache, cached_property, lru_cache

import numpy as np

from .errors import (
    EmptyIntersection,
    Infeasible,
    MaxIterations,
    NegativeGammaEntries,
    Unbounded,
)
from .market_data import refuse_indefinite
from .prox import Box, project_hyperplane_intersection
from .report import CONVERGED, UNCERTIFIED, SolveReport

_FEAS_TOL = 1e-9
_CERT_TOL = 1e-12  # certificate tolerance, relative to the scale of the data
_LOWER, _FREE, _UPPER, _KINK = -1, 0, 1, 2  # per-variable state
_REFINE_ROUNDS = 8  # cap on the cold start's primal-dual active-set rounds
_SINGULAR = 1e-11  # a pivot or singular value at most this of the largest is zero
# cold starts kept: at least the models a nightly run interleaves, each entry
# n floats (at most 0.5 MB in all at n = 200)
_START_CACHE = 256
# the solves' maxima and minima, one C call each (ndarray.max adds a Python one)
_largest, _least = np.maximum.reduce, np.minimum.reduce


@cache
def _linalg():
    """``scipy.linalg``, imported at the first factorization: it is most of
    the package's import time, and the calls that never factor a matrix
    (the ``estimate``, ``views``, ``stevens`` and ``calibrate`` verbs among
    them) never load it."""
    import scipy.linalg
    return scipy.linalg


def _check_finite(name: str, *arrays) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError(f"{name} must hold finite numbers only")


def _rows(block, n: int, name: str, what: str):
    """A block ``(A, b)`` of ``n`` columns as checked float arrays, zero rows
    for ``None``."""
    if block is None:
        return np.zeros((0, n)), np.zeros(0)
    a, b = np.atleast_2d(np.asarray(block[0], float)), np.asarray(block[1], float).ravel()
    if a.shape != (b.size, n):
        raise ValueError(f"{what} block dimensions disagree")
    _check_finite(name, a, b)
    return a, b


def _bound(v, n: int, name: str, beyond: float) -> np.ndarray:
    """A bound as a checked vector of ``n``, infinite for ``None`` and a
    scalar repeated; a bound at ``beyond`` is ``Infeasible``."""
    v = np.asarray(-beyond if v is None else v, dtype=float).ravel()
    v = v.repeat(n) if v.size == 1 else v
    if v.size != n:
        raise ValueError(f"{name} bound has wrong length")
    # the bound nearest ``beyond``, NaN if any is NaN
    edge = _largest(v, initial=-np.inf) if beyond > 0 else _least(v, initial=np.inf)
    if np.isnan(edge):
        raise ValueError(f"{name} bound must not be NaN")
    if edge == beyond:
        raise Infeasible(f"{name} bound of {beyond}: no weight lies there")
    return v


@dataclass
class QpProblem:
    """``min 0.5 x'Qx + c'x + sum_l rho_l |G_l x - d_l|`` subject to ``A x =
    b``, ``G x >= h`` and ``lower <= x <= upper``.

    Construction checks the data and fills what the caller left out, so
    every reader sees one dense form: ``Q`` is a symmetric ``n x n`` array
    (the caller's own when exactly symmetric) and ``c`` a vector of ``n``;
    ``eq`` is ``(A, b)`` and ``ineq`` ``(G, h)``, with zero rows when
    absent; ``lower`` and ``upper`` are vectors of ``n``, infinite when
    absent (a scalar bound applies to every weight).  ``l1`` is ``(G, d,
    rho)``, ``rho`` repeated to the rows, or ``None``: the solves branch on
    ``_kinks`` being ``None`` rather than walk empty kink arrays.
    ``max_iter`` is the cap on phase 1's and the active set's iterations
    and the path's pivots.
    """

    Q: np.ndarray
    c: np.ndarray
    eq: tuple | None = None      # (A, b) with A x = b
    ineq: tuple | None = None    # (G, h) with G x >= h
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    l1: tuple | None = None      # (G, d, rho): + sum_l rho_l |G_l x - d_l|

    def __post_init__(self):
        q, c = np.atleast_2d(np.asarray(self.Q, float)), np.asarray(self.c, float).ravel()
        n = c.size
        if q.shape != (n, n):
            raise ValueError("Q and c dimensions disagree")
        _check_finite("Q", q)
        _check_finite("c", c)
        if not (q == q.T).all():  # 0.5 (Q + Q') is Q itself for a symmetric Q
            if np.abs(q - q.T).max() > 1e-12 * max(1.0, np.abs(q).max()):
                raise ValueError("Q must be symmetric")
            q = 0.5 * (q + q.T)
        self.Q, self.c = q, c
        self.eq = _rows(self.eq, n, "eq", "equality")
        self.ineq = _rows(self.ineq, n, "ineq", "inequality")
        if self.l1 is not None:
            g, d = _rows(self.l1[:2], n, "l1", "l1")
            rho = np.asarray(self.l1[2], dtype=float).ravel()
            rho = rho.repeat(d.size) if rho.size == 1 else rho
            if rho.size != d.size:
                raise ValueError("l1 block dimensions disagree")
            _check_finite("l1", rho)
            if (rho < 0).any():
                raise ValueError("l1 weights must be nonnegative")
            self.l1 = g, d, rho
        self.lower = _bound(self.lower, n, "lower", np.inf)
        self.upper = _bound(self.upper, n, "upper", -np.inf)
        if (self.lower > self.upper + 1e-15).any():
            raise Infeasible("lower bound exceeds upper bound")

    @property
    def n(self) -> int:
        return self.c.size

    @cached_property
    def max_iter(self) -> int:
        """100 per variable and per constraint row (each finite bound and L1
        row counts as one) plus 200."""
        rows = self.ineq[1].size + (0 if self.l1 is None else self.l1[1].size)
        bounds = int(np.isfinite(self.lower).sum() + np.isfinite(self.upper).sum())
        return 100 * (self.c.size + rows + bounds) + 200

    @cached_property
    def _kinks(self):
        """The ``_Kinks`` of the L1 rows, multipliers in ``[-rho, rho]``, and
        then the inequality rows, in ``(-inf, 0]``; built once and shared by
        the solve, its certificate and walks.  ``None`` without either, not
        an empty ``_Kinks``: the per-pivot and per-step numpy calls on empty
        arrays are not free, and with one (every ``None`` branch kept)
        target_calibration ran 283, 283 and 275 ops/s against 318, 318 and
        326, p90 5.6-5.8 ms against 5.2-5.4 ms (seeds 501-503, alternating 15 s
        runs, shared 2-vCPU machine, one BLAS thread)."""
        (g, h), l1 = self.ineq, self.l1
        if l1 is None and not h.size:
            return None
        g1, d, rho = (g[:0], h[:0], h[:0]) if l1 is None else l1
        lo = np.concatenate([-rho, np.full(h.size, -np.inf)])
        hi = np.concatenate([rho, np.zeros_like(h)])
        return _Kinks(np.concatenate([g1, g]), np.concatenate([d, h]), lo, hi)

    @cached_property
    def _scales(self):
        """The certificate's scales, read once: ``max(1, |b|, |kinks.d|)``,
        ``max|Q|`` and ``max(|c|, |kinks.pull|)``."""
        kinks = self._kinks
        d, pull = ((), ()) if kinks is None else (kinks.d, kinks.pull)
        level = _largest(np.abs(np.concatenate([self.eq[1], d])), initial=1.0)
        top = max(_largest(np.abs(self.c), initial=0.0), _largest(np.abs(pull), None, initial=0.0))
        return level, _largest(np.abs(self.Q), None, initial=0.0), top


class _Kinks:
    """Rows ``g_l'x`` with a kink at ``d_l`` and a multiplier interval
    ``[lo_l, hi_l]`` (``mu_l`` is ``hi_l`` above the kink, ``lo_l`` below):
    ``[-rho_l, rho_l]`` for an L1 row ``rho_l |g_l'x - d_l|``, ``(-inf, 0]``
    for an inequality row ``g_l'x >= d_l``, ``mu_l = -lam_l``.  Symmetric
    rows on one weight are ``single`` (column ``col``, coefficient ``coef``,
    subgradient half-width ``width = hi_l |coef|``), the other nonzero rows
    ``general``; ``priced`` adds the all-zero inequality rows, and
    ``pull_single`` is the single rows' columns of ``pull``: the certificate's."""

    def __init__(self, g, d, lo, hi):
        self.g, self.d, self.lo, self.hi = g, d, lo, hi
        self.pull = g.T * hi  # the gradient of the rows at sides s is pull @ s
        nonzero = g != 0.0
        count = nonzero.sum(axis=1)
        single = (count == 1) & (lo == -hi)
        self.single = single.nonzero()[0]
        self.col = nonzero.argmax(axis=1)[self.single]
        self.coef = g[self.single, self.col]
        self.width = hi[self.single] * np.abs(self.coef)
        general = (count > 0) & ~single
        self.general, self.priced = general.nonzero()[0], (general | (lo == -np.inf)).nonzero()[0]
        self.slot = np.full(d.size, -1)  # each single row's place in ``single``
        self.slot[self.single] = np.arange(self.single.size)
        self.pull_single = self.pull if self.single.size == d.size else self.pull[:, self.single]

    def release(self, side, cols, up):
        """Weights ``cols`` leave their kinks, up where ``up`` and down
        elsewhere: their rows there follow."""
        move = np.zeros(self.g.shape[1])
        move[cols] = np.where(up, 1.0, -1.0)
        rows = (move[self.col] != 0.0) & (side[self.single] == 0.0)
        side[self.single[rows]] = move[self.col[rows]] * np.sign(self.coef[rows])

    def settle(self, side, x, cols):
        """Sides of the weights ``cols``' rows at ``x``, 0 at a kink (to
        ``_CERT_TOL``)."""
        hit = np.zeros(self.g.shape[1], dtype=bool)
        hit[cols] = True
        rows = hit[self.col]
        on = self.single[rows]
        off = self.coef[rows] * x[self.col[rows]] - self.d[on]
        side[on] = np.where(np.abs(off) <= _CERT_TOL * np.maximum(1.0, np.abs(self.d[on])),
                            0.0, np.sign(off))

    def cross(self, side, ratios, start, gp, slope, curv):
        """Pass the kinks a step meets, in the order of their step lengths
        ``ratios[start:]`` up to the first other event, while the objective
        falls: along ``x + a p`` its derivative is ``slope + a curv`` plus
        ``(hi_l - lo_l) |g_l'p|`` per kink passed, so an inequality row stops
        the step.  With curvature the step ends by its full length 1, where
        a step that carries the rows' gap closes it (a longer one would open
        it again).  Returns ``(alpha, blocking)``, ``blocking`` the rank of
        the constraint the step stops at, -1 between kinks; a descent with no
        end is ``Unbounded``."""
        limit = ratios[:start].min(initial=np.inf)
        order = np.argsort(ratios[start:], kind="stable")
        for row in order[ratios[start + order] < (min(limit, 1.0) if curv > 0 else limit)]:
            a = ratios[start + row]
            if curv > 0 and slope + a * curv >= 0:
                return -slope / curv, -1
            jump = (self.hi[row] - self.lo[row]) * abs(gp[row])
            if slope + a * curv + jump >= 0:
                return a, start + row
            side[row], slope = -side[row], slope + jump
        stop = min(-slope / curv, 1.0) if curv > 0 else np.inf
        if stop < limit:
            return stop, -1
        if limit == np.inf:
            raise Unbounded("descent past every kink with no blocking constraint")
        return limit, int(np.argmax(ratios[:start] <= limit + 1e-15))


def _ratio_test(ratios, x, p, tiny, lo, up, kinks=None, side=None):
    """Into ``ratios``, indexed by rank, the step along ``p`` to each free
    variable's bound and each kink row's kink that it moves toward by more
    than ``tiny``, at least zero; infinite for the others (an infinite
    bound's ratio is +inf too; ``p`` is 0 at fixed variables).  Returns the
    kink rows' ``g p``, ``None`` without kink rows."""
    n = x.size
    ratios.fill(np.inf)
    np.divide(lo - x, p, out=ratios[:n], where=p < -tiny)
    np.divide(up - x, p, out=ratios[n:2 * n], where=p > tiny)
    gp = None
    if kinks is not None:
        gp = kinks.g @ p
        np.divide(kinks.d - kinks.g @ x, gp, out=ratios[2 * n:], where=side * gp < -tiny)
    np.maximum(ratios, 0.0, out=ratios)
    return gp


def _rise_fall(at, fixed, reduced, rise, fall, kinks=None, side=None):
    """Into ``rise`` and ``fall`` where the mask ``fixed`` holds, the
    objective's one-sided derivatives as those weights move up and down: the
    reduced gradient plus the widths of their rows at a kink, infinite out
    of the box.  A weight leaves to the side whose derivative is negative."""
    width = 0.0 if kinks is None or not kinks.single.size else np.bincount(
        kinks.col, np.where(side[kinks.single] == 0.0, kinks.width, 0.0), at.size)
    np.add(reduced, width, out=rise, where=fixed)
    np.subtract(width, reduced, out=fall, where=fixed)
    rise[at == _UPPER], fall[at == _LOWER] = np.inf, np.inf


def _pivot(ranks, at, side, x, lo, up, kinks=None, lean=0.0):
    """Apply the events at ``ranks``, one kink row's or several weights'
    (all free or all fixed), to the working set ``(at, side)`` and ``x``.
    Free weights are fixed at their bounds, fixed ones freed up at their
    rise ranks or down at their fall ranks, their rows at kinks updated by
    one call; a row off its kink reaches it (a single row fixing its weight
    there), a general row at its kink leaves to the side ``lean``."""
    n, r = x.size, ranks[0]
    if r < 2 * n:
        cols = [rank % n for rank in ranks]
        if at[cols[0]] == _FREE:
            for rank, j in zip(ranks, cols):
                at[j], x[j] = (_LOWER, lo[j]) if rank < n else (_UPPER, up[j])
            if kinks is not None and kinks.single.size:
                kinks.settle(side, x, cols)
        else:
            at[cols] = _FREE
            if kinks is not None and kinks.single.size:
                kinks.release(side, cols, [rank < n for rank in ranks])
    elif side[r - 2 * n]:
        row = r - 2 * n
        side[row], i = 0.0, kinks.slot[row]
        if i >= 0:
            j = kinks.col[i]
            at[j], x[j] = _KINK, kinks.d[row] / kinks.coef[i]
            kinks.settle(side, x, j)
    else:
        side[r - 2 * n] = lean


def _bland(neg, at, side, kinks=None):
    """Bland's rule: the lowest of the violating ranks ``neg``, a weight at
    a kink ranking as its lowest row there, as in the ratio test."""
    key = neg
    if kinks is not None:
        n, there = at.size, side[kinks.single] == 0.0
        first = np.full(n, 2 * n + kinks.d.size)
        np.minimum.at(first, kinks.col[there], 2 * n + kinks.single[there])
        j = neg % n
        key = np.where((neg < 2 * n) & (at[j] == _KINK), first[j], neg)
    return int(neg[np.argmin(key)])


def _kkt(q_ff, c_f, g_f, gap=None):
    """``(p, y, flat, null)`` solving the free block's KKT system
    ``[Q_FF C_F'; C_F 0] [p; y] = [-g_F; gap]`` (``gap`` zero when ``None``),
    one solve for all of ``g_F``'s columns.  ``y`` are the rows'
    multipliers at the point ``x + p``, where ``g_F + Q_FF p + C_F'y = 0``.

    The rows are scaled by ``w = max|Q_FF| / max|C_F|`` (1 when either block
    is zero; ``max|Q_FF|`` is the largest diagonal entry, exact for a
    positive semidefinite ``Q_FF``), so that both blocks weigh alike
    whatever the units of the data, and ``y = w y'``.  One LU factors the
    scaled matrix (Nocedal & Wright, *Numerical Optimization*, 16.2); more
    rows than weights, or a pivot at most ``_SINGULAR`` of the largest,
    refuses it.  Then one SVD of the same matrix gives its minimum-norm
    least squares (Golub & Van Loan, *Matrix Computations*, 5.5), singular
    values at most ``_SINGULAR`` of the largest counting as zero.  Its null
    space splits into directions of zero curvature ``(u, 0)``, ``Q_FF u =
    C_F u = 0``, and dependent rows ``(0, v)``, ``C_F'v = 0``, and the
    residual's p-part is minus the gradient's component along the first.
    In a column whose zero-curvature component exceeds 1e-10 of its gradient
    (``flat``, per column), ``p`` is that descent alone and the ratio test
    sets its length.  ``null``'s columns, the y-parts of the null vectors,
    span the rows' null directions; ``null`` is ``None`` exactly when the LU
    solved the system.
    Where the rows pin the block only the gap moves it: without one, ``p``
    is exactly zero.  With no weight free, ``p`` is empty, ``y`` zero and
    every ``y`` a null direction.
    """
    rows, free = c_f.shape
    flat = np.zeros(g_f.shape[1:], dtype=bool)
    if not free:
        return g_f, np.zeros((rows,) + g_f.shape[1:]), flat, np.eye(rows)
    top_q, top_c = _largest(q_ff.diagonal(), initial=0.0), _largest(np.abs(c_f), None, initial=0.0)
    w = top_q / top_c if top_q > 0.0 and top_c else 1.0
    kkt = np.zeros((free + rows, free + rows), order="F")
    kkt[:free, :free] = q_ff
    np.multiply(w, c_f, out=kkt[free:, :free])
    kkt[:free, free:] = kkt[free:, :free].T
    rhs = np.zeros((free + rows,) + g_f.shape[1:])
    np.negative(g_f, out=rhs[:free])
    if gap is not None:
        np.multiply(w, gap, out=rhs[free:])
    if rows <= free:
        lapack = _linalg().lapack
        lu, piv, _ = lapack.dgetrf(kkt)
        pivots = np.abs(lu.diagonal())
        if _least(pivots) > _SINGULAR * _largest(pivots):
            sol = lapack.dgetrs(lu, piv, rhs)[0]
            p = sol[:free]
            if rows == free:  # rows that pin the block: only the gap moves it
                rhs[:free] = 0.0
                p = lapack.dgetrs(lu, piv, rhs)[0][:free]
            return p, w * sol[free:], flat, None
    u, s, vt = np.linalg.svd(kkt)
    rank = int(np.sum(s > _SINGULAR * s[0]))
    pinv = (vt[:rank].T / s[:rank]) @ u[:, :rank].T
    sol, null = pinv @ rhs, vt[rank:].T
    p, y, null_p, null_y = sol[:free], sol[free:], null[:free], null[free:]
    descent = -null_p @ (null_p.T @ g_f)
    flat = np.linalg.norm(descent, axis=0) > 1e-10 * np.maximum(1.0, np.linalg.norm(g_f, axis=0))
    p = np.where(flat, descent, p)
    if rank == 2 * free:  # rows that pin the block: only the gap moves it
        p = pinv[:free, free:] @ rhs[free:]
    return p, w * y, flat, null_y


def _active_set(problem: QpProblem, x0, max_iter):
    """Primal active-set loop from a feasible ``x0``, at most ``max_iter``
    iterations.

    The working set is the per-variable state ``at`` (``_LOWER``,
    ``_FREE``, ``_UPPER``, or ``_KINK`` at a kink of its own L1 rows) and
    each kink row's ``side`` of its kink, 0 at it, the general rows there
    joining the equality rows.  A row off its kink adds ``hi_l side_l g_l``
    to the gradient.  States are read off ``x0`` to ``_FEAS_TOL``, and a
    weight read at a bound, or at a kink of its own L1 rows, is put exactly
    there (at the kink where that is nearer than the bound), as ``_pivot``
    puts one it fixes (its rows' sides then read to ``_CERT_TOL``), so that
    the answer sits where its multipliers say.  The
    multiplier test writes the working set's multipliers by rank, +inf off
    it: a fixed variable's one-sided derivatives at its rise and fall ranks
    (its kinks adding their widths), a general row's ``min(hi_l - mu_l,
    mu_l - lo_l)`` at its kink.  It takes ``nu`` and ``mu`` from the KKT
    solve that made ``x`` stationary: the zero step's at ``x``, or the last
    full step's, exact at ``x`` since a full step leaves the working set as
    it was.  ``_pivot`` applies the most negative and the ratio test's
    blocking constraint, ties going to the lowest rank (past L1 rows' kinks
    while the objective falls); after a run of degenerate steps ``_bland``
    picks instead.  Each KKT solve carries the working rows' gap at ``x``,
    ``b_eq`` and the kinks less the rows' values.  Where ``x`` is stationary
    that step, a small one that closes the gap, is taken within the box
    before the multiplier test.
    Returns ``(x, at, side, iterations, (nu, mu))``: the equality rows' and
    every kink row's multipliers (its side's end off its kink, 0 at a single
    row's).
    """
    q, c, kinks = problem.Q, problem.c, problem._kinks
    (a_eq, b_eq), lo, up = problem.eq, problem.lower, problem.upper
    n, k = c.size, 0 if kinks is None else kinks.d.size
    below, above = np.abs(x0 - lo), np.abs(up - x0)
    at = np.where(below <= _FEAS_TOL, _LOWER, np.where(above <= _FEAS_TOL, _UPPER, _FREE))
    x = np.where(at == _LOWER, lo, np.where(at == _UPPER, up, x0))
    side = np.zeros(k)
    rows, rhs, kg = a_eq, b_eq, np.zeros(0, dtype=np.intp)
    if k:
        off = kinks.g @ x0 - kinks.d
        side = np.where(np.abs(off) <= _FEAS_TOL, 0.0, np.sign(off))
        there = side[kinks.single] == 0.0  # single rows read at their kinks
        if there.any():  # seldom on a cold start, which does not read the L1 rows
            near = np.minimum(below, above)[kinks.col]  # each row's weight's nearer bound
            # those of weights nearer their kinks than their bounds: put there
            put = there & (np.abs(off[kinks.single]) < np.abs(kinks.coef) * near)
            at[kinks.col[put]], x[kinks.col[put]] = _KINK, kinks.d[kinks.single[put]] / kinks.coef[put]
            kinks.settle(side, x, kinks.col[there])
    ones = problem.l1 is not None and problem.l1[1].size > 0  # L1 rows, which pull
    ratios = np.empty(2 * n + k)   # indexed by rank
    mult = np.empty(2 * n + k)     # working-set multipliers by rank, +inf off it
    degenerate_run = 0
    bland = settled = False
    for it in range(1, max_iter + 1):
        free = at == _FREE
        idx = free.nonzero()[0]
        grad = q @ x + c
        if ones:
            grad += kinks.pull @ side
        if k and kinks.general.size:
            kg = kinks.general[side[kinks.general] == 0.0]
            rows = np.vstack([a_eq, kinks.g[kg]]) if kg.size else a_eq
            rhs = np.concatenate([b_eq, kinks.d[kg]]) if kg.size else b_eq
        p = np.zeros(n)
        if not settled:  # the step after a full one is zero, and y exact: skip it
            g_f, c_f = grad[idx], rows.take(idx, 1)
            p[idx], y, flat, _ = _kkt(q.take(idx, 0).take(idx, 1), c_f, g_f, rhs - rows @ x)
            residual = _largest(np.abs(g_f + c_f.T @ y), initial=0.0)
        if settled or not flat and (
                _largest(np.abs(p), initial=0.0) <= 1e-11 * (1.0 + _largest(np.abs(x)))
                or residual <= 1e-13 * _largest(np.abs(grad))):
            settled = False
            # the rows' gap, if any, within the box (np.clip's arithmetic)
            x[idx] = np.minimum(np.maximum(x[idx] + p[idx], lo[idx]), up[idx])
            nu, mu = y[:a_eq.shape[0]], y[a_eq.shape[0]:]
            mult.fill(np.inf)
            _rise_fall(at, ~free, grad + rows.T @ y, mult[:n], mult[n:2 * n], kinks, side)
            if k:
                mult[2 * n + kg] = np.minimum(kinks.hi[kg] - mu, mu - kinks.lo[kg])
            neg = (mult < -1e-9).nonzero()[0]
            if neg.size == 0:
                full = kinks.hi * side if k else np.zeros(0)
                full[kg] = mu
                return x, at, side, it, (nu, full)
            drop = _bland(neg, at, side, kinks) if bland else int(mult.argmin())
            # with L1 rows every violating weight leaves at once; its rows at a
            # kink take the side it leaves to.  Keyed on L1 rows as measured in
            # summed solve_qp iterations over the benchmark's cycles: on plain
            # QPs too it raises target_calibration's from 1,176 to 1,443 (17
            # cycles), and never leaving at once raises nightly_rebalance's from
            # 345 to 372 and advisor_cli's from 577 to 667 (5 cycles each)
            leave = neg[neg < 2 * n] if ones and not bland and drop < 2 * n else [drop]
            lean = np.sign(mu[np.searchsorted(kg, drop - 2 * n)]) if drop >= 2 * n else 0.0
            _pivot(leave, at, side, x, lo, up, kinks, lean)
            continue
        gp = _ratio_test(ratios, x, p, 1e-13, lo, up, kinks, side)
        alpha = np.inf if flat else 1.0
        blocking = -1
        least = _least(ratios, initial=np.inf)
        if least < alpha - 1e-15:
            alpha = least
            tied = ratios <= alpha + 1e-15
            blocking = int(tied.argmax())  # lowest rank among ties
        settled = blocking < 0 and not flat
        if blocking >= 2 * n and kinks.lo[blocking - 2 * n] > -np.inf:
            # an L1 kink first (an inequality stops the step): pass kinks while
            # the objective falls
            alpha, blocking = kinks.cross(side, ratios, 2 * n, gp, grad @ p,
                                          0.0 if flat else p @ q @ p)
        if flat and blocking < 0:
            if grad @ p < -1e-12:
                raise Unbounded("zero-curvature descent with no blocking constraint")
            alpha = 0.0  # numerically flat but not a real descent: stay put
        x = x + alpha * p
        if alpha == 0.0 and 0 <= blocking < 2 * n:
            # a zero step fixes every free weight it would take out of the box,
            # tied as the blocking one is
            _pivot(tied[:2 * n].nonzero()[0], at, side, x, lo, up, kinks)
        elif blocking >= 0:
            _pivot([blocking], at, side, x, lo, up, kinks)
        degenerate_run = degenerate_run + 1 if alpha <= 1e-14 else 0
        if degenerate_run > n + 2:
            bland = True
    raise MaxIterations(f"active set did not terminate in {max_iter} iterations")


def _cold_start(problem: QpProblem):
    """The diagonal model's minimizer ``-c / _diagonal(Q)``, 0 in a weight
    with no finite bound (a box-less singular problem steps from 0 to its
    minimum-norm answer), projected exactly onto the box and the equality
    row (Moré & Toraldo, *SIAM J. Optim.* 1991) by a breakpoint search.  It
    factors nothing and lies on most of the optimum's bounds, where phase
    1's point lies on none; ``_refine_start`` corrects its bound set.
    ``None`` with two or more equality rows, or a row out of the box's reach."""
    (a_eq, b_eq), lo, up = problem.eq, problem.lower, problem.upper
    if a_eq.shape[0] > 1:
        return None
    v = np.where(np.isfinite(lo) | np.isfinite(up), -problem.c / _diagonal(problem.Q), 0.0)
    if not b_eq.size:
        return Box(lo, up).project(v)
    try:
        return project_hyperplane_intersection(v, a_eq[0], b_eq[0], Box(lo, up))
    except EmptyIntersection:
        return None


def _diagonal(q) -> np.ndarray:
    """``Q``'s diagonal where positive, else 1: the start's model curvature."""
    return np.where(q.diagonal() > 0.0, q.diagonal(), 1.0)


def _refine_start(problem: QpProblem, x):
    """Primal-dual active-set rounds from ``_cold_start``'s point ``x`` on the
    box and the equality row (Hintermüller, Ito & Kunisch, *SIAM J. Optim.*
    2002), which fix many bounds at once where the active set fixes one per
    step.  A round predicts each weight's state from ``x - r / diag(Q)``
    against its bounds, ``r = Qx + c + A'nu`` the reduced gradient (``nu``
    the least squares over ``x``'s free weights at first).  Unless that
    repeats the states of ``x`` (read off the start, then those of the last
    solve), it fixes the predicted weights at their bounds and solves the
    free block's KKT system with the row's gap for the next ``x`` and
    ``nu``.  The rounds end when the prediction repeats, ``_kkt``'s LU is
    refused, or after ``_REFINE_ROUNDS``.  Inequality rows are not seen:
    returns the last iterate that is ``_feasible`` against every row, else
    ``x`` itself."""
    q, c, (a_eq, b_eq), lo, up = problem.Q, problem.c, problem.eq, problem.lower, problem.upper
    scale = _diagonal(q)  # any positive scale predicts
    state = np.where(np.abs(x - lo) <= _FEAS_TOL, _LOWER,
                     np.where(np.abs(up - x) <= _FEAS_TOL, _UPPER, _FREE))
    grad, free = q @ x + c, state == _FREE
    a_f = a_eq[:, free]  # at most one row: its least squares is a ratio
    nu = -(a_f @ grad[free]) / max((a_f * a_f).sum(), np.finfo(float).tiny)
    best = x
    for _ in range(_REFINE_ROUNDS):
        z = x - (grad + a_eq.T @ nu) / scale
        predicted = np.where(z <= lo, _LOWER, np.where(z >= up, _UPPER, _FREE))
        if np.array_equal(predicted, state):
            break
        state = predicted
        x = np.where(state == _LOWER, lo, np.where(state == _UPPER, up, x))
        idx = np.flatnonzero(state == _FREE)
        a_f = a_eq.take(idx, 1)
        p, nu, _, null = _kkt(q.take(idx, 0).take(idx, 1), a_f, q[idx] @ x + c[idx],
                              b_eq - a_eq @ x)
        if null is not None:
            break
        x[idx] += p
        grad = q @ x + c
        if _feasible(problem, x):
            best = x
    return best


class _StartKey(bytes):
    """``_start``'s argument: a problem, hashed and compared as the bytes of
    the SHA-256 digest of what the start reads, ``Q``, ``c``, the equality
    and inequality rows, the bounds, their shapes and phase 1's iteration
    cap, and not the L1 rows.  ``_start`` lets go of the problem once it
    has read it, so its table holds digests, never inputs."""

    def __new__(cls, problem: QpProblem):
        arrays = (problem.Q, problem.c, *problem.eq, *problem.ineq, problem.lower,
                  problem.upper)
        digest = hashlib.sha256(repr([problem.max_iter] + [a.shape for a in arrays]).encode())
        for a in arrays:
            digest.update(a if a.flags.c_contiguous else np.ascontiguousarray(a))
        key = super().__new__(cls, digest.digest())
        key.problem = problem
        return key


@lru_cache(maxsize=_START_CACHE)
def _start(key: _StartKey) -> np.ndarray:
    """The cold start, read-only: ``_cold_start``'s diagonal-model point refined
    by ``_refine_start`` when it passes ``_feasible``, else phase 1's point.

    The last ``_START_CACHE`` starts are kept, least recently used first
    out.  The accounts of one model, which differ only in the L1 rows
    around their books, share one, and so does the first point of an L1
    penalty's path; a hit is the start a miss would compute, so the answer
    is bit-identical.  Two threads that miss on one key both compute it.
    """
    problem, key.problem = key.problem, None
    x0 = _cold_start(problem)
    if x0 is not None:
        x0 = _refine_start(problem, x0)
    if x0 is None or not _feasible(problem, x0):
        x0 = feasible_point(problem)
    x0 = x0.copy()
    x0.setflags(write=False)
    return x0


def _violation(problem: QpProblem, x) -> float:
    """The largest violation at ``x`` of the equalities, inequalities and
    bounds."""
    (a_eq, b_eq), (g, h) = problem.eq, problem.ineq
    return _largest(np.concatenate([np.abs(a_eq @ x - b_eq), h - g @ x, problem.lower - x,
                                    x - problem.upper]), initial=0.0)


def _feasible(problem: QpProblem, x) -> bool:
    """Whether ``x`` is finite and meets every constraint to ``_FEAS_TOL``."""
    return x.size == problem.n and np.isfinite(x).all() and _violation(problem, x) <= _FEAS_TOL


def feasible_point(problem: QpProblem) -> np.ndarray:
    """A point of the problem's constraint set, from phase 1, which
    minimizes elastic slacks on the violated rows; raises ``Infeasible``
    when the set is empty.  The objective is not read.

    The start is the least-squares solution of the equalities clipped into
    the bounds.  Each general row it violates gets one nonnegative slack
    that absorbs the violation, so the bounds hold throughout and the
    problem is feasible exactly when the slacks can reach zero.  The
    elastic problem's active set stops at the problem's ``max_iter``.
    """
    (a_eq, b_eq), (g, h), lo, up = problem.eq, problem.ineq, problem.lower, problem.upper
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
    elastic = QpProblem(Q=1e-8 * np.eye(n + k), c=np.concatenate([np.zeros(n), np.ones(k)]),
                        eq=(np.hstack([a_eq, d]), b_eq), ineq=(np.hstack([g, e]), h),
                        lower=np.concatenate([lo, np.zeros(k)]),
                        upper=np.concatenate([up, np.full(k, np.inf)]))
    y0 = np.concatenate([x0, np.abs(r_eq[bad_eq]), r_in[bad_in]])
    y, *_ = _active_set(elastic, y0, problem.max_iter)
    if y[n:].sum() > 1e-7:
        raise Infeasible(f"no feasible point, residual {y[n:].sum():.3e}")
    return y[:n]


def solve_qp(problem: QpProblem, x0: np.ndarray | None = None) -> SolveReport:
    """Minimize ``0.5 x'Qx + c'x``, plus the problem's L1 rows, over its
    constraint set.

    ``x0`` is an optional starting point (a warm start); it is used only if
    it is finite and feasible, and as it is.  Otherwise the solve starts
    cold at ``_cold_start``'s projected diagonal-model minimizer, which takes
    no factorization, refined by ``_refine_start``'s primal-dual active-set
    rounds on the box and the equality row (Hintermüller, Ito & Kunisch,
    *SIAM J. Optim.* 2002), when that point passes the same test, and at
    phase 1's point when it does not; the active set then finishes.  The
    cold start is taken from ``_start``'s table when a problem with the same
    ``Q``, ``c``, rows and box, whatever its L1 rows, was solved cold
    lately, which gives the same start and so the same answer.
    The L1 rows' states are read off the start to ``_FEAS_TOL`` as its
    bound states are, and a weight read at a bound or a kink is put exactly
    there (``_active_set``).  Phase 1 and the active set each stop at the
    problem's ``max_iter`` (``MaxIterations``, or ``NotPositiveSemidefinite``
    when ``Q``'s ``eigvalsh``, taken then only, fails ``clip_psd``'s rule).
    The report is ``_report``'s, plain or L1, certified by ``certificate`` alone.
    """
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float).ravel()
    try:
        if x0 is None or not _feasible(problem, x0):
            x0 = _start(_StartKey(problem))
        x, at, side, iters, (nu, mu) = _active_set(problem, x0, problem.max_iter)
    except MaxIterations:
        refuse_indefinite(np.linalg.eigvalsh(problem.Q))
        raise
    return _report(problem, x, at, side, iters, nu, mu)


def _report(problem: QpProblem, x, at, side, iterations, nu, mu) -> SolveReport:
    """The report of the point ``x`` of ``problem`` on the working set ``(at,
    side)``, with the equality rows' multipliers ``nu`` and every kink row's
    ``mu`` (its side's end off its kink, 0 at a single row's):
    ``solve_qp``'s, and a walk piece's (``_Piece.report``).  The objective
    includes the L1 rows.  ``duals`` (multipliers for every constraint
    block, inactive entries at zero), ``r_norm`` and ``s_norm`` are
    ``certificate``'s, which reads the problem data and ``nu`` and the rows'
    multipliers only, never the working set, and the status is
    ``uncertified`` when either norm exceeds ``_FEAS_TOL`` relative to the
    scale of the data and of the answer.  ``meta['working_set']`` is
    ``(problem, at, side)``: ``parametric_path``'s start.
    """
    q, c, kinks, h = problem.Q, problem.c, problem._kinks, problem.ineq[1]
    objective = 0.5 * x @ q @ x + c @ x
    lam = np.maximum(0.0 - mu[mu.size - h.size:], 0.0)  # the inequality rows' mu is -lam
    ones = mu[:0]
    if kinks is not None:
        ones = mu[kinks.priced[:kinks.priced.size - h.size]]  # the general L1 rows'
        objective += kinks.hi @ np.abs(kinks.g @ x - kinks.d)  # an inequality row's hi is 0
    r_norm, s_norm, lam_lo, lam_up = certificate(problem, x, nu, ones, lam)
    _, top_q, top = problem._scales
    top_x = _largest(np.abs(x))
    failed = max(r_norm, s_norm) > _FEAS_TOL * max(1.0, top_x, top_q * top_x, top)
    report = SolveReport(weights=x, objective=float(objective), r_norm=r_norm, s_norm=s_norm,
                         status=UNCERTIFIED if failed else CONVERGED, iterations=iterations,
                         duals={"eq": nu, "ineq": lam, "lower": lam_lo, "upper": lam_up})
    report.meta["working_set"] = (problem, at, side)
    return report


def certificate(problem: QpProblem, x, nu, mu, lam):
    """``(r_norm, s_norm, lam_lo, lam_up)`` of the point ``x`` of any
    problem, with multipliers ``nu`` (equality rows), ``mu`` (the general L1
    rows' terms ``rho_l s_l``) and ``lam`` (inequality rows), from the
    problem data alone: no working set, no reduced gradient of the solver's.

    ``r_norm`` is the largest violation of the equalities, inequalities and
    bounds.  ``s_norm`` is the largest violation of optimality: each general
    L1 row's ``mu_l`` and each inequality row's ``-lam_l`` must lie in the
    row's interval ``[lo_l, hi_l]`` (``_Kinks``) at its kink and be its
    side's end off it, and for each weight 0 must lie in its gradient
    ``(Qx + c + A'nu - G'lam + sum_l mu_l g_l)_j`` plus the subdifferential
    of its own L1 rows plus the bounds' normal cone.  A row within the
    primal tolerance of its kink (or ``_CERT_TOL`` of the size of the terms
    of ``g_l'x``), or on a side that costs without bound, counts as at its
    kink, and a weight within it of its bound as there, to ``_CERT_TOL``
    relative to the scale of the data and of ``x``.  The bound multipliers
    are what the normal cone takes up.  A problem without kink rows (box and
    equality rows only) has no row or single-row terms.
    """
    (a_eq, _), lo, up, kinks = problem.eq, problem.lower, problem.upper, problem._kinks
    tol_p = _CERT_TOL * max(problem._scales[0], _largest(np.abs(x)))
    grad, rest, width = problem.Q @ x + problem.c + a_eq.T @ nu, [], 0.0
    if kinks is not None:
        rows = kinks.priced
        if rows.size:  # without these rows their terms are zeros, which change no answer
            mu, g, low, high = np.concatenate([mu, -lam]), kinks.g[rows], kinks.lo[rows], kinks.hi[rows]
            grad += g.T @ mu
            off_g = g @ x - kinks.d[rows]
            end = np.where(off_g > 0.0, high, low)  # the slope of the row's side
            there = np.abs(off_g) <= np.maximum(tol_p, _CERT_TOL * (np.abs(g) @ np.abs(x)))
            rest.append(np.where(there | (end == -np.inf),
                                 np.maximum(mu - high, low - mu), np.abs(mu - end)))
        off = kinks.coef * x[kinks.col] - kinks.d[kinks.single]
        at_kink = np.abs(off) <= tol_p
        grad += kinks.pull_single @ np.where(at_kink, 0.0, np.sign(off))
        width = np.bincount(kinks.col, np.where(at_kink, kinks.width, 0.0), x.size)
    excess = np.sign(grad) * np.maximum(np.abs(grad) - width, 0.0)
    lam_lo = np.where(x <= lo + tol_p, np.maximum(excess, 0.0), 0.0)
    lam_up = np.where(x >= up - tol_p, np.maximum(-excess, 0.0), 0.0)
    s_norm = _largest(np.concatenate([np.abs(excess - lam_lo + lam_up), *rest]), initial=0.0)
    return _violation(problem, x), s_norm, lam_lo, lam_up


class _WalkFactor:
    """The inverse of a walk's KKT matrix ``[Q w R'; w R 0]`` over the ``n``
    weights and every row ``R`` it can hold, ``w`` being ``_kkt``'s row scale.
    An index off the working set ``on`` is an identity row and column (in the
    inverse, to rounding in the column), so one that leaves is a Schur
    downdate and one that joins a bordering update, each of rank one (Nocedal
    & Wright, 16.5).  A pivot at most ``_SINGULAR`` of the matrix's scale
    leaves the inverse stale (``None``); the next ``update`` refactors."""

    def __init__(self, q, rows):
        top_q, top_c = _largest(q.diagonal(), initial=0.0), _largest(np.abs(rows), None, initial=0.0)
        self.w = top_q / top_c if top_q > 0.0 and top_c else 1.0
        self.top, wr, self.inv = max(top_q, self.w * top_c), self.w * rows, None
        self.kkt = np.vstack([np.hstack([q, wr.T]), np.hstack([wr, np.zeros((len(rows),) * 2)])])

    def update(self, on) -> bool:
        """Bring the inverse to the working set ``on``; whether it holds."""
        if self.inv is None:
            return self._factor(on)
        for i in (on != self.on).nonzero()[0]:
            if not (self._join if on[i] else self._leave)(i):
                self.inv = None
                return False
        return True

    def _factor(self, on) -> bool:
        kkt = np.where(on & on[:, None], self.kkt, 0.0)
        kkt[~on, ~on] = 1.0  # an index off the working set pivots on its 1
        lu, piv, _ = _linalg().lapack.dgetrf(kkt)
        pivots = np.abs(lu.diagonal()[on])
        if _least(pivots, initial=np.inf) > _SINGULAR * _largest(pivots, initial=0.0):
            self.inv, self.on = _linalg().lapack.dgetri(lu, piv)[0], on.copy()  # Fortran, as dger takes
        return self.inv is not None

    def _join(self, i) -> bool:
        v = self.kkt[i] * self.on
        u = self.inv @ v
        s = self.kkt[i, i] - v @ u  # the new pivot, the Schur complement of the rest
        if abs(s) <= _SINGULAR * self.top:
            return False
        inv = _linalg().blas.dger(1.0 / s, u, u, a=self.inv, overwrite_a=True)
        inv[i] = inv[:, i] = -u / s
        inv[i, i], self.on[i] = 1.0 / s, True
        return True

    def _leave(self, i) -> bool:
        b = self.inv[:, i].copy()  # the rest's inverse grows by b b' / b_i
        if abs(b[i]) <= _SINGULAR * self.top * (b @ b):
            return False
        inv = _linalg().blas.dger(-1.0 / b[i], b, b, a=self.inv, overwrite_a=True)
        inv[i] = 0.0  # its column keeps rounding, which meets only zeros
        inv[i, i], self.on[i] = 1.0, False
        return True


class _Piece(tuple):
    """A piece ``(t, x, dx, rate, length)`` of ``parametric_path``, which also
    holds all its answer needs: the walk's problem and slope and, on a
    segment, a copy of the working set with the multipliers and their slopes
    in ``t``.  So it answers as well after the walk has moved on."""

    def __new__(cls, values, problem, slope, segment):
        piece = super().__new__(cls, values)
        piece._problem, piece._slope, piece._segment = problem, slope, segment
        return piece

    def problem(self, s):
        """The walk's problem at ``t + rate s``, its ``c`` moved along the slope."""
        base = self._problem
        return replace(base, c=base.c + (self[0] + self[3] * s) * self._slope)

    def report(self, s):
        """The answer at ``t + rate s``, certified, as ``solve_qp`` reports it.
        On a segment it is read off the piece (``_report``, 0 iterations):
        ``problem(s)`` at ``x + s dx`` within the box, its multipliers moved
        along their slopes.  Where that read-off is not ``converged``, and on
        a move at fixed ``t``, which has no slopes, it is one ``solve_qp`` of
        ``problem(s)`` started from ``x + s dx``."""
        problem, x = self.problem(s), self[1] + s * self[2]
        if self._segment is not None:
            at, side, y, a, gpos = self._segment
            kinks, y, mu = problem._kinks, y[:, 0] + s * y[:, 1], np.zeros(0)
            if kinks is not None:
                mu = kinks.hi * side
                mu[kinks.general[gpos]] = y[a + gpos]
            inside = np.minimum(np.maximum(x, problem.lower), problem.upper)
            report = _report(problem, inside, at, side, 0, y[:a], mu)
            if report.converged:
                return report
        return solve_qp(problem, x0=x)


def parametric_path(start: SolveReport, slope):
    """Solution path of ``min 0.5 x'Qx + (c + t slope)'x``, plus the L1
    rows, over ``t >= 0``, for the problem in ``start.meta['working_set']``.

    Markowitz's critical line (1956), with L1 rows the lasso homotopy
    (Osborne, Presnell & Turlach 2000): on a fixed working set the solution
    and its multipliers are affine in ``t``.  The walk starts from the
    ``solve_qp`` report ``start`` (``t = 0``) and its working set.  Each
    segment's ``dx``, its multipliers and their slopes come from one product
    of the gradient and ``slope`` with the inverse ``_WalkFactor`` keeps (one
    LU, one update per pivot: Niedermayer & Niedermayer 2010), refined once.
    Where an update or the LU is refused, or the reduced gradient drifts by
    1e-10, the piece goes through ``_kkt`` (whose SVD takes dependent rows,
    zero curvature and null directions), as do the next until ``_kkt``'s LU
    solves one; the piece after it refactors.
    It ends at the first event, ties going to the lowest rank of the layout
    that ``_active_set`` uses, and ``_pivot`` applies it: a free variable
    reaches a bound, a kink row reaches its kink (fixing its weight there,
    or joining the equality rows, as an inequality does when it becomes
    active), or a multiplier moving toward the end of its interval that its
    slope points at (``_rise_fall``'s zero, a row's ``lo`` or ``hi``) meets
    it and its constraint leaves, to that side.
    When ``slope`` pulls along zero curvature, x moves at fixed ``t`` to the
    blocking constraint (``Unbounded`` if none).  Rows dependent on the free
    block (as at a start on a weight's and its general rows' kinks) leave
    the multipliers free along a null direction: at fixed ``x`` and ``t``
    they move along it until one ends its interval and that constraint
    leaves, so pieces have unique multipliers.  Rows that pin the free block
    leave it still.

    Yields a ``_Piece`` ``(t, x, dx, rate, length)`` per piece: the solution
    at parameter ``t + rate s`` is ``x + s dx`` for ``s`` in ``[0,
    length]``, ``rate`` being 1 on a segment and 0 on a move at fixed ``t``;
    the last segment has infinite length.  On a segment the multipliers that
    the ratio tests read are affine in ``s`` too, so the piece's
    ``report(s)`` is the answer at ``t + s`` read off it and certified as
    ``solve_qp`` certifies its own, with no solve (one ``solve_qp`` of the
    piece's ``problem(s)`` where that fails, or on a move at fixed ``t``).
    A piece keeps its own copy of the working set, so it answers the same
    after the walk has moved on, and ``_Piece.problem`` is the one place
    that builds the problem at a point of the walk.  Pivots stop
    at the problem's ``max_iter`` (``MaxIterations``).
    """
    problem, *states = start.meta["working_set"]
    at, side = (v.copy() for v in states)
    n = problem.n
    q, c = problem.Q, problem.c
    slope = np.asarray(slope, dtype=float).ravel()
    (a_eq, _), lo, up, kinks = problem.eq, problem.lower, problem.upper, problem._kinks
    a, k = a_eq.shape[0], 0 if kinks is None else kinks.d.size
    # the general kink rows, and those at their kinks: positions in ``general``, rows
    general = gpos = kg = kinks.general if k else np.zeros(0, dtype=np.intp)
    # every row the walk can hold, y = (nu, mu): the equalities and the general kink rows
    rows = np.vstack([a_eq, kinks.g[general]]) if k else a_eq
    factor, on = _WalkFactor(q, rows), np.ones(n + len(rows), dtype=bool)
    rhs = np.zeros((on.size, 2))  # the gradient and slope on the free block, zero elsewhere
    x, t = start.weights.copy(), 0.0
    dual_tol = 1e-12 * np.abs(slope).max(initial=0.0)
    ratios = np.empty(2 * n + k)   # indexed by rank
    mult = np.empty((2 * n + k, 2))  # working-set multipliers and their slopes
    rises, falls = mult[:n], mult[n:2 * n]  # the weights' rise and fall ranks
    grads = np.empty((n, 2))  # the gradient and its slope in t
    retry = True  # whether the factor is tried: at the start, and after a piece _kkt's LU solved
    for _ in range(problem.max_iter):
        free = at == _FREE
        fixed = ~free
        on[:n] = free
        if k:
            on[n + a:] = kinked = side[general] == 0.0
            gpos = kinked.nonzero()[0]
            kg = general[gpos]
        grad = q @ x + c + t * slope
        if k:
            grad += kinks.pull @ side
        grads[:, 0], grads[:, 1] = grad, slope
        null, flat = None, False
        if retry and factor.update(on):  # one product: minus dx, the multipliers and their slopes
            np.multiply(grads, free[:, None], out=rhs[:n])
            sol = factor.inv @ rhs
            # refined once (an inverse's product is off by cond * eps) unless drifted
            res = (rhs - factor.kkt @ sol) * on[:, None]
            if _largest(np.abs(res[:n]), None) > 1e-10 * _largest(np.abs(rhs), None):
                factor.inv = None
            else:
                sol += factor.inv @ res
                pinned = a + gpos.size == np.count_nonzero(free)  # the rows leave it still
                y, dx = -factor.w * sol[n:], np.zeros(n) if pinned else -sol[:n, 1]
        if factor.inv is None:  # one _kkt solve of the free block and its rows
            idx, dx, y = free.nonzero()[0], np.zeros(n), np.zeros((len(rows), 2))
            pos = np.concatenate([np.arange(a), a + gpos])
            p, y[pos], flat, null_y = _kkt(q.take(idx, 0).take(idx, 1), rows[pos][:, idx], grads[idx])
            retry = null_y is None
            if null_y is not None:  # the rows' null directions
                basis, sv, _ = np.linalg.svd(null_y, full_matrices=False)
                null = np.zeros((len(rows), (sv > 0.5).sum()))
                null[pos] = basis[:, sv > 0.5]  # orthonormal; take one that moves a bounded multiplier
                moves = np.abs(np.vstack([null[a:], rows.T[fixed] @ null])).max(axis=0, initial=0.0)
                null = null[:, np.argmax(moves)] if moves.max(initial=0.0) > 1e-9 else None
            flat, dx[idx] = flat[1] and null is None, p[:, 1] if null is None else 0.0
        tiny = 1e-13 * max(1.0, np.abs(dx).max())
        _ratio_test(ratios, x, dx, tiny, lo, up, kinks, side)
        if not flat:
            grads[:, 1] = q @ dx + slope
            reduced = grads + rows.T @ y
            for turn in (1.0, -1.0):
                if null is not None:  # one way or the other along the null direction
                    y[:, 1] = turn * null
                    reduced[:, 1] = rows.T @ y[:, 1]
                mult.fill(0.0)
                _rise_fall(at, fixed, reduced[:, 0], rises[:, 0], falls[:, 0], kinks, side)
                np.copyto(rises[:, 1], reduced[:, 1], where=fixed)
                np.negative(reduced[:, 1], out=falls[:, 1], where=fixed)
                if k:  # a general kink row's multiplier moves to the end its slope points at
                    mu = y[a + gpos]
                    toward = np.sign(mu[:, 1:])
                    mult[2 * n + kg] = -toward * mu
                    mult[2 * n + kg, 0] += np.where(toward[:, 0] > 0.0, kinks.hi[kg], -kinks.lo[kg])
                np.divide(np.maximum(mult[:, 0], 0.0), -mult[:, 1], out=ratios,
                          where=mult[:, 1] < -dual_tol)
                if null is None or ratios.min() < np.inf:
                    break
        length = ratios.min()
        r = int((ratios <= length * (1.0 + 1e-14)).argmax())  # lowest rank among ties
        if null is None:  # a piece; otherwise a constraint leaves at fixed x and t
            if flat and length == np.inf:
                raise Unbounded("zero-curvature direction with no blocking constraint")
            yield _Piece((t, x, dx, 0.0 if flat else 1.0, length), problem, slope,
                         None if flat else (at.copy(), side.copy(), y, a, gpos))
            if length == np.inf:
                return
            x = x + length * dx
            t += 0.0 if flat else length
        row = r - 2 * n
        lean = np.sign(mu[np.searchsorted(kg, row), 1]) if row >= 0 and not side[row] else 0.0
        _pivot([r], at, side, x, lo, up, kinks, lean)
    raise MaxIterations(f"parametric path did not end in {problem.max_iter} pivots")


def augment_l1(problem: QpProblem, gamma1: np.ndarray, rho1: float,
               x0: np.ndarray) -> QpProblem:
    """Rewrite an L1 penalty around ``x0`` as a QP over ``(x, d-, d+)``.

    ``gamma1`` must be entrywise nonnegative; at the optimum the split is
    complementary (``d- = max(0, x0-x)``, ``d+ = max(0, x-x0)``) and the
    penalty term evaluates to ``sum_j colsum_j(gamma1) |x_j - x0_j|``.  For
    the usual diagonal unit-cost matrices this equals
    ``rho1 ||gamma1 (x-x0)||_1`` exactly; a matrix whose rows mix bets of
    opposite signs only bounds that norm from above, and ``QpProblem``'s
    ``l1`` rows price the composed norm itself.
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

    (a, b), (gg, hh) = problem.eq, problem.ineq
    eq = (np.vstack([np.hstack([np.eye(n), np.eye(n), -np.eye(n)]),
                     np.hstack([a, np.zeros((a.shape[0], 2 * n))])]),
          np.concatenate([x0, b]))
    ineq = (np.hstack([gg, np.zeros((gg.shape[0], 2 * n))]), hh)
    lower = np.concatenate([problem.lower, np.zeros(2 * n)])
    upper = np.concatenate([problem.upper, np.full(2 * n, np.inf)])
    return QpProblem(Q=q, c=c, eq=eq, ineq=ineq, lower=lower, upper=upper)
