"""Quadratic-penalty closed forms, shrinkage maps and spectral filters."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import prox
from .errors import (
    AllSingularValuesFiltered,
    NotPositiveDefinite,
    SingularKKT,
)
from .market_data import _check_symmetric
from .mvo import exact_problem
from .qp import _check_finite, _kkt, solve_qp
from .report import SolveReport

_RANK_CUTOFF = 1e-12  # singular values below cutoff * s_max count as zero


@dataclass
class PenaltySpec:
    """One norm penalty ``rho * ||gamma (x - anchor)||``, squared for l2."""

    kind: str                       # l1 | l2 | lp
    rho: float = 0.0
    p: float | None = None
    gamma_matrix: np.ndarray | None = None
    anchor: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("l1", "l2", "lp"):
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if not math.isfinite(self.rho) or self.rho < 0:
            raise ValueError("rho must be finite and nonnegative")
        if self.kind == "lp":
            if self.p is None or not 0 < self.p < math.inf:
                raise ValueError("lp penalty needs a finite p > 0")
        elif self.kind == "l1":
            self.p = 1.0
        elif self.kind == "l2":
            self.p = 2.0
        if self.gamma_matrix is not None:
            self.gamma_matrix = penalty_matrix(self.gamma_matrix)
        if self.anchor is not None:
            self.anchor = np.asarray(self.anchor, dtype=float).ravel()


@dataclass(frozen=True)
class FilterSpec:
    """Singular-value filter: none, ridge smoothing, uniformly scaled ridge,
    or hard-threshold denoising."""

    kind: str = "none"             # none | ridge | diag_ridge | hard_threshold
    rho: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "ridge", "diag_ridge", "hard_threshold"):
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if not math.isfinite(self.rho) or self.rho < 0:
            raise ValueError("rho must be finite and nonnegative")


def penalty_matrix(gamma, n: int | None = None) -> np.ndarray:
    """A penalty matrix as given, the ``n x n`` identity for ``None`` and the
    diagonal matrix of a vector; anything else is a ``ValueError``."""
    if gamma is None:
        return np.eye(n)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim == 1:
        return np.diag(gamma)
    if gamma.ndim != 2:
        raise ValueError("a penalty matrix must be a matrix or the vector of its diagonal")
    return gamma


def penalty_terms(penalties, P, q):
    """Fold norm penalties into the problem ``0.5 x'Px - q'x``.

    ``G`` is a penalty's matrix (the identity if unset) and ``a`` its anchor
    (zero if unset).  An ``l2`` penalty adds ``rho G'G`` to ``P`` and
    ``rho G'(G a)`` to ``q``, one penalty at a time in list order.  The
    ``l1`` penalties become the L1 rows ``l1 = (G, d, rho)`` of
    ``qp.QpProblem``: their ``G`` and ``d = G a`` stacked in list order,
    ``rho`` given per row, or ``None`` without an ``l1`` penalty.  An ``lp``
    penalty (``p = 1`` included) becomes the prox block ``(G, G a, step)``
    of ``admm.solve_penalized``, ``step(v, phi)`` being the prox of
    ``rho/(p phi) ||.||_p^p``.  Every penalty is honoured, a zero ``rho``
    included.  Returns ``(P, q, l1, blocks, value)``, where ``value`` is
    ``penalty_value``'s sum over all the penalties.  An unset ``G`` takes no
    product with the identity, whose products are exact: an ``l2`` penalty
    adds ``rho I`` and ``rho a``, and an ``l1`` penalty's ``d`` is ``a``.
    """
    n = q.size
    rows, blocks = [], []
    for pen in penalties:
        g = pen.gamma_matrix  # a matrix, or None for the identity
        anchor = np.zeros(n) if pen.anchor is None else pen.anchor
        ga = anchor if g is None else g @ anchor
        if pen.kind == "l2":
            P = P + (pen.rho * np.eye(n) if g is None else pen.rho * g.T @ g)
            q = q + pen.rho * (ga if g is None else g.T @ ga)
        elif pen.kind == "l1":
            rows.append((penalty_matrix(g, n), ga, np.full(ga.size, pen.rho)))
        else:
            blocks.append((penalty_matrix(g, n), ga,
                           lambda v, phi, r=pen.rho, p=pen.p: prox.prox_lp(v, r / phi, p)))
    l1 = tuple(map(np.concatenate, zip(*rows))) if rows else None
    return P, q, l1, blocks, penalty_value(penalties, n)


def penalty_value(penalties, n: int):
    """``value(x) = sum rho/p ||G (x - a)||_p^p`` over the penalties, ``G``
    the identity and ``a`` zero where unset: the term ``penalty_terms``
    folds into a problem.  An unset ``G`` takes no product: ``value`` reads
    ``x - a``."""
    terms = [(pen.rho, pen.p, pen.gamma_matrix, np.zeros(n) if pen.anchor is None else pen.anchor)
             for pen in penalties]

    def value(x):
        total = 0
        for rho, p, g, anchor in terms:
            d = x - anchor
            total += rho / p * (np.abs(d if g is None else g @ d) ** p).sum()
        return total

    return value


def _checked(a1, b1, eq):
    """``(a1, b1, eq)`` as float arrays, ``eq = (A, b)`` or ``None``; a
    non-finite entry is a ``ValueError``."""
    a1, b1 = np.atleast_2d(np.asarray(a1, float)), np.asarray(b1, float).ravel()
    _check_finite("a1 and b1", a1, b1)
    if eq is not None:
        eq = np.atleast_2d(np.asarray(eq[0], float)), np.asarray(eq[1], float).ravel()
        _check_finite("eq", *eq)
    return a1, b1, eq


def _block_solve(block, rhs1, eq):
    """``(x, lam)`` solving ``[block A'; A 0] [x; lam] = [rhs1; b]`` for
    ``eq = (A, b)``, or ``block x = rhs1`` without ``eq``, by ``qp._kkt``;
    ``SingularKKT`` where its LU is refused."""
    a2, b2 = (np.zeros((0, rhs1.size)), None) if eq is None else eq
    x, lam, _, null = _kkt(block, a2, -rhs1, b2)
    if null is not None:
        raise SingularKKT("the block system is singular")
    return x, lam


def tikhonov_solve(a1, b1, penalty: PenaltySpec, eq=None):
    """Exact solve of the quadratically penalized least-squares problem.

    Returns ``(x, lam)`` from the block system whose (1,1) block is
    ``A1'A1 + rho Gamma'Gamma`` and whose off-diagonal blocks carry the
    equality constraints.  A non-finite entry of ``a1``, ``b1`` or ``eq`` is
    a ``ValueError``, and a singular block system is ``SingularKKT``.
    """
    if penalty.kind != "l2":
        raise ValueError("tikhonov_solve takes an l2 penalty")
    a1, b1, eq = _checked(a1, b1, eq)
    if eq is None and penalty.rho == 0.0:
        x, *_ = np.linalg.lstsq(a1, b1, rcond=None)
        return x, np.zeros(0)
    block, rhs1, _, _, _ = penalty_terms([penalty], a1.T @ a1, a1.T @ b1)
    return _block_solve(block, rhs1, eq)


def ridge_mvo(mu, sigma, gamma, rho2, x0=None, constraints=None) -> SolveReport:
    """Mean-variance solve with an added ``rho2/2 ||x - x0||^2`` term: one
    ``solve_qp`` on ``S + rho2 I`` and the shifted expected returns, with or
    without constraints, certified and with multipliers.  Unconstrained its
    weights are ``(S + rho2 I)^-1 (gamma mu + rho2 x0)`` to rounding, the raw
    optimizer blended with the anchor; with ``rho2 = 0`` and a singular
    ``S`` they are the minimum-norm optimum, or ``Unbounded`` when ``mu``
    leaves the range of ``S``.  The reported objective includes the penalty.
    A negative ``rho2`` is a ``ValueError``.
    """
    mu = np.asarray(mu, dtype=float).ravel()
    sigma = np.asarray(sigma, dtype=float)
    q_mat, lin, _, _, penalty = penalty_terms([PenaltySpec(kind="l2", rho=rho2, anchor=x0)],
                                              sigma, gamma * mu)
    report = solve_qp(exact_problem(q_mat, lin, None, constraints))
    x = report.weights
    report.gamma = float(gamma)
    report.objective = float(0.5 * x @ sigma @ x - gamma * x @ mu + penalty(x))
    return report


def shrunk_correlation(sigma, rho2, mode: str = "identity"):
    """Volatilities and correlations implied by quadratic shrinkage.

    ``identity`` adds ``rho2`` to every variance, damping correlations by
    the ratio of old to new volatilities; ``diag_sigma`` divides every
    off-diagonal correlation by ``1 + rho2`` and keeps volatilities.  A
    negative or non-finite ``rho2`` is a ``ValueError``.
    """
    if not (math.isfinite(rho2) and rho2 >= 0.0):
        raise ValueError(f"rho2 must be finite and nonnegative, got {rho2}")
    sigma = np.asarray(sigma, dtype=float)
    var = np.diag(sigma)
    vol = np.sqrt(var)
    corr = sigma / np.outer(vol, vol)
    if mode == "identity":
        vol_new = np.sqrt(var + rho2)
        corr_new = corr * np.outer(vol, vol) / np.outer(vol_new, vol_new)
        np.fill_diagonal(corr_new, 1.0)
        return vol_new, corr_new
    if mode == "diag_sigma":
        corr_new = corr / (1.0 + rho2)
        np.fill_diagonal(corr_new, 1.0)
        return vol.copy(), corr_new
    raise ValueError(f"unknown mode {mode!r}")


def _filter_values(s: np.ndarray, filt) -> np.ndarray:
    if callable(filt):
        return np.asarray(filt(s), dtype=float)
    if filt.kind == "none":
        return 1.0 / s
    if filt.kind == "ridge":
        return s / (s ** 2 + filt.rho)
    if filt.kind == "diag_ridge":
        return 1.0 / (s * (1.0 + filt.rho))
    if filt.kind == "hard_threshold":
        return np.where(np.abs(s) >= filt.rho, 1.0 / s, 0.0)
    raise ValueError(f"unknown filter kind {filt.kind!r}")


def _pinv_comp(v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v)
    nz = v != 0
    out[nz] = 1.0 / v[nz]
    return out


def _retained(s):
    """The singular values (or eigenvalues) ``s`` that count, those above
    ``_RANK_CUTOFF`` of the largest, as a mask; ``AllSingularValuesFiltered``
    for a zero matrix."""
    top = s.max(initial=0.0)
    if top <= 0:
        raise AllSingularValuesFiltered("matrix is zero")
    return s > _RANK_CUTOFF * top


def _svd_retained(a1):
    a1 = np.atleast_2d(np.asarray(a1, dtype=float))
    u, s, vt = np.linalg.svd(a1, full_matrices=False)
    keep = _retained(s)
    return u[:, keep], s[keep], vt[keep]


def _gains(s, filt):
    """The filter's gains at the retained singular values ``s``;
    ``AllSingularValuesFiltered`` if all are zero."""
    g = _filter_values(s, filt)
    if not np.any(g != 0):
        raise AllSingularValuesFiltered("filter removed every singular value")
    return g


def _gram_spectrum(s, g, filt, rule: str):
    """Regularized squared singular values for the gram matrix."""
    g_dag = _pinv_comp(g)
    if rule == "g_dagger_sq":
        return g_dag * g_dag
    if rule == "g_of_s_sq":
        if callable(filt):
            raise ValueError("g_of_s_sq needs a named filter kind")
        return _pinv_comp(_filter_values(s * s, filt))
    if rule == "g_dagger_times_s":
        return g_dag * s
    raise ValueError(f"unknown gram rule {rule!r}")


def _filtered_spectrum(a1, filt, gram_rule):
    """The retained SVD factors ``u, vt`` of ``a1``, the filter's gains ``g``
    (``AllSingularValuesFiltered`` if all are zero) and the regularized gram."""
    u, s, vt = _svd_retained(a1)
    g = _gains(s, filt)
    return u, g, vt, (vt.T * _gram_spectrum(s, g, filt, gram_rule)) @ vt


def spectral_filter(a1, filt, gram_rule: str = "g_dagger_sq"):
    """Filtered pseudo-inverse and regularized gram matrix of ``a1``.

    The filter maps each retained singular value ``s`` to a gain ``G(s)``;
    the pseudo-inverse becomes ``V diag(G) U'`` and the gram matrix
    ``V diag(s2) V'`` with ``s2`` given by the chosen reconstruction rule
    (default: squared reciprocal gains).
    """
    u, g, vt, gram_reg = _filtered_spectrum(a1, filt, gram_rule)
    return (vt.T * g) @ u.T, gram_reg


def filter_covariance(sigma, filt):
    """The filtered covariance of ``sigma``: ``spectral_filter``'s
    regularized gram matrix of ``sigma^{1/2}`` (rule ``g_dagger_sq``), from
    one ``eigh`` of ``sigma`` and no square root or SVD.  The singular
    values of ``sigma^{1/2}`` are the square roots of the eigenvalues of
    ``sigma`` (a negative one, rounding, as zero) and its singular vectors
    are the eigenvectors.  An eigenvalue at most ``_RANK_CUTOFF`` of the
    largest counts as zero (the ratio ``mvo._nonsingular`` refuses as
    singular): the cutoff applies to the eigenvalues, not to their square
    roots, where rounding-level eigenvalues would pass it.  A matrix that is
    not symmetric is ``NotSymmetric``; a zero one, or a filter that removes
    every value, ``AllSingularValuesFiltered``."""
    sigma = np.asarray(sigma, dtype=float)
    _check_symmetric(sigma)
    lam, vec = np.linalg.eigh(sigma)
    keep = _retained(lam)
    s, vec = np.sqrt(lam[keep]), vec[:, keep]
    return (vec * _gram_spectrum(s, _gains(s, filt), filt, "g_dagger_sq")) @ vec.T


def filtered_normal_solve(a1, b1, filt, eq=None):
    """Solve the filtered normal equations, optionally with equalities.

    The (1,1) block is the regularized gram matrix (rule ``g_dagger_sq``) and
    the right-hand side uses the componentwise reciprocal gains, so a trivial
    filter recovers the plain least-squares normal equations.  Non-finite
    data and a singular block system fail as in ``tikhonov_solve``.
    """
    a1, b1, eq = _checked(a1, b1, eq)
    u, g, vt, block = _filtered_spectrum(a1, filt, "g_dagger_sq")
    return _block_solve(block, vt.T @ (_pinv_comp(g) * (u.T @ b1)), eq)


def ledoit_wolf_to_tikhonov(alpha_star: float, phi_hat) -> PenaltySpec:
    """Map a convex shrinkage weight and target matrix to an L2 penalty.

    The blend ``alpha S + (1 - alpha) Phi`` corresponds, up to scale, to
    penalizing with ``rho = (1 - alpha)/alpha`` and the upper Cholesky
    factor of ``Phi``.
    """
    if not 0.0 < alpha_star <= 1.0:
        raise ValueError("alpha_star must lie in (0, 1]")
    phi_hat = np.asarray(phi_hat, dtype=float)
    try:
        lower = np.linalg.cholesky(phi_hat)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("shrinkage target is not positive definite") from exc
    gamma = lower.T  # upper factor, gamma' gamma == phi_hat
    rho = (1.0 - alpha_star) / alpha_star
    return PenaltySpec(kind="l2", rho=rho, gamma_matrix=gamma,
                       anchor=np.zeros(phi_hat.shape[0]))
