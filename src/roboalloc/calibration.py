"""Hyperparameter selection for the quadratic penalty (leave-one-out closed
form, generalized cross-validation, k-fold) and tracking-error level rules."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridEmpty, InputError, LeverageSingularity, SingularMatrix

_LEVERAGE_TOL = 1e-12
_RANK_TOL = 1e-13  # eigenvalue ratio at which a Gram matrix counts as singular


@dataclass
class RidgeRegressionData:
    """Design matrix, response and penalty matrix for ridge-style fits."""

    x: np.ndarray
    y: np.ndarray
    gamma2: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.y = np.asarray(self.y, dtype=float).ravel()
        t, k = self.x.shape
        if self.y.size != t:
            raise InputError("response length does not match the design matrix")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise InputError("non-finite entries in regression data")
        if self.gamma2 is None:
            self.gamma2 = np.eye(k)
        else:
            self.gamma2 = np.atleast_2d(np.asarray(self.gamma2, dtype=float))
            if self.gamma2.shape != (k, k):
                raise InputError("gamma2 must be K x K")
        if t <= k:
            # past __post_init__ and the generated __init__, to the caller
            warnings.warn(f"T={t} <= K={k}: fit is weakly determined", stacklevel=3)

    @property
    def penalty_gram(self) -> np.ndarray:
        return self.gamma2 @ self.gamma2.T


def _penalties(rho2) -> np.ndarray:
    grid = np.atleast_1d(np.asarray(rho2, dtype=float))
    if grid.ndim != 1:
        raise InputError("penalty grid must be a scalar or a flat sequence")
    if grid.size == 0:
        raise GridEmpty("penalty grid is empty")
    if not (np.isfinite(grid).all() and (grid >= 0).all()):
        raise InputError("penalty rho2 must be finite and nonnegative")
    return grid


def _spectrum(x: np.ndarray, gram: np.ndarray, grid: np.ndarray):
    """Diagonalize the ridge systems ``X'X + rho G`` of a whole grid at once.

    With ``B = X'X / tr X'X + G / tr G``, ``V'BV = I`` and ``V'GV = diag(g)``,
    every system is ``V^-T diag(a + rho g) V^-1`` with ``a = diag(V'X'XV)``.
    Returns ``XV``, ``V`` and the K x n matrix of ``1 / (a + rho g)``; the
    fit at grid point ``i`` is ``V diag(1 / (a + rho_i g)) (XV)'y``, at O(TK)
    per point.  Neither G nor X needs full rank: B is singular only when X
    and Gamma2' share a null vector.  A system counts as singular at a grid
    point when its diagonal spans more than ``1 / _RANK_TOL`` or its
    reciprocal would overflow (X'X subnormal at rho2 = 0).
    """
    xtx = x.T @ x
    lam, q = np.linalg.eigh(xtx / (np.trace(xtx) or 1.0) + gram / (np.trace(gram) or 1.0))
    if lam[-1] <= 0 or lam[0] <= _RANK_TOL * lam[-1]:
        raise SingularMatrix("X'X + rho2 G is singular at every rho2: "
                             "X and the penalty matrix share a null vector")
    root = q / np.sqrt(lam)
    g, p = np.linalg.eigh(root.T @ gram @ root)
    v = root @ p
    w = x @ v
    d = np.einsum("tk,tk->k", w, w)[:, None] + g[:, None] * grid
    singular = d.min(axis=0) <= np.maximum(_RANK_TOL * d.max(axis=0), np.finfo(float).tiny)
    if singular.any():
        raise SingularMatrix(f"X'X + rho2 G is singular at rho2={float(grid[singular][0])!r}")
    return w, v, 1.0 / d


def _loo_pieces(data: RidgeRegressionData, grid: np.ndarray):
    """In-sample residuals and leverages (both T x n) of every fit on the grid."""
    w, _, inv = _spectrum(data.x, data.penalty_gram, grid)
    resid = data.y[:, None] - w @ ((w.T @ data.y)[:, None] * inv)
    return resid, (w * w) @ inv


def _shaped(rho2, curve: np.ndarray):
    return float(curve[0]) if np.ndim(rho2) == 0 else curve


def best_penalty(grid, curve) -> float:
    """The penalty with the lowest score; ties (``np.isclose``) go to the
    smallest penalty."""
    grid = np.asarray(grid, dtype=float)
    curve = np.asarray(curve, dtype=float)
    return float(grid[np.isclose(curve, curve.min())].min())


def press(data: RidgeRegressionData, rho2):
    """Leave-one-out squared prediction error without refitting.

    Each term divides the in-sample residual by one minus the observation's
    leverage; refitting with the observation removed gives exactly the same
    number.  ``rho2`` is a finite nonnegative scalar (returns a float) or a
    grid of them (returns the curve); the whole grid is priced from one
    decomposition of the design and penalty matrices.
    """
    resid, leverage = _loo_pieces(data, _penalties(rho2))
    denom = 1.0 - leverage
    if denom.min() <= _LEVERAGE_TOL:
        raise LeverageSingularity(f"leverage reaches {leverage.max():.12f}")
    return _shaped(rho2, np.sum((resid / denom) ** 2, axis=0))


def gcv(data: RidgeRegressionData, rho2):
    """Generalized cross-validation ``T^2 RSS / tr(I - H)^2``, the
    rotation-invariant leave-one-out surrogate (Golub, Heath & Wahba, 1979).

    ``rho2`` is a finite nonnegative scalar (returns a float) or a grid of
    them (returns the curve); the whole grid is priced from one
    decomposition of the design and penalty matrices, which need not have
    full rank.
    """
    t = data.x.shape[0]
    resid, leverage = _loo_pieces(data, _penalties(rho2))
    trace = t - leverage.sum(axis=0)
    if trace.min() <= _LEVERAGE_TOL * t:
        raise LeverageSingularity("mean leverage reaches 1")
    return _shaped(rho2, t ** 2 * np.sum(resid ** 2, axis=0) / trace ** 2)


def kfold_cv(data: RidgeRegressionData, k: int, grid, shuffle_seed: int = 0):
    """Shuffled k-fold validation error over a penalty grid.

    Returns ``(best_rho2, error_curve)`` where the curve aligns with the
    given grid of finite nonnegative penalties and ties resolve to the
    smallest penalty.  Each fold prices the whole grid from one
    decomposition of its training rows.
    """
    grid = _penalties(list(grid))
    t = data.x.shape[0]
    if not 2 <= k <= t:
        raise InputError(f"k must be in [2, {t}]")
    rng = np.random.default_rng(shuffle_seed)
    order = rng.permutation(t)
    groups = np.array_split(order, k)
    gram = data.penalty_gram
    errors = np.zeros(grid.size)
    for test_idx in groups:
        mask = np.ones(t, dtype=bool)
        mask[test_idx] = False
        w, v, inv = _spectrum(data.x[mask], gram, grid)
        fitted = (data.x[test_idx] @ v) @ ((w.T @ data.y[mask])[:, None] * inv)
        errors += np.sum((data.y[test_idx, None] - fitted) ** 2, axis=0)
    errors /= t
    return best_penalty(grid, errors), errors


def make_grid(scale: str, start: float, stop: float, points: int) -> np.ndarray:
    """Penalty grid helper: ``log`` spaces geometrically, ``linear`` evenly."""
    if points < 1:
        raise GridEmpty("grid needs at least one point")
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise InputError("grid endpoints must be finite")
    if scale == "log":
        if start <= 0 or stop <= 0:
            raise InputError("log grid needs positive endpoints")
        return np.geomspace(start, stop, points)
    if scale == "linear":
        return np.linspace(start, stop, points)
    raise InputError(f"unknown grid scale {scale!r}")


# --- tracking-error level rules ------------------------------------------------


def max_te_from_vol(sigma_benchmark: float, correlation: float) -> float:
    """Tracking-error level implied by a correlation to the benchmark,
    assuming the portfolio's volatility is close to the benchmark's."""
    if not -1.0 <= correlation <= 1.0:
        raise InputError("correlation must lie in [-1, 1]")
    if not 0.0 <= sigma_benchmark < np.inf:
        raise InputError("sigma_benchmark must be finite and nonnegative")
    return float(np.sqrt(2.0 * (1.0 - correlation)) * sigma_benchmark)


def _grades(scores, n_s: int) -> np.ndarray:
    """``scores`` as a vector of floats, checked to be integer grades (to
    1e-12, which no NaN meets) in ``[-n_s, n_s]``."""
    scores = np.asarray(scores, dtype=float).ravel()
    if not np.all(np.abs(scores - np.round(scores)) <= 1e-12):
        raise InputError("scores must be integers")
    if np.any(np.abs(scores) > n_s):
        raise InputError(f"scores must lie in [-{n_s}, {n_s}]")
    return scores


@dataclass
class ScoreSet:
    """Integer conviction grades plus the scaling of the tracking-error rule."""

    scores: np.ndarray
    sigma_plus: float
    c: float = 1.0 / 3.0
    n_s: int = 3

    def __post_init__(self):
        self.scores = _grades(self.scores, self.n_s)
        if self.scores.size < 2:
            raise InputError("need at least two scores")
        for name in ("sigma_plus", "c"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise InputError(f"{name} must be finite and nonnegative")


def mean_absolute_difference(scores: np.ndarray) -> float:
    """Gini mean difference over all ordered pairs, self-pairs included
    (divide by n^2).  Other conventions rescale this by constants."""
    s = np.asarray(scores, dtype=float)
    return float(np.abs(s[:, None] - s[None, :]).mean())


def te_level_rule(scores: ScoreSet) -> float:
    """Dispersion-driven tracking-error target.

    Averages the population standard deviation and the mean absolute
    difference of the grades, scaled by ``c`` and the maximum tracking
    error.  Zero dispersion gives exactly zero.
    """
    s = scores.scores
    std = float(np.std(s))  # population convention
    mad = mean_absolute_difference(s)
    return scores.c * 0.5 * (std + mad) * scores.sigma_plus
