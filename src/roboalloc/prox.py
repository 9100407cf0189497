"""Proximal operators of power-norm penalties and Euclidean projections
onto the constraint sets used by the splitting solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import EmptyIntersection, EmptySet, NonConvexOrder

_ROOT_TOL = 1e-12


# --- proximal operators ------------------------------------------------------


def prox_l1(v: np.ndarray, lam: float) -> np.ndarray:
    """Soft thresholding: componentwise shrink toward zero by ``lam``."""
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)


def _power_root(w: float, lam: float, p: float) -> float:
    """Positive root of ``lam x^(p-1) + x = w`` for ``w >= 0``."""
    if w == 0.0 or lam == 0.0:
        return w
    lo, hi = 0.0, w
    if p >= 2.0:
        x = w  # Newton from the unpenalized point, bisection safeguard
        for _ in range(100):
            g = lam * x ** (p - 1.0) + x - w
            if abs(g) <= _ROOT_TOL:
                return x
            if g > 0:
                hi = x
            else:
                lo = x
            dg = lam * (p - 1.0) * x ** (p - 2.0) + 1.0
            x_new = x - g / dg
            if not lo < x_new < hi:
                x_new = 0.5 * (lo + hi)
            x = x_new
    for _ in range(200):
        x = 0.5 * (lo + hi)
        g = lam * x ** (p - 1.0) + x - w
        if abs(g) <= _ROOT_TOL:
            return x
        if g > 0:
            hi = x
        else:
            lo = x
    return 0.5 * (lo + hi)


def prox_lp(v: np.ndarray, lam: float, p: float) -> np.ndarray:
    """Prox of ``(lam / p) ||x||_p^p``; componentwise odd inverse of
    ``x -> lam x^(p-1) + x``.

    ``p = 1`` routes to soft thresholding; ``p < 1`` is rejected because
    the map is no longer single valued.
    """
    if p < 1.0:
        raise NonConvexOrder(f"p={p} < 1 has no single-valued proximal map")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    v = np.asarray(v, dtype=float)
    if p == 1.0:
        return prox_l1(v, lam)
    if p == 2.0:
        return v / (1.0 + lam)
    a = np.abs(v)
    if p == 3.0 and lam > 0:
        root = (-0.5 + np.sqrt(0.25 + lam * a)) / lam
        return np.sign(v) * root
    flat = a.ravel()
    out = np.array([_power_root(w, lam, p) for w in flat]).reshape(a.shape)
    return np.sign(v) * out


def prox_norm_moreau(v: np.ndarray, lam: float, p) -> np.ndarray:
    """Prox of ``lam ||x||_p`` via the dual-ball projection identity
    ``prox(v) = v - lam P_B(v / lam)``."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    v = np.asarray(v, dtype=float)
    if p == 1:
        ball = LinfBall(1.0)
    elif p == 2:
        ball = L2Ball(1.0)
    elif p in (np.inf, "inf"):
        ball = L1Ball(1.0)
    else:
        raise ValueError("p must be 1, 2 or inf")
    return v - lam * ball.project(v / lam)


# --- convex (and one sparse) sets --------------------------------------------


@dataclass(frozen=True)
class Box:
    lower: np.ndarray | float = -np.inf
    upper: np.ndarray | float = np.inf

    def project(self, v: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(np.asarray(v, dtype=float), self.lower), self.upper)


@dataclass(frozen=True)
class Hyperplane:
    a: np.ndarray
    b: float

    def project(self, v: np.ndarray) -> np.ndarray:
        a = np.asarray(self.a, dtype=float)
        v = np.asarray(v, dtype=float)
        return v - ((a @ v - self.b) / (a @ a)) * a


@dataclass(frozen=True)
class Halfspace:
    """``a'x <= b``."""

    a: np.ndarray
    b: float

    def project(self, v: np.ndarray) -> np.ndarray:
        a = np.asarray(self.a, dtype=float)
        v = np.asarray(v, dtype=float)
        excess = a @ v - self.b
        if excess <= 0:
            return v.copy()
        return v - (excess / (a @ a)) * a


@dataclass(frozen=True)
class AffineSet:
    """``A x = b``; the projection subtracts the least-squares correction."""

    a: np.ndarray
    b: np.ndarray

    def project(self, v: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        v = np.asarray(v, dtype=float)
        pinv = np.linalg.pinv(a)
        if np.linalg.norm(a @ (pinv @ b) - b, np.inf) > 1e-8 * max(1.0, np.abs(b).max()):
            raise EmptySet("inconsistent affine system")
        return v - pinv @ (a @ v - b)


@dataclass(frozen=True)
class L2Ball:
    radius: float = 1.0

    def project(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        nrm = np.linalg.norm(v)
        if nrm <= self.radius:
            return v.copy()
        return (self.radius / nrm) * v


@dataclass(frozen=True)
class LinfBall:
    radius: float = 1.0

    def project(self, v: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(v, dtype=float), -self.radius, self.radius)


def _project_simplex(v: np.ndarray, budget: float) -> np.ndarray:
    """Exact sort-based projection onto ``{x >= 0, 1'x = budget}``."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - budget
    idx = np.arange(1, v.size + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


@dataclass(frozen=True)
class Simplex:
    budget: float = 1.0

    def project(self, v: np.ndarray) -> np.ndarray:
        return _project_simplex(np.asarray(v, dtype=float), self.budget)


@dataclass(frozen=True)
class L1Ball:
    radius: float = 1.0

    def project(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if np.abs(v).sum() <= self.radius:
            return v.copy()
        return np.sign(v) * _project_simplex(np.abs(v), self.radius)


def project_cardinality(v: np.ndarray, n1: int, bounds=(-np.inf, np.inf)) -> np.ndarray:
    """Nearest point with at most ``n1`` nonzeros, kept entries clipped to bounds.

    Keeps the ``n1`` largest magnitudes; ties resolve to the lowest index.
    The result may not be unique, this choice is deterministic.
    """
    v = np.asarray(v, dtype=float)
    if not 1 <= n1 <= v.size:
        raise ValueError(f"n1 must be in [1, {v.size}]")
    order = np.argsort(-np.abs(v), kind="stable")
    keep = order[:n1]
    out = np.zeros_like(v)
    out[keep] = np.clip(v[keep], bounds[0], bounds[1])
    return out


def project_intersection(v: np.ndarray, sets, max_sweeps: int = 500,
                         tol: float = 1e-12) -> np.ndarray:
    """Dykstra alternating projections onto an intersection of convex sets."""
    sets = list(sets)
    if not sets:
        return np.asarray(v, dtype=float).copy()
    if len(sets) == 1:
        return sets[0].project(v)
    x = np.asarray(v, dtype=float).copy()
    increments = [np.zeros_like(x) for _ in sets]
    worst = np.inf
    for _ in range(max_sweeps):
        x_prev = x.copy()
        for i, s in enumerate(sets):
            y = s.project(x + increments[i])
            increments[i] = x + increments[i] - y
            x = y
        # x alone can stall while increments move, so test set violations too
        worst = max(np.linalg.norm(s.project(x) - x, np.inf) for s in sets)
        if worst <= tol and np.linalg.norm(x - x_prev, np.inf) <= tol:
            break
    if worst > 1e-8:
        raise EmptyIntersection(f"alternating projections stalled (violation {worst:.2e})")
    return x


@dataclass(frozen=True)
class Intersection:
    sets: tuple = field(default_factory=tuple)

    def project(self, v: np.ndarray) -> np.ndarray:
        return project_intersection(v, self.sets)


def project(v: np.ndarray, region) -> np.ndarray:
    """Euclidean projection of ``v`` onto a set object."""
    return region.project(np.asarray(v, dtype=float))


def project_hyperplane_intersection(v: np.ndarray, a: np.ndarray, b: float,
                                    inner=None) -> np.ndarray:
    """Project onto ``{a'x = b}`` intersected with a convex set.

    Strong duality reduces the problem to the scalar root of
    ``a' P_inner(v - lam a) = b``, which is nonincreasing in ``lam``.
    """
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    if inner is None:
        return Hyperplane(a, b).project(v)

    def gap(lam: float) -> float:
        return float(a @ inner.project(v - lam * a) - b)

    g0 = gap(0.0)
    if abs(g0) <= 1e-14:
        x = inner.project(v)
        return x
    lo, hi = (0.0, 1.0) if g0 > 0 else (-1.0, 0.0)
    width = 1.0
    while gap(hi) > 0 if g0 > 0 else gap(lo) < 0:
        width *= 2.0
        if width > 1e12:
            raise EmptyIntersection("hyperplane level is outside the reachable range")
        if g0 > 0:
            lo, hi = hi, hi + width
        else:
            lo, hi = lo - width, lo
    lam = brentq(gap, lo, hi, xtol=1e-15, maxiter=300)
    x = inner.project(v - lam * a)
    if abs(a @ x - b) > 1e-10 * max(1.0, abs(b)):
        raise EmptyIntersection(f"root found but level not met ({a @ x - b:.2e})")
    return x
