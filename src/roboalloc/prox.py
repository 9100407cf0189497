"""Proximal operators of power-norm penalties and Euclidean projections
onto the constraint sets used by the splitting solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyIntersection, EmptySet, NonConvexOrder

_ROOT_TOL = 1e-12   # residual at which a root of _power_root stops
_ROOT_STEPS = 100   # Newton-or-bisection steps of _power_root
_MAX_SWEEPS = 500   # Dykstra sweeps of project_intersection
_SWEEP_TOL = 1e-12  # step and violation at which the sweeps stop


# --- proximal operators ------------------------------------------------------


def prox_l1(v: np.ndarray, lam) -> np.ndarray:
    """Soft thresholding: componentwise shrink toward zero by ``lam``, a
    scalar or one threshold per component."""
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)


def _power_root(w: np.ndarray, lam: float, p: float) -> np.ndarray:
    """Positive roots ``x`` of ``lam x^(p-1) + x = w`` for an array ``w >= 0``
    and ``lam > 0``.

    Newton on the whole array, in ``u`` with ``x = u^b``: ``f(u) = lam u^a +
    u^b - w`` with ``(a, b) = (p - 1, 1)`` for ``p >= 2`` and ``(1, 1 / (p -
    1))`` below is convex and increasing, so from the lesser one-term root
    (where ``f >= 0``) the steps fall to the roots.  A step leaving the
    bracket of its root is replaced by bisection.  The loop stops when every
    residual is at most ``_ROOT_TOL``, or after ``_ROOT_STEPS`` steps.
    """
    a, b = (p - 1.0, 1.0) if p >= 2.0 else (1.0, 1.0 / (p - 1.0))
    u = np.minimum((w / lam) ** (1.0 / a), w ** (1.0 / b))
    lo, hi = np.zeros_like(w), u.copy()
    for _ in range(_ROOT_STEPS):
        f = lam * u ** a + u ** b - w
        if np.abs(f).max(initial=0.0) <= _ROOT_TOL:
            break
        np.copyto(lo, u, where=f < 0.0)
        np.copyto(hi, u, where=f > 0.0)
        step = u - f / (lam * a * u ** (a - 1.0) + b * u ** (b - 1.0))
        u = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
    return u ** b


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
    if lam == 0.0:
        return v.copy()
    a = np.abs(v)
    if p == 3.0:
        root = (-0.5 + np.sqrt(0.25 + lam * a)) / lam
        return np.sign(v) * root
    return np.sign(v) * _power_root(a.ravel(), lam, p).reshape(a.shape)


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
    """``lower <= x <= upper``; a lower bound above its upper bound by more
    than 1e-15 (``QpProblem``'s slack) leaves it empty (``EmptySet``)."""

    lower: np.ndarray | float = -np.inf
    upper: np.ndarray | float = np.inf

    def __post_init__(self):
        lower, upper = np.asarray(self.lower, dtype=float), np.asarray(self.upper, dtype=float)
        if (lower > upper + 1e-15).any():
            raise EmptySet("lower bound exceeds upper bound: the box is empty")

    def project(self, v: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(np.asarray(v, dtype=float), self.lower), self.upper)


@dataclass(frozen=True)
class Hyperplane:
    a: np.ndarray
    b: float

    def project(self, v: np.ndarray) -> np.ndarray:
        a = np.asarray(self.a, dtype=float)
        v = np.asarray(v, dtype=float)
        aa = a @ a
        if aa == 0.0:  # 0'x = b: all of space for b = 0, else empty
            if self.b != 0:
                raise EmptySet(f"zero normal with level {self.b}: the set is empty")
            return v.copy()
        return v - ((a @ v - self.b) / aa) * a


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
        aa = a @ a
        if aa == 0.0:  # 0'x <= b with b < 0
            raise EmptySet(f"zero normal with level {self.b}: the set is empty")
        return v - (excess / aa) * a


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


def _radius(radius: float) -> float:
    """A ball's radius or a simplex's budget: zero leaves the set ``{0}``, a
    negative one leaves it empty (``EmptySet``)."""
    if radius < 0.0:
        raise EmptySet(f"negative radius or budget {radius}: the set is empty")
    return radius


@dataclass(frozen=True)
class L2Ball:
    radius: float = 1.0

    def project(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        nrm = np.linalg.norm(v)
        if nrm <= _radius(self.radius):
            return v.copy()
        return (self.radius / nrm) * v


@dataclass(frozen=True)
class LinfBall:
    radius: float = 1.0

    def project(self, v: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(v, dtype=float), -_radius(self.radius), self.radius)


def _project_simplex(v: np.ndarray, budget: float) -> np.ndarray:
    """Exact sort-based projection onto ``{x >= 0, 1'x = budget}``."""
    if _radius(budget) == 0.0:
        return np.zeros_like(v)
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
        if np.abs(v).sum() <= _radius(self.radius):
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


def project_intersection(v: np.ndarray, sets) -> np.ndarray:
    """Dykstra alternating projections onto an intersection of convex sets.

    The sweeps stop once no increment changes by more than ``_SWEEP_TOL``
    in a sweep, which leaves every projection of the sweep in place, or
    after ``_MAX_SWEEPS`` sweeps; a violation still above 1e-8 then raises
    ``EmptyIntersection``.  The iterate alone can stall for sweeps at a
    point of every set that is not the projection, while the increments
    still move.
    """
    sets = list(sets)
    if not sets:
        return np.asarray(v, dtype=float).copy()
    if len(sets) == 1:
        return sets[0].project(v)
    x = np.asarray(v, dtype=float).copy()
    increments = [np.zeros_like(x) for _ in sets]
    for _ in range(_MAX_SWEEPS):
        change = 0.0
        for i, s in enumerate(sets):
            y = s.project(x + increments[i])
            step = x + increments[i] - y
            change = max(change, np.abs(step - increments[i]).max())
            increments[i] = step
            x = y
        if change <= _SWEEP_TOL:
            break
    worst = max(np.linalg.norm(s.project(x) - x, np.inf) for s in sets)
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
    """Project onto ``{a'x = b}`` intersected with ``inner``, a ``Box`` or
    ``None`` for the whole space: ``x(lam) = clip(v - lam a, lower, upper)``
    where the gap ``a'x(lam) - b``, piecewise linear and nonincreasing, is
    zero (the breakpoint search of Helgason, Kennington & Lall, *Math.
    Program.* 1980, and Kiwiel, *Math. Program.* 2008).  A sweep over the
    sorted breakpoints, adding up the slopes, finds the segment where the
    gap changes sign; beyond the outermost ones the slope is ``-sum a_i^2``
    over the weights unbounded on that side.  ``lam`` is then exact, in
    closed form from the segment's free and fixed weights.
    ``EmptyIntersection`` when the box cannot reach the level."""
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    if inner is None:
        return Hyperplane(a, b).project(v)
    if not isinstance(inner, Box):
        raise TypeError(f"inner must be a Box or None, not {type(inner).__name__}")
    lo, up = inner.lower, inner.upper
    # weight i is free for enter[i] < lam < leave[i]; a zero a_i is divided by
    # 1 and read as positive: it adds no slope and is fixed only at a finite bound
    ends = (v - up) / (a + (a == 0.0)), (v - lo) / (a + (a == 0.0))
    enter, leave = np.minimum(*ends), np.maximum(*ends)
    t, slope = np.concatenate(ends), np.concatenate([-a * np.abs(a), a * np.abs(a)])
    order = t.argsort()  # -inf first: the slope starts with the unbounded weights
    t, slope = t[order], slope[order].cumsum()  # the gap's slope right of t
    finite = np.isfinite(t)
    t, slope, k = t[finite], slope[finite], 0
    if t.size:  # k: the first breakpoint where the gap is at most zero
        gap = a @ inner.project(v - t[0] * a) - b
        fall = -(slope[:-1] * (t[1:] - t[:-1])).cumsum()
        k = fall.searchsorted(gap) + 1 if gap > 0.0 else 0
    left, right = (t[k - 1] if k else -np.inf), (t[k] if k < t.size else np.inf)
    free = (enter <= left) & (leave >= right)
    den = (a * a) @ free
    if den > 0.0:  # a fixed weight sits at the bound it reached by the segment
        at = np.where(free, v, np.where((a >= 0.0) == (leave <= left), lo, up))
        lam = (a @ at - b) / den
    else:  # a flat gap: the level is met at the segment's edge or nowhere
        lam = right if k < t.size else left if k else 0.0
    x = inner.project(v - lam * a)
    if den > 0.0:  # a step on the free weights, zero but for lam's rounding
        x = inner.project(x - ((a @ x - b) / den) * (a * free))
    gap = a @ x - b  # to the rounding of the terms a'x sums; NaN data and inf fail
    if not abs(gap) <= 1e-10 * max(1.0, abs(b), np.abs(a) @ np.abs(x)) < np.inf:
        raise EmptyIntersection(f"hyperplane level is outside the box's reach ({gap:.2e})")
    return x
