"""Rebalancing assembly: dual-anchor penalized optimization, regularization
paths and tracking-error targeting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .admm import solve_penalized
from .errors import AllocationError, Infeasible, TargetUnreachable
from .mvo import ConstraintSet, exact_problem, path_root
from .regularizers import PenaltySpec, penalty_terms
from .report import SolveReport, write_csv

_TE_TOL = 1e-6


@dataclass
class RoboConfig:
    """Penalized rebalancing toward a strategic anchor from the current book.

    Sparsity (L1) and smoothing (L2) penalties are applied both to the
    active bets ``x - strategic`` and to the trades ``x - current``; the
    objective is either plain risk/return or the tracking-error variant
    against the strategic portfolio.
    """

    strategic: np.ndarray
    current: np.ndarray
    objective: str = "tracking_error"        # tracking_error | mvo
    gamma: float | None = None
    te_target: float | None = None
    rho1_strategic: float = 0.0
    gamma1_strategic: np.ndarray | None = None
    rho2_strategic: float = 0.0
    gamma2_strategic: np.ndarray | None = None
    rho1_turnover: float = 0.0
    gamma1_turnover: np.ndarray | None = None
    rho2_turnover: float = 0.0
    gamma2_turnover: np.ndarray | None = None
    constraints: ConstraintSet | None = None
    extra_sets: tuple = ()

    def __post_init__(self):
        self.strategic = np.asarray(self.strategic, dtype=float).ravel()
        self.current = np.asarray(self.current, dtype=float).ravel()
        if self.strategic.size != self.current.size:
            raise ValueError("strategic and current portfolios differ in length")
        for name in ("rho1_strategic", "rho2_strategic",
                     "rho1_turnover", "rho2_turnover"):
            rho = getattr(self, name)
            if not math.isfinite(rho) or rho < 0:
                raise ValueError(f"{name} must be finite and nonnegative")
        if self.objective not in ("tracking_error", "mvo"):
            raise ValueError(f"unknown objective {self.objective!r}")
        for label, w in (("strategic", self.strategic), ("current", self.current)):
            if not np.isfinite(w).all():
                raise ValueError(f"{label} portfolio must hold finite weights")
            if np.abs(w).max() == 0.0:
                continue  # all-zero anchor: penalize the weights themselves
            if abs(w.sum() - 1.0) > 1e-8 or (w < -1e-12).any():
                raise ValueError(f"{label} portfolio must lie on the simplex")
        if self.constraints is None:
            n = self.strategic.size
            self.constraints = ConstraintSet(budget=1.0, lower=np.zeros(n),
                                             upper=np.ones(n))

    @property
    def n(self) -> int:
        return self.strategic.size

    def penalties(self) -> list:
        """The penalty slots as ``PenaltySpec`` objects, L1 before L2 and the
        strategic slot (anchored at ``strategic``) before the turnover slot
        (anchored at ``current``).  Only slots with ``rho > 0`` are listed."""
        slots = ((1, self.rho1_strategic, self.gamma1_strategic, self.strategic),
                 (1, self.rho1_turnover, self.gamma1_turnover, self.current),
                 (2, self.rho2_strategic, self.gamma2_strategic, self.strategic),
                 (2, self.rho2_turnover, self.gamma2_turnover, self.current))
        return [PenaltySpec(kind=f"l{k}", rho=rho, gamma_matrix=g, anchor=anchor)
                for k, rho, g, anchor in slots if rho > 0]


def rebalance(config: RoboConfig, mu, sigma, gamma: float | None = None,
              warm=None) -> SolveReport:
    """Solve the full rebalancing problem for the next-period weights.

    Without an extra set ``qp.solve_qp`` solves it exactly, the L1 slots
    as its L1 rows; with one, ADMM does.  ``warm``, the weights of a nearby
    problem's answer, is the start point (``solve_penalized``'s ``x_init``);
    without it an exact solve starts at ``solve_qp``'s cold start and an
    ADMM solve at ``z = 0``.
    With a tracking-error target and no gamma, the report is the solve at
    the gamma where ``te_target_to_gamma``'s walk meets the target.
    """
    gamma = config.gamma if gamma is None else gamma
    if gamma is None:
        if config.te_target is not None:
            return te_target_to_gamma(config, mu, sigma, config.te_target)[1]
        gamma = 0.0
    mu = np.asarray(mu, dtype=float).ravel()
    sigma = np.asarray(sigma, dtype=float)
    p_mat, q_vec, l1, blocks, objective = _terms(config, mu, sigma, gamma)
    report = solve_penalized(p_mat, q_vec, l1, blocks, config.constraints, config.extra_sets,
                             x_init=warm, objective=objective)
    report.gamma = float(gamma)
    return report


def _terms(config: RoboConfig, mu, sigma, gamma: float):
    """``(P, q, l1, blocks, objective)`` of the rebalancing problem at
    ``gamma``, as ``admm.solve_penalized`` takes them; ``q`` is affine in
    ``gamma`` with slope ``mu``."""
    tracking = config.objective == "tracking_error"
    q_vec = gamma * mu
    if tracking:
        q_vec = q_vec + sigma @ config.strategic
    p_mat, q_vec, l1, blocks, penalty = penalty_terms(config.penalties(), sigma, q_vec)

    def objective(x):
        d = x - config.strategic if tracking else x
        return float(0.5 * d @ sigma @ d - gamma * d @ mu + penalty(x))

    return p_mat, q_vec, l1, blocks, objective


def tracking_error(x, strategic, sigma) -> float:
    d = np.asarray(x, float) - np.asarray(strategic, float)
    return float(np.sqrt(max(d @ np.asarray(sigma, float) @ d, 0.0)))


def te_target_to_gamma(config: RoboConfig, mu, sigma, te_target: float):
    """Trade-off parameter whose solution attains the tracking-error target.

    ``mvo.path_root`` walks the exact QP's solution path from gamma 0 (the
    L1 slots as its L1 rows), meets the target exactly on the first segment
    that reaches it and solves once more at that gamma from the walk's
    point; the tracking error is nondecreasing in gamma without L2
    penalties.  A target below the gamma-0 tracking error by more than
    ``_TE_TOL`` is ``TargetUnreachable``: with L2 or turnover anchors the
    gamma-0 book is not the strategic one.  With extra sets there is no
    exact path, and a target is a ``ValueError`` before any solve.  Returns
    ``(gamma, report)``, the report being the solve at that gamma.
    """
    if config.extra_sets:
        raise ValueError("a tracking-error target cannot be met with extra sets")
    if te_target < 0:
        raise TargetUnreachable("tracking-error target must be nonnegative")
    base = replace(config, te_target=None)
    mu = np.asarray(mu, dtype=float).ravel()
    sigma = np.asarray(sigma, dtype=float)
    p_mat, q_vec, l1, _, _ = _terms(base, mu, sigma, 0.0)
    return path_root(
        lambda gamma, x0: rebalance(base, mu, sigma, gamma=gamma, warm=x0),
        exact_problem(p_mat, q_vec, l1, config.constraints), -mu,
        (sigma, config.strategic), te_target, _TE_TOL)


@dataclass
class PathTable:
    """Solutions along a penalty grid, one row per grid value."""

    param: str
    values: np.ndarray
    weights: np.ndarray          # grid x n
    objective: np.ndarray
    status: list
    assets: list = field(default_factory=list)

    def to_csv(self, path) -> None:
        names = self.assets or [f"A{i + 1}" for i in range(self.weights.shape[1])]
        rows = [[repr(float(value))] + [repr(float(w)) for w in self.weights[i]]
                + [repr(float(self.objective[i])), self.status[i]]
                for i, value in enumerate(self.values)]
        write_csv(path, ["param"] + names + ["objective", "status"], rows)


_PATH_PARAMS = {
    "rho1": "rho1_strategic",
    "rho2": "rho2_strategic",
    "rho1_strategic": "rho1_strategic",
    "rho2_strategic": "rho2_strategic",
    "rho1_turnover": "rho1_turnover",
    "rho2_turnover": "rho2_turnover",
}


def regularization_path(config: RoboConfig, mu, sigma, grid,
                        param: str = "rho1", assets=None) -> PathTable:
    """Re-solve along a sorted penalty grid, starting each point from the
    weights of the last converged point (the first cold, as ``rebalance``
    starts without ``warm``).
    An ``AllocationError`` at one point is recorded in its row and the sweep
    continues.  ``Infeasible`` and any other error (a ``ValueError`` for
    non-finite data, say) would recur at every point, so they are raised.
    A grid that is empty, unsorted, negative or not finite is a
    ``ValueError`` before the first solve."""
    if param not in _PATH_PARAMS:
        raise ValueError(f"unknown path parameter {param!r}")
    attr = _PATH_PARAMS[param]
    grid = np.asarray(list(grid), dtype=float)
    if grid.size == 0 or np.any(np.diff(grid) < 0):
        raise ValueError("grid must be nonempty and sorted ascending")
    if not np.isfinite(grid).all() or grid[0] < 0:
        raise ValueError("grid values must be finite and nonnegative")
    n = config.n
    weights = np.full((grid.size, n), np.nan)
    objective = np.full(grid.size, np.nan)
    status = []
    warm = None
    for i, value in enumerate(grid):
        point = replace(config, **{attr: float(value)})
        try:
            rep = rebalance(point, mu, sigma, warm=warm)
            weights[i] = rep.weights
            objective[i] = rep.objective
            status.append(rep.status)
            if rep.converged:
                warm = rep.weights
        except Infeasible:
            raise
        except AllocationError as exc:  # keep sweeping; the row records the failure
            status.append(f"error:{type(exc).__name__}")
    return PathTable(param=param, values=grid, weights=weights,
                     objective=objective, status=status,
                     assets=list(assets) if assets else [])
