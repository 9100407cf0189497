"""Rebalancing assembly: dual-anchor penalized optimization, regularization
paths and tracking-error targeting."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .admm import AdmmParams, solve_penalized
from .errors import TargetUnreachable
from .mvo import ConstraintSet, monotone_root
from .regularizers import PenaltySpec, penalty_terms
from .report import SolveReport, atomic_write

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
    admm: AdmmParams = field(default_factory=AdmmParams)

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

    Both L1 blocks are split off through one stacked coupling so a single
    ADMM run handles them; with no L1 terms the problem is a plain QP and
    is solved directly.  ``warm`` starts the solve from a nearby problem's
    answer: its ``meta['state']`` on the ADMM route, or its weights on the
    QP route.  A warm start meant for the other route is ignored.  With a
    tracking-error target and no gamma, the report is the one at the
    gamma the target search ends on.
    """
    gamma = config.gamma if gamma is None else gamma
    if gamma is None:
        if config.te_target is not None:
            return te_target_to_gamma(config, mu, sigma, config.te_target)[1]
        gamma = 0.0
    mu = np.asarray(mu, dtype=float).ravel()
    sigma = np.asarray(sigma, dtype=float)
    tracking = config.objective == "tracking_error"
    q_vec = gamma * mu
    if tracking:
        q_vec = q_vec + sigma @ config.strategic
    p_mat, q_vec, blocks, penalty = penalty_terms(config.penalties(), sigma, q_vec)

    def objective(x):
        d = x - config.strategic if tracking else x
        return float(0.5 * d @ sigma @ d - gamma * d @ mu + penalty(x))

    report = solve_penalized(p_mat, q_vec, blocks, config.constraints, config.extra_sets,
                             config.admm, warm=warm, x_init=config.current,
                             objective=objective)
    report.gamma = float(gamma)
    return report


def tracking_error(x, strategic, sigma) -> float:
    d = np.asarray(x, float) - np.asarray(strategic, float)
    return float(np.sqrt(max(d @ np.asarray(sigma, float) @ d, 0.0)))


def te_target_to_gamma(config: RoboConfig, mu, sigma, te_target: float,
                       tol: float = _TE_TOL):
    """Trade-off parameter whose solution attains the tracking-error target.

    The tracking error is nondecreasing in the trade-off, so the target is
    bracketed by doubling and bisected.  On the QP route each sample starts
    from the previous sample's weights.  Returns ``(gamma, report)``, the
    report being the solve at that gamma.
    """
    if te_target < 0:
        raise TargetUnreachable("tracking-error target must be nonnegative")
    base = replace(config, te_target=None)
    last = None

    def te_of(gamma):
        nonlocal last
        rep = rebalance(base, mu, sigma, gamma=gamma, warm=last)
        last = rep.weights
        return tracking_error(rep.weights, config.strategic, sigma), rep

    return monotone_root(te_of, te_target, tol)


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
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(["param"] + names + ["objective", "status"])
        for i, value in enumerate(self.values):
            row = [repr(float(value))]
            row += [repr(float(w)) for w in self.weights[i]]
            row += [repr(float(self.objective[i])), self.status[i]]
            writer.writerow(row)
        atomic_write(path, text.getvalue())


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
    """Re-solve along a sorted penalty grid, warm-starting each point from
    the previous solution; per-point failures are recorded in the row and
    the sweep continues."""
    if param not in _PATH_PARAMS:
        raise ValueError(f"unknown path parameter {param!r}")
    attr = _PATH_PARAMS[param]
    grid = np.asarray(list(grid), dtype=float)
    if grid.size == 0 or np.any(np.diff(grid) < 0):
        raise ValueError("grid must be nonempty and sorted ascending")
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
            warm = rep.meta.get("state") if rep.converged else None
        except Exception as exc:  # keep sweeping; the row records the failure
            status.append(f"error:{type(exc).__name__}")
            warm = None
    return PathTable(param=param, values=grid, weights=weights,
                     objective=objective, status=status,
                     assets=list(assets) if assets else [])
