"""Rebalancing assembly: dual-anchor penalized optimization, regularization
paths and tracking-error targeting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .admm import solve_problem
from .errors import AllocationError, Infeasible
from .mvo import ConstraintSet, exact_problem, path_root
from .regularizers import PenaltySpec, l1_rho, penalty_terms, penalty_value, quadratic_terms
from .report import SolveReport, write_csv


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
        if self.gamma is not None and self.te_target is not None:
            raise ValueError("gamma and te_target exclude each other: a target sets gamma")
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


def rebalance(config: RoboConfig, mu, sigma, warm=None) -> SolveReport:
    """Solve the full rebalancing problem for the next-period weights:
    ``0.5 x'Px - q'x`` plus the L1 slots, as ``penalty_terms`` assembles
    them, with ``q`` affine in ``config.gamma`` (slope ``mu``).

    Without an extra set ``qp.solve_qp`` solves it exactly, the L1 slots as
    its L1 rows (its ``meta['working_set']`` holds that ``QpProblem``); with
    one, ADMM does.  ``warm``, the weights of a nearby problem's answer, is
    the start point (``solve_problem``'s ``x_init``); without it an exact
    solve starts at ``solve_qp``'s cold start and an ADMM solve at ``z = 0``.
    With a tracking-error target the report is ``te_target_to_gamma``'s, at
    the gamma where its walk meets the target; with neither a gamma nor a
    target the problem is solved at gamma 0.  ``_assemble`` and ``_solve``
    are its two halves, which ``regularization_path``'s points share.
    """
    if config.te_target is not None:
        return te_target_to_gamma(config, mu, sigma, config.te_target)[1]
    mu, sigma = np.asarray(mu, dtype=float).ravel(), np.asarray(sigma, dtype=float)
    return _solve(config, mu, sigma, _assemble(config, mu, sigma), warm)


def _linear(config: RoboConfig, mu, sigma):
    """``q`` before the penalties: ``gamma mu`` (gamma 0 when unset, as under
    a target), plus ``S strategic`` for the tracking-error objective."""
    q_vec = (0.0 if config.gamma is None else config.gamma) * mu
    if config.objective == "tracking_error":
        q_vec = q_vec + sigma @ config.strategic
    return q_vec


def _assemble(config: RoboConfig, mu, sigma):
    """``rebalance``'s first half: ``(problem, blocks, penalty)``, the exact
    ``QpProblem`` (``mvo.exact_problem``), the prox blocks and the penalty
    slots' value, from ``penalty_terms``."""
    p_mat, q_vec, l1, blocks, penalty = penalty_terms(config.penalties(), sigma,
                                                      _linear(config, mu, sigma))
    return exact_problem(p_mat, q_vec, l1, config.constraints), blocks, penalty


def _solve(config: RoboConfig, mu, sigma, assembly, warm=None) -> SolveReport:
    """``rebalance``'s second half: ``_assemble``'s ``assembly`` of ``config``
    solved by ``admm.solve_problem``, exactly or by ADMM with extra sets,
    from ``warm``, and reported with its objective and gamma.  Under a
    target (which ``rebalance`` hands to ``te_target_to_gamma``, and only a
    path's points bring here) that is the cold gamma-0 solve, walked to the
    target as ``te_target_to_gamma`` walks it."""
    problem, blocks, penalty = assembly
    if config.te_target is not None:
        _refuse_extra_sets(config)
        warm = None
    gamma = 0.0 if config.gamma is None else config.gamma
    report = solve_problem(problem, blocks, config.extra_sets, x_init=warm,
                           objective=_objective(config, mu, sigma, gamma, penalty))
    report.gamma = float(gamma)
    if config.te_target is None:
        return report
    return _meet(config, mu, sigma, report, config.te_target, penalty)[1]


def _objective(config: RoboConfig, mu, sigma, gamma: float, penalty):
    """The objective a rebalance at ``gamma`` reports, ``0.5 d'Sd - gamma
    d'mu`` with ``d = x - strategic`` (``x`` for ``mvo``) plus ``penalty(x)``,
    the penalty slots' value."""
    tracking = config.objective == "tracking_error"

    def objective(x):
        d = x - config.strategic if tracking else x
        return float(0.5 * d @ sigma @ d - gamma * d @ mu + penalty(x))

    return objective


def tracking_error(x, strategic, sigma) -> float:
    d = np.asarray(x, float) - np.asarray(strategic, float)
    return float(np.sqrt(max(d @ np.asarray(sigma, float) @ d, 0.0)))


def te_target_to_gamma(config: RoboConfig, mu, sigma, te_target: float):
    """Trade-off parameter whose solution attains the tracking-error target.

    ``mvo.path_root`` walks the solution path of the exact QP that
    ``rebalance`` solved at gamma 0 (the L1 slots as its L1 rows), meets the
    target exactly on the first segment that reaches it and reads the
    report off that segment, certified and with its gamma; only the
    objective is set here, to the one ``rebalance`` reports: one
    ``rebalance`` in all, at gamma 0.  The tracking error is nondecreasing
    in gamma without L2 penalties.  A target below the gamma-0 tracking
    error by more than 1e-6 (``mvo._CAL_TOL``), a negative one included, is
    ``TargetUnreachable``: with L2 or turnover anchors the gamma-0 book is
    not the strategic one.  With extra sets there is no
    exact path, and a target is a ``ValueError`` before any solve.  Returns
    ``(gamma, report)``, the report being the answer at that gamma.
    """
    _refuse_extra_sets(config)
    mu, sigma = np.asarray(mu, dtype=float).ravel(), np.asarray(sigma, dtype=float)
    start = rebalance(replace(config, gamma=0.0, te_target=None), mu, sigma)
    return _meet(config, mu, sigma, start, te_target, penalty_value(config.penalties(), config.n))


def _refuse_extra_sets(config: RoboConfig) -> None:
    if config.extra_sets:
        raise ValueError("a tracking-error target cannot be met with extra sets")


def _meet(config: RoboConfig, mu, sigma, start, te_target: float, penalty):
    """``(gamma, report)`` where the walk from ``start``, the gamma-0 answer,
    meets ``te_target`` (``mvo.path_root``), the report's objective the one
    a rebalance at that gamma reports."""
    gamma, report = path_root(start, -mu, (sigma, config.strategic), te_target)
    report.objective = _objective(config, mu, sigma, gamma, penalty)(report.weights)
    return gamma, report


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
    starts without ``warm``).  The QP is assembled once, as ``rebalance``
    assembles it (``_assemble``), and each later point's is derived from it
    (``_point``); each point is solved as ``rebalance`` solves it
    (``_solve``), a target's points walked as ``te_target_to_gamma`` walks.
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
    mu, sigma = np.asarray(mu, dtype=float).ravel(), np.asarray(sigma, dtype=float)
    n = config.n
    weights = np.full((grid.size, n), np.nan)
    objective = np.full(grid.size, np.nan)
    status = []
    warm, made = None, {}
    for i, value in enumerate(grid.tolist()):
        try:
            point, assembly = _point(made, config, attr, value, mu, sigma)
            rep = _solve(point, mu, sigma, assembly, warm)
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


def _point(made: dict, config: RoboConfig, attr: str, value: float, mu, sigma):
    """``(point, assembly)`` of a path's point, ``config`` with ``attr`` at
    ``value``.  A zero value drops the slot (``RoboConfig.penalties``), so
    the points fall in two kinds, zero or not: ``made`` keeps each kind's
    first point, validated and assembled, and every zero point is that one.
    A later nonzero point takes the first's config with ``value``, which the
    grid's check has passed, and its ``QpProblem`` derived from the first's
    (``QpProblem.derive``): new L1 weights for an L1 slot, new ``Q`` and
    ``c`` for an L2 slot, in ``penalty_terms``' order."""
    kind = value > 0
    if kind not in made:
        point = replace(config, **{attr: value})
        made[kind] = point, _assemble(point, mu, sigma)
        return made[kind]
    if not kind:
        return made[kind]
    first, (problem, blocks, _) = made[kind]
    point = object.__new__(RoboConfig)
    point.__dict__.update(first.__dict__, **{attr: value})
    penalties = point.penalties()
    if attr.startswith("rho1"):
        problem = problem.derive(rho=l1_rho(penalties, point.n))
    else:
        p_mat, q_vec = quadratic_terms(penalties, sigma, _linear(point, mu, sigma))
        problem = problem.derive(Q=p_mat, c=-q_vec)
    return point, (problem, blocks, penalty_value(penalties, point.n))
