"""Mean-variance problems: risk/return trade-off solves, target calibration,
implied returns, hedging-portfolio decomposition and constraint-implied
covariance shrinkage."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    InvalidCorrelation,
    MissingDuals,
    PerfectCollinearity,
    SingularCovariance,
    TargetUnreachable,
    ZeroVolatilityPortfolio,
)
from .market_data import clip_psd
from .qp import QpProblem, parametric_path, solve_qp
from .report import SolveReport

_CAL_TOL = 1e-6
_LEVEL_RTOL = 1e-13  # relative rounding of a volatility or return level
_GAMMA_CAP = 1e6


@dataclass
class MvoInputs:
    mu: np.ndarray
    sigma: np.ndarray
    r: float = 0.0

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float).ravel()
        if not (np.isfinite(self.mu).all() and np.isfinite(self.r)):
            raise ValueError("mu and r must hold finite numbers only")
        self.sigma = clip_psd(np.asarray(self.sigma, dtype=float))
        if self.sigma.shape != (self.mu.size, self.mu.size):
            raise ValueError("mu and sigma dimensions disagree")

    @property
    def n(self) -> int:
        return self.mu.size

    @property
    def excess(self) -> np.ndarray:
        return self.mu - self.r


@dataclass
class ConstraintSet:
    """Budget, bounds and general linear restrictions on the weights."""

    budget: float | None = None
    lower: np.ndarray | float | None = None
    upper: np.ndarray | float | None = None
    eq: tuple | None = None      # (A, b): A x = b
    ineq: tuple | None = None    # (A, b): A x >= b

    def is_empty(self) -> bool:
        return all(v is None for v in (self.budget, self.lower, self.upper,
                                       self.eq, self.ineq))


def exact_problem(p_mat, q_vec, l1, constraints: ConstraintSet | None) -> QpProblem:
    """The ``QpProblem`` of ``0.5 x'Px - q'x`` over the constraint set
    (``None`` for none), with the L1 rows ``l1 = (G, d, rho)`` (``None`` for
    none): the one reading of a ``ConstraintSet``.  The budget row goes over
    ``eq``; ``QpProblem`` checks the blocks and fills in the absent ones."""
    constraints = constraints or ConstraintSet()
    eq, budget = constraints.eq, constraints.budget
    if budget is not None and eq is None:
        eq = np.ones((1, q_vec.size)), [float(budget)]
    elif budget is not None:
        a = np.atleast_2d(np.asarray(eq[0], float))  # a wrong width reaches QpProblem's check
        eq = (np.vstack([np.ones(a.shape[1]), a]),
              np.concatenate(([float(budget)], np.ravel(eq[1]))))
    return QpProblem(Q=p_mat, c=-q_vec, eq=eq, ineq=constraints.ineq, lower=constraints.lower,
                     upper=constraints.upper, l1=l1)


@dataclass
class StevensReport:
    """Per-asset hedging regression quantities and the implied optimal weights."""

    alpha: np.ndarray
    beta: np.ndarray        # row i: coefficients on the other assets, in index order
    r2: np.ndarray
    s: np.ndarray           # residual (idiosyncratic) volatility
    mu_hat: np.ndarray
    sigma_hat: np.ndarray
    omega: np.ndarray
    y_star: np.ndarray
    z_star: np.ndarray
    x_star: np.ndarray
    gamma: float
    assets: list = field(default_factory=list)


def _solve_spd(sigma: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``sigma^-1 rhs``; ``SingularCovariance`` when the eigenvalue ratio of
    ``sigma`` is below 1e-12."""
    lam = np.linalg.eigvalsh(sigma)
    if lam.min() < 1e-12 * max(lam.max(), 1e-300):
        raise SingularCovariance(f"covariance nearly singular (eig ratio "
                                 f"{lam.min():.2e}/{lam.max():.2e})")
    return np.linalg.solve(sigma, rhs)


def solve_gamma_problem(inputs: MvoInputs, gamma: float,
                        constraints: ConstraintSet | None = None) -> SolveReport:
    """Minimize ``0.5 x'Sx - gamma x'(mu - r 1)`` over the constraint set by
    one ``solve_qp``, certified and with multipliers.  Without constraints
    the weights are ``gamma S^-1 (mu - r 1)`` to rounding, and a covariance
    that ``_solve_spd`` finds singular is ``SingularCovariance``."""
    if not np.isfinite(gamma):
        raise ValueError("gamma must be finite")
    if constraints is None or constraints.is_empty():
        _solve_spd(inputs.sigma, inputs.excess)  # the refusal only: the solve finds the weights
    report = solve_qp(exact_problem(inputs.sigma, gamma * inputs.excess, None, constraints))
    report.gamma = float(gamma)
    return report


def calibrate_gamma(inputs: MvoInputs, constraints: ConstraintSet | None = None, *,
                    target_return: float | None = None,
                    target_vol: float | None = None):
    """Find the trade-off parameter hitting a return or volatility target.

    ``path_root`` walks the solution path of the QP that the gamma-0
    ``solve_gamma_problem`` built, with or without constraints, meets the
    target exactly within its segment and reads the report off that
    segment, certified: one QP solve in all, at gamma 0.  A target met at
    gamma 0 gives gamma 0 (without constraints, where the weights are zero
    there, a return target at most ``_CAL_TOL``).  A volatility target below
    the gamma-0 volatility is ``TargetUnreachable``, as is one that no gamma
    up to ``_GAMMA_CAP`` reaches (``path_root``).  Without constraints a
    singular covariance is ``SingularCovariance``, as in
    ``solve_gamma_problem``.  Returns ``(gamma, report)``; the path's
    ``(gamma, value)`` entries are recorded in
    ``report.meta['calibration']``.
    """
    if (target_return is None) == (target_vol is None):
        raise ValueError("specify exactly one of target_return / target_vol")
    if target_vol is None:
        metric, target = (None, inputs.mu), target_return
    else:
        metric, target = (inputs.sigma, np.zeros(inputs.n)), target_vol
    start = solve_gamma_problem(inputs, 0.0, constraints)
    gamma, report = path_root(start, -inputs.excess, metric, target, _CAL_TOL)
    report.gamma = float(gamma)
    return gamma, report


def _level(metric, x) -> float:
    """The metric's level at ``x``: the squared volatility
    ``(x - anchor)' sigma (x - anchor)`` for ``(sigma, anchor)``, the
    return ``mu'x`` for ``(None, mu)``."""
    sigma, vec = metric
    if sigma is None:
        return float(vec @ x)
    d = x - vec
    return float(d @ sigma @ d)


def _value(metric, level: float) -> float:
    """The metric at the level ``level``: the volatility or the return."""
    return level if metric[0] is None else float(np.sqrt(max(level, 0.0)))


def _along(metric, x, dx):
    """The metric's level along ``x + s dx`` as ``(now, b, a)``, the
    quadratic (or linear) ``now + b s + a s^2`` of ``s``, convex: ``x -
    anchor`` and ``sigma dx`` taken once."""
    sigma, vec = metric
    if sigma is None:
        return float(vec @ x), float(vec @ dx), 0.0
    d, sd = x - vec, sigma @ dx
    return float(d @ sigma @ d), 2.0 * float(d @ sd), max(float(dx @ sd), 0.0)


def _crossing(level: float, now: float, b: float, a: float) -> float:
    """Least ``s >= 0`` at which ``now + b s + a s^2`` (``_along``) reaches
    ``level``; infinite if it never does.  A gap within rounding of
    ``level`` (a target set at a breakpoint's value) counts as reached."""
    gap = level - now
    if gap <= _LEVEL_RTOL * abs(level):
        return 0.0
    root = b + np.sqrt(b * b + 4.0 * a * gap)
    return 2.0 * gap / root if root > 0.0 else np.inf


def path_root(start: SolveReport, slope, metric, target: float, tol: float):
    """Trade-off parameter at which a metric of a QP's answer meets a
    target, found on the solution path rather than by search.

    ``start`` is the ``solve_qp`` report at gamma 0, and ``slope`` the
    derivative in gamma of the linear term of the QP in its
    ``meta['working_set']``, L1 rows included.  ``metric`` is ``(sigma,
    anchor)`` for the volatility ``sqrt((x - anchor)' sigma (x - anchor))``
    or ``(None, mu)`` for the return ``mu'x``.  Gamma 0 and ``start`` are
    returned when its value already reaches ``target - tol``.  Otherwise
    ``qp.parametric_path`` walks that problem from ``start``'s answer; on
    each piece the metric is a quadratic (or linear) function of the step,
    so the target is met exactly where it first crosses.  The report is
    read off that piece (``_Piece.report``: the problem at that gamma, its
    weights and multipliers moved along the piece, certified as
    ``solve_qp`` certifies a solve); only a read-off that is not
    ``converged``, or a crossing at the start of a move at fixed gamma,
    takes one ``solve_qp`` of the same problem at that gamma, started from
    the walk's point, instead.  The report's ``gamma`` and, where the
    caller reports another objective than the QP's, its ``objective`` are
    the caller's to set.  A value above ``target + tol`` at gamma 0 (a
    volatility) is ``TargetUnreachable``; so is a crossing beyond
    ``_GAMMA_CAP``, including a last segment that stays below the target,
    and a crossing inside a move at fixed gamma (a singular covariance),
    where the optimum is not unique and no solve at that gamma would answer
    the target.  The report's ``meta['calibration']`` lists ``(gamma,
    value)`` at gamma 0, at each breakpoint and at the answer.  Returns
    ``(gamma, report)``.  A non-finite target raises ``ValueError`` before
    the walk.
    """
    if not np.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    history = [(0.0, _value(metric, _level(metric, start.weights)))]
    if metric[0] is not None and history[0][1] > target + tol:
        raise TargetUnreachable(f"target {target} unattainable: below the minimum attainable "
                                f"{history[0][1]:.6f}, at gamma 0")
    if history[0][1] >= target - tol:
        start.meta["calibration"] = history
        return 0.0, start
    level = target if metric[0] is None else target ** 2
    for k, piece in enumerate(parametric_path(start, slope)):
        t, x, dx, rate, length = piece
        now, b, a = _along(metric, x, dx)
        if k:  # a breakpoint
            history.append((t, _value(metric, now)))
        s = _crossing(level, now, b, a)
        if rate and t + length > _GAMMA_CAP and s > _GAMMA_CAP - t:
            reached = _value(metric, _level(metric, x + (_GAMMA_CAP - t) * dx))
            raise TargetUnreachable(f"target {target} unattainable: not bracketed up to "
                                    f"gamma={_GAMMA_CAP:.0e} (reached {reached:.6g})")
        if s <= length:
            break
    if not rate and s > 0.0:
        raise TargetUnreachable(f"target {target} falls inside a jump of the path at "
                                f"gamma={t:.6g}, where the optimum is not unique")
    gamma = t + rate * s
    rep = piece.report(s)
    if rep is None or not rep.converged:
        problem = start.meta["working_set"][0]
        rep = solve_qp(replace(problem, c=problem.c + gamma * slope), x0=x + s * dx)
    history.append((gamma, _value(metric, _level(metric, rep.weights))))
    rep.meta["calibration"] = history
    return gamma, rep


def max_sharpe_bound(inputs: MvoInputs) -> float:
    """Upper bound on any portfolio's Sharpe ratio, ``sqrt(e' S^-1 e)``."""
    e = inputs.excess
    return float(np.sqrt(e @ _solve_spd(inputs.sigma, e)))


def sharpe_ratio(x: np.ndarray, inputs: MvoInputs) -> float:
    x = np.asarray(x, float)
    vol = float(np.sqrt(max(x @ inputs.sigma @ x, 0.0)))
    if vol == 0.0:
        raise ZeroVolatilityPortfolio("portfolio has zero volatility")
    return (float(x @ inputs.mu) - inputs.r) / vol


def implied_returns(x0: np.ndarray, sigma: np.ndarray, r: float,
                    sharpe: float) -> np.ndarray:
    """Expected returns that make ``x0`` optimal, scaled to a given Sharpe ratio."""
    x0 = np.asarray(x0, dtype=float).ravel()
    sigma = np.asarray(sigma, dtype=float)
    variance = float(x0 @ sigma @ x0)
    if variance <= 0.0:
        raise ZeroVolatilityPortfolio("reference portfolio has zero variance")
    return r + sharpe * (sigma @ x0) / np.sqrt(variance)


def stevens_decomposition(inputs: MvoInputs, gamma: float,
                          assets: list | None = None) -> StevensReport:
    """Express the unconstrained optimum through per-asset hedging regressions.

    Asset ``i``'s hedge, its regression on the other assets, is read off row
    ``i`` of the precision matrix ``P = S^-1`` (Stevens, *J. Finance* 1998):
    the coefficients are ``-P_ij / P_ii``, so one solve gives every hedge.
    The optimal weight is ``gamma * alpha_i / s_i^2`` where ``alpha_i`` is
    the return the hedge cannot replicate and ``s_i`` the residual volatility.
    """
    if not np.isfinite(gamma):
        raise ValueError("gamma must be finite")
    mu, sigma, n = inputs.mu, inputs.sigma, inputs.n
    prec = _solve_spd(sigma, np.eye(n))
    b = 0.0 - prec / np.diag(prec)[:, None]  # 0.0 - x, not -x: an exact zero stays +0.0
    np.fill_diagonal(b, 0.0)
    diag = np.diag(sigma)
    r2 = (b * sigma.T).sum(axis=1) / diag
    collinear = np.flatnonzero(r2 >= 1.0 - 1e-10)
    if collinear.size:
        i = collinear[0]
        raise PerfectCollinearity(f"asset {i} is replicated by the others (R2={r2[i]:.12f})")
    beta = b[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    mu_hat = b @ mu
    alpha = mu - mu_hat
    s = np.sqrt(diag * (1.0 - r2))
    sigma_hat = np.sqrt(diag * r2)
    omega = r2 / (1.0 - r2)
    y_star = gamma * mu / diag
    hedge_var = diag - s ** 2
    z_star = np.where(hedge_var > 1e-300, gamma * mu_hat / np.where(hedge_var > 0, hedge_var, 1.0), 0.0)
    x_star = gamma * alpha / s ** 2
    return StevensReport(alpha=alpha, beta=beta, r2=r2, s=s, mu_hat=mu_hat,
                         sigma_hat=sigma_hat, omega=omega, y_star=y_star,
                         z_star=z_star, x_star=x_star, gamma=float(gamma),
                         assets=assets or [f"A{i + 1}" for i in range(n)])


def constant_correlation_r2(n: int, rho: float) -> float:
    """Hedging R2 in an ``n``-asset universe with uniform correlation.

    With ``k = n - 1`` regressors the coefficient of determination is
    ``k rho^2 / (k rho - (rho - 1))``.
    """
    if n < 2:
        raise InvalidCorrelation("need at least two assets")
    if not -1.0 / (n - 1) < rho < 1.0:
        raise InvalidCorrelation(f"uniform correlation {rho} invalid for n={n}")
    k = n - 1
    return float(k * rho ** 2 / (k * rho - (rho - 1.0)))


def jagannathan_ma_shrinkage(sigma: np.ndarray, constraints: ConstraintSet,
                             solution: SolveReport):
    """Covariance implied by binding weight constraints.

    The bound and inequality multipliers of a constrained solve are folded
    into the covariance so that dropping those constraints (keeping budget
    and any return target) reproduces the constrained optimum; an answer
    without a binding constraint leaves ``sigma`` unchanged.  Returns
    ``(sigma_tilde, vol_tilde, corr_tilde)``; an ADMM answer, which carries
    no multipliers, is ``MissingDuals``.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0]
    if solution.duals is None:
        raise MissingDuals("solution does not carry constraint multipliers")
    duals = solution.duals
    delta = np.asarray(duals.get("upper", np.zeros(n)), float) - \
        np.asarray(duals.get("lower", np.zeros(n)), float)
    ones = np.ones(n)
    sigma_tilde = sigma + np.outer(delta, ones) + np.outer(ones, delta)
    lam_ineq = np.asarray(duals.get("ineq", np.zeros(0)), float)
    if lam_ineq.size and constraints.ineq is not None:
        a = np.atleast_2d(np.asarray(constraints.ineq[0], float))
        v = a.T @ lam_ineq
        sigma_tilde = sigma_tilde - (np.outer(v, ones) + np.outer(ones, v))
    vol_tilde = np.sqrt(np.clip(np.diag(sigma_tilde), 0.0, None))
    denom = np.outer(vol_tilde, vol_tilde)
    corr_tilde = np.divide(sigma_tilde, denom, out=np.eye(n), where=denom > 0)
    np.fill_diagonal(corr_tilde, 1.0)
    return sigma_tilde, vol_tilde, corr_tilde


def te_transform(mu: np.ndarray, sigma: np.ndarray, benchmark: np.ndarray,
                 gamma: float) -> MvoInputs:
    """Fold a tracking-error objective into adjusted expected returns.

    ``0.5 (x-b)'S(x-b) - gamma (x-b)'mu`` equals, up to a constant,
    ``0.5 x'Sx - gamma x'(mu + S b / gamma)``.
    """
    if gamma == 0:
        raise ValueError("gamma must be nonzero to rescale the benchmark term")
    mu = np.asarray(mu, dtype=float).ravel()
    benchmark = np.asarray(benchmark, dtype=float).ravel()
    if benchmark.size != mu.size:
        raise ValueError("benchmark length does not match mu")
    sigma = np.asarray(sigma, dtype=float)
    return MvoInputs(mu=mu + (sigma @ benchmark) / gamma, sigma=sigma)
