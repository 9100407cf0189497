"""Conditional-Gaussian view blending and the grade-to-expected-return map."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import _grades
from .errors import InputError, SingularViewCovariance
from .mvo import implied_returns


@dataclass
class ViewSet:
    """Linear views ``P R = Q + eps`` with noise covariance ``sigma_eps``."""

    p: np.ndarray
    q: np.ndarray
    sigma_eps: np.ndarray

    def __post_init__(self):
        self.p = np.atleast_2d(np.asarray(self.p, dtype=float))
        self.q = np.asarray(self.q, dtype=float).ravel()
        self.sigma_eps = np.atleast_2d(np.asarray(self.sigma_eps, dtype=float))
        k = self.q.size
        if self.p.shape[0] != k or self.sigma_eps.shape != (k, k):
            raise InputError("view dimensions disagree")
        if np.abs(self.sigma_eps - self.sigma_eps.T).max() > 1e-10 * max(
                1.0, np.abs(self.sigma_eps).max()):
            raise InputError("view covariance must be symmetric")
        if np.linalg.eigvalsh(self.sigma_eps).min() <= 0:
            raise InputError("view covariance must be positive definite")


def bl_conditional(mu_tilde, sigma_m, views: ViewSet):
    """Posterior mean and covariance given the views.

    The mean adds a correction proportional to the gap between stated and
    implied view levels; the covariance shrinks by the explained block.
    """
    mu_tilde = np.asarray(mu_tilde, dtype=float).ravel()
    sigma_m = np.asarray(sigma_m, dtype=float)
    p, q = views.p, views.q
    inner = p @ sigma_m @ p.T + views.sigma_eps
    try:
        gain = np.linalg.solve(inner, np.eye(inner.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise SingularViewCovariance(str(exc)) from exc
    cond = np.linalg.cond(inner)
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularViewCovariance(f"view system condition number {cond:.2e}")
    sp = sigma_m @ p.T
    mu_bar = mu_tilde + sp @ gain @ (q - p @ mu_tilde)
    sigma_bar = sigma_m - sp @ gain @ sp.T
    sigma_bar = 0.5 * (sigma_bar + sigma_bar.T)
    return mu_bar, sigma_bar


def grades_to_expected_returns(strategic, sigma, r, sharpe, scores,
                               delta: float = 1.0, tau: float = 1.0,
                               n_s: int = 3):
    """Turn integer conviction grades in ``[-n_s, n_s]`` into blended
    expected returns; other grades, NaN included, are an ``InputError``.

    Each grade shifts the asset's implied Sharpe ratio by ``delta * s / n_s``;
    the manager returns are then mixed with the implied returns with weight
    ``tau / (tau + 1)`` on the implied side.  Returns
    ``(mu_implied, mu_manager, mu_blended)``.
    """
    scores = _grades(scores, n_s)
    sigma = np.asarray(sigma, dtype=float)
    if tau <= 0:
        raise InputError("tau must be positive")
    vols = np.sqrt(np.diag(sigma))
    if np.any(vols <= 0):
        raise InputError("asset volatilities must be positive")
    mu_implied = implied_returns(strategic, sigma, r, sharpe)
    mu_manager = mu_implied + delta * (scores / n_s) * vols
    weight = tau / (tau + 1.0)
    mu_blended = weight * mu_implied + (1.0 - weight) * mu_manager
    return mu_implied, mu_manager, mu_blended


def scale_range_index(cardinality: int) -> int:
    """Half-range of a symmetric integer grade scale with ``cardinality`` steps."""
    if cardinality < 3 or cardinality % 2 == 0:
        raise InputError("grade scales must have an odd size >= 3")
    return (cardinality - 1) // 2
