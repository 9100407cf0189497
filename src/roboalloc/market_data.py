"""Return panels, weighted moment estimation and eigen-diagnostics."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegeneratePanel,
    DimensionMismatch,
    InputError,
    NotPositiveSemidefinite,
    NotSymmetric,
    SingularMatrix,
)

_SYM_TOL = 1e-12
_PSD_TOL = 1e-10


def _check_symmetric(m: np.ndarray, tol: float = _SYM_TOL) -> None:
    scale = max(1.0, float(np.abs(m).max())) if m.size else 1.0
    if np.abs(m - m.T).max() > tol * scale:
        raise NotSymmetric("matrix is not symmetric")


def clip_psd(sigma: np.ndarray) -> np.ndarray:
    """Zero out round-off negative eigenvalues; reject genuinely indefinite input.

    Eigenvalues in [-1e-10 * lam_max, 0) are clipped to 0, anything more
    negative raises.
    """
    sigma = np.asarray(sigma, dtype=float)
    _check_symmetric(sigma)
    lam, vec = np.linalg.eigh(sigma)
    lam_max = max(lam.max(), 0.0)
    if lam.min() < -_PSD_TOL * max(lam_max, 1e-300):
        raise NotPositiveSemidefinite(
            f"min eigenvalue {lam.min():.3e} below PSD tolerance"
        )
    if lam.min() >= 0.0:
        return sigma
    lam = np.clip(lam, 0.0, None)
    return (vec * lam) @ vec.T


@dataclass(frozen=True)
class WeightScheme:
    """Observation weights: uniform, exponentially decaying or explicit."""

    kind: str
    decay: float | None = None
    values: np.ndarray | None = None

    @classmethod
    def uniform(cls) -> "WeightScheme":
        return cls("uniform")

    @classmethod
    def ewma(cls, decay: float) -> "WeightScheme":
        if not 0.0 < decay < 1.0:
            raise InputError(f"ewma decay must be in (0, 1), got {decay}")
        return cls("ewma", decay=decay)

    @classmethod
    def explicit(cls, values) -> "WeightScheme":
        w = np.asarray(values, dtype=float)
        if w.ndim != 1 or (w < 0).any() or not np.isfinite(w).all():
            raise InputError("explicit weights must be a 1-d nonnegative array")
        if w.sum() <= 0:
            raise InputError("explicit weights must not sum to zero")
        return cls("explicit", values=w)

    def resolve(self, n_obs: int) -> np.ndarray:
        """Return the length-``n_obs`` weight vector, normalized to sum one."""
        if self.kind == "uniform":
            return np.full(n_obs, 1.0 / n_obs)
        if self.kind == "ewma":
            # most recent observation carries the largest weight
            w = self.decay ** np.arange(n_obs - 1, -1, -1, dtype=float)
            return w / w.sum()
        if self.kind == "explicit":
            if len(self.values) != n_obs:
                raise DimensionMismatch(
                    f"explicit weights have length {len(self.values)}, panel has {n_obs}"
                )
            return self.values / self.values.sum()
        raise InputError(f"unknown weight scheme kind {self.kind!r}")

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "ewma":
            out["decay"] = self.decay
        elif self.kind == "explicit":
            out["weights"] = self.values.tolist()
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "WeightScheme":
        kind = obj.get("kind")
        if kind == "uniform":
            return cls.uniform()
        if kind == "ewma":
            return cls.ewma(float(obj["decay"]))
        if kind == "explicit":
            return cls.explicit(obj["weights"])
        raise InputError(f"unknown weight scheme kind {kind!r}")


def _date_order(dates: list) -> list:
    """Keys that order date labels: numbers when every label is an integer
    (so ``9 < 10``), otherwise the labels themselves (ISO dates sort as text)."""
    try:
        return [int(str(d)) for d in dates]
    except ValueError:
        return list(dates)


@dataclass
class ReturnPanel:
    """T x n matrix of per-period decimal returns with labels and dates."""

    returns: np.ndarray
    assets: list = field(default_factory=list)
    dates: list = field(default_factory=list)

    def __post_init__(self):
        self.returns = np.atleast_2d(np.asarray(self.returns, dtype=float))
        t, n = self.returns.shape
        if not self.assets:
            self.assets = [f"A{i + 1}" for i in range(n)]
        if not self.dates:
            self.dates = list(range(1, t + 1))
        if t < 2:
            raise DegeneratePanel(f"need at least 2 observations, got {t}")
        if n < 1:
            raise DegeneratePanel("need at least one asset")
        if len(self.assets) != n:
            raise DimensionMismatch("asset labels do not match panel width")
        if len(self.dates) != t:
            raise DimensionMismatch("dates do not match panel length")
        if not np.isfinite(self.returns).all():
            raise InputError("panel contains non-finite returns")
        order = _date_order(self.dates)
        if any(a >= b for a, b in zip(order, order[1:])):
            raise InputError("dates must be strictly increasing")

    @property
    def n_obs(self) -> int:
        return self.returns.shape[0]

    @property
    def n_assets(self) -> int:
        return self.returns.shape[1]


@dataclass
class MomentEstimates:
    """Weighted mean vector and covariance matrix of a return panel."""

    mu: np.ndarray
    sigma: np.ndarray
    scheme: WeightScheme
    assets: list = field(default_factory=list)

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.sigma = clip_psd(np.asarray(self.sigma, dtype=float))
        if self.sigma.shape != (self.mu.size, self.mu.size):
            raise DimensionMismatch("mu and sigma dimensions disagree")
        if not self.assets:
            self.assets = [f"A{i + 1}" for i in range(self.mu.size)]


def estimate_moments(panel: ReturnPanel, scheme: WeightScheme) -> MomentEstimates:
    """Weighted mean and covariance, ``mu = R'w`` and ``R'(D_w - w w')R``."""
    r = panel.returns
    w = scheme.resolve(panel.n_obs)
    mu = r.T @ w
    centered = r - mu  # == C_T R with C_T = I - 1 w'
    sigma = centered.T @ (w[:, None] * centered)
    sigma = 0.5 * (sigma + sigma.T)
    return MomentEstimates(mu=mu, sigma=sigma, scheme=scheme, assets=list(panel.assets))


def eigen_decompose(sigma: np.ndarray):
    """Orthonormal eigenvectors and descending eigenvalues of a symmetric matrix.

    Each eigenvector's first nonzero component is made positive so that
    repeated runs give reproducible signs.
    """
    sigma = np.asarray(sigma, dtype=float)
    _check_symmetric(sigma)
    lam, vec = np.linalg.eigh(sigma)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    vec = vec[:, order]
    for j in range(vec.shape[1]):
        col = vec[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * max(np.abs(col).max(), 1e-300))[0]
        if nz.size and col[nz[0]] < 0:
            vec[:, j] = -col
    return vec, lam


def condition_number(matrix: np.ndarray) -> float:
    """Ratio of the extreme singular values, >= 1."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size == 0 or s.max() <= 0.0:
        raise SingularMatrix("matrix is zero")
    s_min = s.min()
    if s_min < 1e-300:
        raise SingularMatrix(f"smallest singular value {s_min:.3e} is numerically zero")
    return float(s.max() / s_min)


# --- file formats -----------------------------------------------------------


def read_panel_csv(path) -> ReturnPanel:
    """Parse ``date,<asset...>`` CSV of decimal per-period returns."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or len(rows[0]) < 2 or rows[0][0].strip().lower() != "date":
        raise InputError(f"{path}: expected header 'date,<asset...>'")
    assets = [c.strip() for c in rows[0][1:]]
    dates, data = [], []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(assets) + 1:
            raise InputError(f"{path}:{i}: expected {len(assets) + 1} fields, got {len(row)}")
        dates.append(row[0].strip())
        try:
            data.append([float(c) for c in row[1:]])
        except ValueError as exc:
            raise InputError(f"{path}:{i}: {exc}") from exc
    try:
        return ReturnPanel(np.array(data), assets=assets, dates=dates)
    except (DegeneratePanel, DimensionMismatch) as exc:
        raise InputError(f"{path}: {exc}") from exc


def moments_to_dict(moments: MomentEstimates) -> dict:
    return {
        "assets": list(moments.assets),
        "mu": moments.mu.tolist(),
        "sigma": moments.sigma.ravel().tolist(),  # row-major
        "scheme": moments.scheme.to_dict(),
    }


def moments_from_dict(obj: dict) -> MomentEstimates:
    """Moments from a document: finite ``mu`` and ``sigma`` (a matrix or its
    row-major entries) and one asset name per entry of ``mu``."""
    if not isinstance(obj, dict):
        raise InputError("moments document must be a JSON object")
    for key in ("assets", "mu", "sigma"):
        if key not in obj:
            raise InputError(f"moments document missing key {key!r}")
    try:
        mu = np.asarray(obj["mu"], dtype=float)
        sigma = np.asarray(obj["sigma"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"moments mu and sigma must be arrays of numbers ({exc})") from exc
    if mu.ndim != 1:
        raise InputError("moments mu must be a vector")
    if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
        raise InputError("moments mu and sigma must hold finite numbers only")
    n = mu.size
    assets = obj["assets"]
    if not (isinstance(assets, list) and len(assets) == n
            and all(isinstance(a, str) for a in assets)):
        raise InputError(f"moments assets must be a list of {n} names, one per entry of mu")
    if sigma.ndim == 1:
        if sigma.size != n * n:
            raise InputError("row-major sigma has wrong length")
        sigma = sigma.reshape(n, n)
    scheme = WeightScheme.from_dict(obj.get("scheme", {"kind": "uniform"}))
    return MomentEstimates(mu=mu, sigma=sigma, scheme=scheme, assets=list(assets))


def load_moments(path) -> MomentEstimates:
    with open(path) as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: {exc}") from exc
    return moments_from_dict(obj)
