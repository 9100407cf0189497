"""Return panels, weighted moment estimation and eigen-diagnostics."""

from __future__ import annotations

import csv
import io
import json
import sys
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


def _check_symmetric(m: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(m).max())) if m.size else 1.0
    if np.abs(m - m.T).max() > _SYM_TOL * scale:
        raise NotSymmetric("matrix is not symmetric")


def refuse_indefinite(lam: np.ndarray) -> None:
    """``NotPositiveSemidefinite``, naming the least of the eigenvalues ``lam``,
    if it is below ``-1e-10`` of the largest (of zero, if none is positive)."""
    if lam.min() < -_PSD_TOL * max(lam.max(), 1e-300):
        raise NotPositiveSemidefinite(f"min eigenvalue {lam.min():.3e} below PSD tolerance")


def clip_psd(sigma: np.ndarray) -> np.ndarray:
    """Zero out round-off negative eigenvalues; reject genuinely indefinite input.

    Eigenvalues in [-1e-10 * lam_max, 0) are clipped to 0, anything more
    negative raises.  A NaN or infinite entry is a ``ValueError``.
    """
    sigma = np.asarray(sigma, dtype=float)
    if not np.isfinite(sigma).all():
        raise ValueError("sigma must hold finite numbers only")
    _check_symmetric(sigma)
    lam, vec = np.linalg.eigh(sigma)
    refuse_indefinite(lam)
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
        w = _array(values, "explicit weights", 1)
        if (w < 0).any():
            raise InputError("explicit weights must be nonnegative")
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
        """The scheme of a moments document: ``uniform``, ``ewma`` with a
        ``decay`` or ``explicit`` with ``weights``, and no other key."""
        _check_keys(obj, ("kind", "decay", "weights"), ("kind",), where="moments scheme")
        extra = sorted(set(obj) - {"kind"})
        if obj["kind"] == "uniform" and not extra:
            return cls.uniform()
        if obj["kind"] == "ewma" and extra == ["decay"]:
            return cls.ewma(_number(obj["decay"], "moments scheme decay"))
        if obj["kind"] == "explicit" and extra == ["weights"]:
            return cls.explicit(obj["weights"])
        raise InputError("moments scheme must be uniform, ewma with a decay, "
                         "or explicit with weights")


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


@dataclass
class MomentEstimates:
    """Weighted mean vector and covariance matrix of a return panel."""

    mu: np.ndarray
    sigma: np.ndarray
    scheme: WeightScheme
    assets: list = field(default_factory=list)

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        if not np.isfinite(self.mu).all():
            raise ValueError("mu must hold finite numbers only")
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
# One rule per format, shared by every reader: JSON documents (problems,
# views, moments) and numeric CSV files (return panels, regression data).


def _load_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc


def _check_keys(obj: dict, allowed, required=(), where: str = "document") -> None:
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise InputError(f"unknown keys {unknown} in {where}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise InputError(f"missing keys {missing} in {where}")


def _number(value, where: str, integer: bool = False):
    """A document number: a finite JSON number (an integer if asked), never
    null, a string or a boolean."""
    kinds = int if integer else (int, float)
    if not isinstance(value, bool) and isinstance(value, kinds):
        if integer:
            return value
        if abs(value) <= sys.float_info.max:  # false for inf, NaN and huge integers
            return float(value)
    raise InputError(f"{where} must be {'an integer' if integer else 'a finite number'}")


def _array(value, where: str, ndim: int | None = None) -> np.ndarray:
    """A document array of finite numbers, with ``ndim`` dimensions if given.
    A boolean is not a number here, though NumPy reads one beside numbers
    as 0 or 1."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise InputError(f"{where} must be a rectangular array of numbers") from exc
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all() or _holds_bool(value, arr.ndim):
        raise InputError(f"{where} must hold finite numbers only")
    if ndim is not None and arr.ndim != ndim:
        raise InputError(f"{where} must have {ndim} dimension(s), not {arr.ndim}")
    return arr.astype(float)


def _holds_bool(value, ndim: int) -> bool:
    """Whether the nested sequences ``value``, ``ndim`` deep, hold a
    ``bool``: the set of types of each innermost row is read in C, one
    Python step per row.  An array holds none (its dtype would be ``b`` or
    ``O``), and neither does a number."""
    rows = [] if isinstance(value, np.ndarray) or not ndim else [value]
    for _ in range(ndim - 1):
        rows = [inner for row in rows for inner in row]
    return any(bool in set(map(type, row)) for row in rows)


def _vector(value, where: str, n: int) -> np.ndarray:
    arr = _array(value, where, 1)
    if arr.size != n:
        raise InputError(f"{where} has {arr.size} entries, expected {n}")
    return arr


def _read_csv(path, first: str, label=object):
    """``(names, labels, values)`` of a ``<first>,<name...>`` CSV file: the
    header's names after the first, the first column (read as ``label``)
    and the other cells as a float array of one row per line.  Cells may be
    quoted and blank lines are skipped; a ragged row or a cell that is not a
    number is an ``InputError`` naming the file and its first bad line."""
    with open(path, newline="") as handle:
        header = next(csv.reader([handle.readline()]), [])
        if len(header) < 2 or header[0].strip().lower() != first:
            raise InputError(f"{path}: expected header '{first},<name...>'")
        body = handle.read()
    if not body.strip():
        raise InputError(f"{path}: no rows after the header")
    read = dict(delimiter=",", quotechar='"', comments=None, ndmin=1,
                dtype=[("label", label), ("values", float, (len(header) - 1,))])
    try:
        rows = np.loadtxt(io.StringIO(body), **read)
    except ValueError as exc:  # a ragged row or a cell that is not a number
        for line, text in enumerate(body.splitlines(), start=2):  # find its line
            if text.strip():
                try:
                    np.loadtxt([text], **read)
                except ValueError as bad:
                    raise InputError(f"{path}:{line}: {str(bad).split(' at row')[0]}") from None
        raise InputError(f"{path}: {str(exc).split(';')[0]}") from None
    return [c.strip() for c in header[1:]], rows["label"], np.ascontiguousarray(rows["values"])


def read_panel_csv(path) -> ReturnPanel:
    """Parse ``date,<asset...>`` CSV of decimal per-period returns."""
    assets, dates, returns = _read_csv(path, "date")
    try:
        return ReturnPanel(returns, assets=assets, dates=[d.strip() for d in dates])
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
    row-major entries), optional ``assets`` (one name per entry of ``mu``)
    and ``scheme``, and no other key."""
    _check_keys(obj, ("assets", "mu", "sigma", "scheme"), ("mu", "sigma"), where="moments")
    mu = _array(obj["mu"], "moments mu", 1)
    n = mu.size
    if n == 0:
        raise InputError("moments mu must have at least one entry")
    sigma = _array(obj["sigma"], "moments sigma")
    if sigma.shape not in ((n * n,), (n, n)):
        raise InputError(f"moments sigma must be {n}x{n}, or row-major of length {n * n}")
    assets = obj.get("assets", [])
    if "assets" in obj and not (isinstance(assets, list) and len(assets) == n
                                and all(isinstance(a, str) for a in assets)):
        raise InputError(f"moments assets must be a list of {n} names, one per entry of mu")
    scheme = WeightScheme.from_dict(obj.get("scheme", {"kind": "uniform"}))
    return MomentEstimates(mu=mu, sigma=sigma.reshape(n, n), scheme=scheme,
                           assets=list(assets))


def load_moments(path) -> MomentEstimates:
    return moments_from_dict(_load_json(path))
