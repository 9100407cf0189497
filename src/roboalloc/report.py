"""Common result container returned by the solvers, and the atomic file
write shared by the writers of results."""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

CONVERGED = "converged"
MAX_ITER = "max_iter"
DIVERGED = "diverged"


@dataclass
class SolveReport:
    """Outcome of one optimization run.

    ``duals`` holds per-constraint Lagrange multipliers keyed by
    ``eq`` / ``ineq`` / ``lower`` / ``upper`` when the solve path
    produces them, ``None`` otherwise.  ``meta`` carries diagnostics (final
    ADMM iterate, calibration history, cardinality nodes), not serialized.
    """

    weights: np.ndarray
    objective: float
    status: str = CONVERGED
    iterations: int = 0
    gamma: float | None = None
    duals: dict | None = None
    r_norm: float | None = None
    s_norm: float | None = None
    meta: dict = field(default_factory=dict, repr=False)

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED

    def to_dict(self) -> dict:
        duals = None
        if self.duals is not None:
            duals = {k: np.asarray(v).tolist() for k, v in self.duals.items()}
        out = {
            "weights": np.asarray(self.weights).tolist(),
            "gamma": self.gamma,
            "objective": float(self.objective),
            "duals": duals,
            "status": self.status,
            "iterations": int(self.iterations),
        }
        if self.r_norm is not None:
            out["residuals"] = {"primal": float(self.r_norm), "dual": float(self.s_norm)}
        return out


def atomic_write(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same
    directory, so readers see the old file or the whole new one."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
