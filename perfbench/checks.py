"""Independent correctness checks for every benchmark op.

Each check rebuilds the problem from the generated inputs (never from the
solver's own assembly) and returns a list of problems; an empty list means
the output passed.  Tolerances are stated here once.
"""

from __future__ import annotations

import numpy as np

FEAS_TOL = 1e-8        # budget and bounds, absolute
KKT_TOL = 1e-8         # QP stationarity / complementarity, relative to data scale
SUBGRAD_TOL = 1e-7     # ADMM stationarity over the subdifferential, absolute
KINK_TOL = 1e-7        # distance at which a weight counts as at a kink or bound
TARGET_TOL = 1e-5      # attained volatility / return / tracking error
REF_TOL = 1e-9         # closed-form reference values, relative

# The errors the library documents as non-convergence (the CLI exits with
# code 2 on these and with code 1 on every other error).
NON_CONVERGENCE_ERRORS = ("MaxIterations", "NoConvergence", "NumericalDivergence")
NOT_CONVERGED = "not converged: "


def not_converged(what):
    """A problem that the program reported itself: a status other than
    ``converged``, a non-convergence error or CLI exit code 2.  The op
    failed, but its answer is not wrong."""
    return NOT_CONVERGED + what


def raised(error):
    text = f"raised {type(error).__name__}: {error}"
    return not_converged(text) if type(error).__name__ in NON_CONVERGENCE_ERRORS else text


def wrong_answer(problems):
    """True if any problem is not a reported non-convergence: an output
    that failed its check, an undocumented error or exit code."""
    return any(not p.startswith(NOT_CONVERGED) for p in problems)


def feasibility(x, lower, upper, budget=1.0):
    x = np.asarray(x, float)
    if not np.isfinite(x).all():
        return ["non-finite weights"]
    out = []
    if abs(x.sum() - budget) > FEAS_TOL:
        out.append(f"budget off by {x.sum() - budget:.2e}")
    if (x - lower).min() < -FEAS_TOL:
        out.append(f"lower bound broken by {-(x - lower).min():.2e}")
    if (x - upper).max() > FEAS_TOL:
        out.append(f"upper bound broken by {(x - upper).max():.2e}")
    return out


def qp_kkt(q_mat, c_vec, x, duals, lower, upper):
    """KKT residual of ``min 0.5 x'Qx + c'x`` over budget and box, using the
    reported multipliers (``Qx + c + nu 1 - lam_lo + lam_up = 0``)."""
    if duals is None:
        return ["report carries no multipliers"]
    x = np.asarray(x, float)
    nu = np.asarray(duals["eq"], float)
    lam_lo = np.asarray(duals["lower"], float)
    lam_up = np.asarray(duals["upper"], float)
    scale = max(1.0, np.abs(q_mat).max() * max(np.abs(x).max(), 1.0), np.abs(c_vec).max())
    tol = KKT_TOL * scale
    out = []
    resid = q_mat @ x + c_vec + nu.sum() - lam_lo + lam_up
    if np.abs(resid).max() > tol:
        out.append(f"stationarity residual {np.abs(resid).max():.2e}")
    if min(lam_lo.min(), lam_up.min()) < -tol:
        out.append("negative bound multiplier")
    comp = max(np.abs(lam_lo * (x - lower)).max(), np.abs(lam_up * (upper - x)).max())
    if comp > tol:
        out.append(f"complementarity {comp:.2e}")
    return out


def l1_certificate(p_mat, q_vec, x, l1_terms, lower, upper):
    """Optimality of ``0.5 x'Px - q'x + sum rho |x - a|_1`` over budget and box.

    Per coordinate, the subdifferential plus the box normal cone is an
    interval ``[L_j + nu, U_j + nu]``; the point is optimal when one budget
    multiplier ``nu`` puts 0 in every interval.  The best ``nu`` has a closed
    form, and the remaining violation is returned.
    """
    x = np.asarray(x, float)
    grad = p_mat @ x - q_vec
    lo, hi = grad.copy(), grad.copy()
    for anchor, rho in l1_terms:
        d = x - anchor
        kink = np.abs(d) <= KINK_TOL
        lo += np.where(kink, -rho, rho * np.sign(d))
        hi += np.where(kink, rho, rho * np.sign(d))
    lo[x <= lower + KINK_TOL] = -np.inf
    hi[x >= upper - KINK_TOL] = np.inf
    violation = max(0.0, 0.5 * (lo.max() + (-hi).max()))
    if violation > SUBGRAD_TOL:
        return [f"subgradient violation {violation:.2e}"]
    return []


def near(value, target, tol, what):
    if not np.isfinite(value) or abs(value - target) > tol:
        return [f"{what} {value!r} misses {target!r} by more than {tol:.0e}"]
    return []


def close_arrays(got, want, what):
    got = np.asarray(got, float)
    want = np.asarray(want, float)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != {want.shape}"]
    err = np.abs(got - want).max() if got.size else 0.0
    if not err <= REF_TOL * (np.abs(want).max() or 1.0):
        return [f"{what}: off by {err:.2e}"]
    return []
