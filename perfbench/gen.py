"""Seeded input generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns plain arrays
or writes plain files, so the program under test only ever sees inputs built
here.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import datetime

import numpy as np

N_FACTORS = 5
PERIODS_PER_YEAR = 252
GRADE_RANGE = 3  # grades are integers in [-3, 3]


def factor_sigma(rng, n, k=N_FACTORS):
    """Annualised factor-model covariance ``B B' + D``.

    Loadings give each asset about 12% factor volatility; idiosyncratic
    volatilities are uniform in [5.7%, 17.7%].
    """
    loadings = rng.normal(0.0, 0.12 / np.sqrt(k), (n, k))
    idio = 0.5 * rng.uniform(0.08, 0.25, n) ** 2
    return loadings @ loadings.T + np.diag(idio)


def strategic_weights(rng, n, upper):
    """Dirichlet model-portfolio weights, capped below ``upper``."""
    w = rng.dirichlet(np.full(n, 5.0))
    for _ in range(20):
        if w.max() <= 0.9 * upper:
            break
        w = np.minimum(w, 0.9 * upper)
        w = w / w.sum()
    if w.max() > upper:
        raise ValueError("strategic weights cannot be capped below the upper bound")
    return w


def grades(rng, n):
    return rng.integers(-GRADE_RANGE, GRADE_RANGE + 1, n)


def model_portfolio(roboalloc, rng, n, upper):
    """One model portfolio ``(sigma, mu, strategic)``; ``mu`` blends the
    implied returns with integer grades through ``grades_to_expected_returns``
    at the library defaults (r = 0, Sharpe 0.5, delta = 1, tau = 1)."""
    sigma = factor_sigma(rng, n)
    strategic = strategic_weights(rng, n, upper)
    _, _, mu = roboalloc.grades_to_expected_returns(
        strategic, sigma, 0.0, 0.5, grades(rng, n), n_s=GRADE_RANGE)
    return sigma, mu, strategic


def drifted_book(rng, strategic, drift=0.3):
    """Current holdings: the strategic weights after lognormal drift."""
    book = strategic * np.exp(rng.normal(0.0, drift, strategic.size))
    return book / book.sum()


def log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


# --- files ----------------------------------------------------------------------


def _fmt(v):
    return repr(float(v))


def return_panel(rng, sigma, mu, periods):
    """Per-period returns drawn from the annualised moments."""
    chol = np.linalg.cholesky(sigma / PERIODS_PER_YEAR)
    z = rng.standard_normal((periods, mu.size))
    return mu / PERIODS_PER_YEAR + z @ chol.T


def iso_dates(count, start=datetime.date(2015, 1, 1)):
    """Consecutive ISO dates.

    ``ReturnPanel`` compares date labels as strings, so plain integer labels
    such as ``1..10`` are rejected as not increasing; ISO dates sort
    correctly.
    """
    return [(start + datetime.timedelta(days=t)).isoformat() for t in range(count)]


def write_panel_csv(path, returns, assets):
    """``date,<asset...>`` CSV; values round-trip exactly through ``repr``."""
    lines = ["date," + ",".join(assets)]
    for day, row in zip(iso_dates(returns.shape[0]), returns):
        lines.append(day + "," + ",".join(_fmt(v) for v in row))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def regression_data(rng, rows, cols):
    """Ridge-regression sample: ``y = X beta + noise``."""
    x = rng.standard_normal((rows, cols))
    beta = rng.normal(0.0, 0.5, cols)
    y = x @ beta + rng.standard_normal(rows)
    return x, y


def write_regression_csv(path, x, y):
    lines = ["y," + ",".join(f"x{j + 1}" for j in range(x.shape[1]))]
    for yi, row in zip(y, x):
        lines.append(_fmt(yi) + "," + ",".join(_fmt(v) for v in row))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def ewma_moments(returns, decay):
    """Reference exponentially weighted mean and covariance."""
    t = returns.shape[0]
    w = decay ** np.arange(t - 1, -1, -1, dtype=float)
    w = w / w.sum()
    mu = returns.T @ w
    centered = returns - mu
    sigma = (centered * w[:, None]).T @ centered
    return mu, 0.5 * (sigma + sigma.T)
