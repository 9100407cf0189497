import numpy as np
import pytest

from roboalloc import qp


@pytest.fixture(autouse=True)
def fresh_start_cache():
    """Each test starts with no cached cold start, so the table's hit and
    miss counts and the calls of phase 1 do not depend on the tests run
    before it."""
    qp._start.cache_clear()


def cov_from(vols, corr):
    vols = np.asarray(vols, dtype=float)
    corr = np.asarray(corr, dtype=float)
    return np.outer(vols, vols) * corr


def symmetrize(rows, n):
    m = np.zeros((n, n))
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            m[i, j] = m[j, i] = v
    return m


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n + 2, n))
    m = a.T @ a / (n + 2) * scale
    return m + 1e-6 * scale * np.eye(n)


@pytest.fixture(scope="session")
def four_asset():
    """Four risky assets, moderate uniform-ish correlations."""
    mu = np.array([0.07, 0.08, 0.09, 0.10])
    vols = np.array([0.15, 0.18, 0.20, 0.25])
    corr = np.array([
        [1.00, 0.50, 0.50, 0.60],
        [0.50, 1.00, 0.50, 0.50],
        [0.50, 0.50, 1.00, 0.40],
        [0.60, 0.50, 0.40, 1.00],
    ])
    return mu, vols, corr, cov_from(vols, corr)


@pytest.fixture(scope="session")
def four_asset_alt():
    """Four assets with negative cross-correlations, used for penalty paths."""
    mu = np.array([0.04, 0.05, 0.09, 0.10])
    vols = np.array([0.15, 0.18, 0.20, 0.25])
    corr = np.array([
        [1.00, 0.70, 0.10, -0.20],
        [0.70, 1.00, 0.10, -0.20],
        [0.10, 0.10, 1.00, -0.70],
        [-0.20, -0.20, -0.70, 1.00],
    ])
    return mu, vols, corr, cov_from(vols, corr)


@pytest.fixture(scope="session")
def nine_asset():
    """Nine asset classes: bonds, equities, commodities."""
    mu = np.array([4.2, 3.8, 5.3, 10.4, 9.2, 8.6, 5.3, 11.0, 8.8]) / 100
    vols = np.array([5.0, 5.0, 7.0, 10.0, 15.0, 15.0, 15.0, 18.0, 30.0]) / 100
    corr = symmetrize([
        [100],
        [80, 100],
        [60, 40, 100],
        [-20, -20, 50, 100],
        [-10, -20, 30, 60, 100],
        [-20, -10, 20, 60, 90, 100],
        [-20, -20, 20, 50, 70, 60, 100],
        [-20, -20, 30, 60, 70, 70, 70, 100],
        [0, 0, 10, 20, 20, 20, 30, 30, 100],
    ], 9) / 100
    return mu, vols, corr, cov_from(vols, corr)


@pytest.fixture(scope="session")
def ten_asset():
    """Ten asset classes used for the view-blending scenarios."""
    vols = np.array([9.2, 7.0, 9.4, 7.6, 10.1, 7.6, 16.1, 20.5, 24.3, 17.8]) / 100
    corr = symmetrize([
        [100.0],
        [17.7, 100.0],
        [98.1, 19.4, 100.0],
        [16.5, 99.5, 18.1, 100.0],
        [71.1, 2.4, 76.3, 2.1, 100.0],
        [85.9, 12.7, 87.6, 11.8, 89.1, 100.0],
        [34.5, 0.7, 38.1, 1.3, 68.8, 57.8, 100.0],
        [-13.2, 2.8, -4.0, 3.6, 41.0, 18.2, 59.5, 100.0],
        [20.3, 2.0, 27.6, 0.8, 21.6, 25.3, 8.0, 15.6, 100.0],
        [16.6, 10.2, 26.0, 10.5, 57.2, 44.6, 54.3, 67.7, 42.9, 100.0],
    ], 10) / 100
    return vols, corr, cov_from(vols, corr)
