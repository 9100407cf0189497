"""Seeded property test of the gamma-path walk behind `calibrate_gamma` and
the QP route of `te_target_to_gamma`.

Each target is met to rounding, the answer is the cold solve at the gamma
returned, and a target is unreachable exactly where the doubling-and-
bisection search (`mvo.monotone_root`, still the ADMM route's search)
finds it so.
"""

import numpy as np
import pytest

from roboalloc import mvo
from roboalloc.errors import TargetUnreachable
from roboalloc.market_data import clip_psd
from roboalloc.mvo import ConstraintSet, MvoInputs, calibrate_gamma, solve_gamma_problem
from roboalloc.pipeline import RoboConfig, rebalance, te_target_to_gamma, tracking_error

_TOL = 1e-6  # gamma 0 answers a target it reaches to within this


def universe(seed, n, kind):
    """``(sigma, mu, strategic)``: a full-rank covariance, one of rank n/2
    (clipped to PSD), or a full-rank one with tied expected returns."""
    rng = np.random.default_rng([11, seed, n])
    k = max(2, n // 2) if kind == "singular" else n + 3
    b = rng.standard_normal((n, k)) * 0.2 / np.sqrt(k)
    sigma = b @ b.T
    if kind != "singular":
        sigma += np.diag(rng.uniform(0.02, 0.1, n) ** 2)
    mu = 0.02 + 0.1 * rng.random(n)
    if kind == "tied":
        mu[1], mu[3] = mu[0], mu[2]
    return clip_psd(0.5 * (sigma + sigma.T)), mu, rng.dirichlet(np.ones(n))


def constraints(n, general):
    """Budget and box, and with ``general`` an extra equality row (the first
    half of the book holds half of it) and two inequality rows."""
    upper = max(0.15, 2.5 / n)
    if not general:
        return ConstraintSet(budget=1.0, lower=0.0, upper=upper)
    half = np.zeros((1, n))
    half[0, : (n + 1) // 2] = 1.0
    g = np.zeros((2, n))
    g[0, [0, n - 1]] = 1.0      # x_0 + x_{n-1} >= 0.1
    g[1, 1:4] = -1.0            # x_1 + x_2 + x_3 <= 0.35
    return ConstraintSet(budget=1.0, lower=0.0, upper=upper, eq=(half, [0.5]),
                         ineq=(g, [0.1, -0.35]))


class Case:
    """One target problem: volatility or return through `calibrate_gamma`,
    or tracking error (with L2 anchors) through `te_target_to_gamma`."""

    def __init__(self, seed, n, kind, general, metric):
        sigma, mu, strategic = universe(seed, n, kind)
        cons = constraints(n, general)
        self.sigma, self.mu, self.metric = sigma, mu, metric
        self.anchor = strategic if metric == "te" else np.zeros(n)
        self.inputs = MvoInputs(mu=mu, sigma=sigma)
        self.cons = cons
        self.config = RoboConfig(strategic=strategic, current=np.full(n, 1.0 / n),
                                 objective="tracking_error", rho2_strategic=0.02,
                                 rho2_turnover=0.01, constraints=cons)

    def solve(self, gamma, x0=None):
        """The route's solve at ``gamma``, started from ``x0`` (``None``: its
        own start, cold for `calibrate_gamma`, the current book for TE)."""
        if self.metric == "te":
            return rebalance(self.config, self.mu, self.sigma, gamma=gamma, warm=x0)
        return solve_gamma_problem(self.inputs, gamma, self.cons, x0=x0)

    def value(self, x):
        if self.metric == "return":
            return float(self.mu @ x)
        return tracking_error(x, self.anchor, self.sigma)

    def walk(self, target):
        if self.metric == "te":
            return te_target_to_gamma(self.config, self.mu, self.sigma, target)
        key = "target_return" if self.metric == "return" else "target_vol"
        return calibrate_gamma(self.inputs, self.cons, **{key: target})

    def bisection_raises(self, target):
        """Whether the doubling-and-bisection search, each sample started
        from the previous one, finds the target unreachable."""
        values, last = [], [None]

        def sample(gamma):
            rep = self.solve(gamma, last[0])
            last[0] = rep.weights
            values.append(self.value(rep.weights))
            return values[-1], rep

        try:
            gamma, _ = mvo.monotone_root(sample, target, _TOL)
        except TargetUnreachable:
            return True
        # a volatility or tracking-error target below the gamma-0 value is
        # unreachable; a return target there is met at gamma 0
        return self.metric != "return" and gamma == 0.0 and values[0] > target + _TOL

    def targets(self, rng):
        """A target inside the attainable range, one above it, one below
        it, and the value at one of the path's breakpoints short of the
        last.  The top of the range itself is left out: there the search's
        verdict turns on the last bits of its final sample."""
        low, high = (self.value(self.solve(g).weights) for g in (0.0, 1e5))
        inside = low + rng.uniform(0.1, 0.9) * (high - low)
        out = [inside, 1.5 * high + 0.01, 0.5 * low]
        try:
            history = self.walk(inside)[1].meta["calibration"]
        except TargetUnreachable:  # inside a jump of a singular covariance's path
            return out
        breakpoints = [v for g, v in history[1:-1] if g > 0.0 and v < high - 1e-9]
        if breakpoints:
            out.append(breakpoints[int(rng.integers(len(breakpoints)))])
        return out


CASES = [(seed, n, kind, general, metric)
         for seed, (n, kind) in enumerate((n, kind) for n in (5, 20, 40)
                                          for kind in ("full", "singular", "tied"))
         for general in (False, True)
         for metric in ("vol", "return", "te")]


@pytest.mark.parametrize("seed,n,kind,general,metric", CASES,
                         ids=[f"{n}-{kind}-{'general' if g else 'box'}-{m}"
                              for _, n, kind, g, m in CASES])
def test_walk_meets_target_like_a_cold_solve(seed, n, kind, general, metric):
    case = Case(seed, n, kind, general, metric)
    for target in case.targets(np.random.default_rng([12, seed, n])):
        expect_raise = case.bisection_raises(target)
        if expect_raise:
            with pytest.raises(TargetUnreachable):
                case.walk(target)
            continue
        gamma, rep = case.walk(target)
        reached = case.value(rep.weights)
        if gamma > 0.0:
            assert abs(reached - target) <= 1e-12 * abs(target)
        else:
            assert reached >= target - _TOL
        cold = case.solve(gamma)
        assert np.abs(rep.weights - cold.weights).max() <= 1e-9
        history = rep.meta["calibration"]
        assert all(b[0] >= a[0] for a, b in zip(history, history[1:]))
        if metric != "te":  # the L2 anchors can make the tracking error dip
            assert all(b[1] >= a[1] - 1e-9 for a, b in zip(history, history[1:]))
