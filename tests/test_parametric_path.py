"""Seeded property test of the gamma-path walk behind `calibrate_gamma` and
`te_target_to_gamma`, with and without L1 slots.

Each target is met to rounding, the answer is the cold solve at the gamma
returned, and a target is unreachable exactly where a doubling-and-
bisection search (`monotone_root`, the reference oracle below) finds it
so.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest

from roboalloc import admm, mvo, pipeline, qp
from roboalloc.errors import TargetUnreachable
from roboalloc.market_data import clip_psd
from roboalloc.mvo import (ConstraintSet, MvoInputs, calibrate_gamma, exact_problem,
                           solve_gamma_problem)
from roboalloc.pipeline import RoboConfig, rebalance, te_target_to_gamma, tracking_error

_TOL = 1e-6  # gamma 0 answers a target it reaches to within this
_GAMMA_CAP = 1e6


def monotone_root(sample, target, tol):
    """Reference search for the gamma at which a metric nondecreasing in it
    meets ``target``: gamma 0 when its value already reaches ``target -
    tol``, else bracketed by doubling from 1 up to ``_GAMMA_CAP`` and
    bisected until the value is within ``tol``.  ``sample(gamma)`` returns
    ``(value, report)``; returns ``(gamma, report)`` at the final gamma."""
    value, rep = sample(0.0)
    gamma = lo = 0.0
    if value < target - tol:
        hi = 1.0
        value, rep = sample(hi)
        while value < target:
            hi *= 2.0
            if hi > _GAMMA_CAP:
                raise TargetUnreachable(f"target {target} not bracketed")
            value, rep = sample(hi)
        gamma = hi
        for _ in range(100):
            if abs(value - target) <= tol:
                break
            gamma = 0.5 * (lo + hi)
            value, rep = sample(gamma)
            if value < target:
                lo = gamma
            else:
                hi = gamma
        else:
            raise TargetUnreachable("bisection did not reach the target tolerance")
    return gamma, rep


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
    or tracking error through `te_target_to_gamma` with L2 anchors
    (``te``), with both L1 slots as well (``te_l1``), and with a strategic
    L1 slot whose rows mix weights (``te_l1_mixed``: a seeded matrix of
    ``n`` rows, about half its entries zero, so the walk meets general rows
    joining and leaving their kinks)."""

    def __init__(self, seed, n, kind, general, metric):
        sigma, mu, strategic = universe(seed, n, kind)
        cons = constraints(n, general)
        self.sigma, self.mu, self.metric = sigma, mu, metric
        self.te = metric.startswith("te")
        self.anchor = strategic if self.te else np.zeros(n)
        self.inputs = MvoInputs(mu=mu, sigma=sigma)
        self.cons = cons
        l1 = {"rho1_strategic": 2e-3, "rho1_turnover": 1e-3} if "l1" in metric else {}
        if metric == "te_l1_mixed":
            rng = np.random.default_rng([13, seed, n])
            l1["gamma1_strategic"] = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5)
        self.config = RoboConfig(strategic=strategic, current=np.full(n, 1.0 / n),
                                 objective="tracking_error", rho2_strategic=0.02,
                                 rho2_turnover=0.01, constraints=cons, **l1)

    def solve(self, gamma, x0=None):
        """The route's solve at ``gamma``, started from ``x0`` (``None``: the
        solver's own cold start)."""
        if self.te:
            return rebalance(replace(self.config, gamma=gamma), self.mu, self.sigma, warm=x0)
        excess = self.inputs.excess
        return qp.solve_qp(exact_problem(self.sigma, gamma * excess, None, self.cons), x0=x0)

    def value(self, x):
        if self.metric == "return":
            return float(self.mu @ x)
        return tracking_error(x, self.anchor, self.sigma)

    def walk(self, target):
        if self.te:
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
            gamma, _ = monotone_root(sample, target, _TOL)
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
         for metric in ("vol", "return", "te", "te_l1", "te_l1_mixed")]


@pytest.mark.parametrize("seed,n,kind,general,metric", CASES,
                         ids=[f"{n}-{kind}-{'general' if g else 'box'}-{m}"
                              for _, n, kind, g, m in CASES])
def test_walk_meets_target_like_a_cold_solve(seed, n, kind, general, metric, monkeypatch):
    case = Case(seed, n, kind, general, metric)
    route = admm if case.te else mvo
    for target in case.targets(np.random.default_rng([12, seed, n])):
        expect_raise = case.bisection_raises(target)
        if expect_raise:
            with pytest.raises(TargetUnreachable):
                case.walk(target)
            continue
        with monkeypatch.context() as patch:
            solves, _ = counting(patch, route)
            gamma, rep = case.walk(target)
        reached = case.value(rep.weights)
        assert len(solves) == 1 and rep.converged
        if gamma > 0.0:  # the gamma-0 solve, and the answer read off the walk
            assert abs(reached - target) <= 1e-12 * abs(target)
            assert rep.iterations == 0 and rep.gamma == gamma
        else:
            assert reached >= target - _TOL
        cold = case.solve(gamma)
        assert np.abs(rep.weights - cold.weights).max() <= 1e-9
        history = rep.meta["calibration"]
        assert all(b[0] >= a[0] for a, b in zip(history, history[1:]))
        if not case.te:  # the L2 anchors can make the tracking error dip
            assert all(b[1] >= a[1] - 1e-9 for a, b in zip(history, history[1:]))


def test_walk_from_dependent_start_meets_target(monkeypatch):
    """A 12-weight book whose gamma-0 answer is its strategic book, on the
    budget row and the kinks of all 24 rows of a strategic L1 slot that
    mixes weights: the walk starts on a dependent working set.  It still
    meets the target with one solve, at the cold solve's weights."""
    n = 12
    sigma, mu, strategic = universe(22, n, "full")
    rng = np.random.default_rng([6, 22])
    current = rng.dirichlet(np.ones(n))
    gamma1 = rng.standard_normal((2 * n, n)) * (rng.random((2 * n, n)) < 0.5)
    config = RoboConfig(strategic=strategic, current=current, rho1_strategic=1e-3,
                        gamma1_strategic=gamma1, rho1_turnover=5e-4,
                        constraints=ConstraintSet(budget=1.0, lower=0.0, upper=2.5 / n))
    low, high = (tracking_error(rebalance(replace(config, gamma=g), mu, sigma).weights,
                                strategic, sigma) for g in (0.0, 1e4))
    assert low <= 1e-12
    target = low + 0.37 * (high - low)
    with monkeypatch.context() as patch:
        solves, _ = counting(patch, admm)
        gamma, rep = te_target_to_gamma(config, mu, sigma, target)
    assert abs(tracking_error(rep.weights, strategic, sigma) - target) <= 1e-12 * target
    assert len(solves) == 1 and rep.converged and rep.iterations == 0
    cold = rebalance(replace(config, gamma=gamma), mu, sigma)
    assert np.abs(rep.weights - cold.weights).max() <= 1e-9


def test_long_short_walk_meets_cold_solves_at_every_breakpoint():
    """A long-short book with a budget row, one inequality row and a box
    that is infinite on some sides (lower -inf on the first third of the
    weights, upper +inf on the last third): at each breakpoint of the walk,
    and at the end of each piece, the weights are the cold solve's at that
    gamma.  Weights walk toward their infinite bounds, whose ratios are +inf,
    and the inequality row joins the working set along the way."""
    n = 15
    sigma, mu, _ = universe(31, n, "full")
    lower, upper = np.full(n, -0.3), np.full(n, 0.4)
    lower[: n // 3], upper[-(n // 3):] = -np.inf, np.inf
    g = np.zeros((1, n))
    g[0, np.argsort(mu)[-5:]] = -1.0  # the five best returns hold at most 0.7
    rows = {"eq": (np.ones((1, n)), [1.0]), "ineq": (g, [-0.7]), "lower": lower,
            "upper": upper}
    problem = qp.QpProblem(Q=sigma, c=np.zeros(n), **rows)
    walk = list(qp.parametric_path(qp.solve_qp(problem), -mu))
    assert len(walk) > 5 and walk[-1][4] == np.inf
    toward_infinity, slack = False, []
    for t, x, dx, rate, length in walk:
        assert rate == 1.0
        ends = [(t, x)] + ([(t + length, x + length * dx)] if length < np.inf else [])
        for gamma, weights in ends:
            cold = qp.solve_qp(qp.QpProblem(Q=sigma, c=-gamma * mu, **rows))
            assert np.abs(weights - cold.weights).max() <= 1e-9
        toward_infinity |= bool((dx[np.isinf(lower)] < 0).any() or (dx[np.isinf(upper)] > 0).any())
        slack.append(g[0] @ x + 0.7)
    assert toward_infinity and slack[0] > 1e-3 and abs(slack[-1]) <= 1e-12


@pytest.mark.parametrize("route", ["calibrate_gamma", "te_target_to_gamma"])
def test_a_target_builds_one_problem_per_solve(route, monkeypatch):
    """On a budget-box book a target builds two ``QpProblem``s: the gamma-0
    solve's, whose report the walk reads it off, and the answer's."""
    n = 20
    sigma, mu, strategic = universe(33, n, "full")
    cons = constraints(n, False)
    if route == "calibrate_gamma":
        inputs = MvoInputs(mu=mu, sigma=sigma)

        def vol(gamma):
            x = solve_gamma_problem(inputs, gamma, cons).weights
            return float(np.sqrt(x @ sigma @ x))

        target = 0.5 * (vol(0.0) + vol(1e4))

        def run():
            return calibrate_gamma(inputs, cons, target_vol=target)
    else:
        config = RoboConfig(strategic=strategic, current=strategic, rho1_turnover=1e-3,
                            constraints=cons)
        high = rebalance(replace(config, gamma=1e4), mu, sigma).weights
        target = 0.5 * tracking_error(high, strategic, sigma)

        def run():
            return te_target_to_gamma(config, mu, sigma, target)
    builds, init = [], qp.QpProblem.__post_init__

    def counted(self):
        builds.append(self)
        init(self)

    monkeypatch.setattr(qp.QpProblem, "__post_init__", counted)
    gamma, rep = run()
    assert gamma > 0.0 and len(rep.meta["calibration"]) > 2
    assert len(builds) == 2 and rep.meta["working_set"][0] is builds[1]


@pytest.mark.parametrize("metric", ["vol", "return"])
def test_calibration_history_is_the_metric_at_each_piece(metric):
    """``path_root``'s ``meta['calibration']`` holds, bit for bit, the metric
    at gamma 0 and at each breakpoint of the walk, as recomputed from
    ``parametric_path``'s pieces."""
    n = 40
    sigma, mu, _ = universe(32, n, "full")
    inputs, cons = MvoInputs(mu=mu, sigma=sigma), constraints(n, False)

    def value(x):
        return float(mu @ x) if metric == "return" else float(np.sqrt(x @ sigma @ x))

    low, high = (value(solve_gamma_problem(inputs, g, cons).weights) for g in (0.0, 1e5))
    target = low + 0.6 * (high - low)
    key = "target_return" if metric == "return" else "target_vol"
    gamma, rep = calibrate_gamma(inputs, cons, **{key: target})
    history = rep.meta["calibration"]
    start = solve_gamma_problem(inputs, 0.0, cons)
    pieces = qp.parametric_path(start, -mu)
    walked = [(t, value(x)) for (t, x, _, _, _), _ in zip(pieces, history[:-1])]
    assert len(history) > 5 and gamma > 0.0
    assert history[:-1] == [(0.0, value(start.weights))] + walked[1:]
    assert history[-1] == (gamma, value(rep.weights))


def walk_events(case, monkeypatch, refuse):
    """The whole walk from the case's gamma-0 answer, as its pieces
    ``(t, x, dx, rate, length)`` and its pivots ``('pivot', rank)`` in the
    order they happen.  With ``refuse`` every update of the walk's factor is
    refused, so every piece goes through ``_kkt``."""
    start = case.solve(0.0)
    slope = -case.mu if case.te else -case.inputs.excess
    events, pivot = [], qp._pivot

    def recorded(ranks, *args, **kwargs):
        events.append(("pivot", int(ranks[0])))
        return pivot(ranks, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(qp, "_pivot", recorded)
        if refuse:
            patch.setattr(qp._WalkFactor, "update", lambda self, on: False)
        for piece in qp.parametric_path(start, slope):
            events.append(piece)
    return events


def close(a, b):
    """Equal within 1e-10 relative to ``max(1, |b|)``, infinities alike."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    inf = np.isinf(b)
    if not np.array_equal(np.isinf(a), inf) or (a[inf] != b[inf]).any():
        return False
    a, b = a[~inf], b[~inf]
    return bool(np.abs(a - b).max(initial=0.0) <= 1e-10 * max(1.0, np.abs(b).max(initial=0.0)))


@pytest.mark.parametrize("seed,n,kind,general,metric", CASES,
                         ids=[f"{n}-{kind}-{'general' if g else 'box'}-{m}"
                              for _, n, kind, g, m in CASES])
def test_updated_factor_walks_as_kkt_does(seed, n, kind, general, metric, monkeypatch):
    """The walk on its updated factor and the walk with every piece through
    ``_kkt`` agree piece by piece: the same pieces, each of ``t``, ``x``,
    ``dx`` and ``length`` within 1e-10, and the same pivot ranks.  Where
    two events tie to rounding, the ratio test's choice among them rests on
    the last bits of ``x``, which the two solves round differently: there
    the walks agree up to the tie, whose piece ends at the same length in
    both, and part after it (two of these cases do, with OpenBLAS on
    x86-64: ``20-tied-box-te_l1_mixed`` and ``20-singular-general-te_l1_mixed``)."""
    case = Case(seed, n, kind, general, metric)
    ours, kkt = (walk_events(case, monkeypatch, refuse) for refuse in (False, True))
    previous = None
    for a, b in zip(ours, kkt):
        assert (a[0] == "pivot") == (b[0] == "pivot")
        if a[0] == "pivot":
            if a != b:  # a tie: the piece before it agreed, length included
                assert previous is not None and previous[0] != "pivot" and previous[4] < np.inf
                return
        else:
            assert a[3] == b[3] and all(close(u, v) for u, v in zip(a, b))
        previous = a
    assert len(ours) == len(kkt)


def test_weights_leave_both_bounds_as_kkt_walks(monkeypatch):
    """On a walk in which weights leave their lower bound (6, then 2) and
    their upper bound (3) mid-walk, each by a bordering update (``_join``)
    of the factor, the walk and the one whose every factor update is
    refused agree: the same pivot ranks, and each piece's ``t``, ``x``,
    ``dx`` and ``length`` within 1e-12."""
    case, n, left, joined = Case(5, 8, "full", False, "vol"), 8, [], []
    pivot, join = qp._pivot, qp._WalkFactor._join

    def recorded(ranks, at, *args, **kwargs):
        left.append((int(ranks[0]), int(at[ranks[0] % n])))  # the weight's state before
        return pivot(ranks, at, *args, **kwargs)

    def counted(self, i):
        joined.append(i)
        return join(self, i)

    monkeypatch.setattr(qp, "_pivot", recorded)
    monkeypatch.setattr(qp._WalkFactor, "_join", counted)
    ours = walk_events(case, monkeypatch, refuse=False)
    rises = [r for r, state in left if r < n and state == qp._LOWER]
    falls = [r - n for r, state in left if n <= r < 2 * n and state == qp._UPPER]
    assert rises == [6, 2] and falls == [3] and set(rises + falls) <= set(joined)
    kkt = walk_events(case, monkeypatch, refuse=True)
    assert len(ours) == len(kkt) and ours[-1][4] == np.inf
    for a, b in zip(ours, kkt):
        if a[0] == "pivot":
            assert a == b
        else:
            assert a[3] == b[3]
            for u, v in zip(a[:5], b[:5]):
                np.testing.assert_allclose(u, v, rtol=1e-12, atol=1e-12)


def test_box_walk_updates_one_factor(monkeypatch):
    """A 45-piece walk of a 40-weight budget-and-box book factors its
    matrix once, at the first piece, and then only updates it: weights are
    fixed (downdates) and freed (bordering updates), and no piece calls
    ``_kkt``."""
    sigma, mu, _ = universe(4, 40, "full")
    start = solve_gamma_problem(MvoInputs(mu=mu, sigma=sigma), 0.0, constraints(40, False))
    counts = {"_factor": 0, "_join": 0, "_leave": 0, "_kkt": 0}

    def counted(name, function):
        def call(*args):
            counts[name] += 1
            return function(*args)
        return call

    monkeypatch.setattr(qp, "_kkt", counted("_kkt", qp._kkt))
    for name in ("_factor", "_join", "_leave"):
        monkeypatch.setattr(qp._WalkFactor, name, counted(name, getattr(qp._WalkFactor, name)))
    pieces = []
    for piece in qp.parametric_path(start, -mu):
        pieces.append(piece)
        if len(pieces) == 1:
            assert counts["_factor"] == 1
    assert len(pieces) >= 20 and pieces[-1][4] == np.inf
    assert counts["_factor"] == 1 and counts["_kkt"] == 0
    assert counts["_join"] >= 1 and counts["_leave"] >= 1


def test_singular_walk_refreshes_through_kkt_and_meets_target(monkeypatch):
    """On a covariance of rank 20 the walk from gamma 0 first moves at fixed
    gamma along zero curvature: the walk's factor is refused there (its LU's
    pivot or its drift), those pieces go through ``_kkt``, whose least squares
    answers them, and the target is still met with one solve, at the cold
    solve's weights."""
    case = Case(7, 40, "singular", False, "vol")
    low, high = (case.value(case.solve(g).weights) for g in (0.0, 1e5))
    target = low + 0.5 * (high - low)
    kkt, walked = qp._kkt, []

    def counted(*args):
        out = kkt(*args)
        if sys._getframe(1).f_code.co_name == "parametric_path":
            walked.append(out[3] is not None)  # whether the LU refused and the SVD answered
        return out

    solves, _ = counting(monkeypatch, mvo)
    monkeypatch.setattr(qp, "_kkt", counted)
    gamma, rep = case.walk(target)
    assert gamma > 0.0 and any(walked) and len(solves) == 1 and rep.converged
    assert abs(case.value(rep.weights) - target) <= 1e-12 * target
    assert np.abs(rep.weights - case.solve(gamma).weights).max() <= 1e-9


def test_singular_walk_refactors_only_after_an_lu_piece(monkeypatch):
    """On the same rank-20 walk, from gamma 0 to its end, a refused factor
    is not retried while ``_kkt`` needs its SVD, only after a piece that
    ``_kkt``'s LU solved: 8 factorizations over its 67 pieces, 7 of them
    refused, one more than the 7 pieces of its 29 through ``_kkt`` that the
    LU solved, and the target is still met with one solve, at the cold
    solve's weights."""
    case = Case(7, 40, "singular", False, "vol")
    factor, factors, kkt, walked = qp._WalkFactor._factor, [], qp._kkt, []

    def counted(self, on):
        factors.append(factor(self, on))
        return factors[-1]

    def counted_kkt(*args):
        out = kkt(*args)
        if sys._getframe(1).f_code.co_name == "parametric_path":
            walked.append(out[3] is not None)  # whether the LU refused and the SVD answered
        return out

    start = case.solve(0.0)
    monkeypatch.setattr(qp._WalkFactor, "_factor", counted)
    monkeypatch.setattr(qp, "_kkt", counted_kkt)
    pieces = list(qp.parametric_path(start, -case.inputs.excess))
    assert len(pieces) == 67 and pieces[-1][4] == np.inf
    assert len(factors) <= 8 and not all(factors)
    assert factors.count(False) == 7 and (len(walked), sum(walked)) == (29, 22)
    assert len(factors) <= 1 + walked.count(False)
    monkeypatch.undo()
    low, high = (case.value(case.solve(g).weights) for g in (0.0, 1e5))
    target = low + 0.5 * (high - low)
    starts, _ = counting(monkeypatch, mvo)
    gamma, rep = case.walk(target)
    assert gamma > 0.0 and len(starts) == 1 and rep.converged
    assert abs(case.value(rep.weights) - target) <= 1e-12 * target
    assert np.abs(rep.weights - case.solve(gamma).weights).max() <= 1e-9


def counting(monkeypatch, *modules):
    """Patch the ``solve_qp`` of each of ``modules`` and of ``qp``, where
    ``_Piece.report`` solves, to record each call's start and report;
    returns ``(starts, answers)``."""
    starts, answers, solve = [], [], qp.solve_qp

    def counted(problem, x0=None):
        starts.append(x0)
        answers.append(solve(problem, x0=x0))
        return answers[-1]

    for module in (*modules, qp):
        monkeypatch.setattr(module, "solve_qp", counted)
    return starts, answers


def assert_like(rep, cold):
    """Weights, every dual block and the objective within 1e-10."""
    assert np.abs(rep.weights - cold.weights).max() <= 1e-10
    for key in ("eq", "ineq", "lower", "upper"):
        assert np.abs(rep.duals[key] - cold.duals[key]).max(initial=0.0) <= 1e-10
    assert abs(rep.objective - cold.objective) <= 1e-10


def test_te_read_off_at_kinks_and_an_active_row_is_rebalance(monkeypatch):
    """A TE target on a book with both L1 slots and the inequality row
    ``x_a + x_b + x_c <= cap`` over the three best returns: at the crossing
    three weights sit at their kinks and the row is active.  The answer,
    read off the walk's piece with no second solve, is certified and
    carries the weights, duals and objective of ``rebalance`` at its gamma."""
    n = 12
    sigma, mu, strategic = universe(41, n, "full")
    current = np.random.default_rng([7, 41]).dirichlet(np.ones(n))
    g = np.zeros((1, n))
    top = np.argsort(mu)[-3:]
    g[0, top] = -1.0
    cap = strategic[top].sum() + 0.05
    config = RoboConfig(strategic=strategic, current=current, rho1_strategic=2e-3,
                        rho1_turnover=1e-3, constraints=ConstraintSet(
                            budget=1.0, lower=0.0, upper=0.3, ineq=(g, [-cap])))
    low, high = (tracking_error(rebalance(replace(config, gamma=gamma), mu, sigma).weights,
                                strategic, sigma) for gamma in (0.0, 1e3))
    target = 0.5 * (low + high)
    with monkeypatch.context() as patch:
        starts, _ = counting(patch, admm)
        gamma, rep = te_target_to_gamma(config, mu, sigma, target)
    _, at, _ = rep.meta["working_set"]
    assert len(starts) == 1 and rep.converged and rep.iterations == 0 and gamma > 0.0
    assert (at == qp._KINK).sum() >= 3 and rep.duals["ineq"][0] > 1e-3
    assert abs(g[0] @ rep.weights + cap) <= 1e-12
    assert abs(tracking_error(rep.weights, strategic, sigma) - target) <= 1e-12 * target
    assert_like(rep, rebalance(replace(config, gamma=gamma), mu, sigma))


@pytest.mark.parametrize("metric", ["vol", "te_l1"])
def test_target_at_a_breakpoint_is_read_off(metric, monkeypatch):
    """A target set at the value of one of the walk's breakpoints is met at
    that breakpoint's gamma, where two working sets hold, and read off the
    walk like any other: certified, one solve, the cold solve's answer."""
    case = Case(9, 20, "full", True, metric)
    low, high = (case.value(case.solve(g).weights) for g in (0.0, 1e5))
    history = case.walk(low + 0.8 * (high - low))[1].meta["calibration"]
    breakpoint_gamma, target = history[len(history) // 2]
    assert 0.0 < breakpoint_gamma < history[-1][0]
    with monkeypatch.context() as patch:
        starts, _ = counting(patch, admm if case.te else mvo)
        gamma, rep = case.walk(target)
    assert len(starts) == 1 and rep.converged and rep.iterations == 0
    assert gamma == pytest.approx(breakpoint_gamma, rel=1e-9, abs=0.0)
    assert abs(case.value(rep.weights) - target) <= 1e-12 * target
    assert_like(rep, case.solve(gamma))


def test_walk_from_a_calibrated_report_continues_the_path():
    """The read-off's ``meta['working_set']`` starts a walk as a solve's
    does: from a calibrated report, the path onward is the cold solves' at
    the calibrated gamma plus ``t``, at each piece's ends and read off in
    its middle."""
    case = Case(5, 20, "full", True, "vol")
    low, high = (case.value(case.solve(g).weights) for g in (0.0, 1e5))
    gamma, rep = case.walk(low + 0.4 * (high - low))
    assert rep.iterations == 0 and gamma > 0.0
    pieces = 0
    for piece in qp.parametric_path(rep, -case.inputs.excess):
        t, x, dx, rate, length = piece
        assert rate == 1.0
        cold = case.solve(gamma + t)
        assert np.abs(x - cold.weights).max() <= 1e-10
        middle = 0.5 * length if length < np.inf else 1.0
        assert_like(piece.report(middle), case.solve(gamma + t + middle))
        pieces += 1
        if pieces == 4 or length == np.inf:
            break
    assert pieces == 4


def test_uncertified_read_off_takes_the_fallback_solve(monkeypatch):
    """A read-off whose certificate fails (here its budget multiplier is
    moved by 1e-3) is not the answer: ``_Piece.report`` makes one solve at
    the crossing's gamma, started from the walk's point, and that gives it."""
    case = Case(3, 20, "full", False, "vol")
    low, high = (case.value(case.solve(g).weights) for g in (0.0, 1e5))
    target = low + 0.5 * (high - low)
    report, read_off = qp._report, []

    def moved(problem, x, at, side, iterations, nu, mu):
        if iterations:
            return report(problem, x, at, side, iterations, nu, mu)
        read_off.append(report(problem, x, at, side, iterations, nu + 1e-3, mu))
        return read_off[-1]

    with monkeypatch.context() as patch:
        patch.setattr(qp, "_report", moved)
        starts, answers = counting(patch, mvo)
        gamma, rep = case.walk(target)
    assert [r.status for r in read_off] == ["uncertified"]
    assert len(starts) == 2 and starts[0] is None and rep is answers[1]
    assert np.abs(starts[1] - read_off[0].weights).max() <= 1e-15
    assert rep.converged and abs(case.value(rep.weights) - target) <= 1e-12 * target
    assert_like(rep, case.solve(gamma))


@pytest.mark.parametrize("read_off", ["none", "uncertified"])
@pytest.mark.parametrize("metric", ["vol", "te_l1"])
def test_fallback_solves_the_walks_problem_from_its_point(metric, read_off, monkeypatch):
    """Where a piece has no read-off (no multipliers, as on a move at fixed
    gamma) or its read-off is not ``converged``, ``_Piece.report`` solves
    the walk's own problem at the crossing's gamma once, started from the
    walk's point, and calls back into no route: on a volatility target and
    on a TE target with L1 rows the answer is the cold solve's at that
    gamma, and the TE report's objective is ``rebalance``'s."""
    case = Case(3, 20, "full", False, metric)
    low, high = (case.value(case.solve(g).weights) for g in (0.0, 1e5))
    target = low + 0.5 * (high - low)
    answer, report, walk, points = qp._Piece.report, qp._report, qp.parametric_path, []

    def spied(piece, s):  # records the walk's point and answers unchanged
        points.append(piece[1] + s * piece[2])
        return answer(piece, s)

    def uncertified(*args):
        rep = report(*args)
        if not rep.iterations:
            rep.status = "uncertified"
        return rep

    def without_multipliers(start, slope):
        for piece in walk(start, slope):
            yield qp._Piece(piece, piece._problem, piece._slope, None)

    with monkeypatch.context() as patch:
        patch.setattr(qp._Piece, "report", spied)
        if read_off == "none":
            patch.setattr(mvo, "parametric_path", without_multipliers)
        else:
            patch.setattr(qp, "_report", uncertified)
        starts, answers = counting(patch, mvo, admm)  # admm: the TE route's gamma-0 solve
        rebalances = []
        patch.setattr(pipeline, "rebalance", lambda *a, **k: rebalances.append(a) or
                      rebalance(*a, **k))
        gamma, rep = case.walk(target)
    assert len(points) == 1 and len(starts) == 2 and starts[0] is None
    assert np.array_equal(starts[1], points[0]) and rep is answers[1]
    assert len(rebalances) == (1 if case.te else 0)
    assert rep.converged and gamma > 0.0 and rep.gamma == gamma
    assert abs(case.value(rep.weights) - target) <= 1e-12 * target
    assert_like(rep, case.solve(gamma))


def answer_key(rep):
    """A report's weights, duals, status and working set, as bytes."""
    problem, at, side = rep.meta["working_set"]
    arrays = [rep.weights, problem.c, at, side] + [rep.duals[k] for k in sorted(rep.duals)]
    return rep.status, [a.tobytes() for a in arrays]


def test_piece_answers_the_same_after_the_walk_moves_on():
    """A segment read after the walk has moved on gives the answer it gave
    on the spot: weights, duals, status and ``meta['working_set']``.  Twenty
    seeded 12-weight walks on the budget and the box [0, 0.3], with four L1
    rows ``e_i + e_(i+4)`` at 0.1 (rho 0.002) whose sides change along the
    way, are read in the middle of each of their first six segments, on the
    spot and again once the walk has ended."""
    n, g = 12, np.zeros((4, 12))
    g[np.arange(4), np.arange(4)] = g[np.arange(4), np.arange(4) + 4] = 1.0
    checked = 0
    for seed in range(20):
        sigma, mu, _ = universe(50 + seed, n, "full")
        problem = qp.QpProblem(Q=sigma, c=np.zeros(n), eq=(np.ones((1, n)), [1.0]),
                               lower=0.0, upper=0.3, l1=(g, np.full(4, 0.1), 0.002))
        segments, on_the_spot = [], []
        for piece in qp.parametric_path(qp.solve_qp(problem), -mu):  # to its end
            if piece[3] and piece[4] < np.inf and len(segments) < 6:
                segments.append((piece, 0.5 * piece[4]))
                on_the_spot.append(answer_key(piece.report(0.5 * piece[4])))
        assert len(segments) == 6
        for (piece, middle), spot in zip(segments, on_the_spot):
            assert answer_key(piece.report(middle)) == spot
            checked += 1
    assert checked == 120


def test_refused_factor_update_goes_through_kkt_and_meets_target(monkeypatch):
    """Where a rank-one update of the walk's factor is refused (here the
    first ``_join`` or ``_leave`` of the walk), the inverse is dropped, that
    piece goes through ``_kkt``, the next refactors, and the target is still
    met, at the cold solve's weights within 1e-10."""
    case = Case(5, 20, "full", True, "vol")
    low, high = (case.value(case.solve(g).weights) for g in (0.0, 1e5))
    target = low + 0.9 * (high - low)
    events, kkt, factor = [], qp._kkt, qp._WalkFactor._factor

    def refusing(name):
        update = getattr(qp._WalkFactor, name)

        def call(self, i):
            if "refused" in events:
                return update(self, i)
            events.append("refused")
            return False
        return call

    def counted_kkt(*args):
        if sys._getframe(1).f_code.co_name == "parametric_path":
            events.append("kkt")
        return kkt(*args)

    def counted_factor(self, on):
        events.append("factor")
        return factor(self, on)

    with monkeypatch.context() as patch:
        for name in ("_join", "_leave"):
            patch.setattr(qp._WalkFactor, name, refusing(name))
        patch.setattr(qp, "_kkt", counted_kkt)
        patch.setattr(qp._WalkFactor, "_factor", counted_factor)
        gamma, rep = case.walk(target)
    refused = events.index("refused")
    assert events[:refused] == ["factor"] and events[refused + 1:refused + 3] == ["kkt", "factor"]
    assert rep.converged and gamma > 0.0
    assert abs(case.value(rep.weights) - target) <= 1e-12 * target
    assert np.abs(rep.weights - case.solve(gamma).weights).max() <= 1e-10
