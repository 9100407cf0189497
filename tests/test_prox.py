import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

from roboalloc import errors
from roboalloc.prox import (
    AffineSet,
    Box,
    Halfspace,
    Hyperplane,
    Intersection,
    L1Ball,
    L2Ball,
    LinfBall,
    Simplex,
    project,
    project_cardinality,
    project_hyperplane_intersection,
    prox_l1,
    prox_lp,
    prox_norm_moreau,
)

vec3 = arrays(np.float64, 3, elements=st.floats(-5, 5, allow_nan=False))


def random_candidate_oracle(v, region, objective=None, draws=100_000, seed=0):
    """Best of many random feasible candidates, as a lower-bound check."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-3, 3, size=(draws, v.size))
    pts = np.array([region.project(p) for p in pts[:200]] + [region.project(v)])
    if objective is None:
        vals = ((pts - v) ** 2).sum(axis=1)
    else:
        vals = np.array([objective(p) for p in pts])
    return pts[vals.argmin()], vals.min()


def scalar_power_root(w, lam, p, tol=1e-12):
    """Positive root of ``lam x^(p-1) + x = w`` for one ``w >= 0``: Newton
    from ``x = w`` with a bisection safeguard for ``p >= 2``, bisection on
    ``[0, w]`` below, each stopping at a residual of ``tol``."""
    if w == 0.0 or lam == 0.0:
        return w
    lo, hi = 0.0, w
    if p >= 2.0:
        x = w
        for _ in range(100):
            g = lam * x ** (p - 1.0) + x - w
            if abs(g) <= tol:
                return x
            lo, hi = (lo, x) if g > 0 else (x, hi)
            x_new = x - g / (lam * (p - 1.0) * x ** (p - 2.0) + 1.0)
            x = x_new if lo < x_new < hi else 0.5 * (lo + hi)
    for _ in range(200):
        x = 0.5 * (lo + hi)
        g = lam * x ** (p - 1.0) + x - w
        if abs(g) <= tol:
            return x
        lo, hi = (lo, x) if g > 0 else (x, hi)
    return 0.5 * (lo + hi)


def brute_force_projection(v, a, b, lo, up):
    """Nearest point of ``{a'x = b, lo <= x <= up}`` over every pattern of
    weights held at a finite bound or free, the free ones moved along ``a``
    onto the level; ``None`` when no pattern is feasible."""
    best, best_val = None, np.inf
    tol = 1e-12 * max(1.0, np.abs(v).max(), abs(b))
    for pattern in itertools.product((None, 0, 1), repeat=v.size):
        bounds = [(lo, up)[p][i] for i, p in enumerate(pattern) if p is not None]
        if not np.isfinite(bounds).all():
            continue
        x = np.array([v[i] if p is None else (lo, up)[p][i] for i, p in enumerate(pattern)])
        free = np.array([p is None for p in pattern])
        if a[free] @ a[free] > 0.0:
            x[free] -= (a @ x - b) / (a[free] @ a[free]) * a[free]
        if abs(a @ x - b) > tol or (x < lo - tol).any() or (x > up + tol).any():
            continue
        val = ((x - v) ** 2).sum()
        if val < best_val:
            best, best_val = x, val
    return best


def brent_projection(v, a, b, box):
    """The breakpoint search's reference: Brent's root of the gap ``a'P(v -
    lam a) - b`` in a bracket doubled from ``lam = 0``, then the same level
    check."""
    def gap(lam):
        return float(a @ box.project(v - lam * a) - b)

    g0 = gap(0.0)
    if abs(g0) <= 1e-14:
        return box.project(v)
    (lo, hi), width = ((0.0, 1.0) if g0 > 0 else (-1.0, 0.0)), 1.0
    while gap(hi) > 0 if g0 > 0 else gap(lo) < 0:
        width *= 2.0
        if width > 1e12:
            raise errors.EmptyIntersection("bracket")
        lo, hi = (hi, hi + width) if g0 > 0 else (lo - width, lo)
    x = box.project(v - brentq(gap, lo, hi, xtol=1e-15, maxiter=300) * a)
    if abs(a @ x - b) > 1e-10 * max(1.0, abs(b)):
        raise errors.EmptyIntersection("level")
    return x


def box_case(rng, n, scale):
    """``v``, ``a`` and box bounds on coarse grids, so that breakpoints repeat:
    ``a`` of mixed signs with zeros, some boxes of zero width and, below
    ``|v|`` of 1e6, some bounds infinite on one side or both."""
    a = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], n) if rng.random() < 0.5 \
        else rng.normal(size=n)
    lo = rng.integers(-3, 1, n) / 2.0
    up = lo + rng.integers(0, 4, n) / 2.0
    if scale < 1e6:
        lo[rng.random(n) < 0.2] = -np.inf
        up[rng.random(n) < 0.2] = np.inf
    v = scale * (rng.integers(-8, 9, n) / 4.0 if rng.random() < 0.5 else rng.normal(size=n))
    return v, a, lo, up


def reachable_range(a, lo, up):
    """``[sum min a_i x_i, sum max a_i x_i]`` over the box."""
    nz = a != 0.0
    return ((a[nz] * np.where(a[nz] > 0, lo[nz], up[nz])).sum(),
            (a[nz] * np.where(a[nz] > 0, up[nz], lo[nz])).sum())


def case_level(rng, a, lo, up):
    """A level inside the reachable range, on a half-integer grid (often the
    gap's value at a breakpoint), or beyond the range's finite end."""
    low, high = reachable_range(a, lo, up)
    draw = rng.random()
    if draw < 0.6 and np.isfinite(low) and np.isfinite(high):
        return low + rng.random() * (high - low)
    if draw < 0.8 or not np.isfinite(high) and not np.isfinite(low):
        return rng.integers(-12, 13) / 2.0
    return high + 1.0 if np.isfinite(high) else low - 1.0


class TestProxL1:
    def test_soft_threshold_spot_values(self):
        assert np.allclose(prox_l1(np.array([2.0, -0.5]), 1.0), [1.0, 0.0])

    def test_zero_penalty_identity(self):
        v = np.array([0.3, -0.7, 2.0])
        assert np.array_equal(prox_l1(v, 0.0), v)

    def test_grid_oracle_componentwise(self):
        rng = np.random.default_rng(0)
        grid = np.linspace(-6, 6, 120001)  # 1e-4 spacing
        for _ in range(5):
            v = rng.uniform(-4, 4, size=4)
            lam = rng.random() * 2
            out = prox_l1(v, lam)
            for i in range(4):
                vals = lam * np.abs(grid) + 0.5 * (grid - v[i]) ** 2
                assert abs(grid[vals.argmin()] - out[i]) <= 1e-4


class TestProxLp:
    def test_quadratic_halving(self):
        assert prox_lp(np.array([2.0]), 1.0, 2.0)[0] == pytest.approx(1.0)

    def test_cubic_closed_form(self):
        # solves x^2 + x = 2
        assert prox_lp(np.array([2.0]), 1.0, 3.0)[0] == pytest.approx(1.0, abs=1e-12)

    def test_higher_order_residual(self):
        out = prox_lp(np.array([1.3]), 0.7, 6.0)[0]
        assert abs(0.7 * out ** 5 + out - 1.3) <= 1e-12

    def test_rejects_sparsifying_orders(self):
        with pytest.raises(errors.NonConvexOrder):
            prox_lp(np.ones(2), 0.5, 0.5)

    def test_routes_p1_to_soft_threshold(self):
        v = np.array([2.0, -0.5, 0.2])
        assert np.allclose(prox_lp(v, 1.0, 1.0), prox_l1(v, 1.0))

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0, 4.0, 5.0])
    def test_first_order_conditions(self, p):
        rng = np.random.default_rng(int(p * 10))
        v = rng.uniform(-3, 3, size=6)
        lam = 0.8
        x = prox_lp(v, lam, p)
        resid = lam * np.sign(x) * np.abs(x) ** (p - 1.0) + x - v
        assert np.abs(resid).max() <= 1e-11

    @settings(max_examples=40, deadline=None)
    @given(vec3, vec3, st.floats(0.01, 3.0), st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, 6.0]))
    def test_nonexpansive_and_odd(self, u, v, lam, p):
        pu, pv = prox_lp(u, lam, p), prox_lp(v, lam, p)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12
        assert np.allclose(prox_lp(-v, lam, p), -pv, atol=1e-12)

    @pytest.mark.parametrize("p", [1.1, 1.25, 1.5, 2.5, 4.0, 7.0])
    def test_matches_scalar_root(self, p):
        # both stop at a residual of 1e-12 and the residual's slope is at
        # least 1, so each is within 1e-12 of the root
        rng = np.random.default_rng(int(p * 100))
        for lam in np.geomspace(1e-4, 10.0, 11):
            v = rng.normal(scale=2.0, size=200)
            v[:3] = [0.0, 1e-9, -5.0]
            ref = np.sign(v) * np.array([scalar_power_root(abs(w), lam, p) for w in v])
            assert np.abs(prox_lp(v, lam, p) - ref).max() <= 2.5e-12

    def test_monotone_componentwise(self):
        grid = np.linspace(-4, 4, 200)
        for p in (1.0, 1.5, 2.0, 3.0, 5.0):
            vals = prox_lp(grid, 0.9, p)
            assert np.all(np.diff(vals) >= -1e-12)


class TestProjections:
    def test_hyperplane_symmetry(self):
        out = project(np.array([1.0, 1.0]), Hyperplane(np.ones(2), 1.0))
        assert np.allclose(out, [0.5, 0.5], atol=1e-15)

    def test_l2_ball_radial(self):
        out = project(np.array([3.0, 0.0]), L2Ball(1.0))
        assert np.allclose(out, [1.0, 0.0], atol=1e-15)

    def test_l1_ball_matches_dual_bisection(self):
        v = np.array([0.9, 0.6, -0.3])
        out = project(v, L1Ball(1.0))
        assert np.abs(out).sum() == pytest.approx(1.0, abs=1e-10)
        # bisection oracle on the shrink level
        lo, hi = 0.0, np.abs(v).max()
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.maximum(np.abs(v) - mid, 0.0).sum() > 1.0:
                lo = mid
            else:
                hi = mid
        oracle = np.sign(v) * np.maximum(np.abs(v) - hi, 0.0)
        assert np.allclose(out, oracle, atol=1e-10)

    def test_affine_inconsistent(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(errors.EmptySet):
            project(np.zeros(2), AffineSet(a, np.array([0.0, 1.0])))

    def test_affine_projection_exact(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(2, 4))
        b = a @ rng.normal(size=4)
        v = rng.normal(size=4)
        out = project(v, AffineSet(a, b))
        assert np.abs(a @ out - b).max() <= 1e-10
        # least-norm correction: residual orthogonal to the row space
        assert np.abs(a @ (v - out) - (a @ v - b)).max() <= 1e-10

    def test_box_and_linf(self):
        v = np.array([2.0, -3.0, 0.1])
        assert np.allclose(project(v, Box(-1.0, 1.0)), [1.0, -1.0, 0.1])
        assert np.allclose(project(v, LinfBall(1.0)), [1.0, -1.0, 0.1])

    def test_box_matches_clip(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            v = rng.normal(size=50)
            lower = np.where(rng.random(50) < 0.2, -np.inf, rng.normal(size=50) - 0.5)
            upper = np.where(rng.random(50) < 0.2, np.inf, lower + rng.random(50))
            for box in (Box(lower, upper), Box(-0.3, 0.4), Box()):
                assert np.array_equal(project(v, box), np.clip(v, box.lower, box.upper))
        v = np.array([np.nan, 2.0])
        assert np.array_equal(Box(0.0, 1.0).project(v), [np.nan, 1.0], equal_nan=True)

    def test_empty_box_raises(self):
        with pytest.raises(errors.EmptySet):
            Box([1, 0], [0, 1])
        with pytest.raises(errors.EmptySet):
            Box(0.5, 0.2)
        # within QpProblem's slack of 1e-15 the box is a point, as there
        assert np.array_equal(Box(1.0, 1.0 - 1e-16).project([0.0, 2.0]), [1.0 - 1e-16] * 2)

    def test_simplex_sorted_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            v = rng.normal(size=5)
            out = project(v, Simplex(1.0))
            assert out.min() >= -1e-15
            assert out.sum() == pytest.approx(1.0, abs=1e-12)
            # KKT oracle through the hyperplane-intersection route
            alt = project_hyperplane_intersection(v, np.ones(5), 1.0, Box(0.0, np.inf))
            assert np.allclose(out, alt, atol=1e-9)

    @pytest.mark.parametrize("region", [Simplex, L1Ball, L2Ball, LinfBall])
    def test_zero_and_negative_radius(self, region):
        # a zero budget or radius leaves the set {0}; a negative one leaves it empty
        v = np.array([0.3, -2.0, 0.0])
        assert np.array_equal(region(0.0).project(v), np.zeros(3))
        assert np.array_equal(region(0.0).project(np.zeros(3)), np.zeros(3))
        for w in (v, np.zeros(3)):
            with pytest.raises(errors.EmptySet):
                region(-1.0).project(w)

    @pytest.mark.parametrize("region,b,holds", [
        (Hyperplane, 0.0, True), (Hyperplane, 1.0, False), (Hyperplane, -1.0, False),
        (Halfspace, 0.0, True), (Halfspace, 1.0, True), (Halfspace, -1.0, False)])
    def test_zero_normal(self, region, b, holds):
        # {x : 0'x = b} and {x : 0'x <= b} are all of space where the level
        # holds, and empty otherwise
        v = np.array([0.3, -2.0])
        if holds:
            out = region(np.zeros(2), b).project(v)
            assert np.array_equal(out, v) and out is not v
        else:
            with pytest.raises(errors.EmptySet):
                region(np.zeros(2), b).project(v)

    def test_halfspace_inactive_is_identity(self):
        v = np.array([0.1, 0.2])
        out = project(v, Halfspace(np.ones(2), 1.0))
        assert np.array_equal(out, v)

    def test_intersection_runs_through_a_stall(self):
        # the box sends v to (0, 0) and the halfspace x0 + x1 >= 0.1 lifts it
        # to (0.05, 0.05), where the next sweeps leave it while the box's
        # increment still moves; the projection is the corner (0, 0.1)
        sets = (Box(0.0, 0.3), Halfspace(np.array([-1.0, -1.0]), -0.1))
        out = project(np.array([-1.27, -0.44]), Intersection(sets))
        assert np.abs(out - [0.0, 0.1]).max() <= 1e-12


class TestHyperplaneIntersection:
    def test_none_inner_reduces_to_hyperplane(self):
        v = np.array([0.2, 0.8, 0.4])
        a = np.array([1.0, 2.0, -1.0])
        assert np.allclose(project_hyperplane_intersection(v, a, 0.3, None),
                           project(v, Hyperplane(a, 0.3)))

    def test_orthant_inner_gives_simplex(self):
        out = project_hyperplane_intersection(np.array([0.4, 0.4]), np.ones(2), 1.0,
                                              Box(0.0, np.inf))
        assert np.allclose(out, [0.5, 0.5], atol=1e-12)

    def test_box_inner_with_active_cap(self):
        out = project_hyperplane_intersection(np.array([1.0, 0.0, 0.0]), np.ones(3),
                                              1.0, Box(0.0, 0.4))
        assert np.allclose(out, [0.4, 0.3, 0.3], atol=1e-9)
        # brute force over active sets of the box
        best = brute_force_projection(np.array([1.0, 0.0, 0.0]), np.ones(3), 1.0,
                                      np.zeros(3), np.full(3, 0.4))
        assert np.allclose(out, best, atol=1e-9)

    def test_unreachable_level(self):
        with pytest.raises(errors.EmptyIntersection):
            project_hyperplane_intersection(np.zeros(2), np.ones(2), 5.0, Box(0.0, 1.0))

    def test_matches_brute_force_on_small_boxes(self):
        rng = np.random.default_rng(28)
        raised = 0
        for _ in range(300):
            v, a, lo, up = box_case(rng, int(rng.integers(1, 7)), 1.0)
            b = case_level(rng, a, lo, up)
            best = brute_force_projection(v, a, b, lo, up)
            if best is None:
                raised += 1
                with pytest.raises(errors.EmptyIntersection):
                    project_hyperplane_intersection(v, a, b, Box(lo, up))
            else:
                out = project_hyperplane_intersection(v, a, b, Box(lo, up))
                assert np.abs(out - best).max() <= 1e-9, (v, a, b, lo, up)
        assert 20 <= raised <= 150

    def test_reaches_every_level_in_range_and_agrees_with_brent(self):
        # feasible exactly on the box's reachable range, and where Brent's
        # root passes the level check the same point; from |v| = 1e5 Brent's
        # root can miss a level in range by more than the check allows
        rng = np.random.default_rng(2008)
        brent = 0
        for _ in range(3000):
            n, scale = int(rng.integers(1, 31)), 10.0 ** rng.integers(0, 7)
            v, a, lo, up = box_case(rng, n, scale)
            b = case_level(rng, a, lo, up)
            low, high = reachable_range(a, lo, up)
            if not low <= b <= high:
                for project in (project_hyperplane_intersection, brent_projection):
                    with pytest.raises(errors.EmptyIntersection):
                        project(v, a, b, Box(lo, up))
                continue
            out = project_hyperplane_intersection(v, a, b, Box(lo, up))
            assert abs(a @ out - b) <= 1e-10 * max(1.0, abs(b))
            assert (lo <= out).all() and (out <= up).all()
            try:
                ref = brent_projection(v, a, b, Box(lo, up))
            except errors.EmptyIntersection:
                assert scale >= 1e5
                continue
            brent += 1
            assert np.abs(out - ref).max() <= 1e-12 * max(1.0, np.abs(v).max())
        assert brent >= 2000

    @staticmethod
    def large_case(rng, reach_high=False):
        """``|v|`` from 1e5 to 1e7 over a box with each bound infinite with
        probability 1/2; with ``reach_high`` the bounds that face the top of
        the reachable range are finite, so that the range ends there."""
        n = int(rng.integers(2, 12))
        a, lo = rng.normal(size=n), rng.normal(size=n)
        up = lo + rng.uniform(0.0, 2.0, n)
        lo[(rng.random(n) < 0.5) & ~(reach_high & (a < 0))] = -np.inf
        up[(rng.random(n) < 0.5) & ~(reach_high & (a > 0))] = np.inf
        return 10.0 ** rng.uniform(5, 7) * rng.normal(size=n), a, lo, up

    def test_small_level_among_large_free_entries(self):
        # the free entries are as large as v, so a'x sums terms near 1e6 to a
        # level near 1: the level check is relative to those terms, and every
        # level inside the reachable range is projected, onto the brute-force
        # point (n <= 6) and, where Brent's root passes its own level check,
        # onto that point too
        rng = np.random.default_rng(29)
        cases = 0
        while cases < 300:
            v, a, lo, up = self.large_case(rng)
            b = rng.normal()
            low, high = reachable_range(a, lo, up)
            if not low < b < high:
                continue
            cases += 1
            out = project_hyperplane_intersection(v, a, b, Box(lo, up))
            scale = np.abs(v).max()
            assert (lo <= out).all() and (out <= up).all()
            assert abs(a @ out - b) <= 1e-14 * (np.abs(a) @ np.abs(out))
            refs = [brute_force_projection(v, a, b, lo, up)] if v.size <= 6 else []
            try:
                refs.append(brent_projection(v, a, b, Box(lo, up)))
            except errors.EmptyIntersection:
                pass
            for ref in refs:
                assert np.abs(out - ref).max() <= 1e-12 * scale

    def test_level_beyond_reach_among_large_free_entries(self):
        # a level past the top of the reachable range, by 1e-6 to 1, still
        # raises however large v is
        rng = np.random.default_rng(30)
        for _ in range(100):
            v, a, lo, up = self.large_case(rng, reach_high=True)
            high = reachable_range(a, lo, up)[1]
            with pytest.raises(errors.EmptyIntersection):
                project_hyperplane_intersection(v, a, high + 10.0 ** rng.uniform(-6, 0),
                                                Box(lo, up))

    def test_level_at_a_repeated_breakpoint(self):
        # weights 0 and 1 meet a bound at lam = 0.5 together, where the gap is 0
        out = project_hyperplane_intersection(np.array([1.5, 0.5, 0.25]), np.ones(3), 1.0,
                                              Box(0.0, 1.0))
        assert np.abs(out - [1.0, 0.0, 0.0]).max() <= 1e-15

    def test_level_at_the_end_of_the_range(self):
        # the most the box reaches: every weight with a_i != 0 at its far bound
        a = np.array([1.0, -2.0, 0.0, 0.5])
        lo, up = np.array([0.0, -1.0, -np.inf, 0.0]), np.array([1.0, 0.5, np.inf, 2.0])
        v = np.array([0.3, 0.1, 7.0, -0.4])
        out = project_hyperplane_intersection(v, a, 4.0, Box(lo, up))
        assert np.abs(out - [1.0, -1.0, 7.0, 2.0]).max() <= 1e-15

    def test_zero_row(self):
        v, box = np.array([2.0, -0.5, 0.3]), Box(0.0, 1.0)
        out = project_hyperplane_intersection(v, np.zeros(3), 0.0, box)
        assert np.array_equal(out, box.project(v))
        with pytest.raises(errors.EmptyIntersection):
            project_hyperplane_intersection(v, np.zeros(3), 0.5, box)

    def test_inner_other_than_a_box_is_a_type_error(self):
        with pytest.raises(TypeError):
            project_hyperplane_intersection(np.zeros(2), np.ones(2), 1.0, L2Ball(1.0))


class TestCardinality:
    def test_keep_two_largest(self):
        out = project_cardinality(np.array([3.0, -1.0, 2.0]), 2)
        assert np.allclose(out, [3.0, 0.0, 2.0])

    def test_full_support_is_box_projection(self):
        v = np.array([1.5, -0.2, 0.7])
        out = project_cardinality(v, 3, bounds=(0.0, 1.0))
        assert np.allclose(out, np.clip(v, 0.0, 1.0))

    def test_tie_break_lowest_index_and_optimality(self):
        v = np.array([1.0, -1.0, 0.5])
        out = project_cardinality(v, 1)
        assert np.allclose(out, [1.0, 0.0, 0.0])  # index 0 wins the tie
        # distance-optimal among all supports of size 1
        best = min(((np.sum((np.where(np.arange(3) == i, v, 0.0) - v) ** 2), i)
                    for i in range(3)))
        chosen = np.sum((out - v) ** 2)
        assert chosen == pytest.approx(best[0], abs=1e-15)

    def test_exhaustive_subset_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.normal(size=5)
            n1 = int(rng.integers(1, 5))
            out = project_cardinality(v, n1)
            assert np.count_nonzero(out) <= n1
            best = np.inf
            for sup in itertools.combinations(range(5), n1):
                x = np.zeros(5)
                x[list(sup)] = v[list(sup)]
                best = min(best, np.sum((x - v) ** 2))
            assert np.sum((out - v) ** 2) == pytest.approx(best, abs=1e-12)


class TestMoreau:
    def test_l1_matches_soft_threshold(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            v = rng.normal(size=4)
            lam = rng.random() + 0.05
            assert np.allclose(prox_norm_moreau(v, lam, 1), prox_l1(v, lam), atol=1e-12)

    def test_l2_small_vectors_vanish(self):
        v = np.array([0.1, -0.05])
        assert np.abs(prox_norm_moreau(v, 1.0, 2)).max() == 0.0

    def test_linf_small_vectors_vanish(self):
        v = np.array([0.1, -0.1])
        assert np.abs(prox_norm_moreau(v, 1.0, np.inf)).max() <= 1e-15


ALL_CONVEX = [
    Box(-0.5, 0.8),
    Hyperplane(np.array([1.0, -2.0, 0.5]), 0.3),
    Halfspace(np.array([1.0, 1.0, -1.0]), 0.2),
    L1Ball(1.0),
    L2Ball(0.7),
    LinfBall(0.9),
    Simplex(1.0),
    Intersection((Box(0.0, 1.0), Hyperplane(np.ones(3), 1.0))),
]


@pytest.mark.parametrize("region", ALL_CONVEX, ids=lambda s: type(s).__name__)
def test_idempotence(region):
    rng = np.random.default_rng(10)
    for _ in range(50):
        v = rng.normal(size=3) * 2
        once = region.project(v)
        twice = region.project(once)
        assert np.abs(twice - once).max() <= 1e-12


@pytest.mark.parametrize("region", ALL_CONVEX, ids=lambda s: type(s).__name__)
def test_nonexpansiveness(region):
    rng = np.random.default_rng(11)
    for _ in range(50):
        u, v = rng.normal(size=3) * 2, rng.normal(size=3) * 2
        pu, pv = region.project(u), region.project(v)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


@pytest.mark.parametrize("region", ALL_CONVEX, ids=lambda s: type(s).__name__)
def test_beats_random_candidates(region):
    rng = np.random.default_rng(12)
    v = rng.normal(size=3)
    star = region.project(v)
    dist_star = np.sum((star - v) ** 2)
    candidates = rng.uniform(-2, 2, size=(100_000, 3))
    feasible = np.array([region.project(c) for c in candidates[:300]])
    dists = ((feasible - v) ** 2).sum(axis=1)
    assert dist_star <= dists.min() + 1e-6
