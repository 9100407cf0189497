import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
        best, best_val = None, np.inf
        v = np.array([1.0, 0.0, 0.0])
        for pattern in itertools.product([None, 0.0, 0.4], repeat=3):
            free = [i for i, p in enumerate(pattern) if p is None]
            fixed_sum = sum(p for p in pattern if p is not None)
            if not free:
                if abs(fixed_sum - 1.0) > 1e-12:
                    continue
                x = np.array(pattern, dtype=float)
            else:
                x = np.array([0.0 if p is None else p for p in pattern])
                shift = (1.0 - fixed_sum - v[free].sum()) / len(free)
                x[free] = v[free] + shift
                if (x[free] < -1e-12).any() or (x[free] > 0.4 + 1e-12).any():
                    continue
            val = ((x - v) ** 2).sum()
            if val < best_val:
                best, best_val = x, val
        assert np.allclose(out, best, atol=1e-9)

    def test_unreachable_level(self):
        with pytest.raises(errors.EmptyIntersection):
            project_hyperplane_intersection(np.zeros(2), np.ones(2), 5.0, Box(0.0, 1.0))


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
