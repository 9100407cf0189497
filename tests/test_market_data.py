import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roboalloc import errors
from roboalloc.market_data import (
    MomentEstimates,
    ReturnPanel,
    WeightScheme,
    clip_psd,
    condition_number,
    eigen_decompose,
    estimate_moments,
    moments_from_dict,
    moments_to_dict,
    read_panel_csv,
)


def centered_cov_oracle(r, w):
    """Explicit-loop weighted covariance, the textbook double sum."""
    t, n = r.shape
    mu = sum(w[s] * r[s] for s in range(t))
    cov = np.zeros((n, n))
    for s in range(t):
        d = r[s] - mu
        cov += w[s] * np.outer(d, d)
    return mu, cov


class TestEstimateMoments:
    def test_single_asset_two_points(self):
        panel = ReturnPanel(np.array([[0.01], [0.03]]))
        m = estimate_moments(panel, WeightScheme.uniform())
        assert m.mu[0] == pytest.approx(0.02, abs=1e-15)
        assert m.sigma[0, 0] == pytest.approx(0.0001, abs=1e-15)

    def test_weight_concentrated_on_one_period_kills_variance(self):
        rng = np.random.default_rng(0)
        panel = ReturnPanel(rng.normal(size=(6, 3)) * 0.02)
        w = np.zeros(6)
        w[2] = 1.0
        m = estimate_moments(panel, WeightScheme.explicit(w))
        assert np.abs(m.sigma).max() <= 1e-16
        assert np.allclose(m.mu, panel.returns[2])

    def test_uniform_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        r = rng.normal(size=(10, 3)) * 0.05
        panel = ReturnPanel(r)
        m = estimate_moments(panel, WeightScheme.uniform())
        mu_o, cov_o = centered_cov_oracle(r, np.full(10, 0.1))
        assert np.allclose(m.mu, mu_o, atol=1e-15)
        assert np.allclose(m.sigma, cov_o, atol=1e-15)

    def test_outer_product_and_centering_forms_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = rng.integers(3, 15)
            n = rng.integers(1, 6)
            r = rng.normal(size=(t, n)) * 0.1
            w = rng.random(t) + 0.01
            w = w / w.sum()
            m = estimate_moments(ReturnPanel(r), WeightScheme.explicit(w))
            dw_form = r.T @ (np.diag(w) - np.outer(w, w)) @ r
            ct = np.eye(t) - np.outer(np.ones(t), w)
            ct_form = r.T @ ct.T @ np.diag(w) @ ct @ r
            assert np.abs(dw_form - ct_form).max() <= 1e-12
            assert np.abs(m.sigma - dw_form).max() <= 1e-12

    def test_weight_length_mismatch(self):
        panel = ReturnPanel(np.arange(8, dtype=float).reshape(4, 2) * 0.01)
        with pytest.raises(errors.DimensionMismatch):
            estimate_moments(panel, WeightScheme.explicit(np.ones(3)))

    def test_short_panel_rejected(self):
        with pytest.raises(errors.DegeneratePanel):
            ReturnPanel(np.array([[0.01, 0.02]]))

    def test_ewma_weights_geometric_and_normalized(self):
        w = WeightScheme.ewma(0.97).resolve(5)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        ratios = w[:-1] / w[1:]
        assert np.allclose(ratios, 0.97)
        assert w[-1] == w.max()  # newest observation dominates


class TestEigenDecompose:
    def test_identity(self):
        v, lam = eigen_decompose(np.eye(2))
        assert np.allclose(lam, [1.0, 1.0])
        assert np.allclose(v.T @ v, np.eye(2), atol=1e-12)

    def test_variance_shares(self, four_asset):
        _, _, _, sigma = four_asset
        _, lam = eigen_decompose(sigma)
        shares = 100 * lam / lam.sum()
        assert np.allclose(shares, [63.80, 18.72, 10.65, 6.83], atol=0.02)

    def test_precision_matrix_reciprocal_spectrum(self, four_asset):
        _, _, _, sigma = four_asset
        v, lam = eigen_decompose(sigma)
        v_inv, lam_inv = eigen_decompose(np.linalg.inv(sigma))
        assert np.allclose(lam_inv, 1.0 / lam[::-1], rtol=1e-8)
        # same invariant subspaces up to order reversal and sign
        for j in range(4):
            overlap = abs(v[:, j] @ v_inv[:, 3 - j])
            assert overlap == pytest.approx(1.0, abs=1e-8)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = rng.integers(2, 7)
            a = rng.normal(size=(n, n))
            s = a @ a.T
            v, lam = eigen_decompose(s)
            assert np.all(np.diff(lam) <= 1e-12)
            assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-10
            err = np.abs((v * lam) @ v.T - s).max()
            assert err <= 1e-10 * max(np.abs(s).max(), 1.0)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=(4, 4))
        s = s @ s.T
        v1, _ = eigen_decompose(s)
        v2, _ = eigen_decompose(s.copy())
        assert np.array_equal(v1, v2)
        for j in range(4):
            nz = np.nonzero(np.abs(v1[:, j]) > 1e-12)[0]
            assert v1[nz[0], j] > 0

    def test_not_symmetric(self):
        with pytest.raises(errors.NotSymmetric):
            eigen_decompose(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert condition_number(np.diag([4.0, 1.0])) == pytest.approx(4.0)

    def test_pinv_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 3))
        assert condition_number(np.linalg.pinv(a)) == pytest.approx(
            condition_number(a), rel=1e-10)

    def test_ridge_filtered_matrix_better_conditioned(self):
        # filter gains s/(s^2+rho) computed directly on the singular values
        a = np.diag([4.0, 0.01])
        kappa_raw = condition_number(a)
        s = np.array([4.0, 0.01])
        g = s / (s ** 2 + 1.0)
        filtered = np.diag(g)
        assert kappa_raw == pytest.approx(400.0)
        assert condition_number(filtered) < kappa_raw

    def test_singular(self):
        with pytest.raises(errors.SingularMatrix):
            condition_number(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestMomentIO:
    def test_round_trip(self, tmp_path, four_asset):
        mu, _, _, sigma = four_asset
        m = MomentEstimates(mu=mu, sigma=sigma, scheme=WeightScheme.ewma(0.9),
                            assets=["a", "b", "c", "d"])
        obj = moments_to_dict(m)
        assert len(obj["sigma"]) == 16  # row-major flat
        back = moments_from_dict(obj)
        assert np.allclose(back.mu, m.mu)
        assert np.allclose(back.sigma, m.sigma)
        assert back.scheme.decay == 0.9

    def test_csv_parse(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("date,x,y\n2020-01,0.01,0.02\n2020-02,0.03,-0.01\n")
        panel = read_panel_csv(p)
        assert panel.assets == ["x", "y"]
        assert panel.returns.shape == (2, 2)

    def test_csv_integer_dates_order_as_numbers(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("date,x,y\n" + "".join(f"{t},0.01,{0.001 * t}\n" for t in range(1, 11)))
        panel = read_panel_csv(p)
        assert panel.dates == [str(t) for t in range(1, 11)]
        assert panel.returns.shape == (10, 2)

    def test_csv_integer_dates_out_of_order_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("date,x\n1,0.01\n10,0.02\n9,0.03\n")
        with pytest.raises(errors.InputError, match="strictly increasing"):
            read_panel_csv(p)

    def test_csv_iso_dates_keep_text_order(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("date,x\n2020-09,0.01\n2020-10,0.02\n2020-11,0.03\n")
        assert read_panel_csv(p).dates == ["2020-09", "2020-10", "2020-11"]

    def test_csv_cells_parse_as_float_of_each_cell(self, tmp_path):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(30, 4)) * 10.0 ** rng.integers(-8, 9, (30, 4))
        cells = [[repr(float(v)) for v in row] for row in values]
        cells[0] = ["1", "-0", " 2.5", "3e-7 "]
        cells[1] = ["1E+3", "+4", ".5", '"-7."']
        p = tmp_path / "r.csv"
        p.write_text("date,w,x,y,z\n" + "".join(
            f'"{t}",' + ",".join(row) + "\n" for t, row in enumerate(cells, start=1)))
        want = np.array([[float(c.strip('"')) for c in row] for row in cells])
        panel = read_panel_csv(p)
        assert panel.dates == [str(t) for t in range(1, 31)]
        assert np.array_equal(panel.returns, want)
        assert np.array_equal(np.signbit(panel.returns), np.signbit(want))

    def test_csv_malformed_row(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("date,x,y\n2020-01,0.01\n")
        with pytest.raises(errors.InputError):
            read_panel_csv(p)

    def test_psd_validation_rejects_indefinite(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(errors.NotPositiveSemidefinite):
            MomentEstimates(mu=np.zeros(2), sigma=bad, scheme=WeightScheme.uniform())
        # a NaN or inf entry is rejected, not eigen-decomposed into NaN
        for sigma in ([[np.nan, 0.0], [0.0, 0.09]], np.diag([np.inf, 0.09])):
            with pytest.raises(ValueError, match="sigma must hold finite numbers only"):
                clip_psd(sigma)
        with pytest.raises(ValueError, match="mu must hold finite numbers only"):
            MomentEstimates(mu=[np.nan, 0.0], sigma=np.diag([0.04, 0.09]),
                            scheme=WeightScheme.uniform())


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=10_000))
def test_moment_forms_agree_property(t, n, seed):
    rng = np.random.default_rng(seed)
    r = rng.normal(size=(t, n)) * 0.1
    w = rng.random(t) + 1e-3
    w = w / w.sum()
    m = estimate_moments(ReturnPanel(r), WeightScheme.explicit(w))
    dw_form = r.T @ (np.diag(w) - np.outer(w, w)) @ r
    assert np.abs(m.sigma - dw_form).max() <= 1e-12
