"""Each documented input check raises its error, and the CLI turns the
input errors of its verbs into exit code 1 with an ``error:`` line."""

import json

import numpy as np
import pytest

from roboalloc.calibration import RidgeRegressionData, ScoreSet, kfold_cv, max_te_from_vol
from roboalloc.cli import main
from roboalloc.errors import DimensionMismatch, InputError
from roboalloc.market_data import ReturnPanel, WeightScheme
from roboalloc.views import ViewSet

X = np.arange(12.0).reshape(6, 2) ** 0.5


class TestRidgeRegressionData:
    def test_response_of_the_wrong_length(self):
        with pytest.raises(InputError, match="response length"):
            RidgeRegressionData(x=X, y=np.ones(5))

    @pytest.mark.parametrize("where", ["x", "y"])
    def test_non_finite_entry(self, where):
        x, y = X.copy(), np.ones(6)
        (x if where == "x" else y)[2] = np.nan
        with pytest.raises(InputError, match="non-finite"):
            RidgeRegressionData(x=x, y=y)

    def test_gamma2_that_is_not_k_by_k(self):
        with pytest.raises(InputError, match="K x K"):
            RidgeRegressionData(x=X, y=np.ones(6), gamma2=np.eye(3))


@pytest.mark.parametrize("k", [1, 7])
def test_kfold_outside_two_to_t(k):
    data = RidgeRegressionData(x=X, y=np.arange(6.0))
    with pytest.raises(InputError, match=r"k must be in \[2, 6\]"):
        kfold_cv(data, k, [0.1, 1.0])


@pytest.mark.parametrize("correlation", [1.5, -1.01])
def test_max_te_from_vol_correlation_beyond_one(correlation):
    with pytest.raises(InputError, match="correlation"):
        max_te_from_vol(0.15, correlation)


def test_score_set_of_one_score():
    with pytest.raises(InputError, match="at least two scores"):
        ScoreSet(scores=[1], sigma_plus=0.1)


class TestWeightScheme:
    def test_ewma_decay_beyond_one(self):
        with pytest.raises(InputError, match="ewma decay"):
            WeightScheme.ewma(1.5)

    def test_explicit_negative_weight(self):
        with pytest.raises(InputError, match="nonnegative"):
            WeightScheme.explicit([0.5, -0.1, 0.6])

    def test_explicit_all_zero(self):
        with pytest.raises(InputError, match="sum to zero"):
            WeightScheme.explicit([0.0, 0.0, 0.0])


class TestReturnPanel:
    RETURNS = np.array([[0.01, 0.02], [0.00, -0.01], [0.02, 0.01]])

    def test_labels_that_do_not_match_the_width(self):
        with pytest.raises(DimensionMismatch, match="asset labels"):
            ReturnPanel(self.RETURNS, assets=["a", "b", "c"])

    def test_dates_that_do_not_match_the_length(self):
        with pytest.raises(DimensionMismatch, match="dates"):
            ReturnPanel(self.RETURNS, dates=[1, 2])

    def test_nan_return(self):
        returns = self.RETURNS.copy()
        returns[1, 0] = np.nan
        with pytest.raises(InputError, match="non-finite"):
            ReturnPanel(returns)


class TestViewSet:
    P = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])

    def test_asymmetric_view_covariance(self):
        with pytest.raises(InputError, match="symmetric"):
            ViewSet(self.P, [0.01, 0.02], [[0.01, 0.002], [0.0, 0.01]])

    def test_view_covariance_not_positive_definite(self):
        with pytest.raises(InputError, match="positive definite"):
            ViewSet(self.P, [0.01, 0.02], [[0.01, 0.02], [0.02, 0.01]])


class TestCliInputErrors:
    """Exit 1 with an ``error:`` line and no traceback."""

    @staticmethod
    def assert_input_error(argv, capsys, message):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err

    def test_estimate_with_an_unknown_scheme(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        panel.write_text("date,a,b\n2021-01,0.01,0.02\n2021-02,0.00,0.01\n2021-03,-0.01,0.03\n")
        self.assert_input_error(["estimate", "--returns", str(panel), "--scheme", "bogus",
                                 "--out", str(tmp_path / "m.json")], capsys, "unknown scheme")
        assert not (tmp_path / "m.json").exists()

    def test_views_without_a_moments_file(self, tmp_path, capsys):
        views = tmp_path / "views.json"
        views.write_text(json.dumps({"grades": {"a": 1, "b": -1}}))
        self.assert_input_error(["views", "--views", str(views), "--out", str(tmp_path / "v.json")],
                                capsys, "moments file")
