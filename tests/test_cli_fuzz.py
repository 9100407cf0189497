"""Fuzz of problem, views and moments documents, and of calibration grids and
regression files: whatever they hold, the CLI exits with 0, 1 or 2 and never
lets an exception escape."""

import contextlib
import copy
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from roboalloc.cli import main
from roboalloc.market_data import MomentEstimates, WeightScheme, moments_to_dict

SIGMA = (np.outer([0.15, 0.18, 0.20, 0.25], [0.15, 0.18, 0.20, 0.25])
         * (0.5 * np.eye(4) + 0.5)).tolist()
PLAIN = {
    "mu": [0.07, 0.08, 0.09, 0.10], "sigma": SIGMA, "r": 0.01, "gamma": 0.2,
    "assets": ["a", "b", "c", "d"],
    "penalties": [{"kind": "l1", "rho": 1e-3, "anchor": [0.25, 0.25, 0.25, 0.25]},
                  {"kind": "lp", "p": 1.5, "rho": 1e-3, "gamma": "diag_sigma"},
                  {"kind": "l2", "rho": 0.02, "gamma": [[1.0, -1.0, 0.0, 0.0]]}],
    "constraints": {"budget": 1.0, "lower": 0.0, "upper": [0.6, 0.6, 0.6, 0.6],
                    "eq": {"a": [[1.0, 1.0, 0.0, 0.0]], "b": [0.5]},
                    "ineq": {"a": [[0.0, 0.0, 1.0, -1.0]], "b": [-0.2]}},
    "filter": {"kind": "ridge", "rho": 1e-4},
    "admm": {"max_iter": 300, "eps_primal": 1e-8, "eps_dual": 1e-8},
}
TARGET = {"mu": PLAIN["mu"], "sigma": PLAIN["sigma"],
          "target": {"type": "volatility", "value": 0.17},
          "constraints": {"budget": 1.0, "lower": 0.0}}
REBALANCE = {
    "mu": PLAIN["mu"], "sigma": [v for row in SIGMA for v in row], "gamma": 0.2,
    "objective": "tracking_error",
    "strategic": [0.4, 0.3, 0.2, 0.1], "current": [0.25, 0.25, 0.25, 0.25],
    "penalties": [{"kind": "l1", "rho": 5e-4, "anchor": "strategic"},
                  {"kind": "l1", "rho": 2e-4, "anchor": [0.25, 0.25, 0.25, 0.25]},
                  {"kind": "l2", "rho": 0.02, "anchor": "current", "gamma": "identity"}],
    "constraints": {"budget": 1.0, "lower": 0.0, "upper": 1.0},
}
GRADES = {"strategic": [0.4, 0.3, 0.2, 0.1], "r": 0.0, "sharpe": 0.5,
          "grades": {"a": 1, "c": -1}, "delta": 1.0, "tau": 1.0, "scale_size": 7}
MATRIX_VIEWS = {"P": [[1.0, -1.0, 0.0, 0.0]], "Q": [0.02], "sigma_eps": [[1e-4]],
                "sharpe": 0.5, "r": 0.0}
MOMENTS = moments_to_dict(MomentEstimates(
    mu=np.array(PLAIN["mu"]), sigma=np.array(SIGMA), scheme=WeightScheme.ewma(0.97),
    assets=PLAIN["assets"]))
DOCUMENTS = {"plain": PLAIN, "target": TARGET, "rebalance": REBALANCE,
             "grades": GRADES, "matrix_views": MATRIX_VIEWS, "moments": MOMENTS}


def paths(node, prefix=()):
    """Every key and list position in a document, outermost first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


numbers = st.floats(-2.0, 2.0, allow_nan=False)
values = st.one_of(
    st.none(), st.booleans(), st.sampled_from(["", "x", "strategic", "current", "identity"]),
    st.text(max_size=4), numbers,
    st.lists(numbers, max_size=6),                                   # wrong-length arrays
    st.lists(st.lists(numbers, min_size=1, max_size=5), max_size=5),  # nested, maybe ragged
    st.lists(st.one_of(st.none(), st.text(max_size=2), numbers), min_size=1, max_size=4),
    st.dictionaries(st.sampled_from(["a", "b", "kind"]), numbers, max_size=2),
)


@st.composite
def documents(draw):
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = copy.deepcopy(DOCUMENTS[name])
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(paths(doc))))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(values)
    return name, doc


@settings(max_examples=500, deadline=None, derandomize=True)
@given(documents())
def test_any_value_exits_cleanly(case):
    name, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        problem = os.path.join(tmp, "p.json")
        with open(problem, "w") as handle:
            json.dump(doc, handle)
        verbs = [["optimize", "--problem", problem]]
        if name == "rebalance":
            verbs.append(["path", "--problem", problem, "--param", "rho2",
                          "--grid", "linear:0:0.01:2"])
        if name in ("grades", "matrix_views"):
            moments = os.path.join(tmp, "m.json")
            with open(moments, "w") as handle:
                json.dump(MOMENTS, handle)
            verbs = [["views", "--views", problem, "--moments", moments]]
        if name == "moments":
            views, rebalance = os.path.join(tmp, "v.json"), os.path.join(tmp, "r.json")
            with open(views, "w") as handle:
                json.dump(GRADES, handle)
            with open(rebalance, "w") as handle:
                json.dump({**{k: v for k, v in REBALANCE.items() if k not in ("mu", "sigma")},
                           "moments_file": problem}, handle)
            verbs = [["views", "--views", views, "--moments", problem],
                     ["stevens", "--moments", problem, "--gamma", "0.2"],
                     ["optimize", "--problem", rebalance]]
        for verb in verbs:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(verb + ["--out", os.path.join(tmp, "out")])
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()


positive = st.floats(1e-6, 1e3)
grid_ends = st.one_of(positive, positive, numbers, st.sampled_from(["nan", "inf", "-inf", "x"]))
cells = st.one_of(numbers, numbers, numbers, st.sampled_from(["", "x", "nan", "-inf", "1e400"]))


@st.composite
def calibrations(draw):
    """Mostly well-formed inputs with a few bad parts: bad grids, ragged or
    non-numeric rows, too few rows for the fit or for k."""
    scale = draw(st.sampled_from(["log", "linear", "log", "linear", "lin"]))
    # few points: make_grid allocates every point it is asked for
    points = draw(st.one_of(st.integers(1, 6), st.integers(-1, 6), st.sampled_from(["2.5", "x"])))
    grid = ":".join(str(p) for p in [scale, draw(grid_ends), draw(grid_ends), points])
    if draw(st.integers(0, 9)) == 0:
        grid = grid.rsplit(":", 1)[0]
    width = draw(st.integers(2, 4))
    header = ",".join(["y"] + [f"x{j}" for j in range(1, width)])
    if draw(st.integers(0, 3)) == 0:
        row = st.lists(cells, min_size=1, max_size=5)                    # ragged, non-numeric
    else:
        row = st.lists(numbers, min_size=width, max_size=width)
    rows = draw(st.lists(row, max_size=12))
    text = "\n".join([header] + [",".join(str(c) for c in r) for r in rows]) + "\n"
    method = draw(st.sampled_from(["press", "gcv", "kfold"]))
    return grid, text, method, draw(st.integers(-1, 6))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(calibrations())
def test_any_calibration_input_exits_cleanly(case):
    grid, text, method, k = case
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data.csv")
        with open(data, "w") as handle:
            handle.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["calibrate", "--data", data, "--method", method, "--grid", grid,
                         "--k", str(k), "--out", os.path.join(tmp, "out")])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
