"""``regularizers.penalty_terms`` is the one penalty assembler.

The reference functions below are the assemblies it replaced: the
rebalancing smooth part, objective and L1 rows, and the CLI's plain-route
loop.  Routed through ``penalty_terms`` the same problems must give the
same weights bit for bit, the same iterations and status, and objectives
equal up to summation order.
"""

import json

import numpy as np
import pytest

from roboalloc import admm, cli, prox
from roboalloc.admm import solve_mixed_lp, solve_penalized
from roboalloc.mvo import ConstraintSet, MvoInputs
from roboalloc.pipeline import RoboConfig, rebalance
from roboalloc.regularizers import PenaltySpec, penalty_matrix, penalty_terms, ridge_mvo
from tests.conftest import random_spd

OBJ_RTOL = 1e-12


# --- reference assemblies -----------------------------------------------------


def reference_quadratic_parts(config, mu, sigma, gamma):
    n = config.n
    mu = np.asarray(mu, dtype=float).ravel()
    sigma = np.asarray(sigma, dtype=float)
    g2s = penalty_matrix(config.gamma2_strategic, n)
    g2t = penalty_matrix(config.gamma2_turnover, n)
    p_mat = sigma + config.rho2_strategic * g2s.T @ g2s \
        + config.rho2_turnover * g2t.T @ g2t
    q_vec = gamma * mu
    if config.objective == "tracking_error":
        q_vec = q_vec + sigma @ config.strategic
    q_vec = q_vec + config.rho2_strategic * (g2s.T @ (g2s @ config.strategic))
    q_vec = q_vec + config.rho2_turnover * (g2t.T @ (g2t @ config.current))
    return p_mat, q_vec


def reference_full_objective(config, mu, sigma, gamma, x):
    n = config.n
    mu = np.asarray(mu, dtype=float).ravel()
    if config.objective == "tracking_error":
        d = x - config.strategic
        val = 0.5 * d @ sigma @ d - gamma * d @ mu
    else:
        val = 0.5 * x @ sigma @ x - gamma * x @ mu
    g1s = penalty_matrix(config.gamma1_strategic, n)
    g1t = penalty_matrix(config.gamma1_turnover, n)
    g2s = penalty_matrix(config.gamma2_strategic, n)
    g2t = penalty_matrix(config.gamma2_turnover, n)
    val += config.rho1_strategic * np.abs(g1s @ (x - config.strategic)).sum()
    val += config.rho1_turnover * np.abs(g1t @ (x - config.current)).sum()
    val += 0.5 * config.rho2_strategic * np.sum((g2s @ (x - config.strategic)) ** 2)
    val += 0.5 * config.rho2_turnover * np.sum((g2t @ (x - config.current)) ** 2)
    return float(val)


def reference_rebalance(config, mu, sigma, gamma):
    sigma = np.asarray(sigma, dtype=float)
    p_mat, q_vec = reference_quadratic_parts(config, mu, sigma, gamma)
    n = config.n
    rows = []
    for rho, g1, anchor in ((config.rho1_strategic, config.gamma1_strategic, config.strategic),
                            (config.rho1_turnover, config.gamma1_turnover, config.current)):
        if rho > 0:
            g1 = penalty_matrix(g1, n)
            rows.append((g1, g1 @ anchor, np.full(g1.shape[0], rho)))
    l1 = tuple(np.concatenate(part) for part in zip(*rows)) if rows else None
    return solve_penalized(
        p_mat, q_vec, l1, [], config.constraints, config.extra_sets, None,
        x_init=None,
        objective=lambda x: reference_full_objective(config, mu, sigma, gamma, x))


def reference_plain_route(inputs, gamma, penalties, constraints, params):
    n = inputs.n
    p_mat, q_vec, blocks, terms = inputs.sigma, gamma * inputs.excess, [], []
    for pen in penalties:
        g = penalty_matrix(pen.gamma_matrix, n)
        anchor = np.zeros(n) if pen.anchor is None else pen.anchor
        terms.append((pen, g, anchor))
        if pen.kind == "l2":
            p_mat = p_mat + pen.rho * g.T @ g
            q_vec = q_vec + pen.rho * (g.T @ (g @ anchor))
        else:
            blocks.append((g, g @ anchor,
                           lambda v, phi, r=pen.rho, p=pen.p: prox.prox_lp(v, r / phi, p)))

    def objective(x):
        val = 0.5 * x @ inputs.sigma @ x - gamma * x @ inputs.excess
        for pen, g, anchor in terms:
            val += pen.rho / pen.p * np.sum(np.abs(g @ (x - anchor)) ** pen.p)
        return val

    return solve_penalized(p_mat, q_vec, None, blocks, constraints, params=params,
                           objective=objective)


def assert_same_solve(mine, ref):
    assert np.array_equal(mine.weights, ref.weights)
    assert mine.iterations == ref.iterations
    assert mine.status == ref.status
    assert mine.objective == pytest.approx(ref.objective, rel=OBJ_RTOL, abs=0.0)


# --- same answers as the replaced assemblies ----------------------------------


def _four_slot_config(rng, n, gamma_kind, objective):
    strategic = rng.dirichlet(np.ones(n))
    current = rng.dirichlet(np.ones(n))
    if gamma_kind == "vector":
        gammas = [rng.uniform(0.5, 2.0, n) for _ in range(4)]
    else:
        gammas = [np.eye(n) + 0.2 * rng.normal(size=(n, n)) for _ in range(4)]
    return RoboConfig(
        strategic=strategic, current=current, objective=objective, gamma=0.4,
        rho1_strategic=1e-3, gamma1_strategic=gammas[0],
        rho1_turnover=5e-4, gamma1_turnover=gammas[1],
        rho2_strategic=0.03, gamma2_strategic=gammas[2],
        rho2_turnover=0.02, gamma2_turnover=gammas[3],
        constraints=ConstraintSet(budget=1.0, lower=np.zeros(n), upper=np.full(n, 0.4)))


class TestSameAnswers:
    @pytest.mark.parametrize("objective", ["tracking_error", "mvo"])
    @pytest.mark.parametrize("gamma_kind", ["vector", "matrix"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_four_slot_rebalance(self, seed, gamma_kind, objective):
        rng = np.random.default_rng([seed, 6])
        n = 6
        sigma = random_spd(rng, n, 0.04)
        mu = rng.normal(size=n) * 0.05
        config = _four_slot_config(rng, n, gamma_kind, objective)
        mine = rebalance(config, mu, sigma)
        assert mine.iterations > 0  # the L1 active set, both L1 slots as its rows
        assert_same_solve(mine, reference_rebalance(config, mu, sigma, 0.4))

    def test_l2_only_rebalance_on_the_qp_route(self):
        rng = np.random.default_rng(3)
        n = 5
        sigma = random_spd(rng, n, 0.04)
        mu = rng.normal(size=n) * 0.05
        config = RoboConfig(strategic=np.full(n, 1 / n), current=rng.dirichlet(np.ones(n)),
                            gamma=0.3, rho2_strategic=0.02, rho2_turnover=0.01,
                            gamma2_turnover=rng.uniform(0.5, 2.0, n))
        mine = rebalance(config, mu, sigma)
        assert mine.duals is not None  # the QP route; ADMM answers carry no duals
        assert_same_solve(mine, reference_rebalance(config, mu, sigma, 0.3))

    def test_cli_plain_document(self, tmp_path):
        rng = np.random.default_rng(9)
        n = 5
        sigma = random_spd(rng, n, 0.04)
        mu = rng.normal(size=n) * 0.05
        x0 = np.full(n, 1.0 / n)
        g = rng.normal(size=(n, n))
        doc = {"mu": mu.tolist(), "sigma": sigma.tolist(), "gamma": 0.3, "r": 0.01,
               "constraints": {"budget": 1.0, "lower": 0.0, "upper": 0.6},
               "penalties": [{"kind": "l1", "rho": 0.002, "anchor": x0.tolist()},
                             {"kind": "lp", "rho": 0.003, "p": 1.5, "gamma": "diag_sigma"},
                             {"kind": "l2", "rho": 0.02, "gamma": g.tolist()},
                             {"kind": "l2", "rho": 0.01, "anchor": x0.tolist()}]}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        doc, mu, sigma, _ = cli._load_problem(str(path))
        mine, _ = cli._solve_problem(doc, mu, sigma)
        assert mine.iterations > 0
        ref = reference_plain_route(MvoInputs(mu=mu, sigma=sigma, r=0.01), 0.3,
                                    cli._parse_penalties(doc, n, sigma),
                                    cli._parse_constraints(doc["constraints"], n),
                                    cli._parse_admm({}))
        assert_same_solve(mine, ref)
        out = tmp_path / "report.json"
        assert cli.main(["optimize", "--problem", str(path), "--out", str(out)]) == 0
        assert np.array_equal(json.loads(out.read_text())["weights"], ref.weights)


# --- the assembler itself -----------------------------------------------------


class TestPenaltyTerms:
    def test_parts_and_value(self):
        rng = np.random.default_rng(4)
        n = 4
        g = rng.normal(size=(3, n))
        a = rng.normal(size=n)
        x = rng.normal(size=n)
        specs = [PenaltySpec("l1", 0.5, gamma_matrix=g, anchor=a),
                 PenaltySpec("l2", 0.25, anchor=a),
                 PenaltySpec("lp", 0.75, p=3.0, gamma_matrix=g),
                 PenaltySpec("l1", 0.125, anchor=2.0 * a)]
        p_mat, q_vec, l1, blocks, value = penalty_terms(specs, np.eye(n), np.ones(n))
        assert np.allclose(p_mat, 1.25 * np.eye(n))
        assert np.allclose(q_vec, 1.0 + 0.25 * a)
        # the L1 rows, stacked in penalty order, each with its penalty's rho
        g1, d1, rho1 = l1
        assert np.array_equal(g1, np.vstack([g, np.eye(n)]))
        assert np.allclose(d1, np.concatenate([g @ a, 2.0 * a]))
        assert np.array_equal(rho1, np.repeat([0.5, 0.125], [3, n]))
        # only the lp penalty is a prox block
        assert len(blocks) == 1 and np.array_equal(blocks[0][0], g)
        assert np.allclose(blocks[0][1], 0.0)
        v = rng.normal(size=3)
        assert np.array_equal(blocks[0][2](v, 2.0), prox.prox_lp(v, 0.375, 3.0))
        expected = (0.5 * np.abs(g @ (x - a)).sum() + 0.125 * np.sum((x - a) ** 2)
                    + 0.25 * np.sum(np.abs(g @ x) ** 3) + 0.125 * np.abs(x - 2.0 * a).sum())
        assert value(x) == pytest.approx(expected, rel=1e-14)

    def test_no_l1_penalty_gives_no_rows(self):
        specs = [PenaltySpec("l2", 0.25), PenaltySpec("lp", 0.5, p=1.5)]
        _, _, l1, blocks, _ = penalty_terms(specs, np.eye(3), np.zeros(3))
        assert l1 is None and len(blocks) == 1

    def test_lp_of_order_one_stays_on_admm(self, monkeypatch):
        """An lp penalty with p = 1 prices the same norm as an l1 one, but
        it is a prox block, so ADMM runs it; the l1 penalty is solved on the
        active set.  Both reach the same weights."""
        runs, loop = [], admm.admm_solve

        def recording(prob, *args, **kwargs):
            runs.append(prob)
            return loop(prob, *args, **kwargs)

        monkeypatch.setattr(admm, "admm_solve", recording)
        rng = np.random.default_rng(12)
        a1, b1 = rng.normal(size=(8, 4)), rng.normal(size=8)
        cons = ConstraintSet(budget=1.0, lower=0.0, upper=0.7)
        _, _, l1, blocks, _ = penalty_terms([PenaltySpec("lp", 0.05, p=1.0)],
                                            np.eye(4), np.zeros(4))
        assert l1 is None and len(blocks) == 1
        lp = solve_mixed_lp(a1, b1, None, PenaltySpec("lp", 0.05, p=1.0), constraints=cons)
        assert len(runs) == 1 and lp.duals is None
        exact = solve_mixed_lp(a1, b1, None, PenaltySpec("l1", 0.05), constraints=cons)
        assert len(runs) == 1 and exact.duals is not None
        assert lp.converged and np.abs(lp.weights - exact.weights).max() <= 1e-6

    def test_zero_rho_penalty_is_honoured(self):
        _, _, _, blocks, _ = penalty_terms([PenaltySpec("lp", 0.0, p=2.0)], np.eye(3),
                                           np.zeros(3))
        assert len(blocks) == 1

    def test_zero_rho_lp_keeps_the_admm_route(self, four_asset_alt):
        """The ridge cross-check of the acceptance suite runs ADMM against
        the closed form only while a zero-rho lp penalty stays a block."""
        mu, _, _, sigma = four_asset_alt
        lam, vec = np.linalg.eigh(sigma)
        a1 = (vec * np.sqrt(lam)) @ vec.T
        b1 = np.linalg.solve(a1.T, 0.25 * mu)
        x0 = np.array([0.4, 0.3, 0.2, 0.1])
        rep = solve_mixed_lp(a1, b1, PenaltySpec("l2", 0.02, anchor=x0),
                             PenaltySpec("lp", 0.0, p=2.0, anchor=x0), x0=x0,
                             constraints=ConstraintSet(budget=1.0))
        assert rep.duals is None  # ADMM answers carry no duals
        assert rep.iterations > 0

    def test_config_penalties_order_and_zero_slots(self):
        strategic, current = np.array([0.5, 0.5]), np.array([0.2, 0.8])
        config = RoboConfig(strategic=strategic, current=current, rho2_turnover=0.3,
                            rho1_strategic=0.1, rho2_strategic=0.2)
        specs = config.penalties()
        assert [(s.kind, s.rho) for s in specs] == [("l1", 0.1), ("l2", 0.2), ("l2", 0.3)]
        assert [s.anchor.tolist() for s in specs] == [[0.5, 0.5], [0.5, 0.5], [0.2, 0.8]]
        assert RoboConfig(strategic=strategic, current=current).penalties() == []


class TestRhoChecks:
    @pytest.mark.parametrize("rho", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("kind", ["l1", "l2", "lp"])
    def test_penalty_spec(self, kind, rho):
        with pytest.raises(ValueError, match="rho must be finite and nonnegative"):
            PenaltySpec(kind, rho, p=1.5 if kind == "lp" else None)

    @pytest.mark.parametrize("rho", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("slot", ["rho1_strategic", "rho2_strategic",
                                      "rho1_turnover", "rho2_turnover"])
    def test_robo_config_slot(self, slot, rho):
        with pytest.raises(ValueError, match=f"{slot} must be finite and nonnegative"):
            RoboConfig(strategic=np.array([0.5, 0.5]), current=np.array([0.5, 0.5]),
                       gamma=0.1, **{slot: rho})

    def test_ridge_mvo_negative_rho2(self, four_asset):
        mu, _, _, sigma = four_asset
        with pytest.raises(ValueError, match="rho must be finite and nonnegative"):
            ridge_mvo(mu, sigma, 0.25, -0.01)
