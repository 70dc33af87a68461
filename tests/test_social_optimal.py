"""The social optimum against independent references: an exact HiGHS LP
where the welfare is linear (every provider at alpha 0 or inf), SLSQP on
random mixed-alpha markets, and weak duality of its price-space bound."""

import math
import warnings

import numpy as np
import pytest
from scipy import optimize

from slicemarket import (
    LoadModel,
    benchmark_preset,
    instantiate,
    normalize_scenario,
    random_scenario,
    solve_eg,
    solve_social_optimal,
    static_share,
)
from slicemarket.solvers import _WelfareLayout
from tests.test_market import make_scn

MIXED_ALPHAS = [0.0, 0.5, 1.0, 2.0, 5.0, math.inf]


def welfare(scn, rep):
    return float(np.dot(scn.index.budgets, rep.utilities))


def variables(index):
    """One column per rate of a finite-alpha triple and one per level of a
    max-min provider: ``(provider, rows, usage of one unit)``."""
    out = []
    for s in range(index.n_sps):
        rows = index.sp_rows(s)
        if math.isinf(index.alphas[s]):
            out.append((s, rows, index.users[rows] @ index.demand[rows]))
        else:
            out.extend((s, rows[k : k + 1], index.demand[i]) for k, i in enumerate(rows))
    return out


def lp_welfare(index):
    """Exact optimum of a welfare that is linear in the variables."""
    cols = variables(index)
    gain = []
    for s, rows, _ in cols:
        weight = 1.0 if math.isinf(index.alphas[s]) else float(index.weights[rows[0]])
        gain.append(index.budgets[s] * weight)
    amat = np.array([col for _, _, col in cols]).T
    res = optimize.linprog(
        -np.array(gain), A_ub=amat, b_ub=np.ones(index.n_goods),
        bounds=[(0.0, None)] * len(cols), method="highs",
    )
    assert res.status == 0
    return -res.fun


def slsqp_welfare(index):
    """SLSQP on the welfare from an equal split of every good, with the
    degree-one utilities and their gradients written out per provider."""
    cols = variables(index)
    amat = np.array([col for _, _, col in cols]).T
    per_good = (amat > 0).sum(axis=1)
    x0 = 0.5 / np.where(amat > 0, amat * per_good[:, None], 0.0).max(axis=0)
    groups = [np.array([v for v, (s, _, _) in enumerate(cols) if s == sp]) for sp in range(index.n_sps)]

    def value_and_grad(x):
        total, grad = 0.0, np.zeros_like(x)
        for s, vs in enumerate(groups):
            alpha, budget = float(index.alphas[s]), float(index.budgets[s])
            u = x[vs]
            w = index.weights[np.concatenate([cols[v][1] for v in vs])]
            if math.isinf(alpha):
                val, g = u[0], np.ones(1)
            elif alpha == 0.0:
                val, g = float(w @ u), w
            elif alpha == 1.0:
                val = math.exp(float(w @ np.log(u)) / w.sum())
                g = val * w / w.sum() / u
            else:
                q = 1.0 - alpha
                inner = float(w @ u**q)
                val = inner ** (1.0 / q)
                g = val * w * u ** (q - 1.0) / inner
            total += budget * val
            grad[vs] = budget * g
        return total, grad

    scale = value_and_grad(x0)[0]
    cons = {"type": "ineq", "fun": lambda x: 1.0 - amat @ x, "jac": lambda x: -amat}
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*outside bounds.*")
        res = optimize.minimize(
            lambda x: tuple(-part / scale for part in value_and_grad(x)),
            x0,
            jac=True,
            bounds=[(1e-12, None)] * len(cols),
            constraints=[cons],
            method="SLSQP",
            options={"maxiter": 1000, "ftol": 1e-15},
        )
    x = res.x / max((amat @ res.x).max(), 1.0)
    return value_and_grad(x)[0]


@pytest.mark.parametrize("alphas", [[0.0], [math.inf], [0.0, math.inf]], ids=["zero", "inf", "mixed"])
def test_linear_welfare_matches_highs(alphas):
    rng = np.random.default_rng(29 + len(alphas))
    for _ in range(6):
        spec = random_scenario(rng, n_sps=int(rng.integers(1, 4)), classes_per_sp=int(rng.integers(1, 4)), alphas=alphas)
        scn = normalize_scenario(spec)
        rep = solve_social_optimal(scn)
        assert welfare(scn, rep) == pytest.approx(lp_welfare(scn.index), rel=1e-9)
        assert rep.converged


@pytest.mark.parametrize("alpha", [0.0, math.inf])
def test_preset_linear_welfare_matches_highs(alpha):
    spec = instantiate(benchmark_preset(), LoadModel(seed=5), 0)
    scn = normalize_scenario(spec.with_alphas(alpha))
    rep = solve_social_optimal(scn)
    assert welfare(scn, rep) == pytest.approx(lp_welfare(scn.index), rel=1e-9)
    assert rep.converged
    assert rep.residuals["duality_gap"] <= 1e-9


def test_mixed_alpha_markets_match_slsqp():
    rng = np.random.default_rng(31)
    for _ in range(12):
        spec = random_scenario(
            rng,
            n_sps=int(rng.integers(1, 4)),
            n_resources=int(rng.integers(1, 4)),
            classes_per_sp=int(rng.integers(1, 4)),
            alphas=MIXED_ALPHAS,
        )
        scn = normalize_scenario(spec)
        rep = solve_social_optimal(scn)
        got = welfare(scn, rep)
        assert rep.converged
        assert rep.residuals["duality_gap"] <= 1e-9
        assert rep.residuals["capacity_gap"] <= 1e-12
        assert got >= slsqp_welfare(scn.index) * (1 - 1e-9)
        # the reported prices are the certificate: their bound is above the
        # welfare by the reported gap
        lay = _WelfareLayout(scn.index)
        ratio = math.exp(lay.log_bound(rep.prices[lay.goods])) / got
        assert 1.0 <= ratio <= 1.0 + 1e-9
        assert ratio - 1.0 == pytest.approx(rep.residuals["duality_gap"], abs=1e-13)


def test_price_space_bound_is_weak_duality():
    rng = np.random.default_rng(37)
    for _ in range(8):
        spec = random_scenario(rng, n_sps=int(rng.integers(1, 4)), alphas=MIXED_ALPHAS)
        scn = normalize_scenario(spec)
        lay = _WelfareLayout(scn.index)
        values = [welfare(scn, solver(scn)) for solver in (solve_social_optimal, solve_eg, static_share)]
        for _ in range(20):
            lam = rng.exponential(1.0, int(lay.goods.sum())) * rng.choice([1e-3, 1.0, 1e3])
            bound = math.exp(lay.log_bound(lam))
            assert bound >= max(values) * (1 - 1e-12)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 5.0, math.inf])
def test_face_of_optima_certifies(alpha):
    """Two identical one-class providers share a good, so every split of it
    is optimal, and a third holds the other good alone: welfare is
    (2 + 2.5) / 3 whatever the split."""
    scn = make_scn([[0.5, 0.0], [0.5, 0.0], [0.0, 0.4]], [alpha] * 3, [1 / 3] * 3)
    rep = solve_social_optimal(scn)
    assert welfare(scn, rep) == pytest.approx(1.5, rel=1e-9)
    assert rep.converged


def test_mixed_market_beats_former_solver():
    """On this market the former dual-subgradient and SLSQP solver returned
    welfare 0.2451366692618882, 9.7e-5 below the certified optimum, and
    still reported convergence."""
    rng = np.random.default_rng(83)
    for _ in range(4):
        spec = random_scenario(rng, alphas=[1.0, 2.0, 5.0, math.inf])
    assert [sp.alpha for sp in spec.sps] == [5.0, 2.0, 2.0]
    scn = normalize_scenario(spec)
    rep = solve_social_optimal(scn)
    assert welfare(scn, rep) > 0.2451366692618882 * (1 + 9e-5)
    assert rep.converged


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_budget_perturbation_moves_welfare_by_its_size(alpha):
    """A change of one budget in the 13th digit moves the certified optimum
    by at most as much, so the returned welfare moves by no more than the
    certificate tolerance."""
    for seed in range(1000, 1010):
        spec = instantiate(benchmark_preset(), LoadModel(seed=seed), 0).with_alphas(alpha)
        budgets = {sp.name: sp.budget for sp in spec.sps}
        budgets[spec.sps[0].name] *= 1 + 1e-13
        nudged = spec.with_budgets(budgets)
        base, moved = (normalize_scenario(s) for s in (spec, nudged))
        w0 = welfare(base, solve_social_optimal(base))
        w1 = welfare(moved, solve_social_optimal(moved))
        assert abs(w1 / w0 - 1.0) <= 1e-9
