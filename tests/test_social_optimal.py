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
from slicemarket import solvers
from tests.reference import dense_demand
from tests.test_market import make_scn

MIXED_ALPHAS = [0.0, 0.5, 1.0, 2.0, 5.0, math.inf]
PAPER_ALPHAS = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 100.0, math.inf]


def welfare(scn, rep):
    return float(np.dot(scn.index.budgets, rep.utilities))


def price_bound(index, prices):
    """The price-space bound ``(p . 1) max_s B_s / e_s(D_s p)`` on the
    welfare of every feasible allocation, from the index's log ratios."""
    return float(prices.sum()) * math.exp(index.log_ratios(prices).max())


def variables(index):
    """One column per rate of a finite-alpha triple and one per level of a
    max-min provider: ``(provider, rows, usage of one unit)``."""
    demand = dense_demand(index)
    out = []
    for s in range(index.n_sps):
        rows = index.sp_rows(s)
        if math.isinf(index.alphas[s]):
            out.append((s, rows, index.users[rows] @ demand[rows]))
        else:
            out.extend((s, rows[k : k + 1], demand[i]) for k, i in enumerate(rows))
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
        ratio = price_bound(scn.index, rep.prices) / got
        assert 1.0 <= ratio <= 1.0 + 1e-9
        assert ratio - 1.0 == pytest.approx(rep.residuals["duality_gap"], abs=1e-13)


def test_price_space_bound_is_weak_duality():
    rng = np.random.default_rng(37)
    for _ in range(8):
        spec = random_scenario(rng, n_sps=int(rng.integers(1, 4)), alphas=MIXED_ALPHAS)
        scn = normalize_scenario(spec)
        demanded = scn.index.demanded_goods()
        values = [welfare(scn, solver(scn)) for solver in (solve_social_optimal, solve_eg, static_share)]
        for _ in range(20):
            prices = np.zeros(scn.index.n_goods)
            prices[demanded] = rng.exponential(1.0, int(demanded.sum())) * rng.choice([1e-3, 1.0, 1e3])
            assert price_bound(scn.index, prices) >= max(values) * (1 - 1e-12)


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


def preset(seed, alpha):
    return normalize_scenario(instantiate(benchmark_preset(), LoadModel(seed=seed), 0).with_alphas(alpha))


@pytest.mark.parametrize("seed", range(3))
def test_preset_gap_is_the_bound_over_the_returned_welfare(seed):
    """The barrier's stop test takes the welfare from its own log utilities
    (``U_s(c pi / L) = c / e_s(L)``); the reported gap is still the bound of
    the reported prices over the welfare of the returned rates, as
    ``test_mixed_alpha_markets_match_slsqp`` checks on mixed markets."""
    for alpha in PAPER_ALPHAS:
        scn = preset(seed, alpha)
        rep = solve_social_optimal(scn)
        assert rep.converged
        ratio = price_bound(scn.index, rep.prices) / welfare(scn, rep)
        assert ratio - 1.0 == pytest.approx(rep.residuals["duality_gap"], abs=1e-13)


def engine_runs(monkeypatch):
    """A list that gets one entry per run of the price-space barrier."""
    runs = []
    engine = solvers._price_barrier

    def counted(*args, **kwargs):
        runs.append(1)
        return engine(*args, **kwargs)

    monkeypatch.setattr(solvers, "_price_barrier", counted)
    return runs


@pytest.mark.parametrize("alpha", [1.0, 2.0, 5.0])
def test_priced_out_provider_gets_exactly_zero(alpha, monkeypatch):
    """A provider whose price-space ratio is below the best gets rates
    exactly 0, in one barrier run with no active set, and the welfare is
    the one of a solve that zeroes no provider (no gap room to zero in),
    where those providers get almost nothing."""
    markets = [preset(seed, alpha) for seed in range(7001, 7005)]
    runs = engine_runs(monkeypatch)
    zeroed = []
    for scn in markets:
        runs.clear()
        zeroed.append(solve_social_optimal(scn))
        assert len(runs) == 1
    monkeypatch.setattr(solvers, "GAP_TOL", 0.0)
    for scn, rep in zip(markets, zeroed):
        full = solve_social_optimal(scn)
        out = np.flatnonzero(rep.utilities == 0.0)
        assert out.size >= 1
        assert np.all(rep.allocation.rates[np.isin(scn.index.sp_of, out)] == 0.0)
        assert np.all(full.utilities[out] > 0.0)
        assert np.all(full.utilities[out] < 1e-6 * full.utilities.max())
        assert rep.converged
        ratios = scn.index.log_ratios(rep.prices)
        assert np.all(ratios[out] < ratios.max())
        assert welfare(scn, rep) == pytest.approx(welfare(scn, full), rel=1e-10)


def test_overflowing_welfare_fails_before_any_step(monkeypatch):
    """At alpha 0.99 the preset's welfare, and with it the price scale of
    the start, is about exp(720): the solve says so instead of returning
    infinite prices."""
    checks = []
    engine = solvers._price_barrier

    def spied(index, check, free):
        def counted(*args):
            checks.append(1)
            return check(*args)

        return engine(index, counted, free)

    monkeypatch.setattr(solvers, "_price_barrier", spied)
    scn = normalize_scenario(instantiate(benchmark_preset(), LoadModel(seed=1), 0).with_alphas(0.99))
    with pytest.raises(ValueError, match="welfare .* overflows float64"):
        solve_social_optimal(scn)
    assert not checks


def test_preset_alpha_100_steps():
    """The primal engine took 37-74 Newton steps on these markets, its
    Armijo search halving a dozen times near a capacity boundary; the
    price-space barrier takes at most 30."""
    for seed in range(3):
        rep = solve_social_optimal(preset(seed, 100.0))
        assert rep.converged
        assert rep.iterations <= 30


def test_stops_once_the_bound_holds_before_zeroing():
    """Seed 303 at alpha 3.5: zeroing two priced-out providers leaves a gap
    of 5.9e-11, above the stop gap but within ``GAP_TOL``.  The solve stops
    on the gap before zeroing (the last of 1000 steps gave the same
    welfare) and reports the gap after it."""
    scn = preset(303, 3.5)
    rep = solve_social_optimal(scn)
    assert rep.converged
    assert rep.iterations <= 30
    assert solvers._BARRIER_STOP_GAP < rep.residuals["duality_gap"] <= 1e-10
    assert np.count_nonzero(rep.utilities == 0.0) == 2
    assert welfare(scn, rep) == pytest.approx(0.0005180600272432764, rel=1e-11)
