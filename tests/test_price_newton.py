"""The market equilibrium by projected Newton steps on the price dual:
certification on the preset, agreement with the bid dynamics at alpha >= 1,
the Eisenberg-Gale optimum of random mixed-alpha markets as found by SLSQP,
and degenerate cells."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize
from scipy.special import logsumexp

from slicemarket import (
    CellDef,
    ClassDef,
    LoadModel,
    ProviderDef,
    ResourceDef,
    ScenarioSpec,
    SupportEntry,
    benchmark_preset,
    instantiate,
    normalize_scenario,
    random_scenario,
    run_dynamics,
    solve_eg,
)
from slicemarket.market import _eg_gap, utilities
from slicemarket.solvers import static_share
from tests.reference import dense_demand
from tests.test_market import mixed_market
from tests.test_social_optimal import variables

MIXED_ALPHAS = [0.0, 0.3, 0.5, 0.9, 1.0, 2.0, 5.0, math.inf]


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 5.0, math.inf])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_preset_certifies(seed, alpha):
    spec = instantiate(benchmark_preset(), LoadModel(seed=seed), 0).with_alphas(alpha)
    rep = solve_eg(normalize_scenario(spec))
    assert rep.method == ("barrier" if alpha == 0.0 else "tatonnement")
    assert rep.converged
    assert rep.iterations <= 60
    assert rep.residuals["br_gap_rel"] <= 1e-12


@pytest.mark.parametrize(
    "n_cells, alpha, cap", [(7, 0.5, 6), (7, 2.0, 7), (7, 5.0, 7), (112, 0.5, 6), (112, 2.0, 8), (112, 5.0, 7)]
)
def test_no_step_from_a_rounding_level_iterate(n_cells, alpha, cap):
    """The solve stops once the projected gradient is within the rounding
    of the usage sums: a step from there could only fail to halve it, and
    each of these solves took one step more when that failure was the stop
    signal."""
    spec = instantiate(benchmark_preset(n_cells=n_cells), LoadModel(seed=3), 0).with_alphas(alpha)
    rep = solve_eg(normalize_scenario(spec))
    assert rep.method == "tatonnement"
    assert rep.converged
    assert rep.iterations <= cap
    assert rep.residuals["br_gap_rel"] <= 1e-12


def log_unit_cost(index, prices, s):
    """``log e_s(D_s p)``: the log of the least cost of one unit of provider
    ``s``'s degree-one utility at the prices ``L = D p`` of its classes'
    unit rates, ``(sum w^(1/a) L^((a-1)/a))^(a/(a-1))``, ``prod (L /
    w_hat)^w_hat`` at ``a = 1``, ``sum n L`` at ``a = inf`` and ``min L / w``
    at ``a = 0``."""
    rows = index.sp_rows(s)
    with np.errstate(divide="ignore"):
        # a max-min provider's class may find all its goods free
        log_l = np.log(dense_demand(index)[rows] @ prices)
    log_w = np.log(index.weights[rows])
    alpha = float(index.alphas[s])
    if math.isinf(alpha):
        return float(logsumexp(log_w + log_l))
    if alpha == 0.0:
        return float((log_l - log_w).min())
    if alpha == 1.0:
        w_hat = np.exp(log_w - logsumexp(log_w))
        return float(w_hat @ (log_l - np.log(w_hat)))
    expo = (alpha - 1.0) / alpha
    return float(logsumexp(log_w / alpha + expo * log_l)) / expo


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0, math.inf])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_preset_reports_duality_gap(seed, alpha):
    spec = instantiate(benchmark_preset(), LoadModel(seed=seed), 0).with_alphas(alpha)
    scn = normalize_scenario(spec)
    rep = solve_eg(scn)
    assert rep.method == "tatonnement"
    index, p = scn.index, rep.prices
    budgets = index.budgets
    log_e = np.array([log_unit_cost(index, p, s) for s in range(index.n_sps)])
    gap = p.sum() - budgets.sum() + budgets @ (np.log(budgets) - log_e) - budgets @ np.log(rep.utilities)
    assert -1e-12 <= rep.residuals["duality_gap"] <= 1e-9
    assert rep.residuals["duality_gap"] == pytest.approx(gap, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, math.inf])
def test_log_ratios_match_per_provider_unit_cost(alpha):
    """The index's ``log B_s - log e_s(D_s p)``, one aggregate over every
    triple, against the unit cost of each provider on its own; a good priced
    at 0 makes the ratio inf at ``a <= 1``."""
    rng = np.random.default_rng(41)
    for _ in range(10):
        spec = random_scenario(rng, n_sps=int(rng.integers(1, 5)), n_cells=int(rng.integers(1, 4)), alphas=[alpha])
        index = normalize_scenario(spec).index
        for zero in (0.0, 0.3):
            p = rng.uniform(0.05, 2.0, index.n_goods)
            p[rng.random(index.n_goods) < zero] = 0.0
            ref = [math.log(index.budgets[s]) - log_unit_cost(index, p, s) for s in range(index.n_sps)]
            np.testing.assert_allclose(index.log_ratios(p), ref, rtol=1e-13, atol=1e-13)


def test_duality_gap_is_weak_duality():
    """At any positive prices and any feasible rates the Eisenberg-Gale gap
    is nonnegative.  At the equilibrium it is 0, and at the equilibrium
    prices no feasible rates have a smaller gap than the equilibrium's."""
    rng = np.random.default_rng(43)
    for _ in range(20):
        scn = mixed_market(rng)
        index = scn.index
        with np.errstate(divide="ignore"):
            log_u = index.utility(np.log(static_share(scn).allocation.rates))
        for _ in range(10):
            p = rng.exponential(1.0, index.n_goods) * rng.choice([1e-2, 1.0, 1e2])
            assert _eg_gap(index, p, index.log_ratios(p), log_u)[0] >= -1e-12
        rep = solve_eg(scn)
        assert abs(rep.residuals["duality_gap"]) <= 1e-9
        assert _eg_gap(index, rep.prices, index.log_ratios(rep.prices), log_u)[0] >= rep.residuals["duality_gap"] - 1e-12


def test_large_absolute_best_response_gap_at_alpha_near_one():
    """Two alpha-0.9 providers with utilities of about 1e9: a best-response
    gap at the rounding of those utilities can exceed the absolute 1e-6
    while the relative and duality gaps are at rounding level, so
    ``converged`` rests on the budget and clearing gaps and on the duality
    gap."""
    g = np.random.default_rng(5891)
    spec = random_scenario(g, n_sps=int(g.integers(2, 6)), n_cells=int(g.integers(1, 5)), alphas=MIXED_ALPHAS)
    assert [sp.alpha for sp in spec.sps] == [0.9, 0.9]
    rep = solve_eg(normalize_scenario(spec))
    assert rep.method == "tatonnement"
    assert rep.converged
    assert rep.utilities.max() > 1e9
    assert rep.residuals["duality_gap"] <= 1e-12
    assert rep.residuals["br_gap_rel"] <= 1e-12


def test_agrees_with_bid_dynamics_at_alpha_geq_one():
    rng = np.random.default_rng(223)
    for _ in range(30):
        scn = normalize_scenario(random_scenario(rng, alphas=[1.0, 1.5, 2.0, 5.0, math.inf]))
        rep = solve_eg(scn)
        dyn = run_dynamics(scn, max_iterations=100000, tol=1e-13)
        assert rep.converged and dyn.converged
        np.testing.assert_allclose(rep.prices, dyn.prices, rtol=0, atol=1e-10)


def eg_utilities(index):
    """Every provider's degree-one utility at the optimum of the
    Eisenberg-Gale program ``max sum_s B_s log U_s`` under unit capacities,
    by SLSQP from an equal split of every good.  Max-min providers enter
    through their per-user level."""
    cols = variables(index)
    amat = np.array([col for _, _, col in cols]).T
    per_good = (amat > 0).sum(axis=1)
    ref = 1.0 / np.where(amat > 0, amat * per_good[:, None], 0.0).max(axis=0)
    amat = amat * ref
    groups = [np.array([v for v, (s, _, _) in enumerate(cols) if s == sp]) for sp in range(index.n_sps)]

    def log_utilities(x):
        """Log utilities and their gradients in the scaled variables."""
        out, grads = np.zeros(index.n_sps), np.zeros((index.n_sps, x.size))
        for s, vs in enumerate(groups):
            alpha = float(index.alphas[s])
            log_u = np.log(x[vs] * ref[vs])
            if math.isinf(alpha):
                out[s], share = log_u[0], np.ones(1)
            else:
                log_w = np.log(index.weights[np.concatenate([cols[v][1] for v in vs])])
                q = 1.0 - alpha
                if alpha == 1.0:
                    share = np.exp(log_w - logsumexp(log_w))
                    out[s] = share @ log_u
                else:
                    terms = log_w + q * log_u
                    share = np.exp(terms - logsumexp(terms))
                    out[s] = logsumexp(terms) / q
            grads[s, vs] = share / x[vs]
        return out, grads

    def objective(x):
        out, grads = log_utilities(x)
        return -float(index.budgets @ out), -(index.budgets @ grads)

    cons = {"type": "ineq", "fun": lambda x: 1.0 - amat @ x, "jac": lambda x: -amat}
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*outside bounds.*")
        res = optimize.minimize(
            objective,
            np.full(len(cols), 0.5),
            jac=True,
            bounds=[(1e-12, None)] * len(cols),
            constraints=[cons],
            method="SLSQP",
            options={"maxiter": 2000, "ftol": 1e-15},
        )
    x = res.x / max((amat @ res.x).max(), 1.0)
    return np.exp(log_utilities(x)[0])


def mixed_markets(n):
    """``n`` random markets, each with at least one provider below alpha 1;
    the first has the mix [0.5, inf, 5, 0.3]."""
    rng = np.random.default_rng(211)
    alphas = [0.5, math.inf, 5.0, 0.3]
    for _ in range(n):
        spec = random_scenario(
            rng, n_sps=len(alphas), n_cells=int(rng.integers(1, 4)), classes_per_sp=int(rng.integers(1, 3))
        )
        yield replace(spec, sps=tuple(replace(sp, alpha=a) for sp, a in zip(spec.sps, alphas)))
        alphas = [1.0]
        while min(alphas) >= 1.0:
            alphas = [float(a) for a in rng.choice(MIXED_ALPHAS, size=int(rng.integers(2, 5)))]


def test_random_markets_match_eisenberg_gale_optimum():
    for spec in mixed_markets(30):
        scn = normalize_scenario(spec)
        rep = solve_eg(scn)
        reference = eg_utilities(scn.index)
        got = utilities(scn, rep.allocation.rates)
        np.testing.assert_allclose(got, reference, rtol=1e-6)


def one_cell(demands, alphas, budgets, n_goods):
    """One cell with ``n_goods`` unit goods; provider ``s`` serves one class
    of one user with normalized demands ``demands[s]``."""
    cell = CellDef("c0", tuple(ResourceDef(f"r{g}", 1.0) for g in range(n_goods)))
    classes = tuple(
        ClassDef(f"k{s}", {f"r{g}": d for g, d in enumerate(row) if d > 0}) for s, row in enumerate(demands)
    )
    sps = tuple(
        ProviderDef(f"sp{s}", b, a, (SupportEntry("c0", f"k{s}", 1),))
        for s, (a, b) in enumerate(zip(alphas, budgets))
    )
    return normalize_scenario(ScenarioSpec((cell,), classes, sps))


def test_one_class_on_three_goods():
    # a single class fills the good it needs most; the other two are free
    scn = one_cell([[0.5, 0.25, 0.125]], [0.5], [1.0], 3)
    rep = solve_eg(scn)
    assert rep.converged
    assert rep.prices[0] == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_array_equal(rep.prices[1:], [0.0, 0.0])
    assert rep.allocation.rates[0] == pytest.approx(2.0, rel=1e-12)


def test_identical_demand_columns():
    # r1 and r2 are consumed alike by both classes, so only the sum of
    # their prices is determined: the dual optima form a face
    scn = one_cell([[0.4, 0.2, 0.2], [0.1, 0.3, 0.3]], [0.3, 2.0], [0.6, 0.4], 3)
    rep = solve_eg(scn)
    assert rep.converged
    assert rep.prices.sum() == pytest.approx(1.0, abs=1e-12)


def test_good_in_excess_supply():
    # neither class uses r2 up: its price is exactly zero
    scn = one_cell([[0.5, 0.1, 0.05], [0.1, 0.5, 0.05]], [0.0, 0.5], [0.5, 0.5], 3)
    rep = solve_eg(scn)
    assert rep.converged
    assert rep.prices[2] == 0.0
    assert rep.allocation.x.sum(axis=0)[2] < 1.0


def test_max_min_provider_with_a_free_cell():
    # sp0 (max-min) alone uses cell c0, where its level leaves the good
    # unsold: the row's price is exactly 0 and its rate stays finite
    cells = tuple(CellDef(c, (ResourceDef("r0", 1.0),)) for c in ("c0", "c1"))
    classes = (ClassDef("k0", {"r0": 0.5}),)
    sps = (
        ProviderDef("sp0", 0.4, math.inf, (SupportEntry("c0", "k0", 1), SupportEntry("c1", "k0", 1))),
        ProviderDef("sp1", 0.6, 0.5, (SupportEntry("c1", "k0", 1),)),
    )
    rep = solve_eg(normalize_scenario(ScenarioSpec(cells, classes, sps)))
    assert rep.converged
    assert rep.prices[0] == 0.0
    assert rep.prices[1] == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(rep.allocation.rates, [0.8, 0.8, 1.2], rtol=1e-12)
