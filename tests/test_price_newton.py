"""The market equilibrium of markets with some alpha < 1 (the projected
Newton route): certification on the preset, the Eisenberg-Gale optimum of
random mixed-alpha markets as found by SLSQP, and degenerate cells."""

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
    solve_eg,
)
from slicemarket.market import utilities
from slicemarket.solvers import ALPHA_ZERO_SURROGATE
from tests.test_social_optimal import variables

MIXED_ALPHAS = [0.0, 0.3, 0.5, 0.9, 1.0, 2.0, 5.0, math.inf]


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_preset_certifies(seed, alpha):
    spec = instantiate(benchmark_preset(), LoadModel(seed=seed), 0).with_alphas(alpha)
    rep = solve_eg(normalize_scenario(spec))
    assert rep.method == "tatonnement"
    assert rep.converged
    assert rep.iterations <= 60
    assert rep.residuals["br_gap_rel"] <= 1e-12


def surrogate(spec):
    """The market the equilibrium is computed on: alpha 0 replaced by its
    smoothed surrogate, default weights recomputed."""
    sps = tuple(replace(sp, alpha=sp.alpha or ALPHA_ZERO_SURROGATE) for sp in spec.sps)
    return normalize_scenario(replace(spec, sps=sps))


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
        work = surrogate(spec)
        reference = eg_utilities(work.index)
        got = utilities(work, rep.allocation.rates)
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
