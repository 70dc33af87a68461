"""Step counts and certificates of the price-space barrier shared by the
social optimum, the alpha-0 market equilibrium and the static share's
leftover blocks."""

import math
from dataclasses import replace

import numpy as np
import pytest

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
    solve_social_optimal,
    static_share,
    verify_equilibrium,
)
from slicemarket import solvers
from tests.reference import dense_demand

ALPHAS = [0.0, 0.5, 1.0, 2.0, 5.0, 100.0, math.inf]


def preset(seed, alpha):
    return normalize_scenario(instantiate(benchmark_preset(), LoadModel(seed=seed), 0).with_alphas(alpha))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_social_optimum_steps(alpha):
    """The former primal barrier took 144-187 Newton steps here; the
    primal-dual engine takes 10-39, and at most 75 at alpha 100."""
    for seed in range(3):
        rep = solve_social_optimal(preset(seed, alpha))
        assert rep.converged
        assert rep.iterations <= 80


@pytest.mark.parametrize("alpha", [1.5, 2.0, 5.0])
def test_priced_out_provider_costs_no_halving_steps(alpha):
    """The optimum gives one preset provider nothing here.  With its rates
    halved once per step the solve took 36-39 Newton steps; dropped from the
    solve once its share is small and its price-space ratio stays below
    the best, it takes 13-18."""
    for seed in range(3):
        rep = solve_social_optimal(preset(seed, alpha))
        assert rep.converged
        assert rep.iterations <= 25
        assert np.count_nonzero(rep.utilities == 0.0) >= 1


@pytest.mark.parametrize("alpha", ALPHAS)
def test_static_share_steps(alpha):
    """The former primal barrier took 49-64 Newton steps here at alpha <= 5
    and about 180 at alpha 100; the primal-dual engine takes at most 23."""
    for seed in range(3):
        rep = static_share(preset(seed, alpha))
        assert rep.converged
        assert rep.iterations <= 30


@pytest.mark.parametrize("alpha", [10.0, 20.0, 100.0])
def test_steep_alphas_certify(alpha):
    """Both solves certify at large alpha on preset instances and on random
    markets that mix alpha with alpha-2 and max-min providers."""
    markets = [preset(seed, alpha) for seed in range(1000, 1010)]
    rng = np.random.default_rng(int(alpha) + 500)
    for _ in range(40):
        spec = random_scenario(
            rng,
            n_sps=int(rng.integers(1, 5)),
            n_cells=int(rng.integers(1, 4)),
            n_resources=int(rng.integers(1, 4)),
            classes_per_sp=int(rng.integers(1, 4)),
            alphas=[alpha, 2.0, math.inf],
        )
        markets.append(normalize_scenario(spec))
    for scn in markets:
        assert solve_social_optimal(scn).converged
        assert static_share(scn).converged


def test_large_alpha0_market_equilibrium_certifies():
    """The 112-cell alpha-0 market equilibrium certifies through
    verify_equilibrium.  The primal engine did so in 14 steps only with one
    summation order of its usage matrix; the price program has no such
    matrix."""
    spec = instantiate(benchmark_preset(n_cells=112), LoadModel(seed=3), 0).with_alphas(0.0)
    scn = normalize_scenario(spec)
    rep = solve_eg(scn)
    assert rep.method == "barrier" and rep.converged
    assert rep.iterations <= 30
    assert verify_equilibrium(scn, rep.allocation, rep.prices).is_equilibrium


@pytest.mark.parametrize("other", [1.05, 1.1])
def test_linear_provider_beside_near_one_alphas_certifies(other):
    """The preset with its first provider linear and the others just above
    alpha 1: the primal engine ran these equilibria to its step cap."""
    for seed in range(3):
        spec = instantiate(benchmark_preset(), LoadModel(seed=seed), 0)
        sps = tuple(replace(sp, alpha=0.0 if i == 0 else other) for i, sp in enumerate(spec.sps))
        rep = solve_eg(normalize_scenario(replace(spec, sps=sps)))
        assert rep.converged and rep.iterations <= 30


def with_idle_resource(spec):
    """``spec`` normalized with one more resource in its first cell, which
    no class demands."""
    first = spec.cells[0]
    idle_cell = replace(first, resources=first.resources + (ResourceDef("idle", 3.0),))
    with pytest.warns(UserWarning, match="demanded by no SP"):
        return normalize_scenario(replace(spec, cells=(idle_cell,) + spec.cells[1:]))


@pytest.mark.parametrize("solve, alpha", [(solve_eg, 0.0), (solve_social_optimal, 2.0)], ids=["me-0", "so-2"])
def test_stop_test_gets_the_usage_of_its_rates(solve, alpha, monkeypatch):
    """The barrier computes the rates' usage once per step, for its stop
    test and its step: what the stop test gets is the usage of the rates it
    gets over every good, with price and usage 0 on a good no class
    demands."""
    scn = with_idle_resource(instantiate(benchmark_preset(), LoadModel(seed=2), 0).with_alphas(alpha))
    index = scn.index
    idle = ~index.demanded_goods()
    assert np.count_nonzero(idle) == 1
    seen = []
    engine = solvers._price_barrier

    def spied(index, check, free):
        def recorded(p, scale, rates, ratio, usage, log_u):
            seen.append((p, rates, usage))
            return check(p, scale, rates, ratio, usage, log_u)

        return engine(index, recorded, free)

    monkeypatch.setattr(solvers, "_price_barrier", spied)
    assert solve(scn).converged
    assert len(seen) > 5
    for p, rates, usage in seen:
        assert p.shape == usage.shape == (index.n_goods,)
        assert np.array_equal(usage, index.per_good(rates[:, None] * index.slot_demand))
        assert p[idle] == 0.0 and usage[idle] == 0.0


@pytest.mark.parametrize(
    "solve, alpha",
    [(solve_social_optimal, a) for a in (0.0, 2.0, 5.0, math.inf)] + [(solve_eg, 0.0)],
    ids=["so-0", "so-2", "so-5", "so-inf", "me-0"],
)
def test_idle_resource_leaves_the_solve_alone(solve, alpha):
    """A good no class demands is a barrier variable of its own: the solve
    still certifies, prices it at exactly 0, and the other prices and the
    utilities are those of the market without it."""
    spec = instantiate(benchmark_preset(), LoadModel(seed=2), 0).with_alphas(alpha)
    scn = with_idle_resource(spec)
    idle = ~scn.index.demanded_goods()
    base, rep = solve(normalize_scenario(spec)), solve(scn)
    assert base.converged and rep.converged
    assert np.all(rep.prices[idle] == 0.0)
    # a good with slack keeps a price of barrier size, 1e-9 of the others'
    # or less, which no certificate fixes: prices are compared at their scale
    np.testing.assert_allclose(rep.prices[~idle], base.prices, rtol=1e-9, atol=1e-9 * base.prices.max())
    np.testing.assert_allclose(rep.utilities, base.utilities, rtol=1e-9, atol=0.0)


def no_candidates(utility, amat, mask, alpha):
    """A candidate builder whose one candidate applies nowhere: every block
    runs on the engine."""
    return np.full((1,) + mask.shape, np.nan), np.full((1, amat.shape[0], amat.shape[2]), np.nan)


def three_class(seed, alpha, n_cells=2):
    spec = random_scenario(np.random.default_rng(seed), n_cells=n_cells, classes_per_sp=3, alphas=[alpha])
    return normalize_scenario(spec)


def engine_spy(monkeypatch):
    """The dense usage of the block markets handed to the barrier, one
    ``[K, m]`` array per block in call order."""
    handed = []
    engine = solvers._welfare_optimum

    def spied(index):
        handed.append(dense_demand(index))
        return engine(index)

    monkeypatch.setattr(solvers, "_welfare_optimum", spied)
    return handed


def test_closed_form_matches_the_engine(monkeypatch):
    """Blocks certified in closed form give the engine's static share: the
    same flags and utilities within 1e-11, on the preset (two classes on
    three goods) and on three-class markets, where some blocks still reach
    the engine."""
    markets = [preset(seed, alpha) for seed in range(3) for alpha in ALPHAS]
    markets += [three_class(seed, alpha) for seed in range(8) for alpha in (0.0, 0.5, 1.0, 2.0, 5.0)]
    closed = [static_share(scn) for scn in markets]
    monkeypatch.setattr(solvers, "_block_candidates", no_candidates)
    for scn, got in zip(markets, closed):
        want = static_share(scn)
        assert got.converged == want.converged
        np.testing.assert_allclose(got.utilities, want.utilities, rtol=1e-11, atol=0.0)


def test_preset_static_share_skips_the_engine(monkeypatch):
    handed = engine_spy(monkeypatch)
    for seed in range(3):
        for alpha in ALPHAS:
            rep = static_share(preset(seed, alpha))
            assert rep.converged and rep.iterations == 0
    assert handed == []


def test_engine_gets_only_uncertified_blocks(monkeypatch):
    """At alpha 2 every class gets a positive rate, so a block of three
    classes certifies in closed form where one good binds or all three do
    (a vertex).  The engine is handed exactly the blocks where two goods
    bind, in block order."""
    scn = three_class(0, 2.0, n_cells=4)
    blocks = scn.index.blocks
    monkeypatch.setattr(solvers, "_block_candidates", no_candidates)
    rates = solvers._standalone(scn.index)[0]
    monkeypatch.undo()
    usage = np.einsum("bkj,bk->bj", blocks.demand, rates[blocks.rows])
    binding = (usage > 1.0 - 1e-6).sum(axis=1)
    assert blocks.class_mask.all() and set(binding.tolist()) == {1, 2, 3}
    handed = engine_spy(monkeypatch)
    assert static_share(scn).converged
    want = blocks.demand / blocks.demand.max(axis=2, keepdims=True)
    assert len(handed) == int((binding == 2).sum())
    for got, block in zip(handed, want[binding == 2]):
        # a block's usage rows are its demands scaled per class, on the
        # goods its classes use
        np.testing.assert_allclose(got / got.max(axis=1, keepdims=True), block[:, (block > 0).any(axis=0)], rtol=1e-12)


def test_alpha0_face_certifies(monkeypatch):
    """At alpha 0 two classes with the same weight per unit of every good
    are equally good: the block's optima form a face, and its vertex
    system is singular.  One binding good certifies it all the same."""
    cells = (CellDef("c0", (ResourceDef("cpu", 10.0), ResourceDef("bw", 20.0))),)
    classes = (ClassDef("small", {"cpu": 1.0, "bw": 3.0}), ClassDef("large", {"cpu": 2.0, "bw": 6.0}))
    sp = ProviderDef(
        "sp0", 1.0, 0.0, (SupportEntry("c0", "small", 1, weight=1.0), SupportEntry("c0", "large", 1, weight=2.0))
    )
    handed = engine_spy(monkeypatch)
    rep = static_share(normalize_scenario(ScenarioSpec(cells, classes, (sp,))))
    assert handed == [] and rep.iterations == 0
    assert rep.converged and rep.residuals["duality_gap"] <= 1e-11
    # bandwidth binds: 20 / 3 units of the small class's rate, worth 1 each
    assert rep.utilities[0] == pytest.approx(20.0 / 3.0, rel=1e-12)
