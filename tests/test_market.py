"""Service rates, utilities, the trading post, equilibrium verification."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from slicemarket import (
    Allocation,
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
    solve_social_optimal,
    static_share,
    utilities,
    verify_equilibrium,
)
from slicemarket.market import make_report, settle_bids
from tests.reference import dense_demand, report_bids, service_rate, tp_allocate
from tests.test_kernel import mixed_scenario


def make_scn(demands, alphas, budgets, users=None, weights=None, caps=(1.0, 1.0)):
    """One cell, one class per SP, explicit normalized demand rows."""
    users = users or [1] * len(demands)
    weights = weights or [None] * len(demands)
    cells = (CellDef("c0", tuple(ResourceDef(f"r{j}", caps[j]) for j in range(len(caps)))),)
    classes = []
    sps = []
    for i, drow in enumerate(demands):
        demand = {f"r{j}": d * caps[j] for j, d in enumerate(drow) if d > 0}
        classes.append(ClassDef(f"k{i}", demand))
        sps.append(
            ProviderDef(
                f"sp{i}",
                budgets[i],
                alphas[i],
                (SupportEntry("c0", f"k{i}", users[i], weight=weights[i]),),
            )
        )
    return normalize_scenario(ScenarioSpec(cells, tuple(classes), tuple(sps)))


class TestServiceRate:
    def test_bundle_example(self):
        assert service_rate([0.4, 0.2], [0.2, 0.1]) == pytest.approx(2.0)

    def test_excess_resource_is_wasted(self):
        assert service_rate([0.6, 0.2], [0.2, 0.1]) == pytest.approx(2.0)

    def test_base_demand_gives_unit_rate(self):
        d = np.array([0.3, 0.7, 0.1])
        assert service_rate(d, d) == pytest.approx(1.0)

    def test_zero_on_consumed_resource(self):
        assert service_rate([0.0, 0.5], [0.2, 0.1]) == 0.0

    def test_unconsumed_resource_ignored(self):
        assert service_rate([0.0, 0.5], [0.0, 0.1]) == pytest.approx(5.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            service_rate([1.0], [0.5, 0.5])

    def test_monotone_and_scaling(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = rng.uniform(0.1, 1.0, 3)
            x = rng.uniform(0.0, 1.0, 3)
            base = service_rate(x, d)
            j = rng.integers(3)
            bumped = x.copy()
            bumped[j] += 0.1
            assert service_rate(bumped, d) >= base - 1e-15
            t = rng.uniform(0.5, 3.0)
            assert service_rate(t * x, d) == pytest.approx(t * base, rel=1e-12)


def rates_scn(alpha, users=(1, 1), weights=(1.0, 1.0)):
    """One SP with two classes on separate resources, for utility formulas."""
    cells = (CellDef("c0", (ResourceDef("r0", 1.0), ResourceDef("r1", 1.0))),)
    classes = (ClassDef("k0", {"r0": 1.0}), ClassDef("k1", {"r1": 1.0}))
    sp = ProviderDef(
        "sp0",
        1.0,
        alpha,
        (
            SupportEntry("c0", "k0", users[0], weight=weights[0]),
            SupportEntry("c0", "k1", users[1], weight=weights[1]),
        ),
    )
    return normalize_scenario(ScenarioSpec(cells, classes, (sp,)))


class TestUtilities:
    def test_linear(self):
        scn = rates_scn(0.0)
        assert utilities(scn, np.array([2.0, 8.0]))[0] == pytest.approx(10.0)

    def test_max_min(self):
        scn = rates_scn(math.inf, users=(2, 4), weights=(None, None))
        assert utilities(scn, np.array([2.0, 8.0]))[0] == pytest.approx(1.0)

    def test_zero_rate_markers(self):
        # a class left at rate 0 zeroes the utility at alpha >= 1
        u = np.array([0.0, 8.0])
        assert utilities(rates_scn(1.0), u)[0] == 0.0
        assert utilities(rates_scn(2.0), u)[0] == 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            utilities(rates_scn(1.0), np.array([-1.0, 1.0]))[0]

    def test_homog_alpha_two(self):
        scn = rates_scn(2.0)
        assert utilities(scn, np.array([2.0, 8.0]))[0] == pytest.approx(1.6)

    def test_homog_scaling(self):
        scn = rates_scn(2.0)
        u = np.array([2.0, 8.0])
        v1 = utilities(scn, u)[0]
        v3 = utilities(scn, 3.0 * u)[0]
        assert v3 == pytest.approx(3.0 * v1, rel=1e-12)

    def test_homog_alpha_one_is_geometric_mean_limit(self):
        u = np.array([2.0, 8.0])
        val = utilities(rates_scn(1.0), u)[0]
        assert val == pytest.approx(4.0, rel=1e-12)
        # the aggregate family is continuous at alpha=1 exactly when the
        # weights sum to one; bracket the limit there
        half = (0.5, 0.5)
        val_n = utilities(rates_scn(1.0, weights=half), u)[0]
        lo = utilities(rates_scn(1.0 + 1e-4, weights=half), u)[0]
        hi = utilities(rates_scn(1.0 - 1e-4, weights=half), u)[0]
        assert val_n == pytest.approx(4.0, rel=1e-12)
        assert min(lo, hi) <= val_n <= max(lo, hi)
        assert val_n == pytest.approx(lo, rel=1e-3)
        assert val_n == pytest.approx(hi, rel=1e-3)

    def test_homogeneity_property_all_alphas(self):
        rng = np.random.default_rng(1)
        for alpha in (0.0, 0.5, 1.0, 1.7, 2.0, 5.0, math.inf):
            scn = rates_scn(alpha, users=(2, 3), weights=(None, None))
            for t in (0.5, 2.0, 10.0):
                u = rng.uniform(0.2, 3.0, 2)
                a = utilities(scn, t * u)[0]
                b = t * utilities(scn, u)[0]
                assert a == pytest.approx(b, rel=1e-10)


def reference_utility(index, rates, s):
    """Provider ``s``'s degree-one utility, one provider at a time and
    branch by branch."""
    alpha = float(index.alphas[s])
    rows = index.sp_rows(s)
    u = np.asarray(rates, dtype=float)[rows]
    w = index.weights[rows]
    if math.isinf(alpha):
        return float(np.min(u / index.users[rows]))
    if alpha == 0.0:
        return float(np.dot(w, u))
    if alpha == 1.0:
        if np.any(u == 0):
            return 0.0
        return float(np.exp(np.dot(w, np.log(u)) / w.sum()))
    if alpha > 1.0 and np.any(u == 0):
        return 0.0
    pos = u > 0
    if not pos.any():
        return 0.0
    log_terms = np.log(w[pos]) + (1.0 - alpha) * np.log(u[pos])
    top = log_terms.max()
    top = top if math.isfinite(top) else 0.0
    with np.errstate(divide="ignore"):
        return float(np.exp((top + np.log(np.exp(log_terms - top).sum())) / (1.0 - alpha)))


MIXED_ALPHAS = (0.0, 0.5, 1.0, 2.0, 20.0, math.inf)


def mixed_market(rng):
    """A random market with one provider at each of ``MIXED_ALPHAS``."""
    spec = random_scenario(rng, n_sps=len(MIXED_ALPHAS), n_cells=int(rng.integers(1, 4)), max_users=4)
    sps = tuple(replace(sp, alpha=a) for sp, a in zip(spec.sps, MIXED_ALPHAS))
    return normalize_scenario(replace(spec, sps=sps))


def test_mixed_market_utilities_match_per_provider_reference():
    """Every provider of a mixed-alpha market is scored by one batched call,
    zero rates and the all-inf rates of an unbounded provider included."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        scn = mixed_market(rng)
        index = scn.index
        batch = rng.uniform(0.0, 5.0, (3, index.n_triples))
        batch[0, rng.random(index.n_triples) < 0.3] = 0.0
        batch[1, index.sp_of == rng.integers(index.n_sps)] = np.inf
        got = utilities(scn, batch)
        assert got.shape == (3, index.n_sps)
        for k, rates in enumerate(batch):
            assert np.array_equal(utilities(scn, rates), got[k])
            ref = [reference_utility(index, rates, s) for s in range(index.n_sps)]
            assert got[k] == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_utility_times_unit_cost_is_budget():
    """At positive prices every alpha > 0 provider's best response costs its
    budget: ``U_s(rates) e_s(D_s p) = B_s``, the utility and the unit cost
    being one aggregate and its dual."""
    rng = np.random.default_rng(12)
    for _ in range(40):
        scn = mixed_market(rng)
        index = scn.index
        pd = index.row_prices(rng.uniform(0.1, 1.0, index.n_goods))[1]
        spent = utilities(scn, index.rates(pd)[0]) * np.exp(index.unit_cost(np.log(pd)))
        scored = index.alphas > 0
        assert spent[scored] == pytest.approx(index.budgets[scored], rel=1e-12)


class TestTradingPost:
    def test_proportional_shares(self):
        scn = make_scn([[1.0], [1.0]], [1.0, 1.0], [0.3, 0.7], caps=(1.0,))
        bids = np.array([[0.3], [0.7]])
        prices, alloc = tp_allocate(scn, bids)
        assert prices[0] == pytest.approx(1.0)
        assert np.allclose(alloc.x[:, 0], [0.3, 0.7])

    def test_sole_bidder_takes_all(self):
        scn = make_scn([[1.0]], [1.0], [1.0], caps=(1.0,))
        prices, alloc = tp_allocate(scn, np.array([[0.5]]))
        assert prices[0] == pytest.approx(0.5)
        assert alloc.x[0, 0] == pytest.approx(1.0)

    def test_zero_bid_gets_zero(self):
        scn = make_scn([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0], [0.4, 0.6])
        bids = np.array([[0.0, 0.4], [0.4, 0.2]])
        prices, alloc = tp_allocate(scn, bids)
        assert alloc.x[0, 0] == 0.0
        assert alloc.x[1, 0] == pytest.approx(1.0)

    def test_zero_price_resource_unallocated(self):
        scn = make_scn([[1.0, 1.0]], [1.0], [1.0])
        bids = np.array([[1.0, 0.0]])
        prices, alloc = tp_allocate(scn, bids)
        assert prices[1] == 0.0
        assert alloc.x[0, 1] == 0.0

    def test_conservation(self):
        rng = np.random.default_rng(2)
        scn = make_scn([[1.0, 0.5], [0.5, 1.0], [1.0, 1.0]], [1, 1, 1], [0.2, 0.3, 0.5])
        b = rng.uniform(0.01, 1.0, (3, 2))
        prices, alloc = tp_allocate(scn, b)
        assert np.allclose(alloc.x.sum(axis=0), 1.0, atol=1e-12)
        spend = (prices[None, :] * alloc.x).sum(axis=1)
        assert np.allclose(spend, b.sum(axis=1), rtol=1e-12)

    def test_negative_bid_rejected(self):
        scn = make_scn([[1.0]], [1.0], [1.0], caps=(1.0,))
        with pytest.raises(ValueError):
            tp_allocate(scn, np.array([[-0.1]]))


class TestVerifyEquilibrium:
    def symmetric_scn(self):
        return make_scn([[0.5, 0.5], [0.5, 0.5]], [1.0, 1.0], [0.5, 0.5])

    def test_symmetric_equal_split_is_me(self):
        scn = self.symmetric_scn()
        bids = np.full((2, 2), 0.25)
        prices, alloc = tp_allocate(scn, bids)
        rep = verify_equilibrium(scn, Allocation(alloc.rates, scn.index), prices)
        assert rep.budget_gap < 1e-12
        assert rep.clearing_gap < 1e-12
        assert rep.br_gap < 1e-12
        assert rep.is_equilibrium

    def test_static_share_at_me_prices_has_br_gap(self):
        # asymmetric Leontief demands: the static split is not a best response
        scn = make_scn([[1.0, 0.2], [0.25, 1.0]], [2.0, 2.0], [0.5, 0.5])
        me = solve_eg(scn)
        ss = static_share(scn)
        rep = verify_equilibrium(scn, ss.allocation, me.prices)
        assert rep.br_gap > 1e-3
        # grid oracle: some budget split beats the static bundle's utility
        index = scn.index
        pd = dense_demand(index) @ me.prices
        best = -math.inf
        for t in np.linspace(0.0, 1.0, 2001):
            b_ck = np.array([0.5 * t, 0.5 * (1 - t)])
            # within-class split is forced (single class per SP here)
            u0 = b_ck[0] / pd[0]
            best = max(best, u0)
        assert best > ss.allocation.rates[0] + 1e-4

    def test_alpha_zero_is_not_checked_and_unbounded_demand_is_inf(self):
        # sp0 (alpha 0) gets nothing and sp1 (alpha 2) its best response: only
        # sp1 is checked, and it has no gap
        scn = make_scn([[1.0, 0.0], [0.0, 1.0]], [0.0, 2.0], [0.5, 0.5])
        prices = np.array([0.5, 0.5])
        rates = scn.index.rates(scn.index.row_prices(prices)[1])[0] * np.array([0.0, 1.0])
        alloc = Allocation(rates, scn.index)
        rep = verify_equilibrium(scn, alloc, prices)
        assert rep.br_gap == rep.br_gap_rel == 0.0
        # sp1's only good is free, so its demand is unbounded
        rep = verify_equilibrium(scn, alloc, np.array([0.5, 0.0]))
        assert rep.br_gap == rep.br_gap_rel == math.inf

    def test_solver_output_verifies(self):
        scn = make_scn([[1.0, 0.2], [0.25, 1.0]], [2.0, 1.0], [0.4, 0.6])
        me = solve_eg(scn)
        rep = verify_equilibrium(scn, me.allocation, me.prices)
        assert rep.is_equilibrium
        # budget balance and unit price mass at the equilibrium
        spend = (me.prices[None, :] * me.allocation.x).sum(axis=1)
        assert np.allclose(spend, scn.index.budgets, atol=1e-6)
        assert me.prices.sum() == pytest.approx(1.0, abs=1e-9)


def test_settle_bids_matches_tp_at_interior_fixed_point():
    scn = make_scn([[1.0, 0.2], [0.25, 1.0]], [1.0, 1.0], [0.5, 0.5])
    me = solve_eg(scn)
    bids = report_bids(me)
    prices, alloc = settle_bids(scn, scn.index.gather(bids))
    _, tp_alloc = tp_allocate(scn, bids)
    assert np.allclose(alloc.rates, tp_alloc.rates, rtol=1e-9)


# ---------------------------------------------------------------------------
# Reports on the slot layout: dense views equal the dense formulas
# ---------------------------------------------------------------------------


def assert_ulps(actual, ref, scale, ulps=4):
    """``actual`` within ``ulps`` units in the last place of ``scale``."""
    assert np.all(np.abs(np.asarray(actual) - ref) <= ulps * np.spacing(scale))


def assert_dense_report(rep):
    """The report's dense views, spend and equilibrium gaps against the
    dense ``[n_triples, n_goods]`` formulas."""
    index = rep.scn.index
    p, rates = rep.prices, rep.allocation.rates
    x = rates[:, None] * dense_demand(index)
    assert np.array_equal(rep.allocation.x, x)
    spend = index.sp_sum((p[None, :] * x).sum(axis=1))
    assert_ulps(rep.spending, spend, np.abs(spend))
    usage = x.sum(axis=0)
    check = verify_equilibrium(rep.scn, rep.allocation, p)
    assert_ulps(check.budget_gap, np.abs(spend - index.budgets).max(), max(spend.max(), index.budgets.max()))
    assert_ulps(check.clearing_gap, np.abs((usage - 1.0) * p).max(), max(usage.max(), 1.0) * p.max(initial=0.0))


def test_reports_match_dense_formulas():
    rng = np.random.default_rng(1401)
    specs = [instantiate(benchmark_preset(), LoadModel(seed=1), 0)] + [mixed_scenario(rng) for _ in range(25)]
    routes = set()
    for spec in specs:
        for alpha in (None, 0.0, 2.0):
            scn = normalize_scenario(spec if alpha is None else spec.with_alphas(alpha))
            me = solve_eg(scn)
            routes.add(me.method)
            for rep in (me, solve_social_optimal(scn), static_share(scn)):
                assert_dense_report(rep)
            if alpha == 2.0:
                dyn = run_dynamics(scn, max_iterations=40)
                assert np.array_equal(report_bids(dyn).sum(axis=0), dyn.prices)
                assert_dense_report(dyn)
    assert routes == {"barrier", "tatonnement"}


class Untouched:
    """An allocation stand-in that fails any test that reads it."""

    def __getattr__(self, name):
        raise AssertionError(f"read allocation.{name} before checking the prices")


@pytest.mark.parametrize("bad", ["long", "short", "matrix", "negative", "nan"])
def test_prices_are_checked_before_any_work(bad):
    scn = make_scn([[1.0, 0.2], [0.25, 1.0]], [2.0, 1.0], [0.4, 0.6])
    prices = {
        "long": np.full(3, 0.5),
        "short": np.full(1, 0.5),
        "matrix": np.full((1, 2), 0.5),
        "negative": np.array([0.5, -1e-3]),
        "nan": np.array([np.nan, 0.5]),
    }[bad]
    with pytest.raises(ValueError, match="shape|negative"):
        verify_equilibrium(scn, Untouched(), prices)
    with pytest.raises(ValueError, match="shape|negative"):
        make_report(scn, "barrier", prices, Untouched(), 0, True, {})


@pytest.mark.parametrize("solve", [solve_eg, static_share], ids=["me", "ss"])
def test_infinite_utilities_are_not_converged(solve):
    """Just below alpha 1 the preset's utilities overflow float64, and just
    above it they underflow to 0 (alpha 1.005) or to subnormals (1.01) at
    rates of about 0.47.  The certificates run in log space and still hold,
    but a report whose utilities are inf, or below the smallest normal float
    at positive rates, is not converged."""
    spec = instantiate(benchmark_preset(), LoadModel(seed=1), 0)
    for alpha in (0.99, 1.005, 1.01):
        with np.errstate(over="ignore"):
            rep = solve(normalize_scenario(spec.with_alphas(alpha)))
        assert rep.residuals["duality_gap"] <= 1e-9
        assert np.all(rep.allocation.rates > 0.4)
        if alpha < 1.0:
            assert np.all(np.isinf(rep.utilities))
        else:
            assert np.all(rep.utilities < np.finfo(float).tiny)
        assert not rep.converged, alpha


def dynamics_20(scn):
    return run_dynamics(scn, max_iterations=20)


def renormalize(scn):
    return normalize_scenario(scn.spec)


@pytest.mark.parametrize(
    "solve, alpha",
    [(solve_eg, 0.5), (solve_eg, 2.0), (static_share, 2.0), (dynamics_20, 2.0), (renormalize, 2.0)],
    ids=["me-0.5", "me-2", "ss-2", "dyn-2", "normalize-2"],
)
def test_solve_allocates_less_than_one_dense_array(solve, alpha):
    """At 112 cells a solve on a built index (or the build of an index)
    allocates less, at its peak, than one ``[n_triples, n_goods]`` float
    array: neither compiles a dense view, and reports stay on the slot
    layout."""
    spec = instantiate(benchmark_preset(n_cells=112), LoadModel(seed=1), 0)
    scn = normalize_scenario(spec.with_alphas(alpha))
    solve(scn)
    tracemalloc.start()
    try:
        solve(scn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < scn.index.n_triples * scn.index.n_goods * 8
