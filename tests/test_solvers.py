"""Equilibrium solver, baselines, and fairness/efficiency diagnostics."""

import math

import numpy as np
import pytest

from slicemarket import (
    CellDef,
    ClassDef,
    ProviderDef,
    ResourceDef,
    ScenarioSpec,
    SupportEntry,
    best_response,
    bid_update,
    max_utilities,
    nash_welfare,
    normalize_scenario,
    poa_bound,
    random_scenario,
    solve_eg,
    solve_social_optimal,
    static_share,
    utilities,
    verify_equilibrium,
)
from slicemarket import solvers
from tests.reference import dense_best_response, dense_demand
from tests.test_market import make_scn


class TestBestResponse:
    def test_alpha_one_is_proportional(self):
        # two classes on separate resources, both p*d = 1, weights (1, 3)
        cells = (CellDef("c0", (ResourceDef("r0", 1.0), ResourceDef("r1", 1.0))),)
        classes = (ClassDef("k0", {"r0": 1.0}), ClassDef("k1", {"r1": 1.0}))
        sp = ProviderDef(
            "sp0", 1.0, 1.0,
            (SupportEntry("c0", "k0", 1, weight=1.0), SupportEntry("c0", "k1", 1, weight=3.0)),
        )
        scn = normalize_scenario(ScenarioSpec(cells, classes, (sp,)))
        b = best_response(scn, np.array([1.0, 1.0]), 0)
        assert np.allclose(b, [[0.25, 0.0], [0.0, 0.75]])

    def test_alpha_two_group_weights(self):
        # PD = (1, 4) with unit weights: class shares ~ sqrt(PD) -> (1/3, 2/3)
        cells = (CellDef("c0", (ResourceDef("r0", 1.0), ResourceDef("r1", 1.0))),)
        classes = (ClassDef("k0", {"r0": 1.0}), ClassDef("k1", {"r1": 4.0}))
        sp = ProviderDef(
            "sp0", 1.0, 2.0,
            (SupportEntry("c0", "k0", 1, weight=1.0), SupportEntry("c0", "k1", 1, weight=1.0)),
        )
        scn = normalize_scenario(ScenarioSpec(cells, classes, (sp,)))
        b = best_response(scn, np.array([1.0, 1.0]), 0)
        assert b[0].sum() == pytest.approx(1.0 / 3.0)
        assert b[1].sum() == pytest.approx(2.0 / 3.0)

    def test_alpha_zero_rejected(self):
        scn = make_scn([[1.0, 1.0]], [0.0], [1.0])
        with pytest.raises(ValueError):
            best_response(scn, np.ones(2), 0)

    def test_rates_uniform_within_class(self):
        # at a best response the induced rate b/(p d) is equal across the
        # resources of each class
        rng = np.random.default_rng(109)
        spec = random_scenario(rng, alphas=[1.0, 2.0, math.inf], n_sps=3)
        scn = normalize_scenario(spec)
        p = rng.uniform(0.1, 1.0, scn.index.n_goods)
        demand = dense_demand(scn.index)
        for s in range(scn.index.n_sps):
            b = best_response(scn, p, s)
            for i in scn.index.sp_rows(s):
                goods = np.flatnonzero(demand[i])
                ratios = b[i, goods] / (p[goods] * demand[i, goods])
                assert np.allclose(ratios, ratios[0], rtol=1e-10)

    def test_monte_carlo_optimality(self):
        """Closed form beats 1000 random budget-feasible spendings at fixed
        prices (utility from u = min_r b / (p d))."""
        rng = np.random.default_rng(71)
        for alpha in (0.5, 1.0, 2.0, math.inf):
            spec = random_scenario(rng, n_sps=2, n_cells=1, alphas=[alpha])
            scn = normalize_scenario(spec)
            index = scn.index
            demand = dense_demand(index)
            consumed = demand > 0
            p = rng.uniform(0.2, 1.5, index.n_goods)
            for s in range(index.n_sps):
                rows = index.sp_rows(s)
                pd_rows = p[None, :] * demand[rows]
                b_star = best_response(scn, p, s)[rows]
                with np.errstate(divide="ignore", invalid="ignore"):
                    u_star = np.where(
                        consumed[rows], b_star / pd_rows, np.inf
                    ).min(axis=1)
                util_star = _group_utility(scn, s, u_star)
                budget = index.budgets[s]
                cons = [(i, g) for k, i in enumerate(rows) for g in np.flatnonzero(consumed[i])]
                for _ in range(250):
                    shares = rng.dirichlet(np.ones(len(cons))) * budget
                    b = np.zeros_like(b_star)
                    for (i, g), v in zip(cons, shares):
                        k = list(rows).index(i)
                        b[k, g] = v
                    with np.errstate(divide="ignore", invalid="ignore"):
                        u = np.where(consumed[rows], b / pd_rows, np.inf).min(axis=1)
                    assert _group_utility(scn, s, u) <= util_star + 1e-9


def _group_utility(scn, s, u_rows):
    full = np.zeros(scn.index.n_triples)
    full[scn.index.sp_rows(s)] = u_rows
    return utilities(scn, full)[s]


class TestSolveEG:
    def test_alpha_inf_ignores_explicit_weights(self):
        # one unit resource, two unit-demand classes of one user each: the
        # max-min optimum splits equally whatever the weights say
        cells = (CellDef("c0", (ResourceDef("r0", 1.0),)),)
        classes = (ClassDef("k0", {"r0": 1.0}), ClassDef("k1", {"r0": 1.0}))
        sp = ProviderDef(
            "sp0", 1.0, math.inf,
            (SupportEntry("c0", "k0", 1, weight=1.0), SupportEntry("c0", "k1", 1, weight=3.0)),
        )
        rep = solve_eg(normalize_scenario(ScenarioSpec(cells, classes, (sp,))))
        assert np.allclose(rep.allocation.rates, [0.5, 0.5], rtol=1e-9)
        assert rep.utilities[0] == pytest.approx(0.5, rel=1e-9)
        assert rep.converged

    def test_single_sp_takes_everything(self):
        scn = make_scn([[0.5, 0.25]], [1.0], [1.0])
        rep = solve_eg(scn)
        # the bottleneck resource is fully taken; spending is the full budget
        assert rep.allocation.x[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert rep.spending[0] == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_sps_split_equally(self):
        scn = make_scn([[0.5, 0.5], [0.5, 0.5]], [2.0, 2.0], [0.5, 0.5])
        rep = solve_eg(scn)
        assert rep.utilities[0] == pytest.approx(rep.utilities[1], rel=1e-9)
        assert rep.spending[0] == pytest.approx(rep.spending[1], rel=1e-9)

    def test_disjoint_demands_kkt_by_hand(self):
        # each SP wants only its own resource: p = (0.5, 0.5), full take
        scn = make_scn([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], [0.5, 0.5])
        rep = solve_eg(scn)
        assert np.allclose(rep.prices, [0.5, 0.5], atol=1e-9)
        assert rep.allocation.x[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert rep.allocation.x[1, 1] == pytest.approx(1.0, abs=1e-9)

    def test_alpha_zero_is_exact(self):
        scn = make_scn([[1.0, 0.3], [0.4, 1.0]], [0.0, 1.0], [0.5, 0.5])
        rep = solve_eg(scn)
        assert rep.method == "barrier"
        assert rep.converged
        # Eisenberg-Gale duality gap on the market itself: a one-class
        # provider's best utility at the prices over its own is B / (PD u),
        # so the gap is sum p - sum B + sum_s B_s log(B_s / (PD_s u_s))
        budgets = scn.index.budgets
        pd = dense_demand(scn.index) @ rep.prices
        gap = rep.prices.sum() - budgets.sum() + budgets @ np.log(budgets / (pd * rep.allocation.rates))
        assert -1e-12 <= gap <= 1e-9
        assert rep.residuals["duality_gap"] == pytest.approx(gap, abs=1e-12)

    def test_one_barrier_step_is_not_converged(self, monkeypatch):
        scn = make_scn([[1.0, 0.3], [0.4, 1.0]], [0.0, 1.0], [0.5, 0.5])
        monkeypatch.setattr(solvers, "_MAX_STEPS", 1)
        rep = solve_eg(scn)
        assert rep.method == "barrier"
        assert rep.iterations == 1
        assert not rep.converged

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(73)
        spec = random_scenario(rng, alphas=[1.0, 2.0, math.inf])
        scn = normalize_scenario(spec)
        a = solve_eg(scn)
        b = solve_eg(scn)
        assert a.prices.tobytes() == b.prices.tobytes()
        assert a.allocation.x.tobytes() == b.allocation.x.tobytes()
        assert a.utilities.tobytes() == b.utilities.tobytes()

    def test_one_newton_step_is_not_converged(self, monkeypatch):
        from slicemarket import LoadModel, instantiate, benchmark_preset

        spec = instantiate(benchmark_preset(), LoadModel(seed=0), 0).with_alphas(0.5)
        monkeypatch.setattr(solvers, "_MAX_STEPS", 1)
        rep = solve_eg(normalize_scenario(spec))
        assert rep.method == "tatonnement"
        assert rep.iterations == 1
        assert not rep.converged
        assert np.all(np.isfinite(rep.utilities))

    def test_price_mass_equals_budget_mass(self):
        rng = np.random.default_rng(79)
        spec = random_scenario(rng, alphas=[1.0, 1.5, 2.0])
        scn = normalize_scenario(spec)
        rep = solve_eg(scn)
        assert rep.prices.sum() == pytest.approx(1.0, abs=1e-9)

    def test_preset_instance_verifies(self):
        from slicemarket import LoadModel, instantiate, benchmark_preset

        spec = instantiate(benchmark_preset(), LoadModel(seed=8), 0)
        for alpha in (1.0, 2.0):
            scn = normalize_scenario(spec.with_alphas(alpha))
            rep = solve_eg(scn)
            check = verify_equilibrium(scn, rep.allocation, rep.prices)
            assert check.is_equilibrium


class TestSocialOptimal:
    def test_single_sp_matches_eg(self):
        scn = make_scn([[0.5, 0.25]], [2.0], [1.0])
        so = solve_social_optimal(scn)
        me = solve_eg(scn)
        assert so.utilities[0] == pytest.approx(me.utilities[0], rel=1e-6)

    def test_alpha_zero_corner(self):
        # one class per SP; sp0's marginal utility per unit of every resource
        # dominates, so the linear optimum hands it the whole bottleneck
        scn = make_scn(
            [[0.5, 0.2], [0.5, 0.2]], [0.0, 0.0], [0.5, 0.5], weights=(5.0, 1.0),
        )
        rep = solve_social_optimal(scn)
        assert rep.allocation.rates[0] == pytest.approx(2.0, rel=1e-6)
        assert rep.allocation.rates[1] == pytest.approx(0.0, abs=1e-9)

    def test_welfare_dominates_me_and_ss(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            spec = random_scenario(rng, alphas=[1.0, 2.0, 5.0, math.inf])
            scn = normalize_scenario(spec)
            b = scn.index.budgets
            w_so = float(np.dot(b, solve_social_optimal(scn).utilities))
            w_me = float(np.dot(b, solve_eg(scn).utilities))
            w_ss = float(np.dot(b, static_share(scn).utilities))
            assert w_so >= max(w_me, w_ss) - 1e-9


class TestStaticShare:
    def test_equal_budget_caps(self):
        rng = np.random.default_rng(89)
        spec = random_scenario(rng, n_sps=3, alphas=[2.0])
        spec = spec.with_budgets({sp.name: 1.0 / 3.0 for sp in spec.sps})
        scn = normalize_scenario(spec)
        rep = static_share(scn)
        for s in range(3):
            rows = scn.index.sp_rows(s)
            usage = (rep.allocation.rates[rows, None] * dense_demand(scn.index)[rows]).sum(axis=0)
            assert np.all(usage <= 1.0 / 3.0 + 1e-9)

    def test_single_class_closed_form(self):
        scn = make_scn([[0.5, 0.2], [0.3, 0.6]], [1.0, 2.0], [0.4, 0.6])
        rep = static_share(scn)
        assert rep.allocation.rates[0] == pytest.approx(0.4 / 0.5)
        assert rep.allocation.rates[1] == pytest.approx(0.6 / 0.6)

    def test_dominated_by_market(self):
        rng = np.random.default_rng(97)
        for _ in range(10):
            spec = random_scenario(rng, alphas=[1.0, 1.5, 2.0, 5.0, math.inf])
            scn = normalize_scenario(spec)
            me = solve_eg(scn)
            ss = static_share(scn)
            assert np.all(me.utilities >= ss.utilities - 1e-8)

    def test_max_min_waterfill(self):
        # one SP, two classes, alpha=inf: per-user rates equalize at the level
        # set by the tightest resource
        cells = (CellDef("c0", (ResourceDef("r0", 1.0),)),)
        classes = (ClassDef("k0", {"r0": 0.2}), ClassDef("k1", {"r0": 0.4}))
        sp = ProviderDef(
            "sp0", 1.0, math.inf,
            (SupportEntry("c0", "k0", 2), SupportEntry("c0", "k1", 1)),
        )
        scn = normalize_scenario(ScenarioSpec(cells, classes, (sp,)))
        rep = static_share(scn)
        level = 1.0 / (2 * 0.2 + 1 * 0.4)
        assert np.allclose(rep.allocation.rates, [2 * level, level], rtol=1e-12)


class TestDiagnostics:
    def test_nash_welfare_constant(self):
        assert nash_welfare([4.0, 4.0, 4.0], [1 / 3, 1 / 3, 1 / 3]) == pytest.approx(4.0)

    def test_nash_welfare_permutation_invariant(self):
        u = np.array([1.0, 2.0, 5.0])
        b = np.array([0.2, 0.3, 0.5])
        perm = [2, 0, 1]
        assert nash_welfare(u, b) == pytest.approx(nash_welfare(u[perm], b[perm]))

    def test_nash_welfare_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            nash_welfare([1.0, 0.0], [0.5, 0.5])

    def test_poa_bound_equal_standins(self):
        scn = make_scn([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]], [1, 1, 1], [1 / 3, 1 / 3, 1 / 3])
        poa, bound = poa_bound(scn)
        assert bound == pytest.approx(1.0 - (2.0 * math.sqrt(3.0) - 1.0) / 3.0, abs=1e-12)
        assert bound == pytest.approx(0.17863, abs=1e-5)
        assert poa <= bound

    def test_poa_single_sp_is_zero(self):
        scn = make_scn([[0.5, 0.25]], [2.0], [1.0])
        poa, bound = poa_bound(scn)
        assert bound == pytest.approx(0.0, abs=1e-12)
        assert abs(poa) <= 1e-6

    def test_poa_holds_on_random_equal_standins(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            # permutation-symmetric providers: equal standalone utilities
            frac = rng.uniform(0.1, 0.5, 2)
            scn = make_scn(
                [list(frac)] * 3, [float(rng.choice([1.0, 2.0]))] * 3, [1 / 3] * 3
            )
            poa, bound = poa_bound(scn)
            assert poa <= bound + 1e-9

    def test_max_utilities_standalone(self):
        scn = make_scn([[0.5, 0.25], [0.2, 0.4]], [1.0, 2.0], [0.5, 0.5])
        hat = max_utilities(scn)
        assert hat[0] == pytest.approx(2.0, rel=1e-9)  # bottleneck r0: 1/0.5
        assert hat[1] == pytest.approx(2.5, rel=1e-9)  # bottleneck r1: 1/0.4


def test_large_market_certifies():
    # the shapes of the 112-cell benchmark market
    from slicemarket import LoadModel, benchmark_preset, instantiate

    spec = instantiate(benchmark_preset(n_cells=112), LoadModel(seed=3), 0)
    for solver, alpha in (
        (solve_eg, 0.0),
        (solve_eg, 0.5),
        (solve_eg, 2.0),
        (static_share, 0.0),
        (static_share, 2.0),
        (static_share, 100.0),
    ):
        rep = solver(normalize_scenario(spec.with_alphas(alpha)))
        assert rep.converged, (solver.__name__, alpha)
        assert rep.allocation.x.sum(axis=0).max() <= 1.0 + 1e-6


def test_update_rule_equals_best_response():
    rng = np.random.default_rng(103)
    for alpha in (1.0, 1.7, 2.0, 13.0, 100.0, math.inf):
        spec = random_scenario(rng, n_sps=2, alphas=[alpha], max_users=5)
        scn = normalize_scenario(spec)
        for _ in range(20):
            p = rng.uniform(0.05, 2.0, scn.index.n_goods)
            for s in range(scn.index.n_sps):
                ref = np.zeros((scn.index.n_triples, scn.index.n_goods))
                ref[scn.index.sp_rows(s)] = dense_best_response(scn.index, p, s)
                assert np.allclose(bid_update(scn, p, s), ref, atol=1e-10)


def test_fixed_point_passes_verification():
    rng = np.random.default_rng(107)
    spec = random_scenario(rng, alphas=[1.0, 2.0, math.inf])
    scn = normalize_scenario(spec)
    rep = solve_eg(scn)
    check = verify_equilibrium(scn, rep.allocation, rep.prices)
    assert check.is_equilibrium


class TestScipyImport:
    def test_import_loads_no_scipy(self):
        import os
        import subprocess
        import sys

        import slicemarket

        src = os.path.dirname(os.path.dirname(os.path.abspath(slicemarket.__file__)))
        code = "import sys, slicemarket; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "[]"

    def test_optimize_resolves_lazily(self):
        import scipy.optimize

        import slicemarket.solvers

        assert slicemarket.solvers.optimize is scipy.optimize
