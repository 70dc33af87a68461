"""Potential function, KL/Bregman machinery, bid updates and the dynamics."""

import math

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
    bid_update,
    instantiate,
    normalize_scenario,
    benchmark_preset,
    random_scenario,
    run_dynamics,
    solve_eg,
    uniform_bids,
)
from slicemarket.dynamics import UnsupportedRegimeError
from tests import census
from tests.reference import bregman_gap, dense_demand, dense_divergence, dense_potential, eval_dual, report_bids
from tests.reference import kl, potential_gradient, random_feasible_bids


def library_potential(scn, b):
    """The library's potential at dense bids ``b``: the first entry of the
    potential trace of a dynamics run started there."""
    return run_dynamics(scn, initial_bids=b, max_iterations=1).potential_trace[0]


def one_sp_two_goods(alpha=1.0, weights=(1.0,)):
    cells = (CellDef("c0", (ResourceDef("r0", 1.0), ResourceDef("r1", 1.0))),)
    classes = (ClassDef("k0", {"r0": 1.0, "r1": 1.0}),)
    sp = ProviderDef("sp0", 1.0, alpha, (SupportEntry("c0", "k0", 1, weight=weights[0]),))
    return normalize_scenario(ScenarioSpec(cells, classes, (sp,)))


def two_class_scn(alpha, weights=(1.0, 3.0), users=(1, 1), budget=1.0, other=None):
    """One SP with two classes over two shared resources; optionally a second
    fixed-alpha SP so prices are competitive."""
    cells = (CellDef("c0", (ResourceDef("r0", 1.0), ResourceDef("r1", 1.0))),)
    classes = (
        ClassDef("k0", {"r0": 0.6, "r1": 0.2}),
        ClassDef("k1", {"r0": 0.3, "r1": 0.8}),
    )
    sps = [
        ProviderDef(
            "sp0",
            budget,
            alpha,
            (
                SupportEntry("c0", "k0", users[0], weight=weights[0]),
                SupportEntry("c0", "k1", users[1], weight=weights[1]),
            ),
        )
    ]
    if other is not None:
        sps.append(
            ProviderDef("sp1", 1.0 - budget, other, (SupportEntry("c0", "k0", 2),))
        )
    return normalize_scenario(ScenarioSpec(cells, classes, tuple(sps)))


class TestKL:
    def test_identity_is_zero(self):
        x = np.array([0.4, 0.6])
        assert kl(x, x) == 0.0

    def test_direct_formula(self):
        assert kl(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(math.log(2))

    def test_nonnegative_on_equal_mass(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.dirichlet(np.ones(4))
            y = rng.dirichlet(np.ones(4))
            assert kl(x, y) >= -1e-12

    def test_divergence_error(self):
        with pytest.raises(ValueError):
            kl(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


class TestPotential:
    def test_sole_bidder_alpha_one_is_zero(self):
        scn = one_sp_two_goods(1.0)
        b = np.array([[0.5, 0.5]])
        phi = library_potential(scn, b)
        assert phi == pytest.approx(0.0, abs=1e-12)
        # an alpha = 1 market's potential is its entropy term alone
        assert phi == float(np.sum(b * np.log(b / (b.sum(axis=0) * dense_demand(scn.index)))))

    def test_two_identical_bidders(self):
        cells = (CellDef("c0", (ResourceDef("r0", 1.0), ResourceDef("r1", 1.0))),)
        classes = (ClassDef("k0", {"r0": 1.0, "r1": 1.0}),)
        sps = tuple(
            ProviderDef(f"sp{i}", 0.5, 1.0, (SupportEntry("c0", "k0", 1, weight=1.0),))
            for i in range(2)
        )
        scn = normalize_scenario(ScenarioSpec(cells, classes, sps))
        phi = library_potential(scn, np.full((2, 2), 0.25))
        assert phi == pytest.approx(4 * 0.25 * math.log(0.5))

    def test_rejects_alpha_below_one(self):
        scn = two_class_scn(0.5)
        with pytest.raises(UnsupportedRegimeError):
            library_potential(scn, uniform_bids(scn.index))

    def test_minimized_at_equilibrium(self):
        rng = np.random.default_rng(11)
        spec = random_scenario(rng, alphas=[1.0, 2.0], n_sps=2, n_cells=2)
        scn = normalize_scenario(spec)
        ref = run_dynamics(scn, max_iterations=30000, tol=1e-13)
        phi_star = dense_potential(scn, report_bids(ref))
        for _ in range(200):
            b = random_feasible_bids(scn, rng)
            assert dense_potential(scn, b) >= phi_star - 1e-9


class TestDual:
    def test_equality_at_equilibrium(self):
        rng = np.random.default_rng(13)
        spec = random_scenario(rng, alphas=[1.0, 1.5, math.inf], n_sps=3)
        scn = normalize_scenario(spec)
        rep = run_dynamics(scn)
        phi_star = dense_potential(scn, report_bids(rep))
        assert abs(eval_dual(scn, rep.prices) - phi_star) <= 1e-8

    def test_weak_duality_and_sandwich(self):
        rng = np.random.default_rng(17)
        spec = random_scenario(rng, alphas=[1.0, 2.0, 5.0], n_sps=3)
        scn = normalize_scenario(spec)
        rep = run_dynamics(scn)
        phi_star = dense_potential(scn, report_bids(rep))
        ups_star = eval_dual(scn, rep.prices)
        for _ in range(100):
            b = random_feasible_bids(scn, rng)
            phi = dense_potential(scn, b)
            ups = eval_dual(scn, b.sum(axis=0))
            assert ups <= phi + 1e-10
            assert ups - ups_star >= phi_star - phi - 1e-9

    def test_zero_price_rejected(self):
        scn = two_class_scn(2.0)
        with pytest.raises(ValueError):
            eval_dual(scn, np.zeros(scn.index.n_goods))


class TestBidUpdate:
    def test_alpha_one_symmetric(self):
        scn = one_sp_two_goods(1.0)
        b = bid_update(scn, np.array([0.5, 0.5]), 0)
        assert np.allclose(b, [[0.5, 0.5]])

    def test_alpha_inf_user_shares(self):
        # two classes on separate unit resources, unit p*d, users (1, 3); the
        # max-min utility min u/n has no weights, so explicit ones are ignored
        cells = (CellDef("c0", (ResourceDef("r0", 1.0), ResourceDef("r1", 1.0))),)
        classes = (ClassDef("k0", {"r0": 1.0}), ClassDef("k1", {"r1": 1.0}))
        sp = ProviderDef(
            "sp0",
            1.0,
            math.inf,
            (SupportEntry("c0", "k0", 1, weight=3.0), SupportEntry("c0", "k1", 3, weight=1.0)),
        )
        scn = normalize_scenario(ScenarioSpec(cells, classes, (sp,)))
        b = bid_update(scn, np.array([1.0, 1.0]), 0)
        assert np.allclose(b, [[0.25, 0.0], [0.0, 0.75]])

    def test_budget_exhausting(self):
        rng = np.random.default_rng(19)
        for alpha in (1.0, 1.5, 2.0, 5.0, math.inf):
            scn = two_class_scn(alpha, users=(2, 3), weights=(None, None), budget=0.7, other=2.0)
            p = rng.uniform(0.1, 1.0, scn.index.n_goods)
            for s in range(scn.index.n_sps):
                b = bid_update(scn, p, s)
                assert b.sum() == pytest.approx(scn.index.budgets[s], abs=1e-12)

    def test_rejects_alpha_below_one(self):
        scn = two_class_scn(0.5)
        with pytest.raises(UnsupportedRegimeError):
            bid_update(scn, np.ones(scn.index.n_goods), 0)

    def test_zero_price_row_rejected(self):
        scn = two_class_scn(2.0)
        with pytest.raises(ValueError):
            bid_update(scn, np.zeros(scn.index.n_goods), 0)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, math.inf])
    def test_matches_prox_argmin_grid_oracle(self, alpha):
        """The update must equal the argmin of the mirror-descent subproblem:
        <grad_b Phi_p(b_t), b - b_t> + KL_a(b||b_t) - KL_b(b||b_t)/(1-a),
        located independently by grid refinement over the budget simplex."""
        rng = np.random.default_rng(int(23 + (0 if math.isinf(alpha) else alpha * 10)))
        scn = two_class_scn(alpha, weights=(1.0, 2.0))
        index = scn.index
        p = rng.uniform(0.2, 1.5, index.n_goods)
        b_t = random_feasible_bids(scn, rng)
        update = bid_update(scn, p, 0)

        pd = p[None, :] * dense_demand(index)

        def frozen_grad(b):
            g = np.log(b / pd)
            if math.isinf(alpha):
                g -= np.log(index.weights)[:, None]
            else:
                bk = b.sum(axis=1)
                g -= (np.log(bk / index.weights) / (1.0 - alpha) + 1.0 / (1.0 - alpha))[:, None]
                g += 0.0
            return g + 1.0

        def objective(b):
            lin = float(np.sum(frozen_grad(b_t) * (b - b_t)))
            ka = float(np.sum(b * np.log(b / b_t)))
            if math.isinf(alpha):
                return lin + ka
            bk, bk_t = b.sum(axis=1), b_t.sum(axis=1)
            kb = float(np.sum(bk * np.log(bk / bk_t)))
            return lin + ka - kb / (1.0 - alpha)

        # refine a simplex grid over (b00, b01, b10); b11 is the remainder
        lo = np.zeros(3)
        hi = np.full(3, 1.0)
        best = None
        for _ in range(14):
            axes = [np.linspace(lo[k], hi[k], 9) for k in range(3)]
            best_val, best_pt = math.inf, None
            for v0 in axes[0]:
                for v1 in axes[1]:
                    for v2 in axes[2]:
                        v3 = 1.0 - v0 - v1 - v2
                        if v3 <= 1e-9 or min(v0, v1, v2) <= 1e-9:
                            continue
                        b = np.array([[v0, v1], [v2, v3]])
                        val = objective(b)
                        if val < best_val:
                            best_val, best_pt = val, np.array([v0, v1, v2])
            span = (hi - lo) / 4
            lo = np.maximum(best_pt - span, 1e-9)
            hi = np.minimum(best_pt + span, 1.0)
            best = best_pt
        grid_b = np.array([[best[0], best[1]], [best[2], 1 - best.sum()]])
        assert np.allclose(grid_b, update, atol=2e-4)


class TestGradientAndBregman:
    def test_identical_points_give_zero_gaps(self):
        rng = np.random.default_rng(29)
        scn = two_class_scn(2.0, budget=0.6, other=1.5)
        b = random_feasible_bids(scn, rng)
        lo, hi = bregman_gap(scn, b, b)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(0.0, abs=1e-12)

    def test_sandwich_on_random_pairs(self):
        rng = np.random.default_rng(31)
        spec = random_scenario(rng, alphas=[2.0], n_sps=2)
        scn = normalize_scenario(spec)
        for _ in range(100):
            b1 = random_feasible_bids(scn, rng)
            b2 = random_feasible_bids(scn, rng)
            lo, hi = bregman_gap(scn, b1, b2)
            assert lo >= -1e-10
            assert hi >= -1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(37)
        spec = random_scenario(rng, alphas=[1.0, 2.0, math.inf], n_sps=3, n_cells=1)
        scn = normalize_scenario(spec)
        b = random_feasible_bids(scn, rng)
        grad = potential_gradient(scn, b)
        h = 1e-6
        consumed = dense_demand(scn.index) > 0
        for i in range(scn.index.n_triples):
            for g in np.flatnonzero(consumed[i]):
                bp, bm = b.copy(), b.copy()
                bp[i, g] += h
                bm[i, g] -= h
                fd = (dense_potential(scn, bp) - dense_potential(scn, bm)) / (2 * h)
                assert grad[i, g] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_gradient_rejects_zero_bids(self):
        scn = two_class_scn(2.0)
        b = uniform_bids(scn.index)
        b[0, 0] = 0.0
        with pytest.raises(ValueError):
            potential_gradient(scn, b)

    def test_dg_nonnegative(self):
        rng = np.random.default_rng(41)
        spec = random_scenario(rng, alphas=[1.0, 1.5, 2.0, math.inf], n_sps=3)
        scn = normalize_scenario(spec)
        for _ in range(50):
            b1 = random_feasible_bids(scn, rng)
            b2 = random_feasible_bids(scn, rng)
            assert dense_divergence(scn, b1, b2) >= -1e-12


class TestRunDynamics:
    def test_symmetric_fixed_point(self):
        cells = (CellDef("c0", (ResourceDef("r0", 1.0), ResourceDef("r1", 1.0))),)
        classes = (ClassDef("k0", {"r0": 0.5, "r1": 0.5}),)
        sps = tuple(
            ProviderDef(f"sp{i}", 0.5, 1.0, (SupportEntry("c0", "k0", 1),)) for i in range(2)
        )
        scn = normalize_scenario(ScenarioSpec(cells, classes, sps))
        rep = run_dynamics(scn)
        assert rep.converged
        assert np.allclose(rep.allocation.x.sum(axis=1), [1.0, 1.0], atol=1e-9)
        assert np.allclose(rep.prices, 0.5, atol=1e-9)
        assert np.allclose(rep.utilities, rep.utilities[0])

    def test_preset_alpha_one_price_convergence_at_cell2(self):
        spec = instantiate(benchmark_preset(), LoadModel(seed=0), 0).with_alphas(1.0)
        scn = normalize_scenario(spec)
        rep = run_dynamics(scn, max_iterations=200, tol=0.0)
        cell2 = [g for g, (c, r) in enumerate(scn.index.goods) if c == "cell2"]
        trace = rep.price_trace[:, cell2]
        delta = np.abs(trace[-1] - trace[-2])
        scale = np.maximum(np.maximum(trace[-1], trace[-2]), 1e-9)
        assert float((delta / scale).max()) < 1e-4

    def test_convergence_certificate_bound(self):
        rng = np.random.default_rng(43)
        spec = random_scenario(rng, alphas=[1.0, 2.0, math.inf], n_sps=2, n_cells=2)
        scn = normalize_scenario(spec)
        ref = solve_eg(scn)
        assert ref.converged
        ref_bids = report_bids(ref)
        phi_star = dense_potential(scn, ref_bids)
        b0 = uniform_bids(scn.index)
        budget = dense_divergence(scn, ref_bids, b0)
        run = run_dynamics(scn, max_iterations=1000, tol=0.0)
        # the O(1/T) certificate holds at every recorded step, not just the last
        steps = np.arange(1, 1001)
        assert np.all(run.potential_trace[1:] - phi_star <= budget / steps + 1e-8)

    def test_fixed_point_verifies(self):
        rng = np.random.default_rng(47)
        spec = random_scenario(rng, alphas=[1.5, 5.0], n_sps=3)
        scn = normalize_scenario(spec)
        rep = run_dynamics(scn)
        assert rep.converged
        assert max(rep.residuals.values()) <= 1e-6

    def test_nonconvergence_flagged(self):
        rng = np.random.default_rng(53)
        spec = random_scenario(rng, alphas=[2.0], n_sps=3)
        scn = normalize_scenario(spec)
        rep = run_dynamics(scn, max_iterations=2, tol=1e-14)
        assert not rep.converged

    def test_trace_lengths(self):
        rng = np.random.default_rng(59)
        spec = random_scenario(rng, alphas=[1.0], n_sps=2)
        scn = normalize_scenario(spec)
        rep = run_dynamics(scn, max_iterations=50, tol=0.0)
        assert len(rep.potential_trace) == rep.iterations + 1
        assert rep.price_trace.shape[0] == rep.iterations + 1

    def test_rejects_alpha_below_one(self):
        scn = two_class_scn(0.5)
        with pytest.raises(UnsupportedRegimeError):
            run_dynamics(scn)

    @pytest.mark.parametrize("options", [{"max_iterations": 0}, {"tol": -1e-9}, {"tol": math.nan}])
    def test_rejects_bad_options(self, options):
        with pytest.raises(ValueError, match="max_iterations must be >= 1|tol must be nonnegative"):
            run_dynamics(two_class_scn(2.0), **options)

    def test_potential_trace_decreases_to_optimum(self):
        rng = np.random.default_rng(61)
        spec = random_scenario(rng, alphas=[1.0, 2.0], n_sps=3)
        scn = normalize_scenario(spec)
        rep = run_dynamics(scn, max_iterations=400, tol=0.0)
        # diagnostics, not an assumption: by the end the potential is at its
        # minimum over the trace
        assert rep.potential_trace[-1] == pytest.approx(rep.potential_trace.min(), abs=1e-9)


def assert_certified(rep):
    """A converged dynamics report carries the certificate that
    ``solve_eg``'s does: budget and clearing gaps within 1e-6 and an
    Eisenberg-Gale duality gap within 1e-9."""
    assert rep.converged
    assert max(rep.residuals["budget_gap"], rep.residuals["clearing_gap"]) <= 1e-6
    assert rep.residuals["duality_gap"] <= 1e-9


def test_coarse_tolerance_converges_only_on_the_duality_gap():
    """At alpha 20 the preset's utilities are tiny, so the absolute
    best-response gap is small long before the equilibrium is reached; a
    price change below ``tol=0.1`` only triggers the check."""
    spec = instantiate(benchmark_preset(), LoadModel(seed=1), 0).with_alphas(20.0)
    assert_certified(run_dynamics(normalize_scenario(spec), tol=0.1))


@pytest.mark.parametrize("k", [22, 26, 111])
def test_converged_runs_are_certified_by_the_duality_gap(k):
    """Random markets whose settled bids pass the absolute best-response
    check while their duality gap is still 3e-9 to 5e-9."""
    rng = np.random.default_rng(5000 + k)
    spec = random_scenario(
        rng, n_sps=int(rng.integers(2, 5)), n_cells=int(rng.integers(1, 4)), alphas=[1.0, 1.5, 2.0, 5.0, math.inf]
    )
    assert_certified(run_dynamics(normalize_scenario(spec)))


def test_max_min_market_with_a_free_class_certifies():
    """One max-min provider whose bids leave a class's goods at price 0: the
    class spends nothing there, and the run certifies the equilibrium that
    ``solve_eg`` finds (census market ``mix/n1/k43``)."""
    build = next(build for key, build in census.recipes() if key == "mix/n1/k43")
    scn = normalize_scenario(build())
    assert np.all(np.isinf(scn.index.alphas))
    rep = run_dynamics(scn)
    assert_certified(rep)
    assert rep.iterations <= 1200
    me = solve_eg(scn)
    np.testing.assert_allclose(rep.utilities, me.utilities, rtol=1e-9)


def test_custom_initial_bids_reach_the_same_prices():
    rng = np.random.default_rng(71)
    spec = random_scenario(rng, alphas=[1.5, 2.0], n_sps=2)
    scn = normalize_scenario(spec)
    base = run_dynamics(scn, tol=1e-12)
    custom = run_dynamics(scn, tol=1e-12, initial_bids=random_feasible_bids(scn, rng))
    assert np.allclose(base.prices, custom.prices, atol=1e-8)


def test_update_equals_own_fixed_point_bids():
    rng = np.random.default_rng(67)
    spec = random_scenario(rng, alphas=[1.0, 2.0, math.inf], n_sps=3)
    scn = normalize_scenario(spec)
    rep = run_dynamics(scn, tol=1e-13)
    bids = report_bids(rep)
    prices = bids.sum(axis=0)
    joint = np.zeros_like(bids)
    for s in range(scn.index.n_sps):
        joint += bid_update(scn, prices, s)
    assert np.allclose(joint, bids, atol=1e-9)


# ---------------------------------------------------------------------------
# The slot potential against the dense formula
# ---------------------------------------------------------------------------


def test_slot_potential_matches_dense_formula():
    rng = np.random.default_rng(1501)
    for n in range(12):
        alphas = [[1.0, 2.0, math.inf], [1.5, 5.0], [1.0], [math.inf, 3.0]][n % 4]
        scn = normalize_scenario(random_scenario(rng, alphas=alphas, n_sps=3))
        run = run_dynamics(scn, max_iterations=30, tol=0.0)
        run_bids = report_bids(run)
        bids = [random_feasible_bids(scn, rng) for _ in range(4)] + [uniform_bids(scn.index), run_bids]
        for b in bids:
            ref = dense_potential(scn, b)
            assert abs(library_potential(scn, b) - ref) <= 1e-13 * max(1.0, abs(ref))
        # the run's trace is the slot potential of its rounds
        assert abs(run.potential_trace[-1] - dense_potential(scn, run_bids)) <= 1e-13 * max(1.0, abs(run.potential_trace[-1]))


def test_bids_off_the_consumed_goods_are_rejected():
    # one cell, two goods; the only class consumes r0 alone
    cells = (CellDef("c0", (ResourceDef("r0", 1.0), ResourceDef("r1", 1.0))),)
    classes = (ClassDef("k0", {"r0": 1.0}),)
    sp = ProviderDef("sp0", 1.0, 2.0, (SupportEntry("c0", "k0", 1),))
    with pytest.warns(UserWarning, match="demanded by no SP"):
        scn = normalize_scenario(ScenarioSpec(cells, classes, (sp,)))
    stray = np.array([[0.75, 0.25]])
    for call in (
        lambda: library_potential(scn, stray),
        lambda: run_dynamics(scn, initial_bids=stray),
    ):
        with pytest.raises(ValueError, match="off the consumed goods"):
            call()
    assert library_potential(scn, np.array([[1.0, 0.0]])) == pytest.approx(0.0, abs=1e-15)
