"""Potential function, KL/Bregman machinery, bid updates and the dynamics."""

import math

import numpy as np
import pytest

from slicemarket import (
    CellDef,
    ClassDef,
    DynamicsConfig,
    LoadModel,
    ProviderDef,
    ResourceDef,
    ScenarioSpec,
    SupportEntry,
    bid_update,
    bregman_gap,
    convergence_certificate,
    eval_dual,
    eval_potential,
    instantiate,
    normalize_scenario,
    benchmark_preset,
    potential_gradient,
    random_feasible_bids,
    random_scenario,
    run_dynamics,
    solve_eg,
    uniform_bids,
)
from slicemarket.dynamics import UnsupportedRegimeError, _kl, divergence_dg


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
        assert _kl(x, x) == 0.0

    def test_direct_formula(self):
        assert _kl(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(math.log(2))

    def test_nonnegative_on_equal_mass(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.dirichlet(np.ones(4))
            y = rng.dirichlet(np.ones(4))
            assert _kl(x, y) >= -1e-12

    def test_divergence_error(self):
        with pytest.raises(ValueError):
            _kl(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


class TestPotential:
    def test_sole_bidder_alpha_one_is_zero(self):
        scn = one_sp_two_goods(1.0)
        phi = eval_potential(scn, np.array([[0.5, 0.5]]))
        assert phi.phi_total == pytest.approx(0.0, abs=1e-12)
        assert phi.phi_eq1 == phi.phi_total

    def test_two_identical_bidders(self):
        cells = (CellDef("c0", (ResourceDef("r0", 1.0), ResourceDef("r1", 1.0))),)
        classes = (ClassDef("k0", {"r0": 1.0, "r1": 1.0}),)
        sps = tuple(
            ProviderDef(f"sp{i}", 0.5, 1.0, (SupportEntry("c0", "k0", 1, weight=1.0),))
            for i in range(2)
        )
        scn = normalize_scenario(ScenarioSpec(cells, classes, sps))
        phi = eval_potential(scn, np.full((2, 2), 0.25))
        assert phi.phi_total == pytest.approx(4 * 0.25 * math.log(0.5))

    def test_breakdown_sums(self):
        rng = np.random.default_rng(5)
        spec = random_scenario(rng, alphas=[1.0, 2.0, math.inf])
        scn = normalize_scenario(spec)
        b = random_feasible_bids(scn, rng)
        phi = eval_potential(scn, b)
        assert phi.phi_total == pytest.approx(phi.phi_eq1 + phi.phi_between + phi.phi_inf)

    def test_rejects_alpha_below_one(self):
        scn = two_class_scn(0.5)
        with pytest.raises(UnsupportedRegimeError):
            eval_potential(scn, uniform_bids(scn.index))

    def test_minimized_at_equilibrium(self):
        rng = np.random.default_rng(11)
        spec = random_scenario(rng, alphas=[1.0, 2.0], n_sps=2, n_cells=2)
        scn = normalize_scenario(spec)
        ref = run_dynamics(scn, DynamicsConfig(max_iterations=30000, tol=1e-13))
        phi_star = eval_potential(scn, ref.bids).phi_total
        for _ in range(200):
            b = random_feasible_bids(scn, rng)
            assert eval_potential(scn, b).phi_total >= phi_star - 1e-9


class TestDual:
    def test_equality_at_equilibrium(self):
        rng = np.random.default_rng(13)
        spec = random_scenario(rng, alphas=[1.0, 1.5, math.inf], n_sps=3)
        scn = normalize_scenario(spec)
        rep = run_dynamics(scn)
        phi_star = eval_potential(scn, rep.bids).phi_total
        assert abs(eval_dual(scn, rep.prices) - phi_star) <= 1e-8

    def test_weak_duality_and_sandwich(self):
        rng = np.random.default_rng(17)
        spec = random_scenario(rng, alphas=[1.0, 2.0, 5.0], n_sps=3)
        scn = normalize_scenario(spec)
        rep = run_dynamics(scn)
        phi_star = eval_potential(scn, rep.bids).phi_total
        ups_star = eval_dual(scn, rep.prices)
        for _ in range(100):
            b = random_feasible_bids(scn, rng)
            phi = eval_potential(scn, b).phi_total
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

        pd = p[None, :] * index.demand

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
        for i in range(scn.index.n_triples):
            for g in np.flatnonzero(scn.index.consumed[i]):
                bp, bm = b.copy(), b.copy()
                bp[i, g] += h
                bm[i, g] -= h
                fd = (
                    eval_potential(scn, bp).phi_total - eval_potential(scn, bm).phi_total
                ) / (2 * h)
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
            assert divergence_dg(scn, b1, b2) >= -1e-12


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
        rep = run_dynamics(scn, DynamicsConfig(max_iterations=200, tol=0.0))
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
        phi_star = eval_potential(scn, ref.bids).phi_total
        b0 = uniform_bids(scn.index)
        budget = convergence_certificate(scn, ref.bids, b0)
        run = run_dynamics(scn, DynamicsConfig(max_iterations=1000, tol=0.0))
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
        rep = run_dynamics(scn, DynamicsConfig(max_iterations=2, tol=1e-14))
        assert not rep.converged

    def test_trace_lengths(self):
        rng = np.random.default_rng(59)
        spec = random_scenario(rng, alphas=[1.0], n_sps=2)
        scn = normalize_scenario(spec)
        rep = run_dynamics(scn, DynamicsConfig(max_iterations=50, tol=0.0))
        assert len(rep.potential_trace) == rep.iterations + 1
        assert rep.price_trace.shape[0] == rep.iterations + 1

    def test_rejects_alpha_below_one(self):
        scn = two_class_scn(0.5)
        with pytest.raises(UnsupportedRegimeError):
            run_dynamics(scn)

    def test_potential_trace_decreases_to_optimum(self):
        rng = np.random.default_rng(61)
        spec = random_scenario(rng, alphas=[1.0, 2.0], n_sps=3)
        scn = normalize_scenario(spec)
        rep = run_dynamics(scn, DynamicsConfig(max_iterations=400, tol=0.0))
        # diagnostics, not an assumption: by the end the potential is at its
        # minimum over the trace
        assert rep.potential_trace[-1] == pytest.approx(rep.potential_trace.min(), abs=1e-9)


def test_custom_initial_bids_reach_the_same_prices():
    rng = np.random.default_rng(71)
    spec = random_scenario(rng, alphas=[1.5, 2.0], n_sps=2)
    scn = normalize_scenario(spec)
    base = run_dynamics(scn, DynamicsConfig(tol=1e-12))
    custom = run_dynamics(
        scn,
        DynamicsConfig(tol=1e-12, initial_bids=random_feasible_bids(scn, rng)),
    )
    assert np.allclose(base.prices, custom.prices, atol=1e-8)


def test_update_equals_own_fixed_point_bids():
    rng = np.random.default_rng(67)
    spec = random_scenario(rng, alphas=[1.0, 2.0, math.inf], n_sps=3)
    scn = normalize_scenario(spec)
    rep = run_dynamics(scn, DynamicsConfig(tol=1e-13))
    prices = rep.bids.sum(axis=0)
    joint = np.zeros_like(rep.bids)
    for s in range(scn.index.n_sps):
        joint += bid_update(scn, prices, s)
    assert np.allclose(joint, rep.bids, atol=1e-9)
