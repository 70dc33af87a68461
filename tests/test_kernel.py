"""The compact demand kernel against the dense per-provider closed form."""

import math

import numpy as np
import pytest

from slicemarket import (
    CellDef,
    ClassDef,
    DynamicsConfig,
    ProviderDef,
    ResourceDef,
    ScenarioSpec,
    SolverConfig,
    SupportEntry,
    best_response,
    bid_update,
    normalize_scenario,
    random_scenario,
    run_dynamics,
    solve_eg,
)

ALPHAS = (0.0, 0.5, 1.0, 1.5, 2.0, 5.0, math.inf)


def dense_best_response(index, prices, s):
    """Provider ``s``'s closed-form spending on the dense layout, one
    provider at a time: ``b ~ p d * (w / PD)^(1/a)`` normalized to the budget,
    ``b ~ w * p d`` at alpha = inf.  Returns the provider's rows."""
    alpha = float(index.alphas[s])
    rows = index.sp_rows(s)
    pd_rows = prices[None, :] * index.demand[rows]
    pd = pd_rows.sum(axis=1)
    w = index.weights[rows]
    budget = index.budgets[s]
    if math.isinf(alpha):
        b_rows = budget / float(np.dot(w, pd)) * w[:, None] * pd_rows
    else:
        log_coef = (np.log(w) - np.log(pd)) / alpha
        coef = np.exp(log_coef - log_coef.max())
        b_rows = budget * coef[:, None] * pd_rows / float(np.dot(coef, pd))
    return b_rows * (budget / b_rows.sum())


def mixed_scenario(rng, n_sps=4, n_cells=3):
    """Providers with mixed alphas over classes consuming one to three of a
    cell's three resources."""
    resources = ("r0", "r1", "r2")
    caps = rng.uniform(10.0, 100.0, size=len(resources))
    cells = tuple(
        CellDef(f"c{c}", tuple(ResourceDef(r, float(cap)) for r, cap in zip(resources, caps)))
        for c in range(n_cells)
    )
    # k0 consumes everything, so no resource is idle
    subsets = [resources] + [
        tuple(rng.choice(resources, size=int(rng.integers(1, 4)), replace=False))
        for _ in range(4)
    ]
    classes = tuple(
        ClassDef(f"k{k}", {r: float(rng.uniform(0.05, 0.4) * caps[resources.index(r)]) for r in sub})
        for k, sub in enumerate(subsets)
    )
    budgets = rng.dirichlet(np.full(n_sps, 5.0))
    budgets[-1] = 1.0 - budgets[:-1].sum()
    sps = []
    for s in range(n_sps):
        klasses = sorted({0} | set(rng.choice(len(classes), size=2, replace=False).tolist()))
        support = tuple(
            SupportEntry(c.id, f"k{k}", int(rng.integers(1, 6))) for c in cells for k in klasses
        )
        sps.append(ProviderDef(f"sp{s}", float(budgets[s]), float(rng.choice(ALPHAS)), support))
    return ScenarioSpec(cells, classes, tuple(sps))


def test_kernel_matches_dense_closed_form():
    rng = np.random.default_rng(113)
    padded = 0
    seen = set()
    for _ in range(30):
        scn = normalize_scenario(mixed_scenario(rng))
        index = scn.index
        kernel = index.kernel
        padded += int((index.consumed.sum(axis=1) < kernel.goods.shape[1]).sum())
        for _ in range(5):
            p = rng.uniform(0.05, 2.0, index.n_goods)
            joint = kernel.dense(kernel.bids(p)[0])
            assert np.array_equal(kernel.per_good(kernel.bids(p)[0]), joint.sum(axis=0))
            for s in range(index.n_sps):
                alpha = float(index.alphas[s])
                rows = index.sp_rows(s)
                if alpha == 0.0:
                    with pytest.raises(ValueError):
                        best_response(scn, p, s)
                    continue
                seen.add(alpha)
                ref = dense_best_response(index, p, s)
                np.testing.assert_allclose(joint[rows], ref, rtol=0, atol=1e-12)
                np.testing.assert_allclose(best_response(scn, p, s)[rows], ref, rtol=0, atol=1e-12)
                if alpha >= 1.0:
                    np.testing.assert_allclose(bid_update(scn, p, s)[rows], ref, rtol=0, atol=1e-12)
    assert padded > 0
    assert seen == set(ALPHAS) - {0.0}


def test_best_response_ignores_other_providers_free_classes():
    # sp1 serves only cell c1, whose goods are free; sp0's best response is
    # still defined, while the joint update is not
    cells = tuple(CellDef(c, (ResourceDef("r0", 1.0), ResourceDef("r1", 1.0))) for c in ("c0", "c1"))
    classes = (ClassDef("k0", {"r0": 1.0, "r1": 0.5}), ClassDef("k1", {"r1": 1.0}))
    sps = (
        ProviderDef("sp0", 0.5, 2.0, (SupportEntry("c0", "k0", 2), SupportEntry("c0", "k1", 3))),
        ProviderDef("sp1", 0.5, 2.0, (SupportEntry("c1", "k0", 1),)),
    )
    scn = normalize_scenario(ScenarioSpec(cells, classes, sps))
    p = np.array([0.3, 0.2, 0.0, 0.0])
    ref = dense_best_response(scn.index, p, 0)
    np.testing.assert_allclose(best_response(scn, p, 0)[scn.index.sp_rows(0)], ref, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        best_response(scn, p, 1)
    with pytest.raises(ValueError):
        bid_update(scn, p, 0)


def test_solve_eg_traces_end_points_only():
    rng = np.random.default_rng(131)
    scn = normalize_scenario(random_scenario(rng, alphas=[1.0, 2.0, math.inf], n_sps=3))
    config = SolverConfig()
    rep = solve_eg(scn, config)
    full = run_dynamics(
        scn, DynamicsConfig(max_iterations=config.max_iterations, tol=max(config.tol * 1e-2, 1e-12))
    )
    assert rep.method == "dynamics"
    assert rep.iterations == full.iterations
    assert np.array_equal(rep.prices, full.prices)
    assert len(full.potential_trace) == full.iterations + 1
    assert len(rep.potential_trace) <= 2
