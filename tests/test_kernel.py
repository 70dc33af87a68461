"""The compact demand kernel against the dense per-provider closed form."""

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
    normalize_scenario,
)
from tests.reference import dense_best_response, dense_demand

ALPHAS = (0.0, 0.5, 1.0, 1.5, 2.0, 5.0, math.inf)


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
        padded += int(((dense_demand(index) > 0).sum(axis=1) < index.slot_goods.shape[1]).sum())
        for _ in range(5):
            p = rng.uniform(0.05, 2.0, index.n_goods)
            joint = index.dense(index.bids(p)[0])
            assert np.array_equal(index.per_good(index.bids(p)[0]), joint.sum(axis=0))
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


def test_max_min_free_class_spends_nothing():
    # one max-min provider: k1 consumes r1 alone, which is free
    cells = (CellDef("c0", (ResourceDef("r0", 1.0), ResourceDef("r1", 1.0))),)
    classes = (ClassDef("k0", {"r0": 1.0, "r1": 0.5}), ClassDef("k1", {"r1": 1.0}))
    sp = ProviderDef("sp0", 1.0, math.inf, (SupportEntry("c0", "k0", 2), SupportEntry("c0", "k1", 3)))
    scn = normalize_scenario(ScenarioSpec(cells, classes, (sp,)))
    index = scn.index
    p = np.array([0.4, 0.0])
    for bids in (best_response(scn, p, 0), bid_update(scn, p, 0), index.dense(index.bids(p)[0])):
        np.testing.assert_array_equal(bids, [[1.0, 0.0], [0.0, 0.0]])
    # the free class's rate is the common per-user level of the other
    rates = index.rates(index.row_prices(p)[1])[0]
    np.testing.assert_allclose(rates / index.users, 1.0 / (0.4 * 2), rtol=1e-15)
    # every class free: the demand is unbounded
    for call in (lambda: best_response(scn, np.zeros(2), 0), lambda: index.bids(np.zeros(2))):
        with pytest.raises(ValueError):
            call()
