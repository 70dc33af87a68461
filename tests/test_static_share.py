"""Static proportional sharing against independent references: a dense scan
along the capacity frontier of a two-class cell, and per-cell scipy solves
(SLSQP, and HiGHS at alpha = 0) on random markets."""

import math
import warnings

import numpy as np
import pytest
from scipy import optimize

from slicemarket import (
    CellDef,
    ClassDef,
    ProviderDef,
    ResourceDef,
    ScenarioSpec,
    SupportEntry,
    max_utilities,
    normalize_scenario,
    random_scenario,
    static_share,
)
from slicemarket.market import sp_utility_homog


def two_class_cell(alpha):
    """One provider holding a whole cell of three goods, with two classes
    whose bottlenecks differ (the preset's bw-intensive and balanced
    classes) at preset-like loads."""
    cells = (CellDef("c0", (ResourceDef("cpu", 30.0), ResourceDef("ram", 126.0), ResourceDef("bw", 40.0))),)
    classes = (
        ClassDef("bw-intensive", {"cpu": 1.0, "ram": 8.0, "bw": 10.0}),
        ClassDef("balanced", {"cpu": 5.0, "ram": 40.0, "bw": 5.0}),
    )
    sp = ProviderDef(
        "sp0", 1.0, alpha, (SupportEntry("c0", "bw-intensive", 97), SupportEntry("c0", "balanced", 104))
    )
    return normalize_scenario(ScenarioSpec(cells, classes, (sp,)))


def log_utility(alpha, w, u0, u1):
    """Log of the degree-one utility of rates ``(u0, u1)``, vectorized."""
    if alpha == 0.0:
        return np.log(w[0] * u0 + w[1] * u1)
    if alpha == 1.0:
        return (w[0] * np.log(u0) + w[1] * np.log(u1)) / w.sum()
    q = 1.0 - alpha
    with np.errstate(divide="ignore"):
        terms = np.stack([math.log(w[0]) + q * np.log(u0), math.log(w[1]) + q * np.log(u1)])
    return np.logaddexp(terms[0], terms[1]) / q


def frontier_optimum(scn):
    """Best rates on the capacity frontier ``u1 = min_g (1 - d0g u0) / d1g``,
    by a dense scan over ``u0`` refined around its best point.  The utility
    is concave along the frontier, so the refinement cannot leave the
    optimum's bracket."""
    index = scn.index
    d0, d1 = index.demand
    alpha = float(index.alphas[0])
    w = index.weights
    top = float((1.0 / d0).min())
    lo, hi = 0.0, top
    for _ in range(8):
        u0 = np.linspace(lo, hi, 2001)
        u1 = np.maximum(((1.0 - u0[:, None] * d0) / d1).min(axis=1), 0.0)
        with np.errstate(divide="ignore"):
            vals = log_utility(alpha, w, u0, u1)
        k = int(np.argmax(vals))
        span = (hi - lo) / 2000
        lo, hi = max(u0[k] - span, 0.0), min(u0[k] + span, top)
    return np.array([u0[k], u1[k]]), float(np.exp(vals[k]))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0, 2.5, 3.0, 5.0, 10.0])
def test_matches_frontier_scan(alpha):
    scn = two_class_cell(alpha)
    rates, best = frontier_optimum(scn)
    rep = static_share(scn)
    assert rep.utilities[0] >= best * (1 - 1e-9)
    np.testing.assert_allclose(rep.allocation.rates, rates, rtol=1e-6)
    assert rep.converged
    assert rep.residuals["duality_gap"] <= 1e-9


def reference_rates(index, s, cap):
    """Provider ``s``'s alpha-fair optimum when it holds ``cap`` of every
    good, one cell at a time: HiGHS at alpha = 0, else SLSQP on the separable
    sum in rates scaled to the box."""
    alpha = float(index.alphas[s])
    rates = np.zeros(index.n_triples)
    cells = {}
    for i in index.sp_rows(s):
        cells.setdefault(index.triples[i][1], []).append(i)
    for rows in cells.values():
        rows = np.array(rows)
        goods = np.flatnonzero(index.consumed[rows].any(axis=0))
        dmat = index.demand[np.ix_(rows, goods)]
        w = index.weights[rows]
        caps = np.full(goods.size, cap)
        if alpha == 0.0:
            res = optimize.linprog(-w, A_ub=dmat.T, b_ub=caps, bounds=[(0.0, None)] * rows.size, method="highs")
            assert res.status == 0
            rates[rows] = res.x
            continue
        box = (cap / dmat).min(axis=1)
        v0 = np.full(rows.size, 0.5 / rows.size)

        def objective(v):
            u = v * box
            if alpha == 1.0:
                return -float(w @ np.log(u)), -w / v
            val = float(w @ u ** (1.0 - alpha)) / (1.0 - alpha)
            return -val, -w * u ** (-alpha) * box

        scale = abs(objective(v0)[0]) or 1.0
        cons = {"type": "ineq", "fun": lambda v: caps - dmat.T @ (v * box), "jac": lambda v: -(dmat * box[:, None]).T}
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*outside bounds.*")
            res = optimize.minimize(
                lambda v: tuple(part / scale for part in objective(v)),
                v0,
                jac=True,
                bounds=[(1e-12, 1.0)] * rows.size,
                constraints=[cons],
                method="SLSQP",
                options={"maxiter": 1000, "ftol": 1e-15},
            )
        rates[rows] = res.x * box
    return rates


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0])
def test_matches_scipy_on_random_markets(alpha):
    rng = np.random.default_rng(int(1000 + 10 * alpha))
    for _ in range(8):
        spec = random_scenario(
            rng,
            n_sps=int(rng.integers(1, 4)),
            n_cells=int(rng.integers(1, 3)),
            n_resources=int(rng.integers(1, 4)),
            classes_per_sp=int(rng.integers(1, 4)),
            alphas=[alpha],
        )
        scn = normalize_scenario(spec)
        index = scn.index
        rep = static_share(scn)
        hat = max_utilities(scn)
        assert rep.converged
        for s in range(index.n_sps):
            for got, cap in ((rep.utilities[s], index.budgets[s]), (hat[s], 1.0)):
                ref = sp_utility_homog(index, reference_rates(index, s, cap), s)
                assert got == pytest.approx(ref, rel=1e-8)
                assert got >= ref * (1 - 1e-9)
