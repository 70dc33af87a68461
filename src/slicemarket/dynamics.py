"""Decentralized trading-post bid dynamics for fairness parameters in [1, inf].

Each round the providers see the current prices (total bids per good) and
simultaneously redistribute their budgets with a multiplicative mirror-descent
step; the step is a closed-form update that is simultaneously the provider's
best response to the posted prices.  The joint update minimizes a convex
potential whose minimum is the market equilibrium, which yields an O(1/T)
convergence certificate in the bid-space KL divergences.

Potential pieces per provider regime (prices ``p`` are induced by the bids,
``pd = p_g * d_ig``, ``b_ck = sum_r b``):

* alpha = 1:       sum b*log(b/pd)    restricted to b_ck = B*w/sum(w)
* 1 < alpha < inf: sum b*log(b/pd) + (1/(alpha-1)) * sum b_ck*log(b_ck/w)
* alpha = inf:     sum b*log(b/(w*pd))

The alpha=1 piece is the limit of the middle one: its aggregate term
degenerates into a barrier pinning per-class spending at B*w/sum(w) (which is
where the alpha=1 update puts it after one round), leaving the plain entropy
term.  Feasible-bid sampling respects that domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .market import BID_FLOOR, make_report, settle_bids, verify_equilibrium
from .model import DemandKernel, MarketIndex, NormalizedScenario

#: Relative price changes are measured against at least this price level, so
#: goods whose equilibrium price is zero (geometric collapse) still converge.
PRICE_FLOOR = 1e-9


class UnsupportedRegimeError(ValueError):
    """An operation restricted to alpha in [1, inf] saw alpha < 1."""


@dataclass(frozen=True)
class DynamicsConfig:
    max_iterations: int = 10000
    tol: float = 1e-8
    initial_bids: np.ndarray | None = None
    trace_stride: int = 1
    equilibrium_tol: float = 1e-6

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.tol >= 0:
            raise ValueError("tol must be nonnegative")
        if self.trace_stride < 1:
            raise ValueError("trace_stride must be >= 1")


@dataclass(frozen=True)
class PotentialBreakdown:
    phi_eq1: float
    phi_between: float
    phi_inf: float

    @property
    def phi_total(self) -> float:
        return self.phi_eq1 + self.phi_between + self.phi_inf


def _kl(x: np.ndarray, y: np.ndarray) -> float:
    """Unnormalized KL divergence ``sum x*log(x/y)``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if np.any(x < 0) or np.any(y < 0):
        raise ValueError("KL arguments must be nonnegative")
    pos = x > 0
    if np.any(y[pos] == 0):
        raise ValueError("KL divergence diverges: x > 0 where y = 0")
    ratio = np.divide(x, y, out=np.ones_like(x), where=pos)
    return float(np.sum(x[pos] * np.log(ratio[pos])))


def _regime_masks(index: MarketIndex):
    a = index.alphas[index.sp_of]
    return a == 1.0, (a > 1.0) & np.isfinite(a), np.isinf(a)


def _require_at_least_one(index: MarketIndex) -> None:
    if np.any(index.alphas < 1.0):
        bad = [index.sp_names[s] for s in np.flatnonzero(index.alphas < 1.0)]
        raise UnsupportedRegimeError(
            f"potential/dynamics require alpha >= 1; offending SPs: {bad}"
        )


def eval_potential(scn: NormalizedScenario, bids: np.ndarray) -> PotentialBreakdown:
    """Evaluate the convex potential at a bid tensor, by regime.

    Zero bids contribute zero; bids below ``BID_FLOOR`` are treated as zero
    so traces of collapsing prices stay finite.
    """
    index = scn.index
    _require_at_least_one(index)
    b = np.asarray(bids, dtype=float)
    p = b.sum(axis=0)
    mask = b > BID_FLOOR
    ratio = np.divide(b, p[None, :] * index.demand, out=np.ones_like(b), where=mask)
    entropy = np.where(mask, b * np.log(ratio), 0.0).sum(axis=1)

    eq1, between, inf = _regime_masks(index)
    phi_eq1 = float(entropy[eq1].sum())

    b_ck = b.sum(axis=1)
    phi_between = 0.0
    if between.any():
        rows = np.flatnonzero(between)
        alpha = index.alphas[index.sp_of[rows]]
        bk = b_ck[rows]
        w = index.weights[rows]
        good = bk > BID_FLOOR
        agg = np.where(good, bk * np.log(np.where(good, bk / w, 1.0)), 0.0)
        phi_between = float(entropy[rows].sum() + (agg / (alpha - 1.0)).sum())

    phi_inf = 0.0
    if inf.any():
        rows = np.flatnonzero(inf)
        phi_inf = float(entropy[rows].sum() - (b_ck[rows] * np.log(index.weights[rows])).sum())
    return PotentialBreakdown(phi_eq1=phi_eq1, phi_between=phi_between, phi_inf=phi_inf)


def potential_gradient(scn: NormalizedScenario, bids: np.ndarray) -> np.ndarray:
    """Analytic gradient of the potential, including the price coupling
    ``p = sum of bids`` (the per-good terms contribute exactly -1, cancelling
    the +1 from each entropy term).

    Requires strictly positive bids on consumed goods.
    """
    index = scn.index
    _require_at_least_one(index)
    b = np.asarray(bids, dtype=float)
    if np.any(b[index.consumed] <= 0):
        raise ValueError("gradient needs strictly positive bids on consumed goods")
    p = b.sum(axis=0)
    grad = np.zeros_like(b)
    base = np.log(b[index.consumed] / (p[None, :] * index.demand)[index.consumed])
    grad[index.consumed] = base

    eq1, between, inf = _regime_masks(index)
    if between.any():
        rows = np.flatnonzero(between)
        alpha = index.alphas[index.sp_of[rows]]
        bk = b[rows].sum(axis=1)
        corr = (np.log(bk / index.weights[rows]) + 1.0) / (alpha - 1.0)
        grad[rows] += corr[:, None] * index.consumed[rows]
    if inf.any():
        rows = np.flatnonzero(inf)
        grad[rows] -= np.log(index.weights[rows])[:, None] * index.consumed[rows]
    return grad


def divergence_dg(scn: NormalizedScenario, b: np.ndarray, b_prev: np.ndarray) -> float:
    """Bregman reference divergence ``sum KL(b, b') - sum_{1<a<inf}
    KL(b_ck, b'_ck)/(1-a)``: the first over per-good bids, the second over
    per-(cell, class) aggregated spend."""
    index = scn.index
    eq1, between, inf = _regime_masks(index)
    total = 0.0
    for s in range(index.n_sps):
        rows = index.sp_rows(s)
        total += _kl(b[rows][index.consumed[rows]], b_prev[rows][index.consumed[rows]])
        alpha = float(index.alphas[s])
        if 1.0 < alpha < math.inf:
            total -= _kl(b[rows].sum(axis=1), b_prev[rows].sum(axis=1)) / (1.0 - alpha)
    return total


def bregman_gap(
    scn: NormalizedScenario, b: np.ndarray, b_prev: np.ndarray
) -> tuple[float, float]:
    """First-order convexity gap and its distance to the reference divergence.

    Returns ``(lower_gap, upper_gap)`` with
    ``lower_gap = Phi(b) - Phi(b') - <grad Phi(b'), b - b'>`` (nonnegative by
    convexity) and ``upper_gap = d_g(b, b') - lower_gap`` (nonnegative, and
    equal to the KL divergence between the induced price vectors).
    """
    phi = eval_potential(scn, b).phi_total
    phi_prev = eval_potential(scn, b_prev).phi_total
    grad = potential_gradient(scn, b_prev)
    lower = phi - phi_prev - float(np.sum(grad * (b - b_prev)))
    upper = divergence_dg(scn, b, b_prev) - lower
    return lower, upper


def eval_dual(scn: NormalizedScenario, prices: np.ndarray) -> float:
    """Dual objective at a price vector: the potential pieces evaluated at the
    closed-form optimal spending against those (fixed) prices.

    Satisfies ``eval_dual(p(b)) <= Phi(b)`` for budget-feasible bids with
    equality at the equilibrium bid profile.
    """
    index = scn.index
    _require_at_least_one(index)
    kernel = index.kernel
    pd_slots, pd = kernel.row_prices(np.asarray(prices, dtype=float))
    if np.any(pd <= 0):
        raise ValueError("dual undefined: some class sees only zero-priced resources")
    b = kernel.spend(pd_slots, pd)
    mask = b > BID_FLOOR
    ratio = np.divide(b, pd_slots, out=np.ones_like(b), where=mask)
    total = float(np.where(mask, b * np.log(ratio), 0.0).sum())
    b_ck = b.sum(axis=1)
    _, between, inf = _regime_masks(index)
    total -= float((b_ck[inf] * np.log(index.weights[inf])).sum())
    if between.any():
        bk = b_ck[between]
        alpha = index.alphas[index.sp_of[between]]
        total += float((bk * np.log(bk / index.weights[between]) / (alpha - 1.0)).sum())
    return total


def bid_update(scn: NormalizedScenario, prices: np.ndarray, s: int) -> np.ndarray:
    """Mirror-descent bid update of provider ``s`` given posted prices.

    The update is every provider's closed-form best response
    (:class:`~slicemarket.model.DemandKernel`); this returns provider
    ``s``'s rows of it as a full-shape bid array, zero elsewhere.  The
    provider's rows sum to its budget exactly.
    """
    index = scn.index
    alpha = float(index.alphas[s])
    if alpha < 1.0:
        raise UnsupportedRegimeError(
            f"bid update defined for alpha in [1, inf]; SP {index.sp_names[s]!r} has {alpha}"
        )
    kernel = index.kernel
    slots, _ = kernel.bids(np.asarray(prices, dtype=float))
    return kernel.dense(slots, index.sp_rows(s))


def uniform_bids(index: MarketIndex) -> np.ndarray:
    """Budget split uniformly over each provider's consumed (triple, good)
    pairs; strictly positive on the whole support."""
    counts = index.sp_sum(index.consumed.sum(axis=1).astype(float))
    b = index.consumed * (index.budgets / counts)[index.sp_of, None]
    return b


def convergence_certificate(
    scn: NormalizedScenario, b_star: np.ndarray, b0: np.ndarray
) -> float:
    """KL budget D of the O(1/T) convergence guarantee
    ``Phi(b^T) - Phi(b*) <= D / T``."""
    return divergence_dg(scn, b_star, b0)


def _bid_round(kernel: DemandKernel, prices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One simultaneous round: every provider's bid update against
    ``prices`` (per-slot spending) and the prices those bids induce."""
    slots, _ = kernel.bids(prices)
    return slots, kernel.per_good(slots)


def price_path(scn: NormalizedScenario, rounds: int) -> np.ndarray:
    """Prices of ``rounds`` rounds of the bid dynamics from uniform bids, as
    a ``[rounds + 1, n_goods]`` array whose row 0 is the starting prices.

    The same rounds as :func:`run_dynamics` with ``tol=0``, whose
    ``price_trace`` this equals, without its potential, settlement and
    equilibrium check."""
    index = scn.index
    _require_at_least_one(index)
    kernel = index.kernel
    path = np.empty((rounds + 1, index.n_goods))
    prices = path[0] = uniform_bids(index).sum(axis=0)
    for it in range(1, rounds + 1):
        prices = path[it] = _bid_round(kernel, prices)[1]
    return path


def run_dynamics(scn: NormalizedScenario, config: DynamicsConfig | None = None):
    """Iterate simultaneous bid updates from uniform (or given) initial bids
    until the maximum relative price change drops below tolerance.

    Returns a :class:`~slicemarket.market.SolveReport` with the potential and
    price traces; ``converged`` is False when the iteration budget runs out,
    never a silent success.
    """
    config = config or DynamicsConfig()
    index = scn.index
    _require_at_least_one(index)
    if config.initial_bids is not None:
        b = np.array(config.initial_bids, dtype=float)
        if b.shape != (index.n_triples, index.n_goods):
            raise ValueError("initial bids have the wrong shape")
    else:
        b = uniform_bids(index)

    phis = [eval_potential(scn, b).phi_total]
    price_rows = [b.sum(axis=0)]
    trace_iters = [0]

    kernel = index.kernel
    prices = price_rows[0]
    converged = False
    it = 0
    for it in range(1, config.max_iterations + 1):
        slots, new_prices = _bid_round(kernel, prices)
        scale = np.maximum(np.maximum(prices, new_prices), PRICE_FLOOR)
        change = float((np.abs(new_prices - prices) / scale).max())
        prices = new_prices
        # the last iteration is always traced, so b ends as the final bids
        if it % config.trace_stride == 0 or change < config.tol or it == config.max_iterations:
            b = kernel.dense(slots)
            phis.append(eval_potential(scn, b).phi_total)
            price_rows.append(prices)
            trace_iters.append(it)
        if change < config.tol:
            converged = True
            break

    final_prices, allocation = settle_bids(scn, b)
    check = verify_equilibrium(scn, allocation, final_prices, tol=config.equilibrium_tol)
    report = make_report(
        scn,
        method="dynamics",
        prices=final_prices,
        allocation=allocation,
        iterations=it,
        converged=converged and check.is_equilibrium,
        residuals={
            "budget_gap": check.budget_gap,
            "clearing_gap": check.clearing_gap,
            "br_gap": check.br_gap,
            "br_gap_rel": check.br_gap_rel,
        },
        potential_trace=np.array(phis),
        price_trace=np.array(price_rows),
    )
    report.trace_iterations = np.array(trace_iters)
    report.bids = b
    return report


def random_feasible_bids(scn: NormalizedScenario, rng: np.random.Generator) -> np.ndarray:
    """Strictly positive budget-exhausting bids, uniform Dirichlet over each
    provider's support.

    Providers at alpha=1 get their per-class spending pinned at B*w/sum(w)
    (the reachable set of the alpha=1 dynamics, where the potential's
    guarantees live); the split across goods within each class is random.
    """
    index = scn.index
    b = np.zeros((index.n_triples, index.n_goods))
    for s in range(index.n_sps):
        rows = index.sp_rows(s)
        alpha = float(index.alphas[s])
        if alpha == 1.0:
            w = index.weights[rows]
            b_ck = index.budgets[s] * w / w.sum()
            for j, i in enumerate(rows):
                goods = np.flatnonzero(index.consumed[i])
                b[i, goods] = b_ck[j] * rng.dirichlet(np.ones(goods.size))
        else:
            cells = [(i, g) for i in rows for g in np.flatnonzero(index.consumed[i])]
            shares = rng.dirichlet(np.ones(len(cells))) * index.budgets[s]
            for (i, g), v in zip(cells, shares):
                b[i, g] = v
    return b
