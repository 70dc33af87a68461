"""Dense references that the tests check the slot-layout library, and the
convergence proof of its bid dynamics (Birnbaum, Devanur & Xiao, EC 2011),
against: one provider or one ``[n_triples, n_goods]`` array at a time."""

import math
from typing import NamedTuple

import numpy as np

from slicemarket.market import BID_FLOOR


def dense_demand(index):
    """The normalized demand ``[n_triples, n_goods]`` of ``index``,
    scattered from its slots: zero off each triple's consumed goods."""
    out = np.zeros((index.n_triples, index.n_goods))
    out[np.arange(index.n_triples)[:, None], index.slot_goods] = index.slot_demand
    return out


def report_bids(rep):
    """A solve report's dense bids ``[n_triples, n_goods]``: a dynamics run's
    last round, every provider's update against the prices before it, or
    any other solve's spending ``u d p``."""
    index = rep.scn.index
    if rep.method == "dynamics":
        return index.dense(index.bids(rep.price_trace[-2])[0])
    return (rep.allocation.rates[:, None] * dense_demand(index)) * rep.prices


def service_rate(x, demand):
    """Leontief service rate ``min_r x_r / d_r`` over the consumed resources
    (``d_r > 0``) along the last axis: of one bundle, or of every row."""
    x, demand = np.asarray(x, dtype=float), np.asarray(demand, dtype=float)
    if x.shape != demand.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {demand.shape}")
    return np.divide(x, demand, out=np.full_like(x, np.inf), where=demand > 0).min(axis=-1)


class TradingPost(NamedTuple):
    x: np.ndarray
    rates: np.ndarray


def tp_allocate(scn, bids):
    """The trading post: price = total bid, allocation proportional to own
    bid; a good nobody bids on has price 0 and allocation 0.  Returns the
    prices and the dense fractions ``x`` with their rates."""
    b = np.asarray(bids, dtype=float)
    if np.any(b < 0):
        raise ValueError("negative bid")
    prices = b.sum(axis=0)
    x = np.divide(b, prices, out=np.zeros_like(b), where=prices > 0)
    return prices, TradingPost(x, service_rate(x, dense_demand(scn.index)))


def dense_best_response(index, prices, s):
    """Provider ``s``'s closed-form spending on the dense layout, one
    provider at a time: ``b ~ p d * (w / PD)^(1/a)`` normalized to the budget,
    ``b ~ w * p d`` at alpha = inf.  Returns the provider's rows."""
    alpha = float(index.alphas[s])
    rows = index.sp_rows(s)
    pd_rows = prices[None, :] * dense_demand(index)[rows]
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


def random_feasible_bids(scn, rng):
    """Strictly positive budget-exhausting bids, uniform Dirichlet over each
    provider's consumed goods.  At alpha=1 per-class spending is pinned at
    B*w/sum(w), the reachable set of the alpha=1 dynamics, where the
    potential's guarantees live."""
    index = scn.index
    consumed = dense_demand(index) > 0
    b = np.zeros(consumed.shape)
    for s in range(index.n_sps):
        rows = index.sp_rows(s)
        if index.alphas[s] == 1.0:
            w = index.weights[rows]
            for i, b_ck in zip(rows, index.budgets[s] * w / w.sum()):
                b[i, consumed[i]] = b_ck * rng.dirichlet(np.ones(consumed[i].sum()))
        else:
            part = b[rows]
            part[consumed[rows]] = rng.dirichlet(np.ones(consumed[rows].sum())) * index.budgets[s]
            b[rows] = part
    return b


def _regimes(index):
    a = index.alphas[index.sp_of]
    return a, (a > 1.0) & np.isfinite(a), np.isinf(a)


def dense_potential(scn, b, prices=None):
    """``sum b log(b / (p d)) + sum_{1<a<inf} b_ck log(b_ck / w) / (a - 1) -
    sum_{a=inf} b_ck log w`` at the prices ``p`` the bids induce, or given
    ones; bids below ``BID_FLOOR`` count as zero."""
    index = scn.index
    p = b.sum(axis=0) if prices is None else prices
    mask = b > BID_FLOOR
    ratio = np.divide(b, p[None, :] * dense_demand(index), out=np.ones_like(b), where=mask)
    total = float(np.where(mask, b * np.log(ratio), 0.0).sum())
    a, between, inf = _regimes(index)
    b_ck = b.sum(axis=1)
    bk, w = b_ck[between], index.weights[between]
    good = bk > BID_FLOOR
    agg = np.where(good, bk * np.log(np.where(good, bk / w, 1.0)), 0.0)
    return total + float((agg / (a[between] - 1.0)).sum()) - float((b_ck[inf] * np.log(index.weights[inf])).sum())


def potential_gradient(scn, b):
    """Gradient of :func:`dense_potential` with the price coupling ``p =
    sum of bids`` (the per-good terms contribute exactly -1, cancelling the
    +1 of each entropy term), zero off the consumed goods.  Needs strictly
    positive bids on the consumed goods."""
    index = scn.index
    demand = dense_demand(index)
    consumed = demand > 0
    if np.any(b[consumed] <= 0):
        raise ValueError("gradient needs strictly positive bids on consumed goods")
    pd = b.sum(axis=0)[None, :] * demand
    grad = np.log(np.divide(b, pd, out=np.ones_like(b), where=consumed))
    a, between, inf = _regimes(index)
    shift = np.zeros(index.n_triples)
    shift[between] = (np.log(b[between].sum(axis=1) / index.weights[between]) + 1.0) / (a[between] - 1.0)
    shift[inf] = -np.log(index.weights[inf])
    return grad + shift[:, None] * consumed


def kl(x, y):
    """Unnormalized KL divergence ``sum x log(x / y)``."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    pos = x > 0
    if np.any(y[pos] == 0):
        raise ValueError("KL divergence diverges: x > 0 where y = 0")
    return float(np.where(pos, x * np.log(np.divide(x, y, out=np.ones_like(x), where=pos)), 0.0).sum())


def dense_divergence(scn, b, b_prev):
    """Reference divergence ``sum KL(b, b') - sum_{1<a<inf} KL(b_ck,
    b'_ck) / (1 - a)``, provider by provider: the first over per-good bids,
    the second over per-(cell, class) spend.  From the equilibrium bids to
    the starting bids it is the budget ``D`` of the O(1/T) guarantee
    ``Phi(b^T) - Phi(b*) <= D / T``."""
    index = scn.index
    consumed = dense_demand(index) > 0
    total = 0.0
    for s in range(index.n_sps):
        rows = index.sp_rows(s)
        total += kl(b[rows][consumed[rows]], b_prev[rows][consumed[rows]])
        alpha = float(index.alphas[s])
        if 1.0 < alpha < math.inf:
            total -= kl(b[rows].sum(axis=1), b_prev[rows].sum(axis=1)) / (1.0 - alpha)
    return total


def bregman_gap(scn, b, b_prev):
    """``(lower, upper)``: the first-order convexity gap ``Phi(b) - Phi(b')
    - <grad Phi(b'), b - b'>`` (nonnegative by convexity) and its distance
    to :func:`dense_divergence` (nonnegative: the KL divergence between the
    induced price vectors)."""
    linear = float(np.sum(potential_gradient(scn, b_prev) * (b - b_prev)))
    lower = dense_potential(scn, b) - dense_potential(scn, b_prev) - linear
    return lower, dense_divergence(scn, b, b_prev) - lower


def eval_dual(scn, prices):
    """Dual objective at ``prices``: the potential at every provider's
    closed-form spending against those fixed prices.  At most the
    potential of any budget-feasible bids that induce them, with equality
    at the equilibrium."""
    index = scn.index
    prices = np.asarray(prices, dtype=float)
    if np.any(dense_demand(index) @ prices <= 0):
        raise ValueError("dual undefined: some class sees only zero-priced resources")
    # providers own contiguous rows
    b = np.vstack([dense_best_response(index, prices, s) for s in range(index.n_sps)])
    return dense_potential(scn, b, prices)
