"""Decentralized trading-post bid dynamics for fairness parameters in [1, inf].

Each round the providers see the current prices (total bids per good) and
simultaneously redistribute their budgets with a multiplicative mirror-descent
step; the step is a closed-form update that is simultaneously the provider's
best response to the posted prices.  The joint update minimizes a convex
potential whose minimum is the market equilibrium, which yields an O(1/T)
convergence certificate in the bid-space KL divergences (Birnbaum, Devanur &
Xiao, EC 2011).  :func:`run_dynamics` traces the potential, round by
round; the dense potential and the proof's gradient, divergence and dual are
references of the test suite (``tests/reference.py``).

Potential pieces per provider regime (prices ``p`` are induced by the bids,
``pd = p_g * d_ig``, ``b_ck = sum_r b``):

* alpha = 1:       sum b*log(b/pd)    restricted to b_ck = B*w/sum(w)
* 1 < alpha < inf: sum b*log(b/pd) + (1/(alpha-1)) * sum b_ck*log(b_ck/w)
* alpha = inf:     sum b*log(b/(w*pd))

The alpha=1 piece is the limit of the middle one: its aggregate term
degenerates into a barrier pinning per-class spending at B*w/sum(w) (which is
where the alpha=1 update puts it after one round), leaving the plain entropy
term.

Bids live on the slot layout of :class:`~slicemarket.model.MarketIndex`:
:func:`run_dynamics` updates, traces and settles them there, and gathers
dense ``[n_triples, n_goods]`` initial bids onto it once
(:meth:`~slicemarket.model.MarketIndex.gather`).
"""

from __future__ import annotations

import numpy as np

from .market import BID_FLOOR, equilibrium_report, settle_bids, verify_equilibrium
from .model import MarketIndex, NormalizedScenario

#: Relative price changes are measured against at least this price level, so
#: goods whose equilibrium price is zero (geometric collapse) still converge.
PRICE_FLOOR = 1e-9


class UnsupportedRegimeError(ValueError):
    """An operation restricted to alpha in [1, inf] saw alpha < 1."""


def _require_at_least_one(index: MarketIndex) -> None:
    if np.any(index.alphas < 1.0):
        bad = [index.sp_names[s] for s in np.flatnonzero(index.alphas < 1.0)]
        raise UnsupportedRegimeError(
            f"potential/dynamics require alpha >= 1; offending SPs: {bad}"
        )


def _potential(index: MarketIndex, b: np.ndarray, prices: np.ndarray) -> float:
    """The convex potential at per-slot bids ``b`` and the prices they
    induce.  The regimes' partial sums are added in the order alpha = 1,
    between, inf; one single sum would move the traces' last bits.

    Zero bids contribute zero; bids below ``BID_FLOOR`` are treated as zero
    so traces of collapsing prices stay finite.
    """
    mask = b > BID_FLOOR
    ratio = np.divide(b, prices[index.slot_goods] * index.slot_demand, out=np.ones_like(b), where=mask)
    entropy = np.where(mask, b * np.log(ratio), 0.0).sum(axis=1)

    a = index.alphas[index.sp_of]
    between, inf = (a > 1.0) & np.isfinite(a), np.isinf(a)
    b_ck = b.sum(axis=1)
    bk, w = b_ck[between], index.weights[between]
    good = bk > BID_FLOOR
    agg = np.where(good, bk * np.log(np.where(good, bk / w, 1.0)), 0.0)
    phi_eq1 = float(entropy[a == 1.0].sum())
    phi_between = float(entropy[between].sum() + (agg / (a[between] - 1.0)).sum())
    phi_inf = float(entropy[inf].sum() - (b_ck[inf] * np.log(index.weights[inf])).sum())
    return phi_eq1 + phi_between + phi_inf


def bid_update(scn: NormalizedScenario, prices: np.ndarray, s: int) -> np.ndarray:
    """Mirror-descent bid update of provider ``s`` given posted prices.

    The update is every provider's closed-form best response
    (:meth:`~slicemarket.model.MarketIndex.bids`); this returns provider
    ``s``'s rows of it as a full-shape bid array, zero elsewhere.  The
    provider's rows sum to its budget exactly.
    """
    index = scn.index
    alpha = float(index.alphas[s])
    if alpha < 1.0:
        raise UnsupportedRegimeError(
            f"bid update defined for alpha in [1, inf]; SP {index.sp_names[s]!r} has {alpha}"
        )
    slots, _ = index.bids(np.asarray(prices, dtype=float))
    return index.dense(slots, index.sp_rows(s))


def uniform_bids(index: MarketIndex) -> np.ndarray:
    """Budget split uniformly over each provider's consumed (triple, good)
    pairs; strictly positive on the whole support."""
    return index.dense(_uniform_slots(index))


def _uniform_slots(index: MarketIndex) -> np.ndarray:
    """:func:`uniform_bids` per slot, zero on padding."""
    real = index.slot_real
    counts = index.sp_sum(real.sum(axis=1).astype(float))
    return real * (index.budgets / counts)[index.sp_of, None]


def _bid_round(index: MarketIndex, prices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One simultaneous round: every provider's bid update against
    ``prices`` (per-slot spending) and the prices those bids induce."""
    slots, _ = index.bids(prices)
    return slots, index.per_good(slots)


def price_path(scn: NormalizedScenario, rounds: int) -> np.ndarray:
    """Prices of ``rounds`` rounds of the bid dynamics from uniform bids, as
    a ``[rounds + 1, n_goods]`` array whose row 0 is the starting prices.

    The same rounds as :func:`run_dynamics` with ``tol=0``, whose
    ``price_trace`` this equals, without its potential, settlement and
    equilibrium check."""
    index = scn.index
    _require_at_least_one(index)
    path = np.empty((rounds + 1, index.n_goods))
    prices = path[0] = index.per_good(_uniform_slots(index))
    for it in range(1, rounds + 1):
        prices = path[it] = _bid_round(index, prices)[1]
    return path


def run_dynamics(
    scn: NormalizedScenario,
    *,
    max_iterations: int = 10000,
    tol: float = 1e-8,
    initial_bids: np.ndarray | None = None,
):
    """Iterate simultaneous bid updates from uniform (or given) initial bids
    until the settled bids pass the equilibrium check, for at most
    ``max_iterations`` rounds.  Given initial bids are dense ``[n_triples,
    n_goods]`` and must lie on the consumed goods
    (:meth:`~slicemarket.model.MarketIndex.gather`).

    The check is :func:`~slicemarket.market.verify_equilibrium`, which
    :func:`~slicemarket.solvers.solve_eg` ends in too.  It runs after each
    round whose largest relative price change is below ``tol`` and after the
    last round, so a ``tol=0`` run takes exactly ``max_iterations`` rounds.
    Returns a :class:`~slicemarket.market.SolveReport` with the potential
    and price traces, the check's gaps as ``residuals`` and its rule as
    ``converged``.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    index = scn.index
    _require_at_least_one(index)
    slots = _uniform_slots(index) if initial_bids is None else index.gather(initial_bids)

    prices = index.per_good(slots)
    phis = [_potential(index, slots, prices)]
    price_rows = [prices]
    for it in range(1, max_iterations + 1):
        slots, new_prices = _bid_round(index, prices)
        scale = np.maximum(np.maximum(prices, new_prices), PRICE_FLOOR)
        change = float((np.abs(new_prices - prices) / scale).max())
        prices = new_prices
        phis.append(_potential(index, slots, prices))
        price_rows.append(prices)
        if change < tol or it == max_iterations:
            settled, allocation = settle_bids(scn, slots)
            check = verify_equilibrium(scn, allocation, settled)
            if check.is_equilibrium or it == max_iterations:
                traces = np.array(phis), np.array(price_rows)
                return equilibrium_report(scn, "dynamics", settled, allocation, it, check, *traces)
