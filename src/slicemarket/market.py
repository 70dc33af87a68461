"""Stateless market mechanics: service rates, SP utilities, the trading-post
allocation rule, and market-equilibrium verification.

Conventions: a price vector is a ``[n_goods]`` array for the whole normalized
resource.  Solves, their settlement and reports keep bids and allocations on
the slot layout of :class:`~slicemarket.model.MarketIndex` and build the dense
``[n_triples, n_goods]`` views (``Allocation.x``, ``SolveReport.bids``) on
read; only the literal trading post (:func:`tp_allocate`) takes dense bids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import MarketIndex, NormalizedScenario

#: Default tolerance for declaring a (price, allocation) pair an equilibrium.
EQUILIBRIUM_TOL = 1e-6

#: Bids below this are treated as exact zeros inside logarithms (diagnostics
#: only; the update rules never floor).
BID_FLOOR = 1e-300

#: A good whose price falls below this fraction of the unit total budget is
#: surplus in the limit (bid dynamics drive excess-supply prices to zero
#: geometrically); rate settlement ignores it as a constraint.
SURPLUS_PRICE = 1e-12


def service_rate(x_bundle: np.ndarray, demand: np.ndarray) -> float:
    """Leontief service rate ``min_r x_r / d_r`` over consumed resources.

    Resources with zero demand are not consumed and are ignored; a zero
    allocation on any consumed resource gives rate 0.
    """
    x_bundle = np.asarray(x_bundle, dtype=float)
    demand = np.asarray(demand, dtype=float)
    if x_bundle.shape != demand.shape:
        raise ValueError(f"shape mismatch: {x_bundle.shape} vs {demand.shape}")
    mask = demand > 0
    if not mask.any():
        raise ValueError("demand vector consumes no resource")
    if np.any(x_bundle[mask] < 0):
        raise ValueError("negative allocation")
    return float(np.min(x_bundle[mask] / demand[mask]))


def service_rates(index: MarketIndex, x: np.ndarray) -> np.ndarray:
    """Per-triple Leontief rates for a full allocation array."""
    kernel = index.kernel
    held = x[kernel.row_ids, kernel.goods]
    ratio = np.divide(held, kernel.demand, out=np.full_like(held, np.inf), where=kernel.real)
    rates = ratio.min(axis=1)
    return np.where(np.isfinite(rates), rates, 0.0)


def utilities(scn: NormalizedScenario, rates: np.ndarray) -> np.ndarray:
    """Every provider's degree-one utility ``(sum w u^(1-a))^(1/(1-a))`` of
    per-triple ``rates`` ``[..., n_triples]``, over any leading batch axes
    (:attr:`~slicemarket.model.MarketIndex.utility`).

    At alpha=1 this is the weighted geometric mean (the continuity limit),
    at alpha=inf it is ``min u/n``.  Positively homogeneous of degree one,
    which is what the equilibrium program and cross-scheme welfare
    comparisons require.
    """
    rates = np.asarray(rates, dtype=float)
    if np.any(rates < 0):
        raise ValueError("negative service rate")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.exp(scn.index.utility(np.log(rates)))


class Allocation:
    """Per-triple service rates and the fractional allocation ``x``
    [n_triples, n_goods].  A solve's allocation is Leontief-tight (``x = u
    d``) and holds the rates and the index alone: ``x`` is scattered from the
    kernel's slots on each read, never kept.  ``Allocation(x=x, rates=u)``
    holds any other ``x``, such as the trading-post fractions."""

    def __init__(self, x: np.ndarray | None = None, rates: np.ndarray | None = None, index: MarketIndex | None = None):
        self._x, self.rates, self.index = x, rates, index

    @property
    def x(self) -> np.ndarray:
        if self._x is not None:
            return self._x
        kernel = self.index.kernel
        return kernel.dense(self.rates[:, None] * kernel.demand)

    def totals(self, index: MarketIndex, prices: np.ndarray, pd: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Every provider's spend ``sum p.x_s`` at ``prices`` and every good's
        usage; a tight allocation spends ``u PD`` on a triple, ``PD`` its
        price from :meth:`~slicemarket.model.DemandKernel.row_prices`."""
        if self._x is not None:
            return index.sp_sum(self._x @ prices), self._x.sum(axis=0)
        kernel = index.kernel
        pd = kernel.row_prices(prices)[1] if pd is None else pd
        return index.sp_sum(self.rates * pd), kernel.per_good(self.rates[:, None] * kernel.demand)


def _checked_prices(index: MarketIndex, prices: np.ndarray) -> np.ndarray:
    """``prices`` as floats; ``ValueError`` unless one nonnegative, non-NaN price per good."""
    prices = np.asarray(prices, dtype=float)
    if prices.shape != (index.n_goods,):
        raise ValueError(f"prices have shape {prices.shape}, expected ({index.n_goods},)")
    if not np.all(prices >= 0):
        raise ValueError("negative or NaN price")
    return prices


def tp_allocate(scn: NormalizedScenario, bids: np.ndarray) -> tuple[np.ndarray, Allocation]:
    """Trading-post rule: price = total bid, allocation proportional to own
    bid; zero-total-bid goods get price 0 and allocation 0.

    Returns ``(prices, allocation)``.
    """
    b = np.asarray(bids, dtype=float)
    if np.any(b < 0):
        raise ValueError("negative bid")
    index = scn.index
    prices = b.sum(axis=0)
    x = np.divide(b, prices[None, :], out=np.zeros_like(b), where=prices[None, :] > 0)
    rates = service_rates(index, x)
    return prices, Allocation(x=x, rates=rates)


def settle_bids(scn: NormalizedScenario, bid_slots: np.ndarray) -> tuple[np.ndarray, Allocation]:
    """Per-slot bids to (prices, allocation) in demand form, for reporting solves.

    Rates come from the positively priced goods (``u = min (b/p)/d`` over
    them); zero-priced goods are in excess supply at equilibrium and are
    filled per demand, so bundles are the Leontief-tight ``x = u d``.  At a
    fixed point of the bid dynamics this coincides with the literal
    trading-post fractions; unlike them it stays meaningful when a surplus
    good's price underflows to zero.
    """
    index = scn.index
    kernel = index.kernel
    b = np.asarray(bid_slots, dtype=float)
    prices = kernel.per_good(b)
    slot_prices = prices[kernel.goods]
    priced = kernel.real & (slot_prices > SURPLUS_PRICE * prices.sum())
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(priced, (b / slot_prices) / kernel.demand, np.inf)
        cap_rate = np.where(kernel.real, 1.0 / kernel.demand, np.inf).min(axis=1)
    rates = ratio.min(axis=1)
    rates = np.minimum(np.where(np.isfinite(rates), rates, cap_rate), cap_rate)
    return prices, Allocation(rates=rates, index=index)


@dataclass(frozen=True)
class EquilibriumReport:
    """Gap diagnostics for a candidate (price, allocation) pair.

    ``br_gap_rel`` is each provider's best-response gap over its
    best-response utility, maximized over providers; it is reported next to
    the absolute gaps and takes no part in :attr:`is_equilibrium`.
    """

    budget_gap: float
    clearing_gap: float
    br_gap: float
    br_gap_rel: float
    tol: float

    @property
    def is_equilibrium(self) -> bool:
        return max(self.budget_gap, self.clearing_gap, self.br_gap) <= self.tol


def verify_equilibrium(
    scn: NormalizedScenario,
    allocation: Allocation,
    prices: np.ndarray,
    tol: float = EQUILIBRIUM_TOL,
) -> EquilibriumReport:
    """Check the two market-equilibrium conditions plus budget balance.

    budget_gap: ``max_s |sum p.x_s - B_s|``.
    clearing_gap: ``max_g |(usage - capacity) * p|`` (Walras complementarity).
    br_gap: ``max_s [U_s(best response at p) - U_s(x_s)]`` on the degree-one
    aggregate utility (the monotone transform keeps the ranking of the raw
    alpha-fair objective and is scale-comparable across alpha).
    br_gap_rel: ``max_s`` of the same gap over ``U_s(best response at p)``;
    the degree-one utility is homogeneous in rates, but the class weights
    set its scale.
    """
    index = scn.index
    prices = _checked_prices(index, prices)
    pd = index.kernel.row_prices(prices)[1]
    spend, usage = allocation.totals(index, prices, pd)
    budget_gap = float(np.abs(spend - index.budgets).max())
    clearing_gap = float(np.abs((usage - 1.0) * prices).max())

    u_br = index.kernel.rates(pd)[0]
    best, held = utilities(scn, np.stack([u_br, allocation.rates]))
    # an alpha-0 provider's best responses are not unique and are not checked
    checked = index.alphas > 0.0
    best, held = best[checked], held[checked]
    if not np.all(np.isfinite(best)):
        # demand is unbounded at these prices
        br_gap = br_gap_rel = math.inf
    else:
        gap = best - held
        br_gap = float(gap.max(initial=0.0))
        br_gap_rel = float(np.divide(gap, best, out=np.zeros_like(gap), where=best > 0).max(initial=0.0))
    return EquilibriumReport(
        budget_gap=budget_gap,
        clearing_gap=clearing_gap,
        br_gap=br_gap,
        tol=tol,
        br_gap_rel=br_gap_rel,
    )


@dataclass
class SolveReport:
    """Everything a solve produces: allocation, prices, utilities, residual
    diagnostics and iteration traces.  ``bids``, a market equilibrium's dense
    bid tensor (None for the other schemes), is scattered on first read from
    its per-slot bids ``bid_slots``, which the solve sets."""

    scn: NormalizedScenario
    method: str
    prices: np.ndarray
    allocation: Allocation
    utilities: np.ndarray
    spending: np.ndarray
    iterations: int
    converged: bool
    residuals: dict[str, float]
    potential_trace: np.ndarray | None = None
    price_trace: np.ndarray | None = None
    bid_slots: np.ndarray | None = None

    @cached_property
    def bids(self) -> np.ndarray | None:
        return None if self.bid_slots is None else self.scn.index.kernel.dense(self.bid_slots)


def make_report(
    scn: NormalizedScenario,
    method: str,
    prices: np.ndarray,
    allocation: Allocation,
    iterations: int,
    converged: bool,
    residuals: dict[str, float],
    potential_trace: np.ndarray | None = None,
    price_trace: np.ndarray | None = None,
) -> SolveReport:
    prices = _checked_prices(scn.index, prices)
    return SolveReport(
        scn=scn,
        method=method,
        prices=prices,
        allocation=allocation,
        utilities=utilities(scn, allocation.rates),
        spending=allocation.totals(scn.index, prices)[0],
        iterations=iterations,
        converged=converged,
        residuals=residuals,
        potential_trace=potential_trace,
        price_trace=price_trace,
    )
