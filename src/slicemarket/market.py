"""Stateless market mechanics: SP utilities, the settlement of bids into an
allocation, and the one check and report of every market equilibrium.

Conventions: a price vector is a ``[n_goods]`` array for the whole normalized
resource.  Solves, their settlement and reports keep bids and allocations on
the slot layout of :class:`~slicemarket.model.MarketIndex` and build the dense
``[n_triples, n_goods]`` allocation (``Allocation.x``) on read.  A report
keeps no bids.  Every allocation is Leontief-tight: its rates fix its
bundles.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .model import MarketIndex, NormalizedScenario

#: Largest budget and clearing gaps of an equilibrium.
EQUILIBRIUM_TOL = 1e-6

#: Largest duality gap of a certified solve: the Eisenberg-Gale gap of an
#: equilibrium, the relative welfare or utility gap of an SO or SS solve.
GAP_TOL = 1e-9

#: Bids below this are treated as exact zeros inside logarithms (diagnostics
#: only; the update rules never floor).
BID_FLOOR = 1e-300

#: A good whose price falls below this fraction of the unit total budget is
#: surplus in the limit (bid dynamics drive excess-supply prices to zero
#: geometrically); rate settlement ignores it as a constraint.
SURPLUS_PRICE = 1e-12


def utilities(scn: NormalizedScenario, rates: np.ndarray) -> np.ndarray:
    """Every provider's degree-one utility ``(sum w u^(1-a))^(1/(1-a))`` of
    per-triple ``rates`` ``[..., n_triples]``, over any leading batch axes
    (:attr:`~slicemarket.model.MarketIndex.utility`).

    At alpha=1 this is the weighted geometric mean (the continuity limit),
    at alpha=inf it is ``min u/n``.  Positively homogeneous of degree one,
    which is what the equilibrium program and cross-scheme welfare
    comparisons require.
    """
    return np.exp(_log_utilities(scn, rates))


def _log_utilities(scn: NormalizedScenario, rates: np.ndarray) -> np.ndarray:
    """The logs of :func:`utilities`; ``ValueError`` on a negative rate."""
    rates = np.asarray(rates, dtype=float)
    if np.any(rates < 0):
        raise ValueError("negative service rate")
    with np.errstate(divide="ignore", invalid="ignore"):
        return scn.index.utility(np.log(rates))


@dataclass(frozen=True, eq=False)
class Allocation:
    """Per-triple service rates ``rates`` of a Leontief-tight allocation on
    the market ``index``.  Its fractional allocation ``x = u d`` [n_triples,
    n_goods] is scattered from the index's slots on each read, never kept."""

    rates: np.ndarray
    index: MarketIndex

    @property
    def x(self) -> np.ndarray:
        return self.index.dense(self.rates[:, None] * self.index.slot_demand)

    def totals(self, prices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every provider's spend ``sum p.x_s`` at ``prices`` and every good's
        usage; a triple spends ``u PD``, ``PD`` its price from
        :meth:`~slicemarket.model.MarketIndex.row_prices`."""
        index = self.index
        spend = index.sp_sum(self.rates * index.row_prices(prices)[1])
        return spend, index.per_good(self.rates[:, None] * index.slot_demand)


def _checked_prices(index: MarketIndex, prices: np.ndarray) -> np.ndarray:
    """``prices`` as floats; ``ValueError`` unless one nonnegative, non-NaN price per good."""
    prices = np.asarray(prices, dtype=float)
    if prices.shape != (index.n_goods,):
        raise ValueError(f"prices have shape {prices.shape}, expected ({index.n_goods},)")
    if not np.all(prices >= 0):
        raise ValueError("negative or NaN price")
    return prices


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
    b = np.asarray(bid_slots, dtype=float)
    prices = index.per_good(b)
    slot_prices = prices[index.slot_goods]
    priced = index.slot_real & (slot_prices > SURPLUS_PRICE * prices.sum())
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(priced, (b / slot_prices) / index.slot_demand, np.inf)
        cap_rate = np.where(index.slot_real, 1.0 / index.slot_demand, np.inf).min(axis=1)
    rates = ratio.min(axis=1)
    rates = np.minimum(np.where(np.isfinite(rates), rates, cap_rate), cap_rate)
    return prices, Allocation(rates, index)


@dataclass(frozen=True)
class EquilibriumReport:
    """Gap diagnostics for a candidate (price, allocation) pair.  It is an
    equilibrium when the budget and clearing gaps are within
    ``EQUILIBRIUM_TOL`` and the duality gap is within ``GAP_TOL``.

    ``br_gap`` and ``br_gap_rel`` are the best-response gaps, absolute and
    over the best-response utility; they are reported next to the others
    and take no part in :attr:`is_equilibrium`.
    """

    budget_gap: float
    clearing_gap: float
    br_gap: float
    br_gap_rel: float
    duality_gap: float

    @property
    def is_equilibrium(self) -> bool:
        return max(self.budget_gap, self.clearing_gap) <= EQUILIBRIUM_TOL and self.duality_gap <= GAP_TOL


def verify_equilibrium(scn: NormalizedScenario, allocation: Allocation, prices: np.ndarray) -> EquilibriumReport:
    """Check the two market-equilibrium conditions plus budget balance, and
    certify the pair by the Eisenberg-Gale duality gap.

    budget_gap: ``max_s |sum p.x_s - B_s|``.
    clearing_gap: ``max_g |(usage - capacity) * p|`` (Walras complementarity).
    br_gap: ``max_s [U_s(best response at p) - U_s(x_s)]`` on the degree-one
    aggregate utility (the monotone transform keeps the ranking of the raw
    alpha-fair objective and is scale-comparable across alpha).  A best
    response's utility is ``B_s / e_s(PD)``, the budget over the unit cost
    (:attr:`~slicemarket.model.MarketIndex.unit_cost`) at the prices ``PD``
    of the provider's unit rates.
    br_gap_rel: ``max_s`` of the same gap over ``U_s(best response at p)``;
    the degree-one utility is homogeneous in rates, but the class weights
    set its scale.
    duality_gap: the Eisenberg-Gale gap (:func:`_eg_gap`) at ``prices`` and
    the held utilities, on the scale of the unit total budget whatever the
    class weights; its log ratios are the best responses' log utilities.
    """
    index = scn.index
    prices = _checked_prices(index, prices)
    spend, usage = allocation.totals(prices)
    budget_gap = float(np.abs(spend - index.budgets).max())
    clearing_gap = float(np.abs((usage - 1.0) * prices).max())

    # a best response's utility is B / e(PD): the utility is degree-one
    log_best = index.log_ratios(prices)
    log_held = _log_utilities(scn, allocation.rates)
    duality_gap = _eg_gap(index, prices, log_best, log_held)[0]
    # an alpha-0 provider's best responses are not unique and are not checked
    checked = index.alphas > 0.0
    best, held = np.exp(log_best[checked]), np.exp(log_held[checked])
    if not np.all(np.isfinite(best)):
        # some utility costs nothing at these prices
        br_gap = br_gap_rel = math.inf
    else:
        gap = best - held
        br_gap = float(gap.max(initial=0.0))
        br_gap_rel = float(np.divide(gap, best, out=np.zeros_like(gap), where=best > 0).max(initial=0.0))
    return EquilibriumReport(budget_gap, clearing_gap, br_gap, br_gap_rel, duality_gap)


def _eg_gap(index: MarketIndex, prices: np.ndarray, log_ratios: np.ndarray, log_u: np.ndarray) -> tuple[float, np.ndarray]:
    """The Eisenberg-Gale duality gap at prices ``p >= 0`` of every good and
    the providers' log utilities ``log_u``: the dual ``sum p - sum_s B_s (1
    - r_s)``, with ``log_ratios`` the ``r_s = log B_s - log e_s(D_s p)`` of
    :meth:`~slicemarket.model.MarketIndex.log_ratios` at ``p``, minus the
    program's value ``sum_s B_s log U_s``.  By weak duality it is at least 0
    at every feasible allocation, and it is 0 at the equilibrium.  Returns
    the gap and every provider's ``r_s - log U_s``, 0 at a best response."""
    r = log_ratios - log_u
    budgets = index.budgets
    return float(prices.sum() - budgets.sum() + budgets @ r), r


@dataclass
class SolveReport:
    """Everything a solve produces: allocation, prices, utilities, residual
    diagnostics and iteration traces."""

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
    """The report of a solve.  It is ``converged`` only if the solve says
    so and every utility is finite, and no provider whose every rate is
    positive has a utility below the smallest normal float64: a certificate
    in log space can hold at utilities that overflow or underflow float64."""
    index = scn.index
    prices = _checked_prices(index, prices)
    util = utilities(scn, allocation.rates)
    # in exact arithmetic a provider with every rate positive has a positive utility
    served = index.sp_sum(allocation.rates <= 0) == 0
    representable = np.all(np.isfinite(util)) and np.all(util[served] >= np.finfo(float).tiny)
    return SolveReport(
        scn=scn,
        method=method,
        prices=prices,
        allocation=allocation,
        utilities=util,
        spending=allocation.totals(prices)[0],
        iterations=iterations,
        converged=converged and bool(representable),
        residuals=residuals,
        potential_trace=potential_trace,
        price_trace=price_trace,
    )


def equilibrium_report(
    scn: NormalizedScenario,
    method: str,
    prices: np.ndarray,
    allocation: Allocation,
    iterations: int,
    check: EquilibriumReport,
    potential_trace: np.ndarray | None = None,
    price_trace: np.ndarray | None = None,
) -> SolveReport:
    """The report of a market-equilibrium solve whose ``allocation`` and
    ``prices`` gave ``check`` (:func:`verify_equilibrium`): its residuals
    are the check's five gaps, and it is ``converged`` when the check is an
    equilibrium (and, as every report, its utilities are finite)."""
    residuals = asdict(check)
    return make_report(
        scn, method, prices, allocation, iterations, check.is_equilibrium, residuals, potential_trace, price_trace
    )
