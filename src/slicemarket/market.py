"""Stateless market mechanics: service rates, SP utilities, the trading-post
allocation rule, and market-equilibrium verification.

Conventions: a bid tensor and an allocation are dense ``[n_triples, n_goods]``
arrays aligned with :class:`~slicemarket.model.MarketIndex`; a price vector is
a ``[n_goods]`` array of prices for the whole normalized resource.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

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
    ratio = np.divide(x, index.demand, out=np.full_like(x, np.inf), where=index.consumed)
    rates = ratio.min(axis=1)
    return np.where(np.isfinite(rates), rates, 0.0)


def _check_rates(u: np.ndarray, alpha: float) -> None:
    if np.any(np.asarray(u) < 0):
        raise ValueError("negative service rate")
    if math.isnan(alpha) or alpha < 0:
        raise ValueError("alpha must be >= 0")


def sp_utility(index: MarketIndex, rates: np.ndarray, s: int) -> float:
    """Raw alpha-fair utility of SP ``s`` at the given per-triple rates.

    alpha=0: sum w*u.  alpha=1: prod u**w.  alpha=inf: min u/n.
    Otherwise sum w*u**(1-alpha)/(1-alpha).  A zero rate with positive
    weight yields 0 (alpha=1) or -inf (alpha>1); both compare below any
    positive-rate utility.
    """
    alpha = float(index.alphas[s])
    rows = index.sp_rows(s)
    u = np.asarray(rates, dtype=float)[rows]
    w = index.weights[rows]
    _check_rates(u, alpha)
    if alpha == 0.0:
        return float(np.dot(w, u))
    if math.isinf(alpha):
        return float(np.min(u / index.users[rows]))
    if alpha == 1.0:
        if np.any(u == 0):
            return 0.0
        with np.errstate(over="ignore"):
            # the raw product form explodes for large weights; inf is honest
            return float(np.exp(np.dot(w, np.log(u))))
    if np.any(u == 0):
        return -math.inf
    with np.errstate(over="ignore"):
        return float(np.dot(w, u ** (1.0 - alpha)) / (1.0 - alpha))


def sp_utility_homog(index: MarketIndex, rates: np.ndarray, s: int) -> float:
    """Degree-one aggregate utility ``(sum w u^(1-a))^(1/(1-a))``.

    At alpha=1 this is the weighted geometric mean (the continuity limit),
    at alpha=inf it is ``min u/n``.  Positively homogeneous of degree one,
    which is what the equilibrium program and cross-scheme welfare
    comparisons require.  Computed in log space for large alpha.
    """
    alpha = float(index.alphas[s])
    rows = index.sp_rows(s)
    u = np.asarray(rates, dtype=float)[rows]
    w = index.weights[rows]
    _check_rates(u, alpha)
    if math.isinf(alpha):
        return float(np.min(u / index.users[rows]))
    if alpha == 0.0:
        return float(np.dot(w, u))
    if alpha == 1.0:
        if np.any(u == 0):
            return 0.0
        return float(np.exp(np.dot(w, np.log(u)) / w.sum()))
    if alpha > 1.0 and np.any(u == 0):
        return 0.0
    pos = u > 0
    if not pos.any():
        return 0.0
    log_terms = np.log(w[pos]) + (1.0 - alpha) * np.log(u[pos])
    return float(np.exp(logsumexp(log_terms) / (1.0 - alpha)))


def utilities(scn: NormalizedScenario, rates: np.ndarray, homogeneous: bool = True) -> np.ndarray:
    fn = sp_utility_homog if homogeneous else sp_utility
    return np.array([fn(scn.index, rates, s) for s in range(scn.index.n_sps)])


@dataclass(frozen=True)
class BidTensor:
    """Per-triple, per-good spending in budget units."""

    values: np.ndarray

    def sp_spend(self, index: MarketIndex) -> np.ndarray:
        return index.sp_sum(self.values.sum(axis=1))

    def check(self, index: MarketIndex, tol: float = 1e-9) -> None:
        if np.any(self.values < 0):
            raise ValueError("negative bid")
        if np.any(self.values[~index.consumed] != 0):
            raise ValueError("bid on a good outside the triple's consumed set")
        gap = np.abs(self.sp_spend(index) - index.budgets).max()
        if gap > tol:
            raise ValueError(f"bids violate budgets by {gap:g}")


@dataclass(frozen=True)
class Allocation:
    """Fractional allocation ``x`` [n_triples, n_goods] and rates ``u``."""

    x: np.ndarray
    rates: np.ndarray


def tp_allocate(scn: NormalizedScenario, bids: np.ndarray | BidTensor) -> tuple[np.ndarray, Allocation]:
    """Trading-post rule: price = total bid, allocation proportional to own
    bid; zero-total-bid goods get price 0 and allocation 0.

    Returns ``(prices, allocation)``.
    """
    b = bids.values if isinstance(bids, BidTensor) else np.asarray(bids, dtype=float)
    if np.any(b < 0):
        raise ValueError("negative bid")
    index = scn.index
    prices = b.sum(axis=0)
    x = np.divide(b, prices[None, :], out=np.zeros_like(b), where=prices[None, :] > 0)
    rates = service_rates(index, x)
    return prices, Allocation(x=x, rates=rates)


def settle_bids(scn: NormalizedScenario, bids: np.ndarray) -> tuple[np.ndarray, Allocation]:
    """Bids to (prices, allocation) in demand form, for reporting solves.

    Rates come from the positively priced goods (``u = min (b/p)/d`` over
    them); zero-priced goods are in excess supply at equilibrium and are
    filled per demand, so bundles are the Leontief-tight ``x = u d``.  At a
    fixed point of the bid dynamics this coincides with the literal
    trading-post fractions; unlike them it stays meaningful when a surplus
    good's price underflows to zero.
    """
    index = scn.index
    b = np.asarray(bids, dtype=float)
    prices = b.sum(axis=0)
    priced = index.consumed & (prices[None, :] > SURPLUS_PRICE * prices.sum())
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(priced, (b / prices[None, :]) / index.demand, np.inf)
        cap_rate = np.where(index.consumed, 1.0 / index.demand, np.inf).min(axis=1)
    rates = ratio.min(axis=1)
    rates = np.minimum(np.where(np.isfinite(rates), rates, cap_rate), cap_rate)
    return prices, Allocation(x=rates[:, None] * index.demand, rates=rates)


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
    prices = np.asarray(prices, dtype=float)
    spend = index.sp_sum((prices[None, :] * allocation.x).sum(axis=1))
    budget_gap = float(np.abs(spend - index.budgets).max())

    usage = allocation.x.sum(axis=0)
    clearing_gap = float(np.abs((usage - 1.0) * prices).max())

    if np.any(prices < 0):
        raise ValueError("negative price")
    kernel = index.kernel
    u_br = kernel.rates(kernel.row_prices(prices)[1])
    br_gap = br_gap_rel = 0.0
    for s in range(index.n_sps):
        if index.alphas[s] == 0.0:
            # degenerate-linear case has no finite closed form; skip the
            # best-response check (tp dynamics never run at alpha=0)
            continue
        best = sp_utility_homog(index, u_br, s)
        if not math.isfinite(best):
            # demand is unbounded at these prices
            br_gap = br_gap_rel = math.inf
            continue
        gap = best - sp_utility_homog(index, allocation.rates, s)
        br_gap = max(br_gap, gap)
        br_gap_rel = max(br_gap_rel, gap / best)
    return EquilibriumReport(
        budget_gap=budget_gap,
        clearing_gap=clearing_gap,
        br_gap=max(br_gap, 0.0),
        tol=tol,
        br_gap_rel=br_gap_rel,
    )


@dataclass
class SolveReport:
    """Everything a solve produces: allocation, prices, utilities, residual
    diagnostics and iteration traces."""

    scn: NormalizedScenario
    method: str
    prices: np.ndarray
    allocation: Allocation
    utilities: np.ndarray
    utilities_raw: np.ndarray
    spending: np.ndarray
    iterations: int
    converged: bool
    residuals: dict[str, float]
    potential_trace: np.ndarray | None = None
    price_trace: np.ndarray | None = None
    trace_iterations: np.ndarray | None = None
    bids: np.ndarray | None = None
    surrogate_alphas: dict[str, float] = field(default_factory=dict)

    def allocation_physical(self) -> np.ndarray:
        return self.scn.denormalize_allocation(self.allocation.x)


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
    surrogate_alphas: dict[str, float] | None = None,
) -> SolveReport:
    index = scn.index
    spend = index.sp_sum((prices[None, :] * allocation.x).sum(axis=1))
    return SolveReport(
        scn=scn,
        method=method,
        prices=prices,
        allocation=allocation,
        utilities=utilities(scn, allocation.rates, homogeneous=True),
        utilities_raw=utilities(scn, allocation.rates, homogeneous=False),
        spending=spend,
        iterations=iterations,
        converged=converged,
        residuals=residuals,
        potential_trace=potential_trace,
        price_trace=price_trace,
        surrogate_alphas=surrogate_alphas or {},
    )
