"""Centralized equilibrium computation and baseline allocation schemes.

``solve_eg`` computes the market equilibrium (the optimum of the
budget-weighted log-utility program whose capacity duals are the prices) at
every alpha: by projected Newton steps on the program's price dual, whose
gradient is the excess supply of the closed-form demands, or, where an
alpha-0 provider has no closed-form demand, by the price-space barrier
(:func:`_price_barrier`) on the same dual with the alpha-0 providers' rows
kept apart.  The decentralized bid dynamics (:mod:`~slicemarket.dynamics`),
the paper's learning algorithm, reach the same equilibrium without a
central solver.  ``solve_social_optimal`` and ``static_share`` are the
efficiency and isolation baselines, certified by weak duality: the social
optimum is the same barrier's program with the budgets fixed, and the
static share solves its (provider, cell) blocks in closed form where it can
and as one-provider social optima elsewhere.  ``poa_bound`` /
``nash_welfare`` provide the fairness/efficiency diagnostics.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .market import (
    GAP_TOL, Allocation, SolveReport, _checked_prices, _eg_gap, equilibrium_report, make_report, utilities, verify_equilibrium
)
from .model import CESAggregate, MarketIndex, NormalizedScenario


def __getattr__(name: str):
    # ``solvers.optimize`` stays resolvable for bench/tracing.py, which wraps
    # it; imported on first access so that ``import slicemarket`` loads no
    # scipy (PEP 562).
    if name == "optimize":
        from scipy import optimize

        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def best_response(scn: NormalizedScenario, prices: np.ndarray, s: int) -> np.ndarray:
    """Utility-maximizing spending of provider ``s`` at posted prices.

    Closed form from the first-order conditions of the provider's problem:
    the induced rate is uniform over each class's resources,
    ``u_ck = b_ckr / (p_cr d_ckr)``, and

        b_ckr = B * p_cr d_ckr * w^(1/a) * PD_ck^(-1/a) / Z,
        Z = sum_ck w^(1/a) * PD_ck^((1-a)/(-a)),   PD_ck = sum_r p_cr d_ckr.

    At alpha = inf the provider equalizes per-user rates, spending
    ``b = t * w * p d`` with ``t = B / sum w PD``.  These are provider
    ``s``'s rows of the joint update
    (:meth:`~slicemarket.model.MarketIndex.bids`), and a free class of a
    max-min provider gets no spending.  Returns a full-shape array, zero
    outside the provider's rows, summing to the budget exactly.  Raises
    ``ValueError`` where the provider's demand is unbounded
    (:meth:`~slicemarket.model.MarketIndex.unbounded`).
    """
    index = scn.index
    alpha = float(index.alphas[s])
    if alpha == 0.0:
        raise ValueError(
            "best response degenerates at alpha=0 (linear utility concentrates); "
            "solve_eg solves alpha=0 markets on the Eisenberg-Gale program itself"
        )
    prices = _checked_prices(index, prices)
    pd_slots, pd = index.row_prices(prices)
    free = ~(pd > 0)
    if free.any() and index.unbounded(pd)[s]:
        raise ValueError(
            "best response is unbounded: a class of a finite-alpha provider, or every class of a "
            "max-min provider, sees only zero prices"
        )
    with np.errstate(all="ignore"):
        # other providers' classes may see only zero prices; their rows are
        # computed apart from these and dropped
        slots = index.spend(pd_slots, pd, free)
    return index.dense(slots, index.sp_rows(s))


def _repair_rates(index: MarketIndex, rates: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Scale each triple's rate by the worst overuse factor of its consumed
    goods so that no capacity is exceeded."""
    usage = index.per_good(rates[:, None] * index.slot_demand)
    factor = np.where(usage > caps, caps / np.maximum(usage, 1e-300), 1.0)
    per_triple = np.where(index.slot_real, factor[index.slot_goods], np.inf).min(axis=1)
    return rates * np.minimum(per_triple, 1.0)


#: Fraction of the predicted decrease that a Newton step must gain: of the
#: price dual in :func:`_price_newton`, and of the barrier value, or of the
#: row infeasibility, in :func:`_price_barrier`.
_ARMIJO = 1e-4

#: Newton-step cap of a solve.  On the 7-cell preset a social optimum takes
#: 9-12 barrier steps at alpha 0, 0.5, 1 and inf, 11-18 at alpha 1.5-20 and
#: 15-20 at alpha 100, and the alpha-0 equilibrium 13; at 112 cells 9-23 and
#: 16.  Price Newton takes at most 75 steps on the certification census.
_MAX_STEPS = 1000

#: Largest price that can count as zero for a good in excess supply.
_ACTIVE_PRICE = 1e-9

#: Eight units in the last place of 1: the rounding margin of a sum, in units
#: of the sum of its terms' magnitudes.
_ULPS = 8.0 * np.finfo(float).eps


def _price_newton(index: MarketIndex, p):
    """Minimize the Eisenberg-Gale price dual ``f(p) = sum_g p_g - sum_s B_s
    log e_s(D_s p)`` over nonnegative prices of the demanded goods, from
    ``p``, by a projected Newton method (Bertsekas, *Projected Newton
    methods for optimization problems with simple constraints*, SIAM J.
    Control Optim. 1982).  ``e_s`` is the unit cost
    (:attr:`~slicemarket.model.MarketIndex.unit_cost`) and the gradient ``1 -
    usage(p)`` is the excess supply, so the minimizer is the equilibrium
    price vector.  The demanded rates and ``f`` come from one pass of the
    unit cost (:meth:`~slicemarket.model.MarketIndex.rates`), which the
    gradient, the line search and the returned rates share.

    The Hessian is ``sum_s [(1/a) D^T diag(u/L) D + ((a-1)/(a B)) v v^T]``
    with ``v = D_s^T u_s``: ``1/a`` is ``1 - q`` and ``(a-1)/a`` is ``q``, the
    unit cost's exponent (the first term vanishes at ``a = inf``, where the
    second coefficient is ``1/B``).  The first term is block-diagonal by cell
    (:attr:`~slicemarket.model.MarketIndex.price_cells`) and the second is
    one rank-one term per provider, so a step is one batched per-cell solve
    with the gradient and the ``v`` as its right-hand sides, plus a Woodbury
    correction with an ``n_sp x n_sp`` capacitance matrix.  Goods priced at
    most ``eps = min(residual, _ACTIVE_PRICE)`` with positive gradient are
    pinned (their rows and columns of the cell blocks cleared) and driven to
    0 along the projection arc; a Levenberg term equal to the residual on
    the diagonal keeps rank-deficient cells (one class on three goods, say)
    from stalling the step.

    The Armijo search evaluates ``f`` itself.  Once the predicted decrease
    is below the rounding of ``f``, the full step is taken.  The solve stops
    once the projected gradient is within ``_ULPS`` (the rounding of the
    usage sums, so no step from there can reduce it), when a full step
    fails to halve it, when the step is not a descent direction or no step
    along it decreases ``f``, or after ``_MAX_STEPS`` steps.
    Returns ``(p, rates, steps)``, ``p`` the iterate of smallest projected
    gradient and ``rates`` the rates demanded there.
    """
    cells = index.price_cells
    cost = index.unit_cost
    budgets = index.budgets
    # the rank-one coefficient (a - 1) / (a B), 1 / B at a = inf
    coupling = cost.q[cost.starts] / budgets
    curv_row = 1.0 - cost.q  # 1 / a, 0 at a = inf
    curved = curv_row > 0.0
    demanded = index.demanded_goods()
    n_cells, n_seg, m = cells.n_cells, cells.n_seg, cells.m
    dm = index.slot_demand
    pair, slot = cells.pair.ravel(), cells.slot.ravel()
    pair_demand = (dm[:, :, None] * dm[:, None, :]).reshape(dm.shape[0], -1)
    # the Levenberg diagonal: the residual on the demanded goods, 1 on the
    # others and on padding, whose rows are empty
    levenberg = demanded[cells.good] & cells.mask
    grad_at = cells.flat * (1 + n_seg)
    eye = np.eye(n_seg)

    def evaluate(p):
        """``f(p)``, the scale of its rounding, the rates demanded at ``p``
        and their prices ``L``; ``f`` is inf where some demand is unbounded."""
        pd = index.row_prices(p)[1]
        u, log_e = index.rates(pd)
        terms = budgets * log_e
        total = float(p.sum())
        value = total - float(terms.sum())
        if not np.all(np.isfinite(u)):
            value = math.inf
        return value, total + float(np.abs(terms).sum()), u, pd

    def direction(u, pd, flow, grad, pinned, mu):
        """The Newton direction at the free goods, or None where a solve
        breaks down."""
        coef = np.divide(curv_row * u, pd, out=np.zeros_like(u), where=curved)
        k = np.bincount(pair, weights=(coef[:, None] * pair_demand).ravel(), minlength=n_cells * m * m)
        k = k.reshape(n_cells, m, m)
        k.reshape(n_cells, m * m)[:, :: m + 1] += np.where(levenberg, mu, 1.0)
        rhs = np.bincount(slot, weights=flow.ravel(), minlength=n_cells * m * (1 + n_seg))
        rhs[grad_at] = grad
        rhs = rhs.reshape(n_cells, m, 1 + n_seg)
        if pinned is not None:
            c, j = cells.cell[pinned], cells.pos[pinned]
            k[c, j, :] = 0.0
            k[c, :, j] = 0.0
            k[c, j, j] = 1.0
            rhs[c, j, :] = 0.0
        try:
            x = np.linalg.solve(k, rhs).reshape(-1, 1 + n_seg)
            w = rhs.reshape(-1, 1 + n_seg)[:, 1:].T @ x
            y = np.linalg.solve(eye + coupling[:, None] * w[:, 1:], coupling * w[:, 0])
        except np.linalg.LinAlgError:
            return None
        return (x[:, 0] - x[:, 1:] @ y)[cells.flat]

    def search(p, d, grad, value, scale):
        """The accepted point along the projection arc of ``d``, or None."""
        pred = float(grad @ d)
        if not pred > 0.0:
            return None
        noise = _ULPS * scale
        step = 1.0
        while True:
            trial = np.maximum(p - step * d, 0.0)
            new = evaluate(trial)
            if math.isfinite(new[0]) and (
                pred <= noise or new[0] <= value - _ARMIJO * step * pred
            ):
                return trial, new, pred <= noise
            step *= 0.5
            if step * pred <= noise:
                return None

    value, scale, u, pd = evaluate(p)
    best_resid, best = math.inf, (p, u)
    prev_resid = math.inf
    quiet = False
    steps = 0
    while True:
        flow = u[:, None] * dm
        grad = np.where(demanded, 1.0 - index.per_good(flow), 0.0)
        resid = float(np.abs(p - np.maximum(p - grad, 0.0)).max())
        if resid < best_resid:
            best_resid, best = resid, (p, u)
        if resid <= _ULPS or steps >= _MAX_STEPS or (quiet and resid > 0.5 * prev_resid):
            break
        prev_resid = resid
        pinned = demanded & (p <= min(resid, _ACTIVE_PRICE)) & (grad > 0.0)
        if not pinned.any():
            pinned = None
        d = direction(u, pd, flow, grad, pinned, resid)
        if d is None or not np.all(np.isfinite(d)):
            break
        if pinned is not None:
            d[pinned] = p[pinned]
        found = search(p, d, grad, value, scale)
        if found is None:
            break
        p, (value, scale, u, pd), quiet = found
        steps += 1
    return best + (steps,)


def solve_eg(scn: NormalizedScenario) -> SolveReport:
    """Market-equilibrium allocation and prices: the optimum of the
    Eisenberg-Gale program ``max sum_s B_s log U_s`` under the capacities,
    whose capacity duals are the prices.

    A market with an alpha-0 provider is solved by the price-space barrier
    (:func:`_eisenberg_gale_barrier`, method ``"barrier"``), any other by
    projected Newton steps on its price dual (:func:`_price_newton`, method
    ``"tatonnement"``), each at most ``_MAX_STEPS`` Newton steps;
    ``iterations`` counts the steps.  Identical scenarios give identical
    reports.  The returned prices and rates are checked by
    :func:`~slicemarket.market.verify_equilibrium`, whose five gaps are the
    ``residuals`` and whose rule is ``converged``: budget and clearing gaps
    within ``EQUILIBRIUM_TOL`` and the program's duality gap
    ``residuals["duality_gap"]`` within ``GAP_TOL``.  The decentralized
    route to the same equilibrium, with its price trace and the same
    report, is :func:`~slicemarket.dynamics.run_dynamics`.
    """
    index = scn.index
    barrier = bool(np.any(index.alphas == 0.0))
    if barrier:
        rates, p, iterations = _eisenberg_gale_barrier(index)
    else:
        demanded = index.demanded_goods()
        p, rates, iterations = _price_newton(index, np.where(demanded, 1.0 / demanded.sum(), 0.0))
        rates = _repair_rates(index, rates, np.ones(index.n_goods))
    allocation = Allocation(rates, index)
    check = verify_equilibrium(scn, allocation, p)
    return equilibrium_report(scn, "barrier" if barrier else "tatonnement", p, allocation, iterations, check)


def _eisenberg_gale_barrier(index: MarketIndex) -> tuple[np.ndarray, np.ndarray, int]:
    """The market equilibrium of a market with an alpha-0 provider: the
    price dual of the Eisenberg-Gale program (:func:`_price_barrier` with
    free ``b``).

    The duality gap (:func:`~slicemarket.market._eg_gap`) is taken at the
    rates scaled onto the capacity frontier and at the prices, those below
    their good's slack set to 0.  It is of second order in each provider's
    ``r_s - log U_s`` (a gap of 1e-11 leaves budgets off by up to 3e-6), so
    the solve stops once both are at most ``_BARRIER_STOP_GAP`` in size, or
    after ``_MAX_STEPS`` steps.  Providers with alpha > 0 then take
    their one best response at the prices; alpha-0 providers, whose best
    responses are not unique, keep the solve's rates, cut to the capacity
    the others leave.  Returns ``(rates, prices, iterations)``.
    """
    def check(p, scale, rates, ratio, usage, log_u):
        top = usage.max()
        prices = math.exp(scale) * p
        prices = np.where(prices < 1.0 - usage / top, 0.0, prices)
        gap, r = _eg_gap(index, prices, index.log_ratios(prices), log_u - math.log(top))
        return max(gap, float(np.abs(r).max())), (prices, rates / top)

    (prices, solved), iterations = _price_barrier(index, check, free=True)
    linear = index.alphas[index.sp_of] == 0.0
    demand = np.where(linear, 0.0, index.rates(index.row_prices(prices)[1])[0])
    left = np.maximum(1.0 - index.per_good(demand[:, None] * index.slot_demand), 0.0)
    rates = np.where(linear, _repair_rates(index, np.where(linear, solved, 0.0), left), demand)
    return rates, prices, iterations


# ---------------------------------------------------------------------------
# The price-space barrier: one program for the social optimum, the alpha-0
# market equilibrium and the static share's leftover blocks
# ---------------------------------------------------------------------------

#: Gap at which a price-space barrier solve stops: the price-space bound over
#: the welfare at the iterate scaled onto the capacity frontier, minus 1, of a
#: social optimum or of a static-share (provider, cell) block; and the
#: Eisenberg-Gale gap of an alpha-0 market equilibrium.
_BARRIER_STOP_GAP = 1e-11

#: Bound on how far the duals may stray from their central values ``mu /
#: slack`` (``kappa_Sigma`` of Wachter & Biegler).
_IP_DUAL_SPREAD = 1e10


def _price_barrier(index: MarketIndex, check, free: bool):
    """Minimize ``sum_g p_g - [sum_s B_s b_s]`` over prices ``p >= 0`` of the
    demanded goods subject to one cost row per provider with alpha > 0,
    ``log e_s(D_s p) >= b_s`` (:attr:`~slicemarket.model.MarketIndex.unit_cost`,
    linear at alpha = inf), and one per triple ``k`` of an alpha-0 provider,
    ``log(d_k . p / w_k) >= b_s``.  With ``free`` the ``b_s`` are unknowns
    and the program is the price dual of the Eisenberg-Gale program (Cole
    et al., *Convex Program Duality, Fisher Markets, and Nash Social
    Welfare*, EC 2017, with ``beta_s = e^(b_s)``); otherwise ``b_s = log
    B_s``, and the program's value is the social optimum's welfare.

    Every row is a segment of one CES unit cost over the triples (an
    alpha-0 triple is a segment of its own, at alpha inf with weight ``1 /
    w``), and every row is degree one in ``p``, so the solve runs in prices
    scaled by ``exp(scale)``: with fixed ``b`` the scale puts the start ``p
    = 1`` inside every row, with free ``b`` it makes the start's prices sum
    to the budgets.  A row is taken in units of its value at the start,
    ``r_j = e_j(D p) / e_j(1) >= t_j = exp(b_j) / e_j(1)``: the same
    constraint, linear at alpha 0 and inf, and with no more curvature than
    the unit cost's own elsewhere (the linearization of ``log e`` is poor
    where a step moves prices by large factors).  The multiplier ``y_j`` of
    row ``j`` gives its triples the rates ``y_j r_j pi_i / L_i`` (``pi`` the
    unit cost's shares, ``L = D p``), whose usage is ``1 - z``, ``z`` the
    bound duals of ``p``.

    Primal-dual interior-point method in the monotone mode of IPOPT
    (Wachter & Biegler, *On the implementation of an interior-point filter
    line-search algorithm for large-scale nonlinear programming*, Math.
    Prog. 2006): every row ``r - t = sigma`` carries a slack ``sigma >= 0``,
    so the iterates need not stay inside the rows.

    - ``mu`` starts at 0.1 and falls tenfold, as often as it takes but not
      below a tenth of ``_BARRIER_STOP_GAP``, while the KKT error of the
      barrier problem is at most ``10 mu``: the largest of the dual
      infeasibilities ``p |1 - usage - z|`` (and ``|B - sum y t|``), the row
      infeasibility ``|r - t - sigma|`` and the complementarity residuals
      ``|z p - mu|`` and ``|y sigma - mu|``.
    - The Newton matrix in ``p`` (bordered by ``b`` when free) is ``diag(z /
      p) + sum_j y_j (-hess r_j) + J^T diag(y / sigma) J``, where ``-hess
      r_j = r_j [D^T diag(pi / (a L^2)) D - (1 / a) v v^T]`` with ``v = D^T
      (pi / L)``: pair products of the slots, plus one rank-one term per
      row, which a one-triple row adds to its pair products.  It is solved
      dense (:func:`_newton_step`).
    - The steps of ``p`` and ``sigma`` and of the duals ``y`` and ``z`` are
      cut separately to the fraction ``max(0.99, 1 - mu)`` of the distance
      to 0.  The primal step is halved until it is acceptable to a filter
      on (barrier value, row infeasibility), reset at every ``mu``: where it
      promises more decrease than the infeasibility, by the Armijo fraction
      ``_ARMIJO`` of that promise (or the promise is below the rounding
      of the barrier's terms), elsewhere by that fraction of the
      infeasibility in either.  The duals are kept within a factor
      ``_IP_DUAL_SPREAD`` of their central values ``mu / p`` and ``mu /
      sigma``.

    ``check(p, scale, rates, ratio, usage, log_u)`` is called at the start
    and after every step with the scaled prices of all goods, the rates,
    every provider's largest row ratio ``b_j - log e_j`` at the prices
    ``exp(scale) p`` (``log B_s - log e_s`` when ``b`` is fixed), the rates'
    usage of every good (prices and usage are 0 on goods no triple demands)
    and every provider's log utility of the rates, ``log sum_j y_j r_j /
    e_j`` over its rows (``U_s(c pi / L) = c / e_s(L)``; an alpha-0
    provider's utility is the sum of its rows'), and returns ``(gap,
    result)``.  The rates and their usage are computed once per step, for
    the stop test and the step.  The solve stops once the gap is at most
    ``_BARRIER_STOP_GAP``, after ``_MAX_STEPS`` steps, or where 60 halvings
    find no acceptable step, and returns the last result and the number of
    steps.  Raises ``ValueError`` where the price scale overflows float64.
    """
    n_sp = index.n_sps
    demanded = index.demanded_goods()
    n_goods = int(demanded.sum())
    whole = n_goods == index.n_goods
    goods = np.where(index.slot_real, (np.cumsum(demanded) - 1)[index.slot_goods], 0)
    dm = index.slot_demand
    # slot-major copies: a row's slots are summed as whole rows of these
    goods_t, dm_t = np.ascontiguousarray(goods.T), np.ascontiguousarray(dm.T)
    alpha = index.alphas[index.sp_of]
    linear = alpha == 0.0
    new = linear | np.concatenate(([True], index.sp_of[1:] != index.sp_of[:-1]))
    row = np.cumsum(new) - 1
    row_sp = index.sp_of[new]
    n_rows = row_sp.size
    per_sp = n_rows == n_sp and not linear.any()
    if per_sp:
        # one row per provider: the rows are the providers' own unit costs
        cost = index.unit_cost
    else:
        weights = np.where(linear, 1.0 / index.weights, index.weights)
        cost = CESAggregate.unit_cost(weights, np.where(linear, np.inf, alpha), row)
    curv = 1.0 - cost.q  # 1 / a, 0 at a = inf
    curv_row = curv[cost.starts]
    size = np.bincount(row, minlength=n_rows)
    single, multi = (size == 1)[row], np.flatnonzero(size > 1)
    some_single = bool(single.any())
    first = np.flatnonzero(np.concatenate(([True], row_sp[1:] != row_sp[:-1])))
    flat_goods = goods.ravel()
    pair = (goods[:, :, None] * n_goods + goods[:, None, :]).ravel()
    pair_demand = (dm[:, :, None] * dm[:, None, :]).reshape(dm.shape[0], -1)
    slot_row = (row[:, None] * n_goods + goods).ravel()

    def per_good(values):
        return np.bincount(flat_goods, weights=values.ravel(), minlength=n_goods)

    def evaluate(p):
        """Every triple's price ``L``, every row's log unit cost and the
        unit costs' shares at ``p``."""
        pd = (p[goods_t] * dm_t).sum(axis=0)
        return (pd,) + cost.shares(np.log(pd))

    p = np.ones(n_goods)
    pd, log_e, pi = evaluate(p)
    if free:
        scale = math.log(float(index.budgets.sum()) / n_goods)
        beta = index.budgets * (n_goods / float(index.budgets.sum()))  # B / exp(scale)
        b = (np.minimum.reduceat(log_e, first) - 1.0)[row_sp]
        slot_sp = (goods * n_sp + index.sp_of[:, None]).ravel()
    else:
        log_b = np.log(index.budgets)[row_sp]
        scale = float((log_b - log_e).max()) + 1.0
        if not scale < math.log(np.finfo(float).max):
            raise ValueError(f"the price scale of the welfare exp({scale:.6g}) overflows float64")
        b = log_b - scale
    start = log_e
    r, t = np.ones(n_rows), np.exp(b - start)
    mu, mu_min = 0.1, 0.1 * _BARRIER_STOP_GAP
    # the primal (p, sigma) and the duals (z, y) of its bounds, each one
    # array, of which p, sigma, z and y are views
    x = np.concatenate((p, r - t))
    w = mu / x
    p, sigma, z, y = x[:n_goods], x[n_goods:], w[:n_goods], w[n_goods:]
    steps = 0
    filt, phi = [], 0.0  # the filter's (infeasibility, barrier) pairs, the barrier since mu
    while True:
        # the rates and their usage, which the stop test and the step share
        g = pi / pd
        yr = y * r
        rates = yr[row] * g
        usage = per_good(rates[:, None] * dm)
        ratio = b + scale - log_e
        log_u = np.log(yr) - log_e
        if not per_sp:
            # the log of every provider's sum over its rows
            most = np.maximum.reduceat(log_u, first)
            log_u = most + np.log(np.bincount(row_sp, weights=np.exp(log_u - most[row_sp]), minlength=n_sp))
            ratio = np.maximum.reduceat(ratio, first)
        if whole:
            gap, result = check(p, scale, rates, ratio, usage, log_u)
        else:
            prices, full = np.zeros(index.n_goods), np.zeros(index.n_goods)
            prices[demanded], full[demanded] = p, usage
            gap, result = check(prices, scale, rates, ratio, full, log_u)
        if not (gap > _BARRIER_STOP_GAP and steps < _MAX_STEPS):
            break
        h = r - t - sigma
        theta = float(np.abs(h).max())
        err = max(np.abs(p * (1.0 - usage - z)).max(), theta)
        if free:
            err = max(err, np.abs(beta - np.bincount(row_sp, weights=y * t, minlength=n_sp)).max())
        wx = w * x
        while mu > mu_min and err <= 10.0 * mu and np.abs(wx - mu).max() <= 10.0 * mu:
            mu = max(0.1 * mu, mu_min)
            filt, phi = [], 0.0
        # the Newton matrix in p: pair products and one rank-one term per row
        d_row = y / sigma
        k = yr * (r / sigma - curv_row)
        coef = yr[row] * pi * curv / pd**2
        if some_single:
            coef = coef + np.where(single, k[row] * g**2, 0.0)
        flat = np.bincount(pair, weights=(coef[:, None] * pair_demand).ravel(), minlength=n_goods * n_goods)
        mat = flat.reshape(n_goods, n_goods)
        if multi.size:
            v = np.bincount(slot_row, weights=(g[:, None] * dm).ravel(), minlength=n_rows * n_goods)
            v = v.reshape(n_rows, n_goods)[multi]
            mat += v.T @ (k[multi, None] * v)
        flat[:: n_goods + 1] += z / p
        r2 = mu / y - sigma - h
        rhs = usage - 1.0 + mu / p + per_good(((d_row * r2 * r)[row] * g)[:, None] * dm)
        if free:
            # bordered by b: every provider's usage column and its diagonal
            c = (((d_row * r * t)[row] * g)[:, None] * dm).ravel()
            c = np.bincount(slot_sp, weights=c, minlength=n_goods * n_sp).reshape(n_goods, n_sp)
            f = np.bincount(row_sp, weights=y * t + d_row * t * t, minlength=n_sp)
            rhs_b = beta - np.bincount(row_sp, weights=(y + d_row * r2) * t, minlength=n_sp)
            step = _newton_step(np.block([[mat, -c], [-c.T, np.diag(f)]]), np.concatenate([rhs, rhs_b]))
            dp, db = step[:n_goods], step[n_goods:]
            db_row = db[row_sp]
            dy = d_row * (r2 - r * cost.seg_sum(g * (dp[goods_t] * dm_t).sum(axis=0)) + t * db_row)
        else:
            dp = _newton_step(mat, rhs)
            dy = d_row * (r2 - r * cost.seg_sum(g * (dp[goods_t] * dm_t).sum(axis=0)))
        dx = np.concatenate((dp, mu / y - sigma - sigma / y * dy))
        dw = np.concatenate((mu / p - z - z * dp / p, dy))
        tau = max(0.99, 1.0 - mu)
        a = min(1.0, _boundary(x, dx, tau))
        a_dual = min(1.0, _boundary(w, dw, tau))
        rel = dx / x
        obj = float(dp.sum()) - (float(beta @ db) if free else 0.0)
        # the goods' terms, then the rows', summed apart here and below: the
        # sums do not depend on p and sigma sharing one array
        pred = obj - mu * float(rel[:n_goods].sum() + rel[n_goods:].sum())
        # whether the promised decrease is below the rounding of the barrier
        # value's change, both in proportion to the step
        quiet = -pred <= _ULPS * (
            float(np.abs(dp).sum() + (np.abs(beta * db).sum() if free else 0.0)) + mu * float(np.abs(rel).sum())
        )
        for _ in range(60):
            x_t = x + a * dx
            trial = evaluate(x_t[:n_goods])
            r_t = np.exp(trial[1] - start)
            if free:
                b_t = b + a * db_row
                t_t = np.exp(b_t - start)
            else:
                t_t = t
            theta_t = float(np.abs(r_t - t_t - x_t[n_goods:]).max())
            # the change of the barrier value, summed from per-term differences
            log_rel = np.log1p(a * dx / x)
            change = a * obj - mu * float(log_rel[:n_goods].sum() + log_rel[n_goods:].sum())
            armijo = pred < 0.0 and -a * pred > theta
            if armijo:
                ok = quiet or change <= _ARMIJO * a * pred
            else:
                ok = theta_t <= (1.0 - _ARMIJO) * theta or change <= -_ARMIJO * theta
            if ok and all(theta_t < t_f or phi + change < phi_f for t_f, phi_f in filt):
                break
            a *= 0.5
        else:
            break
        if not armijo:
            filt.append(((1.0 - _ARMIJO) * theta, phi - _ARMIJO * theta))
        phi += change
        x, r = x_t, r_t
        if free:
            b, t = b_t, t_t
        pd, log_e, pi = trial
        w = np.minimum(np.maximum(w + a_dual * dw, mu / (_IP_DUAL_SPREAD * x)), _IP_DUAL_SPREAD * mu / x)
        p, sigma, z, y = x[:n_goods], x[n_goods:], w[:n_goods], w[n_goods:]
        steps += 1
    return result, steps


def _newton_step(mat, rhs):
    """The solution of the positive definite Newton system ``mat x = rhs``.

    On a face of optimal prices (goods that any split of a price serves
    alike) the barrier's curvature along the face is lost in the rounding
    of the rows' curvature across it, and LU breaks down or returns a
    direction that is no descent.  Then the direction is the least-squares
    solution of the diagonally scaled system, which leaves out the
    directions whose curvature is lost in rounding.
    """
    try:
        x = np.linalg.solve(mat, rhs)
        if rhs @ x > 0.0:
            return x
    except np.linalg.LinAlgError:
        pass
    d = 1.0 / np.sqrt(np.diagonal(mat))
    return d * np.linalg.lstsq(mat * d[:, None] * d[None, :], d * rhs, rcond=None)[0]


def _boundary(x, dx, tau):
    """The longest step along ``dx`` that keeps ``x > 0`` at the fraction
    ``tau`` of its distance to 0 (fraction to the boundary)."""
    falling = dx < 0.0
    return float((-tau * x[falling] / dx[falling]).min(initial=np.inf))


# ---------------------------------------------------------------------------
# Standalone alpha-fair allocation (static share, standalone utilities)
# ---------------------------------------------------------------------------

def _block_candidates(log_w, amat, mask, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form candidates for the optimum of every block of a batch of
    one-provider welfare problems ``max U(z)`` subject to ``amat[b]^T z <=
    1`` and ``z >= 0``, ``U`` the degree-one utility of the log weights
    ``log_w`` at ``alpha`` (one per block), with the capacity duals that
    certify each where it is the optimum.

    - One good ``j`` binds: the optimum under good ``j`` alone, ``z_k``
      proportional to ``(c_k / a_kj)^(1/alpha)`` and scaled so that ``a_j .
      z = 1`` (at alpha 0, all of it on the class of the largest ``c_k /
      a_kj``), with duals ``e_j``.  It does not apply where a real class
      does not use ``j``.
    - ``k`` goods bind, ``k`` the block's number of real classes (at least
      two): for every ``k``-subset ``S`` of the cell's positions, the vertex
      ``A_S z = 1``, with duals solving ``A_S^T lam_S = pi / z``, the
      gradient of ``log U``, clipped at 0.  It does not apply where ``A_S``
      is singular or some ``z_k <= 0``.

    Real classes lead every block (:class:`~slicemarket.model.CellBlocks`),
    so a block of ``k`` real classes is solved on its first ``k``.  Returns
    ``(z, lam)``, ``[n_cand, batch, K]`` and ``[n_cand, batch, m]``: nan
    where a candidate or its duals do not apply, and padded classes at 1.
    Any duals ``lam >= 0`` certify by weak duality, so which candidate is
    best is left to the certificate.
    """
    nb, n_k, m = amat.shape
    real = mask[:, :, None]
    a = alpha[:, None, None]
    utility = CESAggregate(log_w, np.broadcast_to((1.0 - alpha)[:, None], log_w.shape), np.zeros(n_k, dtype=np.intp))
    with np.errstate(divide="ignore", invalid="ignore"):
        # log(c_k / a_kj); -inf on padding, inf where a real class skips j
        score = np.where(real, log_w[:, :, None] - np.log(amat), -np.inf)
        lead = np.where(
            a > 0.0,
            np.exp((score - score.max(axis=1, keepdims=True)) / np.where(a > 0.0, a, 1.0)),
            np.arange(n_k)[:, None] == score.argmax(axis=1)[:, None, :],
        )
        one = lead / (amat * lead).sum(axis=1, keepdims=True)
    one = np.where((~real | (amat > 0.0)).all(axis=1)[:, None, :], one, np.nan)
    zs = [np.where(mask, one.transpose(2, 0, 1), 1.0)]
    lams = [np.broadcast_to(np.eye(m)[:, None, :], (m, nb, m))]
    count = mask.sum(axis=1)
    for k in range(2, min(n_k, m) + 1):
        sel = np.flatnonzero(count == k)
        if not sel.size:
            continue
        subsets = np.array(list(itertools.combinations(range(m), k)))
        # [subset, block, class, good of the subset]
        a_s = amat[sel][:, :k][:, :, subsets].transpose(2, 0, 1, 3)
        solvable = np.linalg.det(a_s) != 0.0
        a_s = np.where(solvable[..., None, None], a_s, np.eye(k))
        z_s = np.linalg.solve(a_s.swapaxes(-1, -2), np.ones(a_s.shape[:-1] + (1,)))[..., 0]
        z_s = np.where(solvable[..., None] & (z_s > 0.0).all(axis=-1, keepdims=True), z_s, np.nan)
        z = np.full((len(subsets), nb, n_k), np.nan)
        z[:, sel] = 1.0
        z[:, sel, :k] = z_s
        pi = utility.shares(np.log(z))[1]
        lam_s = np.maximum(np.linalg.solve(a_s, (pi[:, sel, :k] / z_s)[..., None])[..., 0], 0.0)
        lam = np.full((len(subsets), nb, m), np.nan)
        lam[:, sel] = 0.0
        for c, goods in enumerate(subsets):
            lam[c, sel[:, None], goods] = lam_s[c]
        lam[lam.sum(axis=-1) <= 0.0] = np.nan
        zs.append(z)
        lams.append(lam)
    return np.concatenate(zs), np.concatenate(lams)


def _block_market(amat, log_w, alpha) -> MarketIndex:
    """A static-share block as a one-provider market of budget 1 on its own
    copy of the goods its classes use: ``amat`` ``[K, m]`` on those goods,
    in the slot layout of :class:`~slicemarket.model.MarketIndex` (each
    class's consumed goods first, in increasing order)."""
    n_k, m = amat.shape
    order = np.argsort(amat <= 0.0, axis=1, kind="stable")
    return MarketIndex(
        goods=tuple(("block", str(j)) for j in range(m)),
        capacity=np.ones(m),
        sp_names=("block",),
        budgets=np.ones(1),
        alphas=np.array([alpha]),
        triples=tuple(("block", "block", str(k)) for k in range(n_k)),
        sp_of=np.zeros(n_k, dtype=np.intp),
        users=np.ones(n_k, dtype=np.intp),
        weights=np.exp(log_w),
        slot_goods=order,
        slot_demand=np.take_along_axis(amat, order, axis=1),
    )


def _standalone(index: MarketIndex) -> tuple[np.ndarray, np.ndarray, int]:
    """Every provider's standalone optimum: the rates it would choose if it
    alone held all of every good (unit capacity), which :func:`static_share`
    scales by the budgets.

    Max-min providers have the waterfill closed form (a common per-user level
    set by the tightest good).  For finite alpha the capacities couple classes
    only within a cell, so every (provider, cell) block of
    :attr:`~slicemarket.model.MarketIndex.blocks` is an independent problem:
    maximize the block's degree-one utility ``(sum c z^(1-alpha))^(1/(1-alpha))``
    under its cell's capacities.  Each block is scaled to O(1) (rates ``z`` in
    units of an equal split of its box and the weights ``c`` to sum to one).
    A block is solved once capacity duals ``lam`` certify its rates, scaled
    up onto its capacity frontier, by the price-space bound ``(lam . 1) /
    e(A lam)`` (``e`` its unit cost, :meth:`CESAggregate.unit_cost`) to
    within ``_BARRIER_STOP_GAP``.  The utility is degree-one, so scaling the
    rates down by their largest usage ``top`` divides the utility by ``top``.

    Every block is first tried in closed form (:func:`_block_candidates`,
    where one good or a vertex binds): its gap is the smallest bound of its
    candidates' duals over the largest utility of its candidates scaled onto
    the frontier, and the best candidate is kept where that certifies.  Each
    block left, if any, is solved as a one-provider social optimum of its
    own (:func:`_block_market`, :func:`_welfare_optimum`), certified by the
    same bound.

    Returns ``(rates, gaps, iterations)``.  ``gaps[s]`` is a certified bound
    on the relative shortfall of provider ``s``'s degree-one utility: the
    largest of its blocks' gaps, since its utility is a monotone degree-one
    aggregate of theirs (0 for max-min providers).  Its optimum is at most
    ``1 + gaps[s]`` times the returned one.  ``iterations`` counts the Newton
    steps of the blocks left, 0 where there are none.
    """
    rates = np.zeros(index.n_triples)
    gaps = np.zeros(index.n_sps)
    for s in np.flatnonzero(np.isinf(index.alphas)):
        rows = index.sp_rows(s)
        usage = index.per_good(index.users[:, None] * index.slot_demand, rows)
        rates[rows] = index.users[rows] / usage.max()
    blocks = index.blocks
    if blocks.sp.size == 0:
        return rates, gaps, 0

    mask, alpha = blocks.class_mask, blocks.alphas
    with np.errstate(divide="ignore"):
        box = 1.0 / blocks.demand.max(axis=2)
        ref = np.where(mask, box / mask.sum(axis=1)[:, None], 1.0)
        log_c = np.log(blocks.weights) + (1.0 - alpha)[:, None] * np.log(ref)
    one_sp = np.zeros(log_c.shape[1], dtype=np.intp)
    # weights summing to one: less log sum c, the aggregate of ones at q = 1
    log_c = log_c - CESAggregate(log_c, np.ones_like(log_c), one_sp)(np.zeros_like(log_c))
    a_mat = blocks.demand * ref[:, :, None]
    q = np.broadcast_to((1.0 - alpha)[:, None], log_c.shape)
    cost = CESAggregate.unit_cost(np.exp(log_c), 1.0 - q, one_sp)

    def top(amat, z):
        # the largest usage: z / top is on the frontier, with utility U(z) / top
        return np.einsum("...kj,...k->...j", amat, z).max(axis=-1)

    cand_z, cand_lam = _block_candidates(log_c, a_mat, mask, alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = CESAggregate(log_c, q, one_sp)(np.log(cand_z))[..., 0] - np.log(top(a_mat, cand_z))
        # the price-space bound; a padded class is priced 1, which it does not enter
        price = np.where(np.isfinite(log_c), (a_mat @ cand_lam[..., None])[..., 0], 1.0)
        log_sum, best = np.log(cand_lam.sum(axis=-1)), -cost(np.log(price))[..., 0]
        bound = log_sum + best + _ULPS * (1.0 + np.abs(log_sum) + np.abs(best))
    value = np.where(np.isnan(value), -np.inf, value)
    best = value.argmax(axis=0)
    at = np.arange(value.shape[1])
    gap = np.expm1(np.where(np.isnan(bound), np.inf, bound).min(axis=0) - value[best, at])
    z = cand_z[best, at]
    z = z / top(a_mat, z)[:, None]  # every block's rates on its frontier
    iterations = 0
    for b in np.flatnonzero(~(gap <= _BARRIER_STOP_GAP)):
        real = mask[b]
        amat = a_mat[b, real]
        used = (amat > 0.0).any(axis=0)
        _, z[b, real], gap[b], steps = _welfare_optimum(_block_market(amat[:, used], log_c[b, real], alpha[b]))
        iterations += steps
    np.maximum.at(gaps, blocks.sp, gap)
    rates[blocks.rows[mask]] = (ref * z)[mask]
    return rates, gaps, iterations


# ---------------------------------------------------------------------------
# Social optimum
# ---------------------------------------------------------------------------

def _welfare_optimum(index: MarketIndex) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Maximize the welfare ``sum_s B_s U_s`` of ``index`` under unit
    capacities by the price-space barrier (:func:`_price_barrier`, ``b_s =
    log B_s``).

    For prices ``p >= 0``, no feasible allocation has welfare above the
    price-space bound ``(p . 1) max_s B_s / e_s(D_s p)`` (weak duality:
    such an allocation costs ``sum_s e_s U_s <= p . 1``).  The rates are
    scaled onto the capacity frontier, and the solve stops once the bound
    is within ``_BARRIER_STOP_GAP`` of their welfare, which the stop test
    takes from the barrier's log utilities (``U_s(c pi / L) = c /
    e_s(L)``); the reported gap is the bound over the welfare of the
    returned rates.  The bound is rounded
    up by 8 ulps of its terms: where weak duality is tight (a linear
    provider on a face of optima) the rounding of the logarithms would
    otherwise put it a few ulps below the welfare.

    At the optimum only the providers whose ratio ``B_s / e_s`` is the best
    get anything; the others' row multipliers only tend to 0.  So once the
    bound holds, the providers below the best ratio with the least welfare
    get rate exactly 0, as many as keep the gap within ``GAP_TOL`` (their
    welfare is taken off the rest's, at the frontier scale of all).  The
    solve stops on the gap before that zeroing, and the gap after it is
    reported: further steps barely shrink what the zeroing spends.

    Returns ``(prices, rates, gap, steps)``: the certifying prices of every
    good, in units of the welfare, the rates, the bound over their welfare
    minus 1, and the Newton steps.
    """
    utility = index.utility
    log_b = np.log(index.budgets)

    def welfare(rates):
        """Every provider's log welfare ``log B_s U_s``, the log of their
        sum, and the rates' largest usage."""
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = log_b + utility(np.log(rates))
        most = terms.max()
        top = index.per_good(rates[:, None] * index.slot_demand).max()
        return terms, most + math.log(float(np.exp(terms - most).sum())), math.log(top)

    def check(p, scale, rates, ratio, usage, log_u):
        best = float(ratio.max())
        log_sum = math.log(float(p.sum()))
        log_bound = log_sum + best + _ULPS * (1.0 + abs(log_sum) + abs(best))
        # the welfare from the barrier's log utilities, U_s(c pi / L) = c / e_s(L)
        terms = log_b + log_u
        most = float(terms.max())
        log_w = most + math.log(float(np.exp(terms - most).sum()))
        stop = math.expm1(log_bound - log_w + math.log(float(usage.max())))
        return stop, (stop, p, scale, rates, ratio, best, log_bound)

    (stop, p, scale, rates, ratio, best, log_bound), steps = _price_barrier(index, check, free=False)
    terms, log_w, log_top = welfare(rates)
    gap = math.expm1(log_bound - log_w + log_top)
    if stop <= _BARRIER_STOP_GAP:
        # the share of the welfare that zeroing may cost within the report's
        # gap tolerance
        room = -math.expm1(log_bound + log_top - log_w - math.log1p(GAP_TOL))
        below = np.flatnonzero(ratio < best)
        below = below[np.argsort(terms[below], kind="stable")]
        out = below[np.cumsum(np.exp(terms[below] - log_w)) <= room]
        if out.size:
            zeroed = np.zeros(index.n_sps, dtype=bool)
            zeroed[out] = True
            rates = np.where(zeroed[index.sp_of], 0.0, rates)
            terms, log_w, log_top = welfare(rates)
            gap = math.expm1(log_bound - log_w + log_top)
    return math.exp(scale) * p, rates / math.exp(log_top), gap, steps


def solve_social_optimal(scn: NormalizedScenario) -> SolveReport:
    """Budget-weighted utilitarian optimum ``max sum_s B_s U_s`` under the
    capacity constraints, with the degree-one aggregate utilities so values
    are comparable across alpha and against the market schemes.

    Solved in price space (:func:`_welfare_optimum`): the program ``min p .
    1`` subject to ``log e_s(D_s p) >= log B_s`` for every provider (one
    row per triple ``log(d_k . p / w_k) >= log B_s`` at alpha 0), whose
    value is the welfare and whose row multipliers give the rates.  A
    provider whose ratio ``B_s / e_s`` is below the best gets rate and
    utility exactly 0.  ``prices`` are the certifying prices,
    ``residuals["duality_gap"]`` is their bound over the returned welfare
    minus 1, ``converged`` means it is at most ``GAP_TOL``, and
    ``iterations`` counts the Newton steps.  Raises ``ValueError`` where
    the welfare's scale overflows float64.
    """
    index = scn.index
    prices, rates, gap, iterations = _welfare_optimum(index)
    return _welfare_report(scn, prices, Allocation(rates, index), iterations, gap)


def static_share(scn: NormalizedScenario) -> SolveReport:
    """Static proportional sharing: every provider is capped at its budget
    share ``B_s`` of every resource and splits that box across its classes
    by its own alpha-fair optimum.

    Utilities are degree-one homogeneous and the capacities linear, so the
    rates are ``B_s`` times the provider's standalone optimum at unit
    capacity (:func:`_standalone`), with the same certified relative gaps:
    ``residuals["duality_gap"]`` is the largest over all providers,
    ``converged`` means it is at most ``GAP_TOL``, and ``iterations`` counts
    the Newton steps of the blocks that no closed form certifies (0 on the
    preset, whose blocks all certify so).
    """
    index = scn.index
    rates, gaps, iterations = _standalone(index)
    allocation = Allocation(index.budgets[index.sp_of] * rates, index)
    return _welfare_report(scn, np.zeros(index.n_goods), allocation, iterations, float(gaps.max()))


def _welfare_report(scn, prices, allocation, iterations, gap) -> SolveReport:
    """The report of a certified welfare solve (SO or SS): its capacity gap,
    its duality gap ``gap``, and ``converged`` when that is at most
    ``GAP_TOL``."""
    usage = allocation.totals(prices)[1]
    return make_report(
        scn,
        method="barrier",
        prices=prices,
        allocation=allocation,
        iterations=iterations,
        converged=gap <= GAP_TOL,
        residuals={
            "capacity_gap": float(np.maximum(usage - 1.0, 0.0).max()),
            "duality_gap": gap,
        },
    )


def max_utilities(scn: NormalizedScenario) -> np.ndarray:
    """Each provider's best achievable utility when it holds every resource
    alone (:func:`_standalone`), the scale constants of the price-of-anarchy
    bound: a static share's utilities over the budgets, up to rounding."""
    return utilities(scn, _standalone(scn.index)[0])


def nash_welfare(util: np.ndarray, budgets: np.ndarray) -> float:
    """Budget-weighted Nash welfare ``prod U_s^{B_s}``, computed in log space."""
    util = np.asarray(util, dtype=float)
    budgets = np.asarray(budgets, dtype=float)
    if np.any(util <= 0):
        raise ValueError("Nash welfare needs positive utilities")
    return float(np.exp(np.dot(budgets, np.log(util))))


def poa_bound(
    scn: NormalizedScenario,
    max_utils: np.ndarray | None = None,
    so_report: SolveReport | None = None,
    me_report: SolveReport | None = None,
) -> tuple[float, float]:
    """Realized price of anarchy and its theoretical bound.

    ``poa = (U(SO) - U(ME)) / U(SO)`` on the budget-weighted utilitarian
    welfare;
    ``bound = 1 - ((2 sqrt(S) - 1)/S) * (min/max of the standalone utilities)
    - 1/S + min/sum`` (which reduces to ``1 - (2 sqrt(S) - 1)/S`` when they
    are all equal).
    """
    if max_utils is None:
        max_utils = max_utilities(scn)
    max_utils = np.asarray(max_utils, dtype=float)
    if np.any(max_utils <= 0):
        raise ValueError("standalone utilities must be positive")
    if so_report is None:
        so_report = solve_social_optimal(scn)
    if me_report is None:
        me_report = solve_eg(scn)
    budgets = scn.index.budgets
    u_so = float(np.dot(budgets, so_report.utilities))
    u_me = float(np.dot(budgets, me_report.utilities))
    if u_so <= 0:
        raise ValueError("social optimum welfare must be positive")
    poa = (u_so - u_me) / u_so
    s_count = scn.index.n_sps
    ratio = max_utils.min() / max_utils.max()
    bound = 1.0 - (2.0 * math.sqrt(s_count) - 1.0) / s_count * ratio
    bound -= 1.0 / s_count
    bound += max_utils.min() / max_utils.sum()
    return poa, bound
