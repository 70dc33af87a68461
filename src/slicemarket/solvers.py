"""Centralized equilibrium computation and baseline allocation schemes.

``solve_eg`` computes the market equilibrium (the optimum of the
budget-weighted log-utility program whose capacity duals are the prices) at
every alpha: by projected Newton steps on the program's price dual, whose
gradient is the excess supply of the closed-form demands, or, where an
alpha-0 provider has no closed-form demand, on the program itself by the
primal-dual interior-point engine (:func:`_interior_point`).  The
decentralized bid dynamics (:mod:`~slicemarket.dynamics`), the paper's
learning algorithm, reach the same equilibrium without a central solver.
``solve_social_optimal`` and ``static_share`` are the efficiency and
isolation baselines, certified by weak duality; the social optimum runs the
engine as an active set that drops the providers priced out of the optimum,
and the static share solves its blocks in closed form where it can and on
the same engine elsewhere.  ``poa_bound`` / ``nash_welfare``
provide the fairness/efficiency diagnostics.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

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
    ``s``'s rows of the joint update evaluated by
    :class:`~slicemarket.model.DemandKernel`.  Returns a full-shape array,
    zero outside the provider's rows, summing to the budget exactly.
    """
    index = scn.index
    alpha = float(index.alphas[s])
    if alpha == 0.0:
        raise ValueError(
            "best response degenerates at alpha=0 (linear utility concentrates); "
            "solve_eg solves alpha=0 markets on the Eisenberg-Gale program itself"
        )
    prices = _checked_prices(index, prices)
    kernel = index.kernel
    pd_slots, pd = kernel.row_prices(prices)
    rows = index.sp_rows(s)
    if np.any(pd[rows] <= 0):
        # a class whose every consumed resource is free has unbounded demand
        raise ValueError("best response needs a positive price on some consumed resource per class")
    with np.errstate(all="ignore"):
        # other providers' classes may see only zero prices; their rows are
        # computed apart from these and dropped
        slots = kernel.spend(pd_slots, pd)
    return kernel.dense(slots, rows)


def _repair_rates(index: MarketIndex, rates: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Scale each triple's rate by the worst overuse factor of its consumed
    goods so that no capacity is exceeded."""
    kernel = index.kernel
    usage = kernel.per_good(rates[:, None] * kernel.demand)
    factor = np.where(usage > caps, caps / np.maximum(usage, 1e-300), 1.0)
    per_triple = np.where(kernel.real, factor[kernel.goods], np.inf).min(axis=1)
    return rates * np.minimum(per_triple, 1.0)


#: Armijo fraction of the predicted decrease of the price dual.
_ARMIJO = 1e-4

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
    unit cost (:meth:`~slicemarket.model.DemandKernel.rates`).

    The Hessian is ``sum_s [(1/a) D^T diag(u/L) D + ((a-1)/(a B)) v v^T]``
    with ``v = D_s^T u_s``: ``1/a`` is ``1 - q`` and ``(a-1)/a`` is ``q``, the
    unit cost's exponent (the first term vanishes at ``a = inf``, where the
    second coefficient is ``1/B``).  The first term is block-diagonal by cell
    (:attr:`~slicemarket.model.MarketIndex.price_cells`) and the second is
    one rank-one term per provider, so a step is one batched per-cell solve
    plus a Woodbury correction with an ``n_sp x n_sp`` capacitance matrix.  Goods priced at most ``eps =
    min(residual, _ACTIVE_PRICE)`` with positive gradient are pinned and
    driven to 0 along the projection arc; a Levenberg term equal to the
    residual on the diagonal keeps rank-deficient cells (one class on three
    goods, say) from stalling the step.

    The Armijo search evaluates ``f`` itself.  Once the predicted decrease
    is below the rounding of ``f``, the full step is taken; the solve stops
    when such a step fails to halve the projected gradient (which is then
    at rounding level), when the step is not a descent direction or no
    step along it decreases ``f``, or after ``_PRICE_NEWTON_MAX_STEPS``
    steps.  Returns ``(p, steps)``, ``p`` the iterate of smallest projected
    gradient.
    """
    kernel = index.kernel
    cells = index.price_cells
    cost = index.unit_cost
    budgets = index.budgets
    # the rank-one coefficient (a - 1) / (a B), 1 / B at a = inf
    coupling = cost.q[cost.starts] / budgets
    curv_row = 1.0 - cost.q  # 1 / a, 0 at a = inf
    demanded = index.demanded_goods()
    n_goods, n_seg, m = index.n_goods, cells.n_seg, cells.m
    dm = kernel.demand
    diag = np.arange(m)
    pair_demand = dm[:, :, None] * dm[:, None, :]

    def evaluate(p):
        """``f(p)``, the scale of its rounding, the rates demanded at ``p``
        and their prices ``L``; ``f`` is inf where some demand is unbounded."""
        pd = kernel.row_prices(p)[1]
        u, log_e = kernel.rates(pd)
        terms = budgets * log_e
        total = float(p.sum())
        value = total - float(terms.sum())
        if not np.all(np.isfinite(u)):
            value = math.inf
        return value, total + float(np.abs(terms).sum()), u, pd

    def structured(k_blocks, v_blocks, grad, free, mu):
        fb = free[cells.good] & cells.mask
        k = k_blocks * (fb[:, :, None] & fb[:, None, :])
        k[:, diag, diag] += np.where(fb, mu, 1.0)
        v = v_blocks * fb[:, :, None]
        rhs = np.concatenate([np.where(fb, grad[cells.good], 0.0)[:, :, None], v], axis=2)
        try:
            x = np.linalg.solve(k, rhs)
            w = np.einsum("cjs,cjt->st", v, x)
            y = np.linalg.solve(np.eye(n_seg) + coupling[:, None] * w[:, 1:], coupling * w[:, 0])
        except np.linalg.LinAlgError:
            return None
        d = np.zeros(n_goods)
        d[cells.good[fb]] = (x[:, :, 0] - x[:, :, 1:] @ y)[fb]
        return d

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
    best_resid, best_p = math.inf, p
    prev_resid = math.inf
    quiet = False
    steps = 0
    while True:
        grad = np.where(demanded, 1.0 - kernel.per_good(u[:, None] * dm), 0.0)
        resid = float(np.abs(p - np.maximum(p - grad, 0.0)).max())
        if resid < best_resid:
            best_resid, best_p = resid, p
        if resid == 0.0 or steps >= _PRICE_NEWTON_MAX_STEPS or (quiet and resid > 0.5 * prev_resid):
            break
        prev_resid = resid
        pinned = demanded & (p <= min(resid, _ACTIVE_PRICE)) & (grad > 0.0)
        free = demanded & ~pinned
        # a max-min row may be free (L = 0); its first term is 0 anyway
        coef = np.divide(curv_row * u, pd, out=np.zeros_like(u), where=curv_row > 0)
        k_blocks = np.bincount(
            cells.pair.ravel(), weights=(coef[:, None, None] * pair_demand).ravel(), minlength=cells.n_cells * m * m
        ).reshape(cells.n_cells, m, m)
        v_blocks = np.bincount(
            cells.slot.ravel(), weights=(u[:, None] * dm).ravel(), minlength=cells.n_cells * m * n_seg
        ).reshape(cells.n_cells, m, n_seg)
        d = structured(k_blocks, v_blocks, grad, free, resid)
        if d is None or not np.all(np.isfinite(d)):
            break
        d[pinned] = p[pinned]
        found = search(p, d, grad, value, scale)
        if found is None:
            break
        p, (value, scale, u, pd), quiet = found
        steps += 1
    return best_p, steps


def solve_eg(scn: NormalizedScenario) -> SolveReport:
    """Market-equilibrium allocation and prices: the optimum of the
    Eisenberg-Gale program ``max sum_s B_s log U_s`` under the capacities,
    whose capacity duals are the prices.

    A market with an alpha-0 provider is solved on the program itself
    (:func:`_eisenberg_gale_solve`, method ``"barrier"``, at most
    ``_BARRIER_MAX_STEPS`` Newton steps), any other by projected Newton
    steps on its price dual (:func:`_price_newton`, method
    ``"tatonnement"``, at most ``_PRICE_NEWTON_MAX_STEPS``); ``iterations``
    counts the steps.  Identical scenarios give identical reports.  The
    returned prices and rates are checked by
    :func:`~slicemarket.market.verify_equilibrium`, whose five gaps are the
    ``residuals`` and whose rule is ``converged``: budget and clearing gaps
    within ``EQUILIBRIUM_TOL`` and the program's duality gap
    ``residuals["duality_gap"]`` within ``GAP_TOL``.  The decentralized
    route to the same equilibrium, with its price trace and the same
    report, is :func:`~slicemarket.dynamics.run_dynamics`.
    """
    index = scn.index
    kernel = index.kernel
    barrier = bool(np.any(index.alphas == 0.0))
    if barrier:
        rates, p, iterations = _eisenberg_gale_solve(index)
    else:
        demanded = index.demanded_goods()
        p, iterations = _price_newton(index, np.where(demanded, 1.0 / demanded.sum(), 0.0))
        rates = _repair_rates(index, kernel.rates(kernel.row_prices(p)[1])[0], np.ones(index.n_goods))
    allocation = Allocation(rates, index)
    check = verify_equilibrium(scn, allocation, p)
    return equilibrium_report(scn, "barrier" if barrier else "tatonnement", p, allocation, iterations, check)


# ---------------------------------------------------------------------------
# Welfare maximization under capacities: the interior-point engine shared by
# the static share, the social optimum and the alpha-0 market equilibrium
# ---------------------------------------------------------------------------

#: Gap at which an interior-point solve stops: the price-space bound over
#: the value at the iterate scaled onto the capacity frontier, minus 1, of a
#: static-share (provider, cell) block's utility or of a social optimum's
#: welfare; and the Eisenberg-Gale gap of an alpha-0 market equilibrium.
_BARRIER_STOP_GAP = 1e-11

#: Newton-step cap of an interior-point run, across its pins.  On the 7-cell
#: preset a social optimum, with its priced-out providers dropped, takes
#: 10-13 steps at alpha 0, 0.5, 1 and inf, 13-18 at alpha 1.5-5, 15-32 at
#: alpha 10-20 and 37-74 at alpha 100.  The counts barely grow with size: 10
#: to 72 steps at 28 and 112 cells.  A static share of the preset takes 0:
#: its blocks certify in closed form (:func:`_block_candidates`).  The
#: blocks left to the engine (three classes on three goods, say) took 8-24
#: steps when every block ran on it.
_BARRIER_MAX_STEPS = 1000

#: Step cap of a projected-Newton solve of the market equilibrium's price
#: dual (:func:`_price_newton`).
_PRICE_NEWTON_MAX_STEPS = 50000

#: Armijo fraction of the predicted decrease of the barrier function.
_IP_ARMIJO = 1e-4

#: Bound on how far the duals may stray from their central values ``nu /
#: slack`` (``kappa_Sigma`` of Wachter & Biegler).
_IP_DUAL_SPREAD = 1e10


class _Welfare:
    """Budget-weighted welfare ``sum_s B_s U_s(y)^q0 / q0`` of a batch of
    problems that share one layout of variables: ``sum_s B_s U_s`` at ``q0 =
    1`` (the social optimum) and ``sum_s B_s log U_s`` at ``q0 = 0`` (the
    Eisenberg-Gale program).

    Variable ``v`` belongs to provider ``seg[v]`` (providers are contiguous
    segments) and stands for the rate ``u = exp(log_ref) y``.  ``U_s`` is the
    degree-one utility ``(sum w u^q)^(1/q)`` of its provider's rates,
    ``prod u^(w / sum w)`` at ``q = 0``.  Arrays are ``[batch, n]`` per
    variable and ``[batch, n_sp]`` per provider; a variable of weight 0
    (``log_w = -inf``) is padding and takes no share of its utility.  At
    ``q0 = 1`` the welfare is certified by its own unit costs (:attr:`cost`,
    :meth:`log_bound`), which the static share and the social optimum use.
    """

    def __init__(self, log_w, q, seg, log_b, log_ref, q0):
        self.log_w, self.q, self.seg, self.log_b, self.log_ref, self.q0 = log_w, q, seg, log_b, log_ref, q0
        self.utility = CESAggregate(log_w, q, seg)
        self.q_sp = q[:, self.utility.starts]
        # the q = 0 terms of rel_change and the divisors of the others
        self.q_zero, self.q_sp_zero = q == 0.0, self.q_sp == 0.0
        self.q_div, self.q_sp_div = np.where(self.q_zero, 1.0, q), np.where(self.q_sp_zero, 1.0, self.q_sp)
        alpha_sp = 1.0 - self.q_sp
        # -hess(B U^q0 / q0) = B U^q0 [a diag(pi / y^2) - (a - 1 + q0) g g^T],
        # per variable
        self.alpha = alpha_sp[:, seg]
        self.rank = (alpha_sp - (1.0 - q0))[:, seg]
        self.same_sp = seg[:, None] == seg[None, :]
        # sum_s B_s U_s at q0 = 1, prod_s U_s^(B_s / sum B) at q0 = 0
        self.total = CESAggregate(log_b, np.full_like(log_b, q0), np.zeros(log_b.shape[-1], dtype=np.intp))

    def utilities(self, y):
        """Log of every provider's utility at ``y`` and the shares ``pi_v =
        w u^q / sum w u^q`` (``w / sum w`` at ``q = 0``) of its terms."""
        return self.utility.shares(self.log_ref + np.log(y))

    def log_welfare(self, log_u_sp):
        """Log of the aggregate :attr:`total` of every problem's utilities
        from its providers' log utilities."""
        return self.total(log_u_sp)[..., 0]

    def rel_change(self, pi, log_ratio):
        """Change of every provider's ``U^q0 / q0`` in units of ``U^q0``
        (``log U`` at ``q0 = 0``) when each variable is multiplied by
        ``exp(log_ratio)``, summed from per-term differences.

        A term's change is ``(e^(q x) - 1) / q``, ``x`` at ``q = 0``: the
        change of ``v^q / q`` (of ``log v``) from ``v`` to ``v e^x`` in units
        of ``v^q``, without cancellation for small ``x``.  A utility ``S^(1/q)``
        whose sum ``S / q`` changes by ``x`` in units of ``S`` moves by the
        log-ratio ``log(1 + q x) / q``, ``x`` at ``q = 0``.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            terms = np.where(self.q_zero, log_ratio, np.expm1(self.q * log_ratio) / self.q_div)
            x = self.utility.seg_sum(pi * terms)
            x = np.where(self.q_sp_zero, x, np.log1p(self.q_sp * x) / self.q_sp_div)
            return x if self.q0 == 0.0 else np.expm1(self.q0 * x) / self.q0

    @cached_property
    def cost(self) -> CESAggregate:
        """Every provider's unit cost (:meth:`CESAggregate.unit_cost`): the
        least cost of one unit of its utility when one unit rate of each
        variable has a price, built on first use."""
        return CESAggregate.unit_cost(np.exp(self.log_w), 1.0 - self.q, self.seg)

    def log_ratios(self, amat, lam):
        """``log B_s - log e_s`` of every provider at capacity duals ``lam``
        (``[batch, m]``, on the goods of ``amat``, ``[batch, n, m]``): its
        budget over the cost of one unit of its utility (:attr:`cost`) when
        one unit rate of variable ``v`` costs ``(amat[v] . lam) / ref_v``.
        Padding variables are priced 1, which they do not enter."""
        price = np.where(np.isfinite(self.log_w), (amat @ lam[..., None])[..., 0], 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.log_b - self.cost(np.log(price) - self.log_ref)

    def log_bound(self, amat, lam):
        """Log of the price-space bound ``(lam . 1) max_s B_s / e_s`` on the
        welfare at any point with ``amat^T y <= 1``, for capacity duals ``lam
        >= 0`` (:meth:`log_ratios`), per problem of the batch.  Such a point
        costs ``sum_s e_s U_s <= lam . 1`` at these prices, so its welfare
        ``sum_s B_s U_s`` is at most the bound (weak duality).  The bound is
        rounded up by 8 ulps of its terms: where weak duality is tight (a
        linear provider on a face of optima) the rounding of the logarithms,
        here and in the utilities, would otherwise put it a few ulps below
        the welfare.
        """
        log_sum = np.log(lam.sum(axis=-1))
        best = self.log_ratios(amat, lam).max(axis=-1)
        return log_sum + best + _ULPS * (1.0 + np.abs(log_sum) + np.abs(best))

    def take(self, keep):
        """The welfare of the variables marked ``keep`` alone, which hold
        every variable of their providers, in the same scaled variables;
        itself when ``keep`` marks them all."""
        if keep.all():
            return self
        sp, seg = np.unique(self.seg[keep], return_inverse=True)
        return _Welfare(self.log_w[:, keep], self.q[:, keep], seg, self.log_b[:, sp], self.log_ref[:, keep], self.q0)


def _interior_point(welfare: _Welfare, amat, var_mask, certified):
    """Maximize ``welfare`` subject to ``amat[b]^T y <= 1`` and ``y >= 0``
    for every problem ``b`` of a batch at once.

    Primal-dual interior-point method in the monotone mode of IPOPT
    (Wachter & Biegler, *On the implementation of an interior-point filter
    line-search algorithm for large-scale nonlinear programming*, Math.
    Prog. 2006; Wright, *Primal-Dual Interior-Point Methods*, SIAM 1997).
    The objective is ``f = -W / W_0``, ``W`` the welfare of
    :class:`_Welfare` and ``W_0`` its aggregate ``total`` at the start ``y =
    0.9``.  Both kinds of constraint rows are carried as one ``[batch, m +
    n]`` array of slacks ``[s, y]``, the capacity slacks ``s = 1 - amat^T y``
    (updated along the steps, which keeps their relative precision near 0)
    and then the variables, and one of duals ``[lam, mu]``, the capacity and
    the bound duals; a mask marks the rows that constrain (goods that some
    variable uses, real variables).  So the central duals ``nu / slack``, the
    complementarity residuals, both cuts to the boundary, the updates, the
    resets and the spread below are one expression each over both kinds.  A
    step is the Newton step of the barrier problem ``phi_nu = f - nu sum log
    s - nu sum log y``: one dense ``[batch, n, n]`` system ``(hess f + amat
    diag(lam / s) amat^T + diag(mu / y)) dy = -grad phi_nu``
    (:func:`_newton_direction`), where provider ``s`` adds ``(B_s U_s^q0 /
    W_0) [a diag(pi / y^2) - (a - 1 + q0) g g^T]`` with ``g = pi / y`` to
    ``hess f``.

    - ``nu`` starts at 0.1 and falls tenfold, as often as it takes, while
      the KKT error of the barrier problem is at most ``10 nu``.  That error
      is the largest of the complementarity residuals ``|lam s - nu|`` and
      ``|mu y - nu|`` and of the stationarity residual per relative change
      of each variable, ``y |grad f + amat lam - mu|``.
    - The primal and the dual steps are cut separately to the fraction
      ``max(0.99, 1 - nu)`` of the distance to the boundary.  The primal step
      is cut further so that no variable of a provider with alpha > 1 falls
      below half its value: there the objective is too steep for the Newton
      model, and a variable that overshoots creeps back only slowly.
    - The primal step is halved until ``phi_nu`` falls by the Armijo
      fraction of its predicted decrease; the change of ``phi_nu`` is summed
      from per-term differences (:meth:`_Welfare.rel_change`) so that no
      large values cancel.  Its barrier sums, and those of the rounding
      level below which the prediction is trusted, are taken per kind of
      row: the bounds' first, then the capacities'.
    - After a primal step below 0.1 the duals are reset to their central
      values ``nu / s`` and ``nu / y``; they are always kept within a factor
      ``_IP_DUAL_SPREAD`` of them.

    ``var_mask`` marks real variables (padding is pinned at 1), and goods
    that no variable uses carry no constraint.  After every step the stop
    test ``certified(welfare, amat, y, lam, log_u)`` is given the problem as
    it stands: the welfare and the usage rows of the variables still in the
    solve, their variables, capacity duals in units of the welfare and
    providers' log utilities.  So it must
    read the problem from its arguments, never from the batch it passed in.
    It returns ``(done, pin)``: ``done`` marks the solved problems, which
    take no further step, and ``pin`` is None or marks columns, whole
    providers across the batch, that leave the solve at 0.  Their columns
    leave the welfare (:meth:`_Welfare.take`), ``amat``, ``y`` and the bound
    duals; the capacity slacks are recomputed from the remaining ``y`` and
    the duals moved to within ``_IP_DUAL_SPREAD`` of their new central
    values, while ``nu`` and ``W_0`` stay.

    A solved problem's iterate and duals stay frozen, as the stop test saw
    them, until the whole batch is solved, and no problem's step reads
    another's rows.  ``_BARRIER_MAX_STEPS`` caps the steps of the whole run,
    and ``iterations`` counts them all.

    Returns ``(y, lam, iterations)``: ``y`` on the problems and columns of
    the given ``amat``, 0 where pinned, and ``lam`` the capacity duals in
    units of the welfare.  A solve whose ``W_0`` overflows float64 raises
    ``ValueError`` before its first step.
    """
    nb, n, m = amat.shape
    cols = np.arange(n)  # the given column of every variable still in the solve
    y, nu, duals = np.where(var_mask, 0.9, 1.0), np.full((nb, 1), 0.1), None
    done = np.zeros((nb, 1), dtype=bool)
    it = 0

    def spread(duals):
        """The duals moved to within a factor ``_IP_DUAL_SPREAD`` of their
        central values."""
        return np.minimum(np.maximum(duals, mask * nu / (_IP_DUAL_SPREAD * z)), mask * _IP_DUAL_SPREAD * nu / z)

    while True:
        amat_t = amat.transpose(0, 2, 1)
        free = var_mask.astype(float)
        pad = 1.0 - free
        # the slacks [s, y], the duals [lam, mu] and the mask of real rows
        mask = np.concatenate([(amat > 0).any(axis=1), var_mask], axis=1).astype(float)
        steep = np.concatenate([np.zeros((nb, m), dtype=bool), var_mask & (welfare.alpha > 1.0)], axis=1)
        diag = np.arange(y.shape[1])
        z = np.concatenate([1.0 - (amat_t @ y[:, :, None])[:, :, 0], y], axis=1)
        y = z[:, m:]
        log_u, pi = welfare.utilities(y)
        if duals is None:
            log_scale = welfare.log_welfare(log_u)[:, None]
            if not np.all(log_scale < math.log(np.finfo(float).max)):
                raise ValueError(f"the start's welfare exp({log_scale.max():.6g}) overflows float64")
            scale = np.exp(log_scale)  # W_0
            duals = mask * nu / z
        duals = spread(duals)
        pin = None
        while pin is None and it < _BARRIER_MAX_STEPS and not done.all():
            it += 1
            s, lam, mu = z[:, :m], duals[:, :m], duals[:, m:]
            coef = np.exp(welfare.log_b + welfare.q0 * log_u) / scale  # B_s U_s^q0 / W_0
            c_var = coef[:, welfare.seg]
            grad = -c_var * pi / y
            stat = (y * np.abs(grad + (amat @ lam[:, :, None])[:, :, 0] - mu)).max(axis=1, keepdims=True)
            comp = duals * z
            while True:
                err = np.maximum(stat, np.abs(comp - mask * nu).max(axis=1, keepdims=True))
                small = ~done & (err <= 10.0 * nu)
                if not small.any():
                    break
                nu = np.where(small, 0.1 * nu, nu)
            central = mask * nu / z
            hess = (amat * (lam / s)[:, None, :]) @ amat_t
            hess -= (c_var * welfare.rank * pi / y)[:, :, None] * (pi / y)[:, None, :] * welfare.same_sp
            hess[:, diag, diag] += (c_var * welfare.alpha * pi / y + mu) / y + pad
            rhs = free * (nu / y - grad) - (amat @ central[:, :m, None])[:, :, 0]
            dy = _newton_direction(hess, rhs)
            dz = np.concatenate([-(amat_t @ dy[:, :, None])[:, :, 0], dy], axis=1)
            rel = dz / z
            d_duals = central - duals - duals * rel
            tau = np.maximum(0.99, 1.0 - nu)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(rel < 0, -np.where(steep, 0.5, tau) / rel, np.inf).min(axis=1, keepdims=True)
                dual_step = np.where(d_duals < 0, -tau * duals / d_duals, np.inf).min(axis=1, keepdims=True)
                step, dual_step = np.minimum(step, 1.0), np.minimum(dual_step, 1.0)
            step[done] = 0.0
            dual_step[done] = 0.0
            pred = (rhs * dy).sum(axis=1, keepdims=True)
            ry, size = rel[:, m:], np.abs(rel)
            # below this the change of phi_nu is lost in the rounding of its terms
            noise = _ULPS * (
                np.abs(c_var * pi * ry).sum(axis=1, keepdims=True)
                + nu * (size[:, m:].sum(axis=1, keepdims=True) + size[:, :m].sum(axis=1, keepdims=True))
            )
            trust = pred <= noise
            for _ in range(60):
                log_step = np.log1p(step * rel)
                ly = log_step[:, m:]
                change = (
                    -(coef * welfare.rel_change(pi, ly)).sum(axis=1, keepdims=True)
                    - nu * (ly.sum(axis=1, keepdims=True) + log_step[:, :m].sum(axis=1, keepdims=True))
                )
                short = (step > 0.0) & ~trust & ~(change <= -_IP_ARMIJO * step * pred)
                if not short.any():
                    break
                step = np.where(short, 0.5 * step, step)
            z = z + step * dz
            duals = duals + dual_step * d_duals
            reset = ~done & (step < 0.1)
            if reset.any():
                duals = np.where(reset, mask * nu / z, duals)
            duals = spread(duals)
            y = z[:, m:]
            log_u, pi = welfare.utilities(y)
            finished, pin = certified(welfare, amat, y, duals[:, :m] * scale, log_u)
            done |= finished[:, None]
        if pin is None:
            break
        keep = ~pin
        welfare, amat, var_mask, cols = welfare.take(keep), amat[:, keep], var_mask[:, keep], cols[keep]
        y, duals = y[:, keep], np.concatenate([duals[:, :m], duals[:, m:][:, keep]], axis=1)
    y_out = np.zeros((nb, n))
    y_out[:, cols] = y
    return y_out, duals[:, :m] * scale, it


def _newton_direction(hess, rhs):
    """Solutions of ``hess[b] x = rhs[b]`` for a batch of positive definite
    Newton matrices.

    On a face of optima (identical providers, say) the barrier's curvature
    across the binding constraints outgrows the curvature along the face by
    more than the floating-point range, so the matrix is singular in
    floating point and LU breaks down or returns an ascent direction.  Then
    the direction comes from the eigen-decomposition of the diagonally
    scaled matrix, with the directions whose curvature is lost in rounding
    left out.  No member's solution depends on the other members.
    """
    try:
        x = np.linalg.solve(hess, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # member by member, so that one singular matrix sends no other
        # member of the batch down the fallback
        x = np.full_like(rhs, np.nan)
        for b in range(len(hess)):
            try:
                x[b] = np.linalg.solve(hess[b], rhs[b][:, None])[:, 0]
            except np.linalg.LinAlgError:
                pass
    bad = ~((rhs * x).sum(axis=-1) > 0.0)
    if bad.any():
        h, r = hess[bad], rhs[bad]
        d = 1.0 / np.sqrt(np.diagonal(h, axis1=1, axis2=2))
        curv, vec = np.linalg.eigh(h * d[:, :, None] * d[:, None, :])
        keep = curv > curv.max(axis=1, keepdims=True) * r.shape[1] * np.finfo(float).eps
        coord = np.einsum("bij,bi->bj", vec, d * r)
        x[bad] = d * np.einsum("bij,bj->bi", vec, np.where(keep, coord / np.where(keep, curv, 1.0), 0.0))
    return x


# ---------------------------------------------------------------------------
# Standalone alpha-fair allocation (static share, standalone utilities)
# ---------------------------------------------------------------------------

def _block_candidates(welfare: _Welfare, amat, mask, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form candidates for the optimum of every block of a batch of
    one-provider welfare problems ``max U(z)`` subject to ``amat[b]^T z <=
    1`` and ``z >= 0``, with the capacity duals that certify each where it
    is the optimum.

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
    with np.errstate(divide="ignore", invalid="ignore"):
        # log(c_k / a_kj); -inf on padding, inf where a real class skips j
        score = np.where(real, welfare.log_w[:, :, None] - np.log(amat), -np.inf)
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
        pi = welfare.utilities(z)[1]
        lam_s = np.maximum(np.linalg.solve(a_s, (pi[:, sel, :k] / z_s)[..., None])[..., 0], 0.0)
        lam = np.full((len(subsets), nb, m), np.nan)
        lam[:, sel] = 0.0
        for c, goods in enumerate(subsets):
            lam[c, sel[:, None], goods] = lam_s[c]
        lam[lam.sum(axis=-1) <= 0.0] = np.nan
        zs.append(z)
        lams.append(lam)
    return np.concatenate(zs), np.concatenate(lams)


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
    units of an equal split of its box and the weights ``c`` to sum to one)
    and taken as a single-provider welfare problem.  A block is solved once
    capacity duals certify its rates, scaled up onto its capacity frontier,
    by the price-space bound of its welfare (:meth:`_Welfare.log_bound`) to
    within ``_BARRIER_STOP_GAP``.  The utility is degree-one, so scaling the
    rates down by their largest usage ``top`` divides the utility by ``top``.

    Every block is first tried in closed form (:func:`_block_candidates`,
    where one good or a vertex binds): its gap is the smallest bound of its
    candidates' duals over the largest utility of its candidates scaled onto
    the frontier, and the best candidate is kept where that certifies.  The
    blocks left, if any, are solved together by :func:`_interior_point`
    until each certifies its own iterate so.

    Returns ``(rates, gaps, iterations)``.  ``gaps[s]`` is a certified bound
    on the relative shortfall of provider ``s``'s degree-one utility: the
    largest of its blocks' gaps, since its utility is a monotone degree-one
    aggregate of theirs (0 for max-min providers).  Its optimum is at most
    ``1 + gaps[s]`` times the returned one.  ``iterations`` counts the Newton
    steps of the engine, 0 where no block is left to it.
    """
    rates = np.zeros(index.n_triples)
    gaps = np.zeros(index.n_sps)
    for s in np.flatnonzero(np.isinf(index.alphas)):
        rows = index.sp_rows(s)
        usage = index.kernel.per_good(index.users[:, None] * index.kernel.demand, rows)
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

    def block_welfare(log_c, alpha):
        return _Welfare(
            log_c,
            np.broadcast_to((1.0 - alpha)[:, None], log_c.shape),
            one_sp,
            np.zeros((log_c.shape[0], 1)),
            np.zeros(log_c.shape),
            1.0,
        )

    def top(amat, z):
        # the largest usage: z / top is on the frontier, with utility U(z) / top
        return np.einsum("...kj,...k->...j", amat, z).max(axis=-1)

    def log_value(amat, z, log_u):
        return log_u[..., 0] - np.log(top(amat, z))

    def log_gap(welfare, amat, z, lam, log_u):
        return welfare.log_bound(amat, lam) - log_value(amat, z, log_u)

    def certified(welfare, amat, z, lam, log_u):
        return log_gap(welfare, amat, z, lam, log_u) <= math.log1p(_BARRIER_STOP_GAP), None

    welfare = block_welfare(log_c, alpha)
    cand_z, cand_lam = _block_candidates(welfare, a_mat, mask, alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = log_value(a_mat, cand_z, welfare.utilities(cand_z)[0])
        bound = welfare.log_bound(a_mat, cand_lam)
    value = np.where(np.isnan(value), -np.inf, value)
    best = value.argmax(axis=0)
    at = np.arange(value.shape[1])
    gap = np.where(np.isnan(bound), np.inf, bound).min(axis=0) - value[best, at]
    z = cand_z[best, at]
    z = z / top(a_mat, z)[:, None]  # every block's rates on its frontier
    left = np.flatnonzero(~(gap <= math.log1p(_BARRIER_STOP_GAP)))
    iterations = 0
    if left.size:
        welfare, amat = block_welfare(log_c[left], alpha[left]), a_mat[left]
        y, lam, iterations = _interior_point(welfare, amat, mask[left], certified)
        gap[left] = log_gap(welfare, amat, y, lam, welfare.utilities(y)[0])
        z[left] = y / top(amat, y)[:, None]
    np.maximum.at(gaps, blocks.sp, np.expm1(gap))
    rates[blocks.rows[mask]] = (ref * z)[mask]
    return rates, gaps, iterations


# ---------------------------------------------------------------------------
# Social optimum
# ---------------------------------------------------------------------------

class _WelfareLayout:
    """The variables of the social-optimum program and its welfare, in
    provider order.

    A finite-alpha provider contributes one rate per triple; a max-min
    provider contributes its common per-user level ``tau`` (``u = tau n``),
    which enters like a linear provider with one unit-weight variable, since
    its utility is ``tau`` itself.  ``amat[v]`` is the usage of one unit of
    variable ``v`` on every consumed good, and variables are scaled to an
    equal split of each good (``ref``) so the Newton systems stay O(1).
    ``welfare`` is the objective as a batch of one, at the outer exponent
    ``q0`` of :class:`_Welfare` (1 for the social optimum).  The capacity
    duals live on the consumed goods (``goods``).

    Triple ``i`` has the rate ``mult[i]`` times variable ``owner[i]``
    (``mult`` is the user count on a max-min provider's rows and 1
    elsewhere), so ``amat`` is the sum of ``mult * slot_demand`` over the
    slots of each variable's triples.
    """

    def __init__(self, index: MarketIndex, q0: float = 1.0):
        max_min = np.isinf(index.alphas)[index.sp_of]
        # a new variable at every finite-alpha row and at a provider's first row
        new = ~max_min | np.concatenate(([True], index.sp_of[1:] != index.sp_of[:-1]))
        self.owner = np.cumsum(new) - 1
        self.mult = np.where(max_min, index.users, 1.0)
        n_var, n_goods = int(new.sum()), index.n_goods
        amat = np.bincount(
            (self.owner[:, None] * n_goods + index.slot_goods).ravel(),
            weights=(self.mult[:, None] * index.slot_demand).ravel(),
            minlength=n_var * n_goods,
        ).reshape(n_var, n_goods)
        used = amat > 0
        count = used.sum(axis=0)
        self.goods = count > 0
        with np.errstate(divide="ignore"):
            self.ref = np.where(used, 1.0 / (amat * count), np.inf).min(axis=1)
        self.amat = amat[:, self.goods] * self.ref[:, None]
        self.log_ref = np.log(self.ref)
        self.log_b = np.log(index.budgets)
        seg = index.sp_of[new]
        # a max-min provider's utility is its level: one unit-weight linear term
        log_w = np.where(max_min, 0.0, np.log(index.weights))[new]
        alpha = np.where(np.isinf(index.alphas), 0.0, index.alphas)[seg]
        self.welfare = _Welfare(
            log_w[None], (1.0 - alpha)[None], seg, self.log_b[None], self.log_ref[None], q0
        )

    def prices(self, lam):
        """Capacity duals ``lam`` on the consumed goods as prices of every
        good, 0 on the others."""
        prices = np.zeros(self.goods.size)
        prices[self.goods] = lam
        return prices

    def rates(self, y):
        """Per-triple rates of scaled variables ``y``."""
        return self.ref[self.owner] * y[self.owner] * self.mult


#: A provider leaves a social-optimum solve when its share of the welfare is
#: below ``_DROP_SHARE``, its price-space log-ratio
#: (:meth:`_Welfare.log_ratios`) is more than
#: ``_DROP_RATIO`` below the best one of the providers still in the solve,
#: and that distance is at least ``_DROP_HOLD`` times the one of the step
#: before.  A provider that
#: the optimum gives a small share closes the distance by about half per
#: step.
_DROP_SHARE = 1e-2
_DROP_RATIO = 1e-3
_DROP_HOLD = 0.9


def _eisenberg_gale_solve(index: MarketIndex) -> tuple[np.ndarray, np.ndarray, int]:
    """Maximize ``sum_s B_s log U_s(u)`` under unit capacities by the
    interior-point engine (:func:`_interior_point`, a batch of one; no
    provider is priced out of an equilibrium) on the variables of
    :class:`_WelfareLayout` with the outer exponent 0.

    The duality gap (:func:`~slicemarket.market._eg_gap`) is taken at the
    iterate scaled onto the capacity frontier and at the duals, those below
    their good's slack set to 0.  It is of second order in each provider's
    ``r_s - log U_s`` (a gap of 1e-11 leaves budgets off by up to 3e-6), so
    the solve stops once both are at most ``_BARRIER_STOP_GAP`` in size, or
    after ``_BARRIER_MAX_STEPS`` steps.  Providers with alpha > 0 then take
    their one best response at the prices; alpha-0 providers, whose best
    responses are not unique, keep the solve's rates, cut to the capacity
    the others leave.  Returns ``(rates, prices, iterations)``.
    """
    lay = _WelfareLayout(index, 0.0)
    welfare, amat = lay.welfare, lay.amat

    def frontier(y, lam):
        usage = amat.T @ y
        return y / usage.max(), np.where(lam < 1.0 - usage / usage.max(), 0.0, lam)

    def certified(_welfare, _amat, y, lam, log_u):
        y, lam = frontier(y[0], lam[0])
        prices = lay.prices(lam)
        g, r = _eg_gap(index, prices, index.log_ratios(prices), welfare.utilities(y[None])[0][0])
        return np.array([max(g, np.abs(r).max()) <= _BARRIER_STOP_GAP]), None

    y, lam, iterations = _interior_point(welfare, amat[None], np.ones((1, amat.shape[0]), dtype=bool), certified)
    y, lam = frontier(y[0], lam[0])
    prices = lay.prices(lam)
    kernel = index.kernel
    linear = index.alphas[index.sp_of] == 0.0
    demand = np.where(linear, 0.0, kernel.rates(kernel.row_prices(prices)[1])[0])
    left = np.maximum(1.0 - kernel.per_good(demand[:, None] * kernel.demand), 0.0)
    rates = np.where(linear, _repair_rates(index, np.where(linear, lay.rates(y), 0.0), left), demand)
    return rates, prices, iterations


def solve_social_optimal(scn: NormalizedScenario) -> SolveReport:
    """Budget-weighted utilitarian optimum ``max sum_s B_s U_s`` under the
    capacity constraints, with the degree-one aggregate utilities so values
    are comparable across alpha and against the market schemes.

    Max-min providers enter exactly through their common per-user rate level
    (``u = t n``, lossless at the optimum).  The program is solved by the
    interior-point engine (:func:`_interior_point`, a batch of one) on the
    variables of :class:`_WelfareLayout`, whose Newton system is one dense
    ``V x V`` solve per step, as an active set over providers.  At the
    optimum only the providers whose price-space ratio ``B_s / e_s`` attains
    its maximum get anything, and at alpha > 1 the engine lets the rates of
    any other provider fall by at most half per step.  So a provider whose
    share is small and whose ratio stays clearly below the best
    (``_DROP_SHARE``, ``_DROP_RATIO``, ``_DROP_HOLD``) is pinned: its
    variables leave the run, which goes on without them, and it gets rate
    and utility exactly 0.

    The run stops once its capacity duals certify the point scaled onto the
    capacity frontier to within ``_BARRIER_STOP_GAP`` by the Eisenberg-Gale
    price-space bound of the whole market (:meth:`_Welfare.log_bound` of the
    whole layout's welfare, whose maximum runs over the dropped providers
    too): for capacity prices ``lam >= 0``, no feasible allocation has
    welfare above ``(lam . 1) max_s B_s / e_s``, where ``e_s`` is provider
    ``s``'s unit cost at the prices ``D_s lam`` of its classes.  If the
    point certifies without the dropped providers but one of them has a
    ratio above the best of the rest, that provider is put back for good and
    a new run starts, with the other dropped providers still out.
    ``prices`` are the certifying capacity duals,
    ``residuals["duality_gap"]`` is that bound over the returned welfare
    minus 1, ``converged`` means it is at most ``GAP_TOL``, and
    ``iterations`` counts the Newton steps of every run.
    """
    index = scn.index
    lay = _WelfareLayout(index)
    active = np.ones(index.n_sps, dtype=bool)
    put_back = np.zeros(index.n_sps, dtype=bool)
    add = np.zeros(index.n_sps, dtype=bool)
    below_before = np.full(index.n_sps, np.inf)
    final = None  # the welfare of the last stop test, on the active providers

    def certified(welfare, amat, y, lam, log_u):
        nonlocal final
        final = welfare
        lam, log_u, usage = lam[0], log_u[0], amat[0].T @ y[0]
        log_w = welfare.log_welfare(log_u[None])[0]
        ratios = lay.welfare.log_ratios(lay.amat[None], lam[None])[0]
        best = ratios[active].max()
        below = np.where(active, best - ratios, np.inf)
        small = np.zeros(index.n_sps, dtype=bool)
        small[active] = np.exp(welfare.log_b[0] + log_u - log_w) < _DROP_SHARE
        drop = small & ~put_back & (below > _DROP_RATIO) & (below >= _DROP_HOLD * below_before)
        below_before[:] = below
        if drop.any():
            pin = drop[active][welfare.seg]
            active[drop] = False
            final = None  # it holds the providers just dropped
            return np.array([False]), pin
        top = usage.max()
        # the bound is at least 1 / (1 - lam.s / lam.1) times the welfare at
        # y (weak duality), so the scaled point cannot certify before this
        if top > (1.0 + _BARRIER_STOP_GAP) * (1.0 - lam @ (1.0 - usage) / lam.sum()):
            return np.array([False]), None
        if math.expm1(math.log(float(lam.sum())) + best - log_w + math.log(top)) > _BARRIER_STOP_GAP:
            return np.array([False]), None
        add[:] = ~active & (ratios > best)
        return np.array([True]), None

    iterations = 0
    while True:
        start = active[lay.welfare.seg]
        # a C-order copy of the F-order lay.amat: the order that the steps'
        # sums, and so the last bits of the report, follow
        amat = lay.amat[start]
        y_run, lam, it = _interior_point(
            lay.welfare.take(start), amat[None], np.ones((1, amat.shape[0]), dtype=bool), certified
        )
        iterations += it
        if not add.any():
            break
        active |= add
        put_back |= add
        add[:] = False
    keep = active[lay.welfare.seg]
    # a run ends on a stop test unless a pin spent its last step
    welfare = final if final is not None else lay.welfare.take(keep)
    y = np.zeros(keep.size)
    y[start] = y_run[0]
    y /= (lay.amat[keep].T @ y[keep]).max()
    log_w = welfare.log_welfare(welfare.utilities(y[keep][None])[0])[0]
    gap = math.expm1(lay.welfare.log_bound(lay.amat[None], lam)[0] - log_w)
    return _welfare_report(scn, lay.prices(lam[0]), Allocation(lay.rates(y), index), iterations, gap)


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
