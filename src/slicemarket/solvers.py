"""Centralized equilibrium computation and baseline allocation schemes.

``solve_eg`` computes the market equilibrium (the optimum of the
budget-weighted log-utility program whose capacity duals are the prices) at
every alpha by projected Newton steps on the program's price dual, whose
gradient is the excess supply of the closed-form demands.  The decentralized
bid dynamics (:mod:`~slicemarket.dynamics`), the paper's learning
algorithm, reach the same equilibrium without a central solver.
``solve_social_optimal`` and ``static_share`` are the efficiency and
isolation baselines, both solved by one primal-dual interior-point engine
(:func:`_interior_point`) and certified by weak duality, and ``poa_bound`` /
``nash_welfare`` provide the fairness/efficiency diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .market import (
    Allocation,
    _logsumexp,
    SolveReport,
    make_report,
    sp_utility_homog,
    verify_equilibrium,
)
from .model import MarketIndex, NormalizedScenario, normalize_scenario


def __getattr__(name: str):
    # ``solvers.optimize`` stays resolvable for bench/tracing.py, which wraps
    # it; imported on first access so that ``import slicemarket`` loads no
    # scipy (PEP 562).
    if name == "optimize":
        from scipy import optimize

        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Fairness parameter standing in for alpha=0 (degenerate linear demands)
#: inside market-equilibrium solves.
ALPHA_ZERO_SURROGATE = 1e-3


@dataclass(frozen=True)
class SolverConfig:
    """Settings of :func:`solve_eg`: ``max_iterations`` caps the Newton
    steps of each continuation stage."""

    max_iterations: int = 50000

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class SchemeComparison:
    """ME/SO/SS side-by-side at one fairness setting."""

    alpha: float
    utilities: dict[str, np.ndarray]
    welfare: dict[str, float]
    nash: dict[str, float]
    poa_value: float | None
    poa_bound: float
    max_utilities: np.ndarray
    me_minus_ss: np.ndarray
    converged: dict[str, bool]


@dataclass
class WelfareReport:
    """Cross-scheme comparison of one instance over a fairness sweep."""

    sp_names: tuple[str, ...]
    budgets: np.ndarray
    comparisons: list[SchemeComparison]


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
            "market solves route alpha=0 through a smoothed surrogate"
        )
    prices = np.asarray(prices, dtype=float)
    if np.any(prices < 0):
        raise ValueError("negative price")
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


def _rate_allocation(index: MarketIndex, rates: np.ndarray) -> Allocation:
    """Leontief-tight allocation ``x = u * d`` for given rates."""
    return Allocation(x=rates[:, None] * index.demand, rates=rates)


def _repair_rates(index: MarketIndex, rates: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Scale each triple's rate by the worst overuse factor of its consumed
    goods so that no capacity is exceeded."""
    usage = (rates[:, None] * index.demand).sum(axis=0)
    factor = np.where(usage > caps, caps / np.maximum(usage, 1e-300), 1.0)
    per_triple = np.where(index.consumed, factor[None, :], np.inf).min(axis=1)
    return rates * np.minimum(per_triple, 1.0)


def _with_surrogates(scn: NormalizedScenario, mapping) -> tuple[NormalizedScenario, dict[str, float]]:
    """Re-normalize with per-SP alpha substitutions; returns (scenario, flags)."""
    flags = {}
    sps = []
    for sp in scn.spec.sps:
        new_alpha = mapping(sp.alpha)
        if new_alpha != sp.alpha:
            flags[sp.name] = sp.alpha
        sps.append(replace(sp, alpha=new_alpha))
    if not flags:
        return scn, {}
    return normalize_scenario(replace(scn.spec, sps=tuple(sps))), flags


class _UnitCost:
    """Log unit expenditure ``log e_s(L)`` of every provider: the least cost
    of one unit of its degree-one utility when one unit of each of its
    variables costs ``L``.

    Variables are grouped by provider in contiguous segments (``seg``) and
    ``alpha`` is the fairness of each variable's provider.  ``e_s`` is
    ``(sum w^(1/a) L^((a-1)/a))^(a/(a-1))`` for a CES utility, ``prod
    (L / w_hat)^w_hat`` with ``w_hat = w / sum w`` at ``a = 1``, ``sum w L``
    at ``a = inf`` (max-min utility ``min u / w``) and ``min L / w`` at
    ``a = 0``.
    """

    def __init__(self, log_w: np.ndarray, alpha: np.ndarray, seg: np.ndarray):
        self.seg = seg
        self.starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
        alpha_sp = alpha[self.starts]
        self.ces_sp = (alpha_sp > 0) & (alpha_sp != 1.0)
        self.cobb_sp = alpha_sp == 1.0
        ces = self.ces_sp[seg]
        finite = ces & np.isfinite(alpha)
        # h = log_w_a + expo * log L: the log-sum-exp argument of a CES,
        # else log L - log w
        self.expo = np.where(finite, (alpha - 1.0) / np.where(finite, alpha, 1.0), 1.0)
        self.log_w_a = np.where(
            finite, log_w / np.where(finite, alpha, 1.0), np.where(ces, log_w, -log_w)
        )
        self.expo_sp = self.expo[self.starts]
        top = np.maximum.reduceat(log_w, self.starts)
        self.log_wsum = top + np.log(self.seg_sum(np.exp(log_w - top[seg])))
        self.w_hat = np.exp(log_w - self.log_wsum[seg])

    def seg_sum(self, values: np.ndarray) -> np.ndarray:
        return np.bincount(self.seg, weights=values, minlength=self.starts.size)

    def __call__(self, log_l: np.ndarray) -> np.ndarray:
        h = self.log_w_a + self.expo * log_l
        top = np.maximum.reduceat(h, self.starts)
        lse = top + np.log(self.seg_sum(np.exp(h - top[self.seg])))
        return np.where(
            self.ces_sp,
            lse / self.expo_sp,
            np.where(
                self.cobb_sp,
                self.seg_sum(self.w_hat * h) + self.log_wsum,
                np.minimum.reduceat(h, self.starts),
            ),
        )


class _PriceCells:
    """The goods of a market grouped by cell, padded to an ``[n_cells, m]``
    layout, with the slots of :class:`~slicemarket.model.DemandKernel`
    mapped onto it.

    Every triple consumes only goods of its own cell, so ``D^T diag(c) D``
    is block-diagonal by cell for any per-triple ``c``.  ``pair[i, r, r']``
    is the flat ``[n_cells, m, m]`` position of slot pair ``(r, r')`` of
    triple ``i`` and ``slot[i, r]`` the flat ``[n_cells, m, n_seg]``
    position of slot ``r`` in the column of the triple's provider; padded
    slots carry zero demand, so where they point does not matter.
    ``good[c, j]`` is the good at position ``j`` of cell ``c`` (``mask``
    False on padding, which points at good 0).
    """

    def __init__(self, index: MarketIndex):
        ids: dict[str, int] = {}
        cell = np.array([ids.setdefault(c, len(ids)) for c, _ in index.goods])
        pos = np.zeros(index.n_goods, dtype=np.intp)
        for c in range(len(ids)):
            at = np.flatnonzero(cell == c)
            pos[at] = np.arange(at.size)
        self.n_cells, self.m = len(ids), int(pos.max()) + 1
        self.good = np.zeros((self.n_cells, self.m), dtype=np.intp)
        self.mask = np.zeros((self.n_cells, self.m), dtype=bool)
        self.good[cell, pos] = np.arange(index.n_goods)
        self.mask[cell, pos] = True
        kernel = index.kernel
        self.n_seg = kernel.budgets.size
        # slot 0 of every row is a consumed good, so in the triple's cell
        at = cell[kernel.goods[:, :1]] * self.m + pos[kernel.goods]
        self.pair = at[:, :, None] * self.m + pos[kernel.goods][:, None, :]
        self.slot = at * self.n_seg + kernel.seg[:, None]


#: Armijo fraction of the predicted decrease of the price dual.
_ARMIJO = 1e-4

#: Largest price that can count as zero for a good in excess supply.
_ACTIVE_PRICE = 1e-9


def _price_newton(work: NormalizedScenario, cells: _PriceCells, p, max_steps, price_rows):
    """Minimize the Eisenberg-Gale price dual ``f(p) = sum_g p_g - sum_s B_s
    log e_s(D_s p)`` over nonnegative prices of the demanded goods, from
    ``p``, by a projected Newton method (Bertsekas, *Projected Newton
    methods for optimization problems with simple constraints*, SIAM J.
    Control Optim. 1982).  ``e_s`` is the unit expenditure (:class:`_UnitCost`)
    and the gradient ``1 - usage(p)`` is the excess supply, so the minimizer
    is the equilibrium price vector.

    The Hessian is ``sum_s [(1/a) D^T diag(u/L) D + ((a-1)/(a B)) v v^T]``
    with ``v = D_s^T u_s`` (the first term vanishes at ``a = inf``, where the
    second coefficient is ``1/B``).  The first term is block-diagonal by cell
    (:class:`_PriceCells`) and the second is one rank-one term per provider,
    so a step is one batched per-cell solve plus a Woodbury correction with
    an ``n_sp x n_sp`` capacitance matrix.  Goods priced at most ``eps =
    min(residual, _ACTIVE_PRICE)`` with positive gradient are pinned and
    driven to 0 along the projection arc; a Levenberg term equal to the
    residual on the diagonal keeps rank-deficient cells (one class on three
    goods, say) from stalling the step.  Where the structured direction is
    not a descent direction, the dense Newton system is solved instead
    (:func:`_newton_direction`).

    The Armijo search evaluates ``f`` itself.  Once the predicted decrease
    is below the rounding of ``f``, the full step is taken; the solve stops
    when such a step fails to halve the projected gradient (which is then
    at rounding level), when no step decreases ``f``, or after
    ``max_steps`` steps.  Appends every iterate to ``price_rows`` and
    returns ``(p, steps)``, ``p`` the iterate of smallest projected
    gradient.
    """
    index = work.index
    kernel = index.kernel
    cost = _UnitCost(np.log(index.weights), index.alphas[index.sp_of].astype(float), kernel.seg)
    budgets = kernel.budgets
    # the rank-one coefficient (a - 1) / (a B), 1 / B at a = inf
    coupling = kernel.expo[kernel.starts] / budgets
    curv_row = 1.0 - kernel.expo  # 1 / a, 0 at a = inf
    demanded = index.demanded_goods()
    n_goods, n_seg, m = index.n_goods, cells.n_seg, cells.m
    dm = kernel.demand
    diag = np.arange(m)
    pair_demand = dm[:, :, None] * dm[:, None, :]

    def evaluate(p):
        """``f(p)``, the scale of its rounding, the rates demanded at ``p``
        and their prices ``L``; ``f`` is inf where some demand is unbounded."""
        pd = kernel.row_prices(p)[1]
        u = kernel.rates(pd)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            terms = budgets * cost(np.log(pd))
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

    def dense(k_blocks, v_blocks, grad, free, mu):
        h = np.zeros((n_goods, n_goods))
        np.add.at(h, (cells.good[:, :, None], cells.good[:, None, :]), k_blocks)
        vd = np.zeros((n_goods, n_seg))
        np.add.at(vd, cells.good, v_blocks)
        h += (vd * coupling) @ vd.T
        h = h[np.ix_(free, free)]
        h[np.diag_indices_from(h)] += mu
        d = np.zeros(n_goods)
        d[free] = _newton_direction(h[None], grad[free][None])[0]
        return d

    def search(p, d, grad, value, scale):
        """The accepted point along the projection arc of ``d``, or None."""
        pred = float(grad @ d)
        if not pred > 0.0:
            return None
        noise = 8.0 * np.finfo(float).eps * scale
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
        if resid == 0.0 or steps >= max_steps or (quiet and resid > 0.5 * prev_resid):
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
        found = None
        for direction in (structured, dense):
            d = direction(k_blocks, v_blocks, grad, free, resid)
            if d is None or not np.all(np.isfinite(d)):
                continue
            d[pinned] = p[pinned]
            found = search(p, d, grad, value, scale)
            if found is not None:
                break
        if found is None:
            break
        p, (value, scale, u, pd), quiet = found
        steps += 1
        price_rows.append(p)
    return best_p, steps


def solve_eg(scn: NormalizedScenario, config: SolverConfig | None = None) -> SolveReport:
    """Market-equilibrium allocation and prices, by projected Newton steps
    on the Eisenberg-Gale price dual (:func:`_price_newton`) at every alpha.

    alpha=0 providers are routed through a smoothed alpha=1e-3 surrogate,
    reached by a continuation over decreasing surrogate values so the
    near-linear final stage starts from almost-equilibrium prices, and
    flagged in ``surrogate_alphas``.  ``config.max_iterations`` caps the
    Newton steps of each stage; ``iterations`` counts them all, and the price
    trace holds every iterate.  The report's method is ``"tatonnement"``.
    Deterministic: identical scenario and config give an identical report.
    ``converged`` rests on the absolute gaps of
    :func:`~slicemarket.market.verify_equilibrium` at its default tolerance;
    ``residuals["br_gap_rel"]`` reports the best-response gap relative to
    the best-response utility next to them.  The decentralized route to the
    same equilibrium is :func:`~slicemarket.dynamics.run_dynamics`.
    """
    config = config or SolverConfig()
    has_zero = bool(np.any(scn.index.alphas == 0.0))
    stages = [0.1, 0.01, ALPHA_ZERO_SURROGATE] if has_zero else [None]
    demanded = scn.index.demanded_goods()
    cells = _PriceCells(scn.index)
    p = np.where(demanded, 1.0 / demanded.sum(), 0.0)
    price_rows = [p]
    total_it = 0
    flags: dict[str, float] = {}
    work = scn
    for stage in stages:
        work, flags = _with_surrogates(
            scn, lambda a, st=stage: (st if st is not None else a) if a == 0.0 else a
        )
        p, it = _price_newton(work, cells, p, config.max_iterations, price_rows)
        total_it += it

    kernel = work.index.kernel
    pd_slots, pd = kernel.row_prices(p)
    demand = kernel.rates(pd)
    rates = _repair_rates(work.index, demand, np.ones(work.index.n_goods))
    allocation = _rate_allocation(work.index, rates)
    # the equilibrium flag is judged against the surrogate market (an exact
    # alpha=0 equilibrium does not exist)
    check = verify_equilibrium(work, allocation, p)
    report = make_report(
        scn,
        method="tatonnement",
        prices=p,
        allocation=allocation,
        iterations=total_it,
        converged=check.is_equilibrium,
        residuals={
            "budget_gap": check.budget_gap,
            "clearing_gap": check.clearing_gap,
            "br_gap": check.br_gap,
            "br_gap_rel": check.br_gap_rel,
        },
        price_trace=np.array(price_rows),
        surrogate_alphas=flags,
    )
    report.bids = kernel.dense(demand[:, None] * pd_slots)
    return report


# ---------------------------------------------------------------------------
# Welfare maximization under capacities: the interior-point engine shared by
# the static share and the social optimum
# ---------------------------------------------------------------------------

#: Relative gap at which an interior-point solve stops: a (provider, cell)
#: block of a static share, or a social optimum.
_BARRIER_STOP_GAP = 1e-11

#: Newton-step cap of an interior-point solve.  On the 7-cell preset a
#: static share takes 8-16 steps at alpha 0-20 and up to 24 at alpha 100; a
#: social optimum takes 10-26 steps at alpha 0, 0.5, 1 and inf, 35-45 at
#: alpha 2-20 and 55-80 at alpha 100.  The counts barely grow with size: 13
#: to 84 steps at 28 and 112 cells.
_BARRIER_MAX_STEPS = 1000

#: Armijo fraction of the predicted decrease of the barrier function.
_IP_ARMIJO = 1e-4

#: Bound on how far the duals may stray from their central values ``nu /
#: slack`` (``kappa_Sigma`` of Wachter & Biegler).
_IP_DUAL_SPREAD = 1e10


class _Welfare:
    """Budget-weighted welfare ``W = sum_s B_s U_s(y)`` of a batch of
    problems that share one layout of variables.

    Variable ``v`` belongs to provider ``seg[v]`` (providers are contiguous
    segments) and stands for the rate ``u = exp(log_ref) y``.  ``U_s`` is the
    degree-one utility ``(sum w u^q)^(1/q)`` of its provider's rates,
    ``prod u^(w / sum w)`` at ``q = 0``.  Arrays are ``[batch, n]`` per
    variable and ``[batch, n_sp]`` per provider; a variable of weight 0
    (``log_w = -inf``) is padding and takes no share of its utility.
    """

    def __init__(self, log_w, q, seg, log_b, log_ref):
        self.log_w, self.q, self.seg, self.log_b, self.log_ref = log_w, q, seg, log_b, log_ref
        self.starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
        self.q_sp = q[:, self.starts]
        self.alpha_sp = 1.0 - self.q_sp
        self.same_sp = seg[:, None] == seg[None, :]

    def seg_sum(self, values):
        return np.add.reduceat(values, self.starts, axis=-1)

    def utilities(self, y):
        """Log of every provider's utility at ``y`` and the shares ``pi_v =
        w u^q / sum w u^q`` (``w / sum w`` at ``q = 0``) of its terms."""
        log_u = self.log_ref + np.log(y)
        h = self.log_w + self.q * log_u
        top = np.maximum.reduceat(h, self.starts, axis=-1)
        e = np.exp(h - top[:, self.seg])
        tot = self.seg_sum(e)
        pi = e / tot[:, self.seg]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_u_sp = np.where(
                self.q_sp == 0.0,
                self.seg_sum(pi * log_u),
                (top + np.log(tot)) / self.q_sp,
            )
        return log_u_sp, pi

    def log_welfare(self, log_u_sp):
        """Log of the welfare of every problem from its providers' log
        utilities."""
        return _logsumexp(self.log_b + log_u_sp, axis=-1)

    def rel_change(self, pi, log_ratio):
        """Relative change of every provider's utility when each variable is
        multiplied by ``exp(log_ratio)``, summed from per-term differences."""
        x = self.seg_sum(pi * _power_change(self.q, log_ratio))
        return _utility_change(self.q_sp, x)


def _interior_point(welfare: _Welfare, amat, var_mask, certified):
    """Maximize ``welfare`` subject to ``amat[b]^T y <= 1`` and ``y >= 0``
    for every problem ``b`` of a batch at once.

    Primal-dual interior-point method in the monotone mode of IPOPT
    (Wachter & Biegler, *On the implementation of an interior-point filter
    line-search algorithm for large-scale nonlinear programming*, Math.
    Prog. 2006; Wright, *Primal-Dual Interior-Point Methods*, SIAM 1997).
    The objective is ``f = -W / W_0``, ``W_0`` the welfare at the start
    ``y = 0.9``, with slacks ``s = 1 - amat^T y`` carried along the steps
    (which keeps their relative precision near 0), capacity duals ``lam``
    and bound duals ``mu``.  A step is the Newton step of the barrier
    problem ``phi_nu = f - nu sum log s - nu sum log y``: one dense ``[batch,
    n, n]`` system ``(hess f + amat diag(lam / s) amat^T + diag(mu / y)) dy
    = -grad phi_nu`` (:func:`_newton_direction`), where provider ``s`` adds
    ``(B_s U_s / W_0) a (diag(pi / y^2) - g g^T)`` with ``g = pi / y`` to
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
      large values cancel.
    - After a primal step below 0.1 the duals are reset to their central
      values ``nu / s`` and ``nu / y``; they are always kept within a factor
      ``_IP_DUAL_SPREAD`` of them.

    ``var_mask`` marks real variables (padding is pinned at 1), and goods
    that no variable uses carry no constraint.  After every step
    ``certified(y, lam, log_u)`` says which problems are solved, given the
    capacity duals in units of the welfare and the providers' log utilities;
    a solved problem takes no further step.  Returns ``(y, lam,
    iterations)``.
    """
    nb, n, _ = amat.shape
    amat_t = amat.transpose(0, 2, 1)
    free = var_mask.astype(float)
    cons = (amat > 0).any(axis=1).astype(float)
    steep = var_mask & (welfare.alpha_sp[:, welfare.seg] > 1.0)
    diag = np.arange(n)
    y = np.where(var_mask, 0.9, 1.0)
    s = 1.0 - (amat_t @ y[:, :, None])[:, :, 0]
    log_u, pi = welfare.utilities(y)
    scale = np.exp(welfare.log_welfare(log_u))[:, None]  # W_0
    nu = np.full((nb, 1), 0.1)
    lam = cons * nu / s
    mu = free * nu / y
    done = np.zeros((nb, 1), dtype=bool)
    for it in range(1, _BARRIER_MAX_STEPS + 1):
        coef = np.exp(welfare.log_b + log_u) / scale  # B_s U_s / W_0
        c_var = coef[:, welfare.seg]
        grad = -c_var * pi / y
        stat = (y * np.abs(grad + (amat @ lam[:, :, None])[:, :, 0] - mu)).max(axis=1, keepdims=True)
        lam_s, mu_y = lam * s, mu * y
        while True:
            err = np.maximum.reduce([
                stat,
                np.abs(lam_s - cons * nu).max(axis=1, keepdims=True),
                np.abs(mu_y - free * nu).max(axis=1, keepdims=True),
            ])
            small = ~done & (err <= 10.0 * nu)
            if not small.any():
                break
            nu = np.where(small, 0.1 * nu, nu)
        curv = (coef * welfare.alpha_sp)[:, welfare.seg]
        cg = curv * pi / y
        hess = (amat * (lam / s)[:, None, :]) @ amat_t
        hess -= cg[:, :, None] * (pi / y)[:, None, :] * welfare.same_sp
        hess[:, diag, diag] += (cg + mu) / y + (1.0 - free)
        rhs = free * (nu / y - grad) - (amat @ (cons * nu / s)[:, :, None])[:, :, 0]
        dy = _newton_direction(hess, rhs)
        ds = -(amat_t @ dy[:, :, None])[:, :, 0]
        ry, rs = dy / y, ds / s
        dlam = cons * nu / s - lam - lam * rs
        dmu = free * nu / y - mu - mu * ry
        tau = np.maximum(0.99, 1.0 - nu)
        with np.errstate(divide="ignore"):
            step = np.minimum(
                np.minimum(
                    np.where(ry < 0, -np.where(steep, 0.5, tau) / ry, np.inf).min(axis=1, keepdims=True),
                    np.where(rs < 0, -tau / rs, np.inf).min(axis=1, keepdims=True),
                ),
                1.0,
            )
            dual_step = np.minimum(
                np.minimum(
                    np.where(dlam < 0, -tau * lam / dlam, np.inf).min(axis=1, keepdims=True),
                    np.where(dmu < 0, -tau * mu / dmu, np.inf).min(axis=1, keepdims=True),
                ),
                1.0,
            )
        step[done] = 0.0
        dual_step[done] = 0.0
        pred = (rhs * dy).sum(axis=1, keepdims=True)
        # below this the change of phi_nu is lost in the rounding of its terms
        noise = 8.0 * np.finfo(float).eps * (
            np.abs(c_var * pi * ry).sum(axis=1, keepdims=True)
            + nu * (np.abs(ry).sum(axis=1, keepdims=True) + np.abs(rs).sum(axis=1, keepdims=True))
        )
        trust = pred <= noise
        for _ in range(60):
            ly = np.log1p(step * ry)
            change = (
                -(coef * welfare.rel_change(pi, ly)).sum(axis=1, keepdims=True)
                - nu * (ly.sum(axis=1, keepdims=True) + np.log1p(step * rs).sum(axis=1, keepdims=True))
            )
            short = (step > 0.0) & ~trust & ~(change <= -_IP_ARMIJO * step * pred)
            if not short.any():
                break
            step = np.where(short, 0.5 * step, step)
        y = y + step * dy
        s = s + step * ds
        lam = lam + dual_step * dlam
        mu = mu + dual_step * dmu
        reset = ~done & (step < 0.1)
        if reset.any():
            lam = np.where(reset, cons * nu / s, lam)
            mu = np.where(reset, free * nu / y, mu)
        lam = np.minimum(np.maximum(lam, cons * nu / (_IP_DUAL_SPREAD * s)), cons * _IP_DUAL_SPREAD * nu / s)
        mu = np.minimum(np.maximum(mu, free * nu / (_IP_DUAL_SPREAD * y)), free * _IP_DUAL_SPREAD * nu / y)
        log_u, pi = welfare.utilities(y)
        done |= certified(y, lam * scale, log_u)[:, None]
        if done.all():
            break
    return y, lam * scale, it


def _newton_direction(hess, rhs):
    """Solutions of ``hess[b] x = rhs[b]`` for a batch of positive definite
    Newton matrices.

    On a face of optima (identical providers, say) the barrier's curvature
    across the binding constraints outgrows the curvature along the face by
    more than the floating-point range, so the matrix is singular in
    floating point and LU breaks down or returns an ascent direction.  Then
    the direction comes from the eigen-decomposition of the diagonally
    scaled matrix, with the directions whose curvature is lost in rounding
    left out.
    """
    try:
        x = np.linalg.solve(hess, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.full_like(rhs, np.nan)
    bad = ~((rhs * x).sum(axis=-1) > 0.0)
    if bad.any():
        h, r = hess[bad], rhs[bad]
        d = 1.0 / np.sqrt(np.diagonal(h, axis1=1, axis2=2))
        curv, vec = np.linalg.eigh(h * d[:, :, None] * d[:, None, :])
        keep = curv > curv.max(axis=1, keepdims=True) * r.shape[1] * np.finfo(float).eps
        coord = np.einsum("bij,bi->bj", vec, d * r)
        x[bad] = d * np.einsum("bij,bj->bi", vec, np.where(keep, coord / np.where(keep, curv, 1.0), 0.0))
    return x


def _power_change(q, x):
    """``(e^(q x) - 1) / q``, and ``x`` where ``q = 0``: the change of
    ``v^q / q`` (of ``log v`` at ``q = 0``) from ``v`` to ``v e^x``, in
    units of ``v^q``, without cancellation for small ``x``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(q == 0.0, x, np.expm1(q * x) / np.where(q == 0.0, 1.0, q))


def _utility_change(q, x):
    """Relative change of a degree-one utility ``S^(1/q)`` (``exp S`` at
    ``q = 0``) whose sum ``S / q`` changes by ``x`` in units of ``S``:
    ``(1 + q x)^(1/q) - 1``, and ``e^x - 1`` at ``q = 0``."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(q == 0.0, np.expm1(x), np.expm1(np.log1p(q * x) / q))


# ---------------------------------------------------------------------------
# Single-provider alpha-fair allocation (static share, standalone utilities)
# ---------------------------------------------------------------------------

#: Relative duality gap up to which a static-share solve reports convergence.
SS_GAP_TOL = 1e-9


def _single_sp_allocate(index: MarketIndex, caps: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Every provider's optimal rates when it alone holds ``caps[s]`` of each
    good (``caps`` is ``[n_sps, n_goods]``).

    Max-min providers have the waterfill closed form (a common per-user level
    set by the tightest good).  For finite alpha the caps couple classes only
    within a cell, so every (provider, cell) block of
    :attr:`~slicemarket.model.MarketIndex.blocks` is an independent problem:
    maximize the block's degree-one utility ``(sum c z^(1-alpha))^(1/(1-alpha))``
    under its capacities.  Each block is scaled to O(1) (rates ``z`` in units
    of an equal split of its box, capacities to one and the weights ``c`` to
    sum to one), and all blocks of all providers are solved together by
    :func:`_interior_point` as single-provider welfare problems.  A block
    stops once :func:`_block_gap` certifies it on the separable sum ``sum c
    z^(1-alpha) / (1-alpha)``, which has the same optimum; its capacity
    duals are the solve's scaled by ``U^(-alpha)``, ``U`` the block utility.
    Each block is then scaled up onto its capacity frontier, which can only
    raise every utility.

    Returns ``(rates, gaps, iterations)``.  ``gaps[s]`` is a certified bound
    on the relative shortfall of provider ``s``'s degree-one utility: its
    optimum is at most ``1 + gaps[s]`` times the returned one (0 for max-min
    providers).  ``iterations`` counts Newton steps.
    """
    rates = np.zeros(index.n_triples)
    gaps = np.zeros(index.n_sps)
    for s in np.flatnonzero(np.isinf(index.alphas)):
        rows = index.sp_rows(s)
        n_vec = index.users[rows].astype(float)
        usage = (n_vec[:, None] * index.demand[rows]).sum(axis=0)
        active = usage > 0
        rates[rows] = float((caps[s, active] / usage[active]).min()) * n_vec
    blocks = index.blocks
    if blocks.sp.size == 0:
        return rates, gaps, 0

    mask, alpha = blocks.class_mask, blocks.alphas
    cap = np.where(blocks.good_mask, caps[blocks.sp[:, None], blocks.goods], 1.0)
    with np.errstate(divide="ignore"):
        box = np.where(blocks.demand > 0, cap[:, None, :] / blocks.demand, np.inf).min(axis=2)
        ref = np.where(mask, box / mask.sum(axis=1)[:, None], 1.0)
        log_c = np.log(blocks.weights) + (1.0 - alpha)[:, None] * np.log(ref)
    log_norm = _logsumexp(log_c, axis=1)
    log_c = log_c - log_norm[:, None]
    c = np.exp(log_c)
    a_mat = blocks.demand * (ref[:, :, None] / cap[:, None, :])
    welfare = _Welfare(
        log_c,
        np.broadcast_to((1.0 - alpha)[:, None], c.shape),
        np.zeros(c.shape[1], dtype=np.intp),
        np.zeros((c.shape[0], 1)),
        np.zeros(c.shape),
    )

    def certified(z, lam, log_u):
        # _block_gap counts lam . slack U^(-alpha) against the sum
        # U^(1-alpha), so no block certifies while lam . slack > gap U
        slack = 1.0 - np.einsum("bkj,bk->bj", a_mat, z)
        out = (lam * slack).sum(axis=1) <= _BARRIER_STOP_GAP * np.exp(log_u[:, 0])
        if out.any():
            gap, total = _block_gap(
                a_mat[out], c[out], alpha[out], mask[out], z[out], lam[out] * np.exp(-alpha[out, None] * log_u[out])
            )
            out[out] = gap <= _BARRIER_STOP_GAP * total
        return out

    z, lam, iterations = _interior_point(welfare, a_mat, mask, certified)
    lam = lam * np.exp(-alpha[:, None] * welfare.utilities(z)[0])
    z /= np.einsum("bkj,bk->bj", a_mat, z).max(axis=1)[:, None]
    gap, total = _block_gap(a_mat, c, alpha, mask, z, lam)
    rates[blocks.rows[mask]] = (ref * z)[mask]

    # per-provider sums in the original units, where block b's objective is
    # exp(log_norm[b]) times its scaled one
    top = np.full(index.n_sps, -np.inf)
    np.maximum.at(top, blocks.sp, log_norm)
    weight = np.exp(log_norm - top[blocks.sp])
    num = np.bincount(blocks.sp, weights=weight * gap, minlength=index.n_sps)
    den = np.bincount(blocks.sp, weights=weight * total, minlength=index.n_sps)
    x = np.divide(num, den, out=np.zeros(index.n_sps), where=den > 0)
    # the sum S = sum w u^q (q = 1 - alpha) is within a factor 1 + q x of
    # its optimum, and the degree-one utility is S^(1/q)
    finite = np.isfinite(index.alphas)
    q, x = 1.0 - index.alphas[finite], x[finite]
    gaps[finite] = np.where(q * x > -1.0, _utility_change(q, x), np.inf)
    return rates, gaps, iterations


def _block_gap(a_mat, c, alpha, class_mask, z, lam):
    """Certified duality gap of every static-share block of
    :func:`_single_sp_allocate` at ``z``, from capacity duals ``lam >= 0``,
    on the separable sum ``sum_k c_k h(z_k)`` with ``h(z) = z^(1-a) / (1-a)``
    (``log z`` at ``a = 1``).

    By weak duality the block optimum is at most ``sum_j lam_j + sum_k
    max_{v >= 0} [c_k h(v) - L_k v]`` with ``L = a_mat lam``; the inner
    maximum is at ``v = (c / L)^(1/a)``.  The gap to the objective at ``z``
    is summed from nonnegative terms, ``lam_j slack_j`` and ``[c h(v) - L v]
    - [c h(z) - L z]``, so no large values cancel.  At ``a = 0`` the inner
    maximum is 0 once ``L >= c``, so ``lam`` is scaled up to that first.
    Returns ``(gap, total)`` with ``total = sum_k c_k z_k^(1-a)``; ``gap /
    total`` is the block's relative gap on that sum.
    """
    q = (1.0 - alpha)[:, None]
    slack = 1.0 - np.einsum("bkj,bk->bj", a_mat, z)
    cc = np.where(class_mask, c, 1.0)
    big_l = np.where(class_mask, np.einsum("bkj,bj->bk", a_mat, lam), 1.0)
    linear = alpha == 0.0
    lift = np.where(linear, np.maximum((cc / big_l).max(axis=1), 1.0), 1.0)
    lam = lam * lift[:, None]
    big_l = big_l * lift[:, None]
    log_v = (np.log(cc) - np.log(big_l)) / np.where(linear, 1.0, alpha)[:, None]
    log_r = np.log(z) - log_v
    with np.errstate(over="ignore", invalid="ignore"):
        term = np.where(
            linear[:, None],
            (big_l - cc) * z,
            cc * np.exp(q * log_v) * (np.expm1(log_r) - _power_change(q, log_r)),
        )
    gap = np.where(class_mask, term, 0.0).sum(axis=1) + (lam * slack).sum(axis=1)
    total = np.where(class_mask, c * np.exp(q * np.log(z)), 0.0).sum(axis=1)
    return gap, total


# ---------------------------------------------------------------------------
# Social optimum
# ---------------------------------------------------------------------------

#: Relative duality gap up to which a social-optimum solve reports
#: convergence.
SO_GAP_TOL = 1e-9


class _WelfareLayout:
    """The variables of the social-optimum program and its welfare, in
    provider order.

    A finite-alpha provider contributes one rate per triple; a max-min
    provider contributes its common per-user level ``tau`` (``u = tau n``),
    which enters like a linear provider with one unit-weight variable, since
    its utility is ``tau`` itself.  ``amat[v]`` is the usage of one unit of
    variable ``v`` on every consumed good, and variables are scaled to an
    equal split of each good (``ref``) so the Newton systems stay O(1).
    ``welfare`` is the program's objective as a batch of one.
    """

    def __init__(self, index: MarketIndex):
        cols, log_w, seg, alpha, owner, mult = [], [], [], [], [], []
        for s in range(index.n_sps):
            rows = index.sp_rows(s)
            if math.isinf(index.alphas[s]):
                n_vec = index.users[rows].astype(float)
                owner.append(np.full(rows.size, len(seg)))
                mult.append(n_vec)
                cols.append((n_vec @ index.demand[rows])[None, :])
                log_w.append([0.0])
                seg.append(s)
                alpha.append(0.0)
            else:
                owner.append(len(seg) + np.arange(rows.size))
                mult.append(np.ones(rows.size))
                cols.append(index.demand[rows])
                log_w.append(np.log(index.weights[rows]))
                seg.extend([s] * rows.size)
                alpha.extend([float(index.alphas[s])] * rows.size)
        amat = np.concatenate(cols)
        used = amat > 0
        count = used.sum(axis=0)
        self.goods = count > 0
        with np.errstate(divide="ignore"):
            self.ref = np.where(used, 1.0 / (amat * count), np.inf).min(axis=1)
        self.amat = amat[:, self.goods] * self.ref[:, None]
        self.log_ref = np.log(self.ref)
        self.log_b = np.log(index.budgets)
        self.owner = np.concatenate(owner)
        self.mult = np.concatenate(mult)
        log_w = np.concatenate(log_w)
        seg = np.array(seg, dtype=np.intp)
        alpha = np.array(alpha)
        self.cost = _UnitCost(log_w, alpha, seg)
        self.welfare = _Welfare(
            log_w[None], (1.0 - alpha)[None], seg, self.log_b[None], self.log_ref[None]
        )

    def log_bound(self, lam):
        """Log of the price-space bound ``(lam . 1) max_s B_s / e_s(L_s)``
        on the welfare of every feasible allocation, for capacity prices
        ``lam > 0`` on the consumed goods.

        ``L = D_s lam`` is the price of one unit of each variable and
        ``e_s`` the unit expenditure of provider ``s``: ``(sum w^(1/a)
        L^((a-1)/a))^(a / (a-1))``, ``prod (L / w_hat)^w_hat`` at ``a = 1``
        and ``min L / w`` at ``a = 0`` (which covers max-min levels).  Any
        allocation costs ``sum_s e_s U_s <= lam . 1`` at these prices, so its
        welfare ``sum_s B_s U_s`` is at most the bound.
        """
        log_e = self.cost(np.log(self.amat @ lam) - self.log_ref)
        return math.log(float(lam.sum())) + float((self.log_b - log_e).max())

    def rates(self, y):
        """Per-triple rates of scaled variables ``y``."""
        return self.ref[self.owner] * y[self.owner] * self.mult


def _concave_welfare_solve(index: MarketIndex) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Maximize the welfare ``W = sum_s B_s U_s(u)`` under unit capacities.

    One solve of the interior-point engine (:func:`_interior_point`, a batch
    of one) on the variables of :class:`_WelfareLayout`, whose Newton system
    is one dense ``V x V`` solve per step.  The solve stops once its
    capacity duals certify the point scaled onto the capacity frontier to
    within ``_BARRIER_STOP_GAP`` (:meth:`_WelfareLayout.log_bound`), and
    that scaled point is returned.

    Returns ``(rates, prices, gap, iterations)``: ``prices`` are the duals,
    and the optimum is at most ``1 + gap`` times the welfare at ``rates``.
    """
    lay = _WelfareLayout(index)
    amat = lay.amat

    def certified(y, lam, log_u):
        lam, usage = lam[0], amat.T @ y[0]
        top = usage.max()
        # the bound is at least 1 / (1 - lam.s / lam.1) times the welfare at
        # y (weak duality), so the scaled point cannot certify before this
        if top > (1.0 + _BARRIER_STOP_GAP) * (1.0 - lam @ (1.0 - usage) / lam.sum()):
            return np.array([False])
        log_w = lay.welfare.log_welfare(log_u)[0]
        return np.array([math.expm1(lay.log_bound(lam) - log_w + math.log(top)) <= _BARRIER_STOP_GAP])

    y, lam, it = _interior_point(lay.welfare, amat[None], np.ones((1, amat.shape[0]), dtype=bool), certified)
    y, lam = y[0] / (amat.T @ y[0]).max(), lam[0]
    log_w = lay.welfare.log_welfare(lay.welfare.utilities(y[None])[0])[0]
    gap = math.expm1(lay.log_bound(lam) - log_w)
    prices = np.zeros(index.n_goods)
    prices[lay.goods] = lam
    return lay.rates(y), prices, gap, it


def solve_social_optimal(scn: NormalizedScenario) -> SolveReport:
    """Budget-weighted utilitarian optimum ``max sum_s B_s U_s`` under the
    capacity constraints, with the degree-one aggregate utilities so values
    are comparable across alpha and against the market schemes.

    Max-min providers enter exactly through their common per-user rate level
    (``u = t n``, lossless at the optimum).  One primal-dual interior-point
    solve (see :func:`_concave_welfare_solve`) certifies itself through the
    Eisenberg-Gale price-space bound: for capacity prices ``lam >= 0``, no
    feasible allocation has welfare above ``(lam . 1) max_s B_s / e_s``,
    where ``e_s`` is provider ``s``'s unit expenditure at the prices
    ``D_s lam`` of its classes.  ``prices`` are the certifying capacity
    duals, ``residuals["duality_gap"]`` is that bound over the returned
    welfare minus 1, ``converged`` means it is at most ``SO_GAP_TOL``, and
    ``iterations`` counts Newton steps.
    """
    index = scn.index
    rates, prices, gap, iterations = _concave_welfare_solve(index)
    allocation = _rate_allocation(index, rates)
    usage = allocation.x.sum(axis=0)
    return make_report(
        scn,
        method="barrier",
        prices=prices,
        allocation=allocation,
        iterations=iterations,
        converged=gap <= SO_GAP_TOL,
        residuals={
            "capacity_gap": float(np.maximum(usage - 1.0, 0.0).max()),
            "duality_gap": gap,
        },
    )


def static_share(scn: NormalizedScenario) -> SolveReport:
    """Static proportional sharing: every provider is capped at its budget
    share of every resource and splits that box across its classes by its own
    alpha-fair optimum.

    Max-min providers take the waterfill closed form (the common per-user
    rate level); the (provider, cell) problems of all other providers are
    solved together by one batched primal-dual interior-point solve (see
    :func:`_single_sp_allocate`).  ``residuals["duality_gap"]`` is the
    largest certified relative gap of any provider's degree-one utility to
    its optimum, and ``converged`` means it is at most ``SS_GAP_TOL``;
    ``iterations`` counts Newton steps.
    """
    index = scn.index
    caps = np.repeat(index.budgets[:, None], index.n_goods, axis=1)
    rates, gaps, iterations = _single_sp_allocate(index, caps)
    allocation = _rate_allocation(index, rates)
    usage = allocation.x.sum(axis=0)
    gap = float(gaps.max())
    return make_report(
        scn,
        method="barrier",
        prices=np.zeros(index.n_goods),
        allocation=allocation,
        iterations=iterations,
        converged=gap <= SS_GAP_TOL,
        residuals={
            "capacity_gap": float(np.maximum(usage - 1.0, 0.0).max()),
            "duality_gap": gap,
        },
    )


def max_utilities(scn: NormalizedScenario) -> np.ndarray:
    """Each provider's best achievable utility when it holds every resource
    alone (the scale constants of the price-of-anarchy bound)."""
    index = scn.index
    rates, _, _ = _single_sp_allocate(index, np.ones((index.n_sps, index.n_goods)))
    return np.array([sp_utility_homog(index, rates, s) for s in range(index.n_sps)])


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
