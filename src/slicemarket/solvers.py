"""Centralized equilibrium computation and baseline allocation schemes.

``solve_eg`` computes the market equilibrium (the optimum of the
budget-weighted log-utility program whose capacity duals are the prices):
for providers all at alpha >= 1 it delegates to the provably convergent bid
dynamics; otherwise it runs projected Newton steps on the program's price
dual, whose gradient is the excess supply of the closed-form demands.
``solve_social_optimal`` and ``static_share`` are the efficiency and
isolation baselines, both solved by primal log-barrier methods that certify
their results by weak duality, and ``poa_bound`` / ``nash_welfare`` provide
the fairness/efficiency diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize  # unused here; bench/tracing.py wraps solvers.optimize
from scipy.special import logsumexp

from .dynamics import DynamicsConfig, run_dynamics
from .market import (
    Allocation,
    SolveReport,
    make_report,
    sp_utility_homog,
    verify_equilibrium,
)
from .model import MarketIndex, NormalizedScenario, normalize_scenario

#: Fairness parameter standing in for alpha=0 (degenerate linear demands)
#: inside market-equilibrium solves.
ALPHA_ZERO_SURROGATE = 1e-3


@dataclass(frozen=True)
class SolverConfig:
    method: str = "auto"  # auto | dynamics | tatonnement
    max_iterations: int = 50000
    tol: float = 1e-7

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.method not in ("auto", "dynamics", "tatonnement"):
            raise ValueError(f"unknown method {self.method!r}")


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


def solve_eg(scn: NormalizedScenario, config: SolverConfig | None = None) -> SolveReport:
    """Market-equilibrium allocation and prices.

    auto: bid dynamics when every alpha >= 1 (convergence guaranteed), a
    projected Newton price adjustment otherwise (method ``"tatonnement"``,
    see :func:`_price_newton`).  alpha=0 providers are routed through a
    smoothed alpha=1e-3 surrogate and flagged in the report.
    Deterministic: identical scenario and config give an identical report.
    The dynamics route traces the potential and prices at the end points
    only (the initial bids and the last iteration); call
    :func:`~slicemarket.dynamics.run_dynamics` directly for a full trace.
    ``converged`` rests on the absolute gaps of
    :func:`~slicemarket.market.verify_equilibrium`;
    ``residuals["br_gap_rel"]`` reports the best-response gap relative to
    the best-response utility next to them.
    """
    config = config or SolverConfig()
    method = config.method
    all_geq1 = bool(np.all(scn.index.alphas >= 1.0))
    if method == "auto":
        method = "dynamics" if all_geq1 else "tatonnement"
    if method == "dynamics":
        if not all_geq1:
            raise ValueError("dynamics method requires every alpha >= 1")
        dcfg = DynamicsConfig(
            max_iterations=config.max_iterations,
            tol=max(config.tol * 1e-2, 1e-12),
            trace_stride=config.max_iterations,
        )
        return run_dynamics(scn, dcfg)
    return _solve_tatonnement(scn, config)


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
        d[free] = _newton_direction(h, grad[free])
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


def _solve_tatonnement(scn: NormalizedScenario, config: SolverConfig) -> SolveReport:
    """Market equilibrium by projected Newton steps on the price dual
    (:func:`_price_newton`), for markets with some alpha < 1.

    alpha=0 providers run through the smoothed surrogate, reached by a
    continuation over decreasing surrogate values so the near-linear final
    stage starts from almost-equilibrium prices.  ``max_iterations`` caps the
    Newton steps of each stage; ``iterations`` counts them all.
    """
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
    # alpha=0 equilibrium does not exist); gaps at the default 1e-6
    check = verify_equilibrium(work, allocation, p, tol=max(config.tol, 1e-6))
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
# Single-provider alpha-fair allocation (static share, standalone utilities)
# ---------------------------------------------------------------------------

#: Relative duality gap up to which a static-share solve reports convergence.
SS_GAP_TOL = 1e-9

#: Relative gap at which a barrier solve stops: a (provider, cell) block of
#: a static share, or a social optimum.
_BARRIER_STOP_GAP = 1e-11

#: Newton-step cap of a barrier solve.  A static share takes 50-70 steps at
#: alpha 0-5, about 100 at alpha 10-20 and up to about 260 at alpha 100; a
#: social optimum about 140-190 steps at 7 cells, 280 at 28 and 550 at 112.
_BARRIER_MAX_STEPS = 1000


def _single_sp_allocate(index: MarketIndex, caps: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Every provider's optimal rates when it alone holds ``caps[s]`` of each
    good (``caps`` is ``[n_sps, n_goods]``).

    Max-min providers have the waterfill closed form (a common per-user level
    set by the tightest good).  For finite alpha, maximizing the degree-one
    aggregate is a monotone transform of the separable sum
    ``sum w u^(1-alpha) / (1-alpha)`` (``sum w log u`` at alpha=1), and the
    caps couple classes only within a cell, so every (provider, cell) block
    of :attr:`~slicemarket.model.MarketIndex.blocks` is an independent
    concave problem.  Each block is scaled to O(1) (rates in units of an
    equal split of its box, capacities and objective weights to one) and all
    blocks of all providers are solved together by :func:`_barrier_solve`;
    each block is then scaled up onto its capacity frontier, which can only
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

    cap = np.where(blocks.good_mask, caps[blocks.sp[:, None], blocks.goods], 1.0)
    with np.errstate(divide="ignore"):
        box = np.where(blocks.demand > 0, cap[:, None, :] / blocks.demand, np.inf).min(axis=2)
        ref = np.where(blocks.class_mask, box / blocks.class_mask.sum(axis=1)[:, None], 1.0)
        log_c = np.log(blocks.weights) + (1.0 - blocks.alphas)[:, None] * np.log(ref)
    log_norm = logsumexp(log_c, axis=1)
    c = np.exp(log_c - log_norm[:, None])
    a_mat = blocks.demand * (ref[:, :, None] / cap[:, None, :])
    z, lam, iterations = _barrier_solve(a_mat, c, blocks.alphas, blocks.class_mask)
    z /= np.einsum("bkj,bk->bj", a_mat, z).max(axis=1)[:, None]
    gap, total = _block_gap(a_mat, c, blocks.alphas, blocks.class_mask, z, lam)
    rates[blocks.rows[blocks.class_mask]] = (ref * z)[blocks.class_mask]

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


def _barrier_solve(a_mat, c, alpha, class_mask):
    """Maximize ``sum_k c_k h(z_k)`` subject to ``a_mat[b]^T z <= 1`` and
    ``z >= 0`` in every block ``b`` at once, where ``h(z) = z^(1-a) / (1-a)``
    (``log z`` at ``a = 1``) with the block's ``a = alpha[b]``.

    Primal log-barrier method (Boyd & Vandenberghe, *Convex Optimization*,
    section 11.3): minimize ``-t * objective - sum log slack - sum log z``
    by damped Newton steps (:func:`_damped_step`).  ``t`` starts where objective and
    barrier weigh alike and grows tenfold whenever a block is centered,
    until the barrier's gap bound ``n_constraints / t`` is a tenth of the
    block's tolerance.  The Newton systems of all blocks form one
    ``[n_blocks, K, K]`` solve.  The slacks are carried along the steps
    instead of being recomputed as ``1 - a z``, which keeps their relative
    precision as they approach 0 and with it the accuracy of the capacity
    duals ``1 / (t * slack)``.  A block stops once :func:`_block_gap`
    certifies it.

    Padded classes are pinned (identity Newton rows); padded goods carry no
    demand and no dual.  Returns ``(z, duals, iterations)``.
    """
    nb, nk, nm = a_mat.shape
    alpha_k = alpha[:, None]
    q = 1.0 - alpha_k
    eye = np.eye(nk)
    kmask = class_mask.astype(float)
    pinned = eye * (1.0 - kmask)[:, :, None]
    jmask = (a_mat > 0).any(axis=1)
    n_con = jmask.sum(axis=1) + class_mask.sum(axis=1)
    z = np.where(class_mask, 0.9, 1.0)
    s = 1.0 - np.einsum("bkj,bk->bj", a_mat, z)
    # start where the objective weighs about as much as the barrier:
    # t * sum c z^(1-a) = 1 at z = 0.9
    t = 0.9 ** (alpha - 1.0)
    done = np.zeros(nb, dtype=bool)
    for it in range(1, _BARRIER_MAX_STEPS + 1):
        inv_s = 1.0 / s
        zpow = np.exp(-alpha_k * np.log(z))
        tc = t[:, None] * c
        grad = np.einsum("bkj,bj->bk", a_mat, inv_s) - tc * zpow - kmask / z
        curv = tc * alpha_k * zpow / z + kmask / z**2
        hess = (a_mat * inv_s[:, None, :] ** 2) @ a_mat.transpose(0, 2, 1)
        hess += pinned + curv[:, :, None] * eye
        dz = -np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        dec = -(grad * dz).sum(axis=1)
        ds = -np.einsum("bkj,bk->bj", a_mat, dz)
        with np.errstate(divide="ignore"):
            room = np.minimum(
                np.where(dz < 0, -z / dz, np.inf).min(axis=1),
                np.where(ds < 0, -s / ds, np.inf).min(axis=1),
            )
        rz, rs = dz / z, ds / s
        zq = tc * z * zpow

        def change(step):
            lz = np.log1p(step[:, None] * rz)
            total = -(zq * _power_change(q, lz)).sum(axis=1) - (kmask * lz).sum(axis=1)
            return total - np.log1p(step[:, None] * rs).sum(axis=1)

        step = _damped_step(dec, room, done, change)
        z = z + step[:, None] * dz
        s = s + step[:, None] * ds
        lam = jmask / (t[:, None] * s)
        total = (c * np.exp(q * np.log(z))).sum(axis=1)
        final = n_con <= 0.1 * _BARRIER_STOP_GAP * t * total
        if final.any():
            gap, total = _block_gap(a_mat, c, alpha, class_mask, z, lam)
            done |= final & (gap <= _BARRIER_STOP_GAP * total)
            if done.all():
                break
        t = np.where(~done & ~final & (dec <= 0.5), 10.0 * t, t)
    return z, lam, it


def _block_gap(a_mat, c, alpha, class_mask, z, lam):
    """Certified duality gap of every block of :func:`_barrier_solve` at
    ``z``, from capacity duals ``lam >= 0``.

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
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(q == 0.0, np.expm1(x), np.expm1(np.log1p(q * x) / q))


def _damped_step(dec, room, done, change):
    """Step length of a damped Newton step of a barrier method, for one
    problem or a batch.

    The step starts at ``1 / (1 + sqrt(dec))`` while the squared decrement
    ``dec`` exceeds 1/16 (a full step below), is cut to 99% of the distance
    ``room`` to the boundary, and is halved until ``change(step)``, the
    change of the barrier function, is at most a quarter of the predicted
    ``-step * dec``; at large alpha the objective is too steep for the
    damping alone.  ``change`` must sum per-term differences so that no
    large values cancel.  Problems in ``done`` take no step.
    """
    step = np.where(dec > 1.0 / 16.0, 1.0 / (1.0 + np.sqrt(np.maximum(dec, 0.0))), 1.0)
    step = np.where(done, 0.0, np.minimum(step, 0.99 * room))
    for _ in range(60):
        short = ~(change(step) <= -0.25 * step * dec) & (dec > 1e-6) & (step > 0.0)
        if not short.any():
            break
        step = np.where(short, 0.5 * step, step)
    return step


# ---------------------------------------------------------------------------
# Social optimum
# ---------------------------------------------------------------------------

#: Relative duality gap up to which a social-optimum solve reports
#: convergence.
SO_GAP_TOL = 1e-9


class _WelfareLayout:
    """The variables of the social-optimum program and its degree-one
    utilities, in provider order.

    A finite-alpha provider contributes one rate per triple; a max-min
    provider contributes its common per-user level ``tau`` (``u = tau n``),
    which enters like a linear provider with one unit-weight variable, since
    its utility is ``tau`` itself.  ``amat[v]`` is the usage of one unit of
    variable ``v`` on every consumed good, and variables are scaled to an
    equal split of each good (``ref``) so the Newton systems stay O(1).
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
        self.log_w = np.concatenate(log_w)
        self.seg = np.array(seg, dtype=np.intp)
        self.starts = np.flatnonzero(np.r_[True, self.seg[1:] != self.seg[:-1]])
        alpha = np.array(alpha)
        self.q = 1.0 - alpha
        self.q_sp = self.q[self.starts]
        self.log_b = np.log(index.budgets)
        self.same_sp = self.seg[:, None] == self.seg[None, :]
        self.owner = np.concatenate(owner)
        self.mult = np.concatenate(mult)
        self.n_con = self.amat.shape[0] + self.amat.shape[1]
        self.alpha_sp = alpha[self.starts]
        self.cost = _UnitCost(self.log_w, alpha, self.seg)

    def _seg_sum(self, values):
        return np.bincount(self.seg, weights=values, minlength=self.starts.size)

    def utilities(self, y):
        """Log of every provider's degree-one utility at scaled variables
        ``y``, and the shares ``pi_v = w u^q / sum w u^q`` (``w / sum w``
        at alpha 1) of its terms."""
        log_u = self.log_ref + np.log(y)
        h = self.log_w + self.q * log_u
        top = np.maximum.reduceat(h, self.starts)
        e = np.exp(h - top[self.seg])
        tot = self._seg_sum(e)
        pi = e / tot[self.seg]
        with np.errstate(divide="ignore", invalid="ignore"):
            log_u_sp = np.where(
                self.q_sp == 0.0,
                self._seg_sum(pi * log_u),
                (top + np.log(tot)) / self.q_sp,
            )
        return log_u_sp, pi

    def log_welfare(self, log_u_sp):
        """Log of ``sum_s B_s U_s`` from the providers' log utilities."""
        terms = self.log_b + log_u_sp
        top = terms.max()
        return float(top + math.log(np.exp(terms - top).sum()))

    def rel_change(self, pi, log_ratio):
        """Relative change of every provider's utility when each variable
        is multiplied by ``exp(log_ratio)``, summed from per-term
        differences."""
        x = self._seg_sum(pi * _power_change(self.q, log_ratio))
        return _utility_change(self.q_sp, x)

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


def _newton_direction(hess, rhs):
    """Solution of ``hess x = rhs`` for a positive definite Newton matrix.

    On a face of optima (identical providers, say) the barrier's curvature
    across the binding constraints outgrows the curvature along the face by
    more than the floating-point range, so the matrix is singular in
    floating point and LU breaks down or returns an ascent direction.  Then
    the direction comes from the eigen-decomposition of the diagonally
    scaled matrix, with the directions whose curvature is lost in rounding
    left out.
    """
    try:
        x = np.linalg.solve(hess, rhs)
        if rhs @ x > 0.0:
            return x
    except np.linalg.LinAlgError:
        pass
    d = 1.0 / np.sqrt(np.diag(hess))
    curv, vec = np.linalg.eigh(hess * d[:, None] * d)
    keep = curv > curv.max() * rhs.size * np.finfo(float).eps
    vec = vec[:, keep]
    return d * (vec @ ((vec.T @ (d * rhs)) / curv[keep]))


def _concave_welfare_solve(index: MarketIndex) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Maximize the welfare ``W = sum_s B_s U_s(u)`` under unit capacities.

    Primal log-barrier method (Boyd & Vandenberghe, *Convex Optimization*,
    section 11.3) on the variables of :class:`_WelfareLayout`: minimize
    ``-t W - sum log slack - sum log y`` by damped Newton steps
    (:func:`_damped_step`), each one dense ``V x V`` solve
    (:func:`_newton_direction`).  Provider ``s`` adds ``-t B_s U_s a (g
    g^T - diag(pi / y^2))`` with ``g = pi / y`` to the Hessian, zero at
    alpha 0 and for max-min levels.  ``t W`` reaches
    1e13 and more, so the change of the barrier function along a step is
    summed from per-term differences.  ``t`` starts where welfare and
    barrier weigh alike and grows tenfold at each centering until ``n_con /
    (t W)`` is a tenth of the stop gap.  The slacks are carried along the
    steps, which keeps the capacity duals ``lam = 1 / (t slack)`` precise;
    the solve stops once they certify the point to within
    ``_BARRIER_STOP_GAP`` (:meth:`_WelfareLayout.log_bound`).  The last
    point is scaled up onto the capacity frontier.

    Returns ``(rates, prices, gap, iterations)``: ``prices`` are the duals,
    and the optimum is at most ``1 + gap`` times the welfare at ``rates``.
    """
    lay = _WelfareLayout(index)
    amat = lay.amat
    n_var = amat.shape[0]
    var = np.arange(n_var)
    y = np.full(n_var, 0.9)
    s = 1.0 - amat.T @ y
    log_u, pi = lay.utilities(y)
    t = math.exp(-lay.log_welfare(log_u))
    lam = 1.0 / (t * s)
    for it in range(1, _BARRIER_MAX_STEPS + 1):
        coef = np.exp(math.log(t) + lay.log_b + log_u)  # t B_s U_s
        curv = (coef * lay.alpha_sp)[lay.seg]
        g = pi / y
        grad = amat @ (1.0 / s) - coef[lay.seg] * g - 1.0 / y
        e_mat = -(curv * g)[:, None] * g * lay.same_sp
        e_mat[var, var] += (1.0 + curv * pi) / y**2
        dy = _newton_direction(e_mat + (amat / s**2) @ amat.T, -grad)
        ds = -(amat.T @ dy)
        dec = -float(grad @ dy)
        with np.errstate(divide="ignore"):
            room = min(np.where(dy < 0, -y / dy, np.inf).min(), np.where(ds < 0, -s / ds, np.inf).min())
        ry, rs = dy / y, ds / s

        def change(step):
            ly = np.log1p(step * ry)
            return -(coef * lay.rel_change(pi, ly)).sum() - ly.sum() - np.log1p(step * rs).sum()

        step = float(_damped_step(dec, room, False, change))
        y = y + step * dy
        s = s + step * ds
        log_u, pi = lay.utilities(y)
        lam = 1.0 / (t * s)
        log_w = lay.log_welfare(log_u)
        # certify the point scaled onto the capacity frontier, as returned
        if math.expm1(lay.log_bound(lam) - log_w + math.log((amat.T @ y).max())) <= _BARRIER_STOP_GAP:
            break
        final = lay.n_con <= 0.1 * _BARRIER_STOP_GAP * t * math.exp(log_w)
        if not final and dec <= 0.5:
            t *= 10.0
    y = y / (amat.T @ y).max()
    gap = math.expm1(lay.log_bound(lam) - lay.log_welfare(lay.utilities(y)[0]))
    prices = np.zeros(index.n_goods)
    prices[lay.goods] = lam
    return lay.rates(y), prices, gap, it


def solve_social_optimal(scn: NormalizedScenario, config: SolverConfig | None = None) -> SolveReport:
    """Budget-weighted utilitarian optimum ``max sum_s B_s U_s`` under the
    capacity constraints, with the degree-one aggregate utilities so values
    are comparable across alpha and against the market schemes.

    Max-min providers enter exactly through their common per-user rate level
    (``u = t n``, lossless at the optimum).  One primal barrier solve (see
    :func:`_concave_welfare_solve`) certifies itself through the
    Eisenberg-Gale price-space bound: for capacity prices ``lam >= 0``, no
    feasible allocation has welfare above ``(lam . 1) max_s B_s / e_s``,
    where ``e_s`` is provider ``s``'s unit expenditure at the prices
    ``D_s lam`` of its classes.  ``prices`` are the certifying capacity
    duals, ``residuals["duality_gap"]`` is that bound over the returned
    welfare minus 1, ``converged`` means it is at most ``SO_GAP_TOL``, and
    ``iterations`` counts Newton steps.  ``config`` is accepted for a
    uniform scheme signature and not used.
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


def static_share(scn: NormalizedScenario, config: SolverConfig | None = None) -> SolveReport:
    """Static proportional sharing: every provider is capped at its budget
    share of every resource and splits that box across its classes by its own
    alpha-fair optimum.

    Max-min providers take the waterfill closed form (the common per-user
    rate level); the (provider, cell) problems of all other providers are
    solved together by one batched barrier method (see
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


def max_utilities(scn: NormalizedScenario, config: SolverConfig | None = None) -> np.ndarray:
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
    config: SolverConfig | None = None,
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
    config = config or SolverConfig()
    if max_utils is None:
        max_utils = max_utilities(scn, config)
    max_utils = np.asarray(max_utils, dtype=float)
    if np.any(max_utils <= 0):
        raise ValueError("standalone utilities must be positive")
    if so_report is None:
        so_report = solve_social_optimal(scn, config)
    if me_report is None:
        me_report = solve_eg(scn, config)
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
