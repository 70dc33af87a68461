"""Domain model of the slicing market.

A scenario describes cells holding capacity-constrained resources, user
classes with per-unit-rate base demands, and budget-constrained service
providers (SPs) that serve class/cell pairs under an alpha-fairness
criterion.  Solvers operate on a normalized view in which every resource
capacity is rescaled to 1 and demands become fractions of the whole
resource per unit service rate; all file I/O stays in physical units.

:class:`MarketIndex` is compiled on a slot layout, one slot per good a
(provider, cell, class) triple consumes, and every sum over the slots is one
of its methods.  The solvers and their reports work on the slots; a report's
one dense ``[n_triples, n_goods]`` view, its allocation, is scattered from
them when read.
Every degree-one utility, and the unit cost of one, is a CES aggregate over a
provider's variables, evaluated by :class:`CESAggregate`.  The index keeps two:
the providers' utilities of their rates (:attr:`MarketIndex.utility`) and
their unit costs at the prices of those rates (:attr:`MarketIndex.unit_cost`).
The providers' closed-form demand, which the equilibrium solvers evaluate on
every iteration, is the unit cost's shares (:meth:`MarketIndex.rates` and
:meth:`MarketIndex.bids`, on the slots), and the Eisenberg-Gale certificate of
the market equilibrium is built from its ratios to the budgets
(:meth:`MarketIndex.log_ratios`).  The social
optimum is solved and certified on the same unit cost, and the static share's
(provider, cell) blocks (:class:`CellBlocks`) are a pure layout, certified on
the unit cost of each block's own utility (:meth:`CESAggregate.unit_cost`).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

SCHEMA_VERSION = 1

#: Budgets must sum to one within this tolerance.
BUDGET_SUM_TOL = 1e-12

#: Largest user count: the index holds counts as ``np.intp`` (int64), and a
#: larger one may not even convert to a float.
_MAX_USERS = int(np.iinfo(np.intp).max)


class ScenarioError(ValueError):
    """Raised when a scenario violates a structural invariant."""


@dataclass(frozen=True)
class ResourceDef:
    """A resource pool at one cell, capacity in native physical units."""

    name: str
    capacity: float


@dataclass(frozen=True)
class CellDef:
    id: str
    resources: tuple[ResourceDef, ...]


@dataclass(frozen=True)
class ClassDef:
    """A user class; ``demand[r]`` is the physical amount of resource ``r``
    needed per unit service rate (the base demand vector)."""

    name: str
    demand: dict[str, float]


@dataclass(frozen=True)
class SupportEntry:
    """One (cell, class) pair served by a provider.

    ``weight`` defaults to ``users ** alpha`` for finite alpha.  At infinite
    alpha the class weight is always ``users``: ``users ** alpha`` diverges,
    and the max-min form ``min u/n`` weighs classes by their population
    only, so an explicit weight has no role there.
    """

    cell: str
    klass: str
    users: int
    weight: float | None = None


@dataclass(frozen=True)
class ProviderDef:
    name: str
    budget: float
    alpha: float
    support: tuple[SupportEntry, ...]


@dataclass(frozen=True)
class ScenarioSpec:
    """A full market instance in physical units."""

    cells: tuple[CellDef, ...]
    classes: tuple[ClassDef, ...]
    sps: tuple[ProviderDef, ...]

    def with_alphas(self, alpha: float) -> "ScenarioSpec":
        """Copy with every SP's fairness parameter set to ``alpha``.

        Defaulted weights are recomputed downstream from the new alpha;
        explicit weights are kept as supplied.
        """
        return replace(self, sps=tuple(replace(sp, alpha=alpha) for sp in self.sps))

    def with_budgets(self, budgets: dict[str, float]) -> "ScenarioSpec":
        sps = tuple(replace(sp, budget=budgets[sp.name]) for sp in self.sps)
        return replace(self, sps=sps)

    def with_users(self, users: dict[tuple[str, str, str], int]) -> "ScenarioSpec":
        """Copy with user counts replaced per (sp, cell, class) key."""
        sps = []
        for sp in self.sps:
            entries = tuple(
                replace(e, users=users.get((sp.name, e.cell, e.klass), e.users))
                for e in sp.support
            )
            sps.append(replace(sp, support=entries))
        return replace(self, sps=tuple(sps))


def validate_scenario(spec: ScenarioSpec) -> None:
    """Check structural invariants; raises :class:`ScenarioError`.

    Enforced: positive capacities, positive demands on consumed resources,
    budgets summing to 1, alpha >= 0, nonnegative integer user counts of at
    most ``2**63 - 1``, positive finite explicit weights, some users for
    every provider, every supported class existing at its cell with all
    consumed resources present there.
    """
    if not spec.cells:
        raise ScenarioError("scenario has no cells")
    if not spec.sps:
        raise ScenarioError("scenario has no service providers")
    resources_at: dict[str, set[str]] = {}
    for cell in spec.cells:
        if cell.id in resources_at:
            raise ScenarioError(f"duplicate cell id {cell.id!r}")
        names = resources_at[cell.id] = set()
        for res in cell.resources:
            if res.name in names:
                raise ScenarioError(f"duplicate resource {res.name!r} at cell {cell.id!r}")
            names.add(res.name)
            if not (res.capacity > 0) or not math.isfinite(res.capacity):
                raise ScenarioError(
                    f"capacity of {res.name!r} at cell {cell.id!r} must be positive"
                )
    class_by_name: dict[str, ClassDef] = {}
    for k in spec.classes:
        if k.name in class_by_name:
            raise ScenarioError(f"duplicate class {k.name!r}")
        class_by_name[k.name] = k
        if not k.demand:
            raise ScenarioError(f"class {k.name!r} consumes no resources")
        for r, d in k.demand.items():
            if not (d > 0) or not math.isfinite(d):
                raise ScenarioError(f"class {k.name!r} demand for {r!r} must be positive")

    total_budget = 0.0
    sp_names = set()
    served: set[tuple[str, str]] = set()
    for sp in spec.sps:
        if sp.name in sp_names:
            raise ScenarioError(f"duplicate SP {sp.name!r}")
        sp_names.add(sp.name)
        if not (sp.budget > 0):
            raise ScenarioError(f"SP {sp.name!r} budget must be positive")
        total_budget += sp.budget
        if math.isnan(sp.alpha) or sp.alpha < 0:
            raise ScenarioError(f"SP {sp.name!r} alpha must be >= 0")
        seen = set()
        for e in sp.support:
            if (e.cell, e.klass) in seen:
                raise ScenarioError(
                    f"SP {sp.name!r} lists ({e.cell!r}, {e.klass!r}) twice"
                )
            seen.add((e.cell, e.klass))
            if e.klass not in class_by_name:
                raise ScenarioError(f"SP {sp.name!r} supports unknown class {e.klass!r}")
            if e.cell not in resources_at:
                raise ScenarioError(f"SP {sp.name!r} supports unknown cell {e.cell!r}")
            if e.users > _MAX_USERS:
                raise ScenarioError(
                    f"user count for ({sp.name!r}, {e.cell!r}, {e.klass!r}) exceeds {_MAX_USERS}"
                )
            if not (e.users >= 0) or e.users != int(e.users):
                raise ScenarioError(
                    f"user count for ({sp.name!r}, {e.cell!r}, {e.klass!r}) "
                    "must be a nonnegative integer"
                )
            if e.weight is not None and not (0 < e.weight < math.inf):
                raise ScenarioError(
                    f"weight for ({sp.name!r}, {e.cell!r}, {e.klass!r}) must be positive and finite"
                )
            if (e.cell, e.klass) in served:
                continue
            served.add((e.cell, e.klass))
            missing = set(class_by_name[e.klass].demand) - resources_at[e.cell]
            if missing:
                raise ScenarioError(
                    f"class {e.klass!r} needs {sorted(missing)} absent at cell {e.cell!r}"
                )
        if not any(e.users > 0 for e in sp.support):
            raise ScenarioError(f"SP {sp.name!r} serves no users")
    if abs(total_budget - 1.0) > BUDGET_SUM_TOL:
        raise ScenarioError(f"budgets sum to {total_budget!r}, expected 1")


def effective_weight(users: int, alpha: float, weight: float | None) -> float:
    """Class weight: ``users`` at alpha=inf (explicit weights included, as
    the max-min utility has no weights), else explicit if given, else
    ``users**alpha``."""
    if math.isinf(alpha):
        return float(users)
    if weight is not None:
        return float(weight)
    try:
        return float(users) ** alpha
    except OverflowError:
        raise ScenarioError(f"default weight {users}**{alpha} overflows; supply explicit weights") from None


@dataclass(frozen=True)
class MarketIndex:
    """Compiled array view of a scenario over its supported (sp, cell, class)
    triples and (cell, resource) goods, and every provider's closed-form
    demand at posted prices.

    The compiled form is the slot layout: ``slot_goods[i, r]`` is the
    ``r``-th good that triple ``i`` consumes, in increasing good order, and
    ``slot_demand[i, r]`` its normalized demand.  Rows have as many slots as
    the widest triple consumes; a shorter row is padded last with zero
    demand on the lowest-numbered goods the triple does not consume, so the
    slots of a row are distinct goods and padding carries zero spending
    (:attr:`slot_real` is False on it).  Every triple consumes only goods of
    its own cell, and the goods of a cell are contiguous.  Triples are
    grouped by provider (``sp_of`` is sorted), so per-provider reductions
    run over contiguous row segments.

    With ``PD_i = sum_r p_g d_ir`` the price of one unit rate of triple
    ``i`` (:meth:`row_prices`), a provider with budget ``B`` demands the
    rates ``B pi_i / PD_i`` (:meth:`rates`), ``pi`` the shares of its unit
    cost ``e_s`` (:attr:`unit_cost`) at ``L = PD``, the derivatives of ``log
    e_s`` by ``log L``: it spends ``B pi_i`` on triple ``i`` (:meth:`bids`),
    split over the triple's goods in proportion to ``p_g d_ig``, so the
    induced rate is uniform across the goods of a class.  ``a = 0`` has no
    closed form (a linear utility's best responses are every bundle of its
    best value per unit price): its rows get the finite placeholder ``B pi
    / PD`` with the shares of ``w L``, and every caller rejects or skips
    alpha-0 providers.

    The index holds no dense ``[n_triples, n_goods]`` array: the only
    ones, a report's ``allocation.x`` and ``bids``, are scattered from the
    slots when read (:meth:`dense`), and no solve reads them.  Capacities
    are normalized to 1; ``capacity[g]`` keeps the physical scale.
    :attr:`blocks`, :attr:`price_cells`, the aggregates :attr:`utility` and
    :attr:`unit_cost` and the per-slot and per-row arrays derived from the
    fields are built on first use.
    """

    goods: tuple[tuple[str, str], ...]
    capacity: np.ndarray
    sp_names: tuple[str, ...]
    budgets: np.ndarray
    alphas: np.ndarray
    triples: tuple[tuple[str, str, str], ...]
    sp_of: np.ndarray
    users: np.ndarray
    weights: np.ndarray
    slot_goods: np.ndarray
    slot_demand: np.ndarray

    @property
    def n_goods(self) -> int:
        return len(self.goods)

    @property
    def n_triples(self) -> int:
        return len(self.triples)

    @property
    def n_sps(self) -> int:
        return len(self.sp_names)

    def sp_rows(self, s: int) -> np.ndarray:
        return np.flatnonzero(self.sp_of == s)

    def sp_sum(self, per_triple: np.ndarray) -> np.ndarray:
        """Sum a per-triple vector into a per-SP vector."""
        return np.bincount(self.sp_of, weights=per_triple, minlength=self.n_sps)

    def demanded_goods(self) -> np.ndarray:
        """Boolean mask of goods consumed by at least one triple."""
        out = np.zeros(self.n_goods, dtype=bool)
        out[self.slot_goods[self.slot_real]] = True
        return out

    @cached_property
    def slot_real(self) -> np.ndarray:
        """Mask of the slots on consumed goods, False on padding."""
        return self.slot_demand > 0

    @cached_property
    def row_budgets(self) -> np.ndarray:
        """The budget of every triple's provider."""
        return self.budgets[self.sp_of]

    @cached_property
    def _slot_major(self) -> tuple[np.ndarray, np.ndarray]:
        # ``[s, n_triples]`` copies: a sum of whole rows, several times
        # faster than one along the short axis of ``[n_triples, s]``
        return np.ascontiguousarray(self.slot_goods.T), np.ascontiguousarray(self.slot_demand.T)

    @cached_property
    def utility(self) -> "CESAggregate":
        """Every provider's degree-one utility of its rates, ``(sum w
        u^(1-a))^(1/(1-a))`` and ``min u/n`` at ``a = inf``, built once per
        index."""
        return CESAggregate(np.log(self.weights), 1.0 - self.alphas[self.sp_of], self.sp_of)

    @cached_property
    def unit_cost(self) -> "CESAggregate":
        """Every provider's unit cost ``e_s(L)`` (:meth:`CESAggregate.unit_cost`),
        the least cost of one unit of its utility when one unit rate of triple
        ``i`` costs ``L_i``, built once per index."""
        return CESAggregate.unit_cost(self.weights, self.alphas[self.sp_of].astype(float), self.sp_of)

    def log_ratios(self, prices: np.ndarray) -> np.ndarray:
        """``log B_s - log e_s(D_s p)`` of every provider at the prices ``p
        >= 0`` of all goods: its budget over the cost of one unit of its
        utility (:attr:`unit_cost`) at the prices ``PD`` of its rates.  A
        provider whose utility costs nothing (a free row at ``a <= 1``, or
        every row free at ``a = inf``) has the ratio inf."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(self.budgets) - self.unit_cost(np.log(self.row_prices(prices)[1]))

    @cached_property
    def blocks(self) -> "CellBlocks":
        """The (provider, cell) blocks of the providers' own alpha-fair
        problems, built once per index."""
        return CellBlocks(self)

    @cached_property
    def price_cells(self) -> "PriceCells":
        """The goods grouped by cell, with the slots mapped onto them, built
        once per index."""
        return PriceCells(self)

    def row_prices(self, prices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-slot ``p_g d_ig`` and per-row price ``PD_i`` of one unit rate.
        The per-slot prices are a ``[n_triples, s]`` view of a slot-major
        array; a row's slots are added in slot order."""
        goods_t, demand_t = self._slot_major
        pd_slots = prices[goods_t] * demand_t
        return pd_slots.T, pd_slots.sum(axis=0)

    def unbounded(self, pd: np.ndarray) -> np.ndarray:
        """Per provider, whether its demand at the per-row prices ``pd`` of
        :meth:`row_prices` is unbounded: some row is free (``PD = 0``) at
        finite ``a > 0``, or every row is free at ``a = inf``.  A free row
        of an alpha-0 provider has no closed form and is not counted."""
        free = ~(pd > 0)
        bounded = (self.alphas > 0) & np.isfinite(self.alphas)
        return np.where(bounded, self.sp_sum(free) > 0, np.isinf(self.alphas) & (self.sp_sum(~free) == 0))

    def bids(self, prices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-slot spending of every provider's best response to
        ``prices``, each provider's slots summing to its budget exactly, and
        the per-row ``PD``.  A free row of a max-min provider spends
        nothing.  Raises ``ValueError`` where some provider's demand is
        unbounded (:meth:`unbounded`)."""
        pd_slots, pd = self.row_prices(prices)
        if np.all(pd > 0):
            return self.spend(pd_slots, pd), pd
        free = ~(pd > 0)
        unbounded = self.unbounded(pd)[self.sp_of] & free
        if unbounded.any():
            bad = [self.triples[i] for i in np.flatnonzero(unbounded)]
            raise ValueError(f"all-zero price row for triples {bad}")
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.spend(pd_slots, pd, free), pd

    def spend(self, pd_slots: np.ndarray, pd: np.ndarray, free: np.ndarray | None = None) -> np.ndarray:
        """:meth:`bids` from the output of :meth:`row_prices`, unchecked: the
        rates of :meth:`rates` times the slot prices, scaled so that each
        provider's slots sum to its budget.  Each provider's rows are
        computed apart from the others', so a triple with ``PD <= 0`` spoils
        its own provider's rows only.  The rows ``free``, if given, spend
        nothing, which is a max-min provider's best response on a free
        row."""
        # the unit cost's terms are the shares pi up to a factor per provider
        share = self.unit_cost.terms(np.log(pd))[1] / pd
        if free is not None:
            share[free] = 0.0
        # computed slot-major (``pd_slots`` is a view of a slot-major array)
        # and returned row-major, the order :meth:`per_good` reads
        bids = share * pd_slots.T
        bids *= (self.budgets / self.unit_cost.seg_sum(bids.sum(axis=0)))[self.sp_of]
        return np.ascontiguousarray(bids.T)

    def rates(self, pd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-row rate of every provider's best response to the per-row
        prices ``pd`` of :meth:`row_prices`, and every provider's log unit
        cost ``log e_s(PD)``, from one pass of the unit-cost aggregate.  The
        rate is ``B pi / PD``, which is ``B w / e_s`` at ``a = inf``.  On a
        row with ``PD = 0``, where ``pi / PD`` is ``0 / 0``, a max-min
        provider's rate is ``B w / e_s`` and an alpha-0 row takes 0, and a
        provider with unbounded demand (:meth:`unbounded`) gets inf on all
        its rows."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_e, pi = self.unit_cost.shares(np.log(pd))
            rate = self.row_budgets * pi / pd
            zero = ~(pd > 0)
            if zero.any():
                max_min = np.isinf(self.alphas)[self.sp_of]
                rate[zero] = np.where(max_min, self.row_budgets * self.weights * np.exp(-log_e)[self.sp_of], 0.0)[zero]
                rate[self.unbounded(pd)[self.sp_of]] = np.inf
        return rate, log_e

    def per_good(self, slot_values: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Total of the per-slot values of ``rows`` on each good (prices from
        bids, usage from per-slot consumption), added in row-major slot
        order."""
        return np.bincount(self.slot_goods[rows].ravel(), weights=slot_values[rows].ravel(), minlength=self.n_goods)

    def dense(self, slot_values: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Per-slot values of ``rows`` scattered to the public ``[n_triples,
        n_goods]`` layout, zero elsewhere."""
        out = np.zeros((self.n_triples, self.n_goods))
        out[np.arange(self.n_triples)[rows, None], self.slot_goods[rows]] = slot_values[rows]
        return out

    def gather(self, dense: np.ndarray) -> np.ndarray:
        """The per-slot values of a ``[n_triples, n_goods]`` array, the
        inverse of :meth:`dense`.  Raises ``ValueError`` on another shape
        or on a nonzero value off a triple's consumed goods, which the slots
        cannot hold."""
        dense = np.asarray(dense, dtype=float)
        if dense.shape != (self.n_triples, self.n_goods):
            raise ValueError(f"dense values have shape {dense.shape}, expected ({self.n_triples}, {self.n_goods})")
        held = np.where(self.slot_real, dense[np.arange(self.n_triples)[:, None], self.slot_goods], 0.0)
        stray = np.count_nonzero(dense, axis=1) > np.count_nonzero(held, axis=1)
        if stray.any():
            raise ValueError(f"values off the consumed goods of triples {[self.triples[i] for i in np.flatnonzero(stray)]}")
        return held


class CESAggregate:
    """The degree-one CES aggregate ``A_s(x) = (sum w x^q)^(1/q)`` of every
    segment ``s`` of positive values ``x``, in log space.

    Variables belong to contiguous segments (``seg``, sorted; results are per
    segment in order of appearance), and every variable of a segment has the
    same exponent ``q``.  ``q = 0`` is the limit ``prod x^(w / sum w)``, the
    weighted geometric mean, and ``q = -inf`` is taken as ``min x / w``.
    ``log_w`` and ``q`` are per variable, ``[..., n]``, and results per
    segment, ``[..., n_seg]``, over common leading batch axes.  A variable of
    weight 0 (``log_w = -inf``) is padding and takes no part.  Which of the
    three forms the segments use is settled here, and a call evaluates only
    those.  ``shift``, per segment, scales ``A_s`` by ``exp(shift)``.

    An alpha-fair provider's degree-one utility is the aggregate of its rates
    at ``q = 1 - a`` (:attr:`MarketIndex.utility`), and the least cost of a
    unit of it is an aggregate of the prices of its rates
    (:attr:`MarketIndex.unit_cost`).
    """

    def __init__(self, log_w: np.ndarray, q: np.ndarray, seg: np.ndarray, shift=0.0):
        new = np.concatenate(([True], seg[1:] != seg[:-1]))
        self.starts = np.flatnonzero(new)
        self.seg = np.cumsum(new) - 1
        self._flat: dict[int, np.ndarray] = {}
        self.log_w, self.shift = log_w, shift
        q = np.asarray(q, dtype=float)
        q_sp = q[..., self.starts]
        power = np.isfinite(q_sp) & (q_sp != 0.0)
        # q stays 0 on geometric segments, where the power terms' shares are
        # the normalized weights; min segments get a finite placeholder
        self.q = np.where(np.isneginf(q), 1.0, q)
        self.q_div = np.where(power, q_sp, 1.0)
        geometric = q_sp == 0.0
        # unbound methods: bound ones would make each aggregate a reference
        # cycle, freed only by the cyclic garbage collector
        forms = (
            (power, CESAggregate._power),
            (geometric, CESAggregate._geometric),
            (np.isneginf(q_sp), CESAggregate._least),
        )
        self.forms = [(mask, form) for mask, form in forms if mask.any()]
        if geometric.any():
            # the shares at x = 1, w / sum w
            _, e, tot = self.terms(np.zeros(np.shape(log_w)))
            self.w_hat = e / self.spread(tot)

    @classmethod
    def unit_cost(cls, weights: np.ndarray, alpha: np.ndarray, seg: np.ndarray) -> "CESAggregate":
        """The unit cost ``e(L)`` of every segment's alpha-fair utility ``(sum
        w u^(1-a))^(1/(1-a))``: the least cost of one unit of it when one unit
        of variable ``i`` costs ``L_i``.  It is ``(sum w^(1/a)
        L^((a-1)/a))^(a/(a-1))``, ``prod (L / w_hat)^w_hat`` with ``w_hat = w
        / sum w`` at ``a = 1`` (the geometric mean shifted by the entropy of
        ``w_hat``), ``sum w L`` at ``a = inf`` and ``min L / w`` at ``a =
        0``.  ``weights`` are per variable, ``[..., n]``, and a weight of 0 is
        padding; ``alpha`` broadcasts against them, one value per segment."""
        regular = (alpha > 0) & np.isfinite(alpha)
        a = np.where(regular, alpha, 1.0)
        expo = np.where(regular, (alpha - 1.0) / a, np.where(alpha > 0, 1.0, -np.inf))
        with np.errstate(divide="ignore"):
            cost = cls(np.log(weights) / a, expo, seg)
        w_hat = np.where(alpha == 1.0, weights / cost.spread(cost.seg_sum(weights)), 1.0)
        cost.shift = -cost.seg_sum(w_hat * np.log(np.where(w_hat > 0, w_hat, 1.0)))
        return cost

    def seg_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-segment sums of ``values`` ``[..., n]``, added in variable
        order (``np.bincount``; ``np.add.reduceat`` adds in another order),
        so that no batch member's sums depend on the batch."""
        lead, n_seg = values.shape[:-1], self.starts.size
        if not lead:
            return np.bincount(self.seg, weights=values, minlength=n_seg)
        count = math.prod(lead)
        flat = self._flat.get(count)
        if flat is None:
            flat = self._flat[count] = (np.arange(count)[:, None] * n_seg + self.seg).ravel()
        return np.bincount(flat, weights=values.ravel(), minlength=count * n_seg).reshape(lead + (n_seg,))

    def spread(self, per_seg: np.ndarray) -> np.ndarray:
        """Per-segment values ``[..., n_seg]`` on every variable of their
        segment; one problem takes the plain gather, several times faster."""
        return per_seg[self.seg] if per_seg.ndim == 1 else per_seg[..., self.seg]

    def __call__(self, log_x: np.ndarray) -> np.ndarray:
        """``log A_s`` of every segment at ``log x``."""
        return self._combine(log_x, None) + self.shift

    def shares(self, log_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``log A_s`` at ``log x`` and every variable's share ``pi = w x^q /
        sum w x^q`` of its segment's sum (``w / sum w`` at ``q = 0``), the
        derivative of ``log A_s`` by ``log x``.  On a ``min`` segment they
        are the shares of ``sum w x``, a finite placeholder that is not the
        derivative of the ``min``."""
        terms = self.terms(log_x)
        _, e, tot = terms
        return self._combine(log_x, terms) + self.shift, e / self.spread(tot)

    def _combine(self, log_x, terms):
        out = None
        for mask, form in self.forms:
            value = form(self, log_x, terms)
            out = value if out is None else np.where(mask, value, out)
        return out

    def terms(self, log_x):
        """``(top, e, total)``: the terms ``e`` of every segment's sum ``w
        x^q`` divided by its largest one ``exp(top)``, and their total."""
        h = self.log_w + self.q * log_x
        top = np.maximum.reduceat(h, self.starts, axis=-1)
        # an all-zero or all-infinite segment gives a log-sum of -inf or inf
        top = np.where(np.isfinite(top), top, 0.0)
        e = np.exp(h - self.spread(top))
        return top, e, self.seg_sum(e)

    def _power(self, log_x, terms):
        top, _, tot = terms or self.terms(log_x)
        return (top + np.log(tot)) / self.q_div

    def _geometric(self, log_x, terms):
        return self.seg_sum(self.w_hat * log_x)

    def _least(self, log_x, terms):
        return np.minimum.reduceat(log_x - self.log_w, self.starts, axis=-1)


class CellBlocks:
    """Every finite-alpha provider's classes grouped by cell, padded to a
    ``[n_blocks, K, m]`` layout on the goods of :class:`PriceCells`.

    A provider that maximizes its own alpha-fair utility inside a box of
    per-good capacities faces one independent problem per cell: its classes
    there (``rows``, at most ``K``, in triple order) share only that cell's
    goods.  Blocks are in (provider, cell) order, and ``sp[b]`` is the
    provider of block ``b``.  ``demand[b, k, j]`` is the normalized demand of
    class ``k`` of block ``b`` on the good at position ``j`` of its cell
    (:attr:`PriceCells.pos`), scattered from the slots.  Padded classes
    (``class_mask`` False, ``rows`` 0), padded positions and goods that none
    of the block's classes consumes carry zero demand.  Max-min providers
    have no blocks: their common per-user level couples all their cells.
    The blocks are a layout only: the static share certifies them on the
    unit cost of each block's own utility.
    """

    def __init__(self, index: MarketIndex):
        cells = index.price_cells
        rows = np.flatnonzero(np.isfinite(index.alphas)[index.sp_of])
        slot_goods = index.slot_goods[rows]
        key = index.sp_of[rows] * cells.n_cells + cells.cell[slot_goods[:, 0]]
        keys, block = np.unique(key, return_inverse=True)
        n_blocks = keys.size
        # a row's place in its block: rows are taken in triple order
        count = np.bincount(block, minlength=n_blocks)
        by_block = np.argsort(block, kind="stable")
        place = np.empty_like(block)
        place[by_block] = np.arange(rows.size) - (np.cumsum(count) - count)[block[by_block]]
        n_k = int(count.max(initial=1))
        self.sp = (keys // cells.n_cells).astype(np.intp)
        self.rows = np.zeros((n_blocks, n_k), dtype=np.intp)
        self.class_mask = np.zeros((n_blocks, n_k), dtype=bool)
        self.rows[block, place] = rows
        self.class_mask[block, place] = True
        # a padding slot may point into another cell, so only real slots are laid out
        i, r = np.nonzero(index.slot_demand[rows] > 0)
        self.demand = np.zeros((n_blocks, n_k, cells.m))
        self.demand[block[i], place[i], cells.pos[slot_goods[i, r]]] = index.slot_demand[rows[i], r]
        self.weights = np.where(self.class_mask, index.weights[self.rows], 0.0)
        self.alphas = index.alphas[self.sp].astype(float)


class PriceCells:
    """The goods of a market grouped by cell, padded to an ``[n_cells, m]``
    layout, with the slots of the index mapped onto it.

    ``cell[g]`` is the cell of good ``g`` (cells without goods are not
    counted) and ``pos[g]`` its position there; ``good[c, j]`` is the good at
    position ``j`` of cell ``c`` (``mask`` False on padding, which points at
    good 0) and ``flat[g]`` the flat ``[n_cells, m]`` position of good
    ``g``.  Every triple consumes only goods of its own cell, so ``D^T
    diag(c) D`` is block-diagonal by cell for any per-triple ``c``.
    ``pair[i, r, r']`` is the flat ``[n_cells, m, m]`` position of slot pair
    ``(r, r')`` of triple ``i`` and ``slot[i, r]`` the flat ``[n_cells, m, 1
    + n_seg]`` position of slot ``r`` in the column of the triple's
    provider, column 0 being left for one more per-good value.  A padding
    slot sits in the triple's cell at the position its good has in its own
    cell; it carries zero demand, so it adds nothing there.
    """

    def __init__(self, index: MarketIndex):
        names = [c for c, _ in index.goods]
        new = np.array([True] + [a != b for a, b in zip(names[1:], names)])
        self.cell = np.cumsum(new) - 1
        self.pos = np.arange(index.n_goods) - np.flatnonzero(new)[self.cell]
        self.n_cells, self.m = int(new.sum()), int(self.pos.max()) + 1
        self.good = np.zeros((self.n_cells, self.m), dtype=np.intp)
        self.mask = np.zeros((self.n_cells, self.m), dtype=bool)
        self.good[self.cell, self.pos] = np.arange(index.n_goods)
        self.mask[self.cell, self.pos] = True
        self.flat = self.cell * self.m + self.pos
        self.n_seg = index.n_sps
        goods = index.slot_goods
        # slot 0 of every row is a consumed good, so in the triple's cell
        at = self.cell[goods[:, :1]] * self.m + self.pos[goods]
        self.pair = at[:, :, None] * self.m + self.pos[goods][:, None, :]
        self.slot = at * (1 + self.n_seg) + 1 + index.sp_of[:, None]


@dataclass(frozen=True)
class NormalizedScenario:
    """A validated scenario plus its compiled normalized index."""

    spec: ScenarioSpec
    index: MarketIndex


def normalize_scenario(spec: ScenarioSpec) -> NormalizedScenario:
    """Validate and compile ``spec`` into its normalized form.

    Demands become ``d' = d / C`` (fraction of the whole resource per unit
    rate) so the trading-post fractional shares and capacity constraints
    live on the same scale.  Support triples with zero users are dropped
    from the index (they would put zero weights inside logarithms).
    """
    validate_scenario(spec)

    goods: list[tuple[str, str]] = []
    cap: list[float] = []
    good_at: dict[str, dict[str, int]] = {}
    for cell in spec.cells:
        at = good_at[cell.id] = {}
        for res in cell.resources:
            at[res.name] = len(goods)
            goods.append((cell.id, res.name))
            cap.append(res.capacity)

    # the slots of every (cell, class) pair served, flattened in pair order
    pairs: dict[tuple[str, str], int] = {}
    flat_pair: list[int] = []
    flat_goods: list[int] = []
    flat_demand: list[float] = []
    triples: list[tuple[str, str, str]] = []
    sp_of: list[int] = []
    users: list[int] = []
    weights: list[float] = []
    pair_of: list[int] = []
    demands = {k.name: tuple(k.demand.items()) for k in spec.classes}
    for s, sp in enumerate(spec.sps):
        for e in sp.support:
            if e.users == 0:
                continue
            key = (e.cell, e.klass)
            pair = pairs.get(key)
            if pair is None:
                pair = pairs[key] = len(pairs)
                at = good_at[e.cell]
                for r, d in demands[e.klass]:
                    flat_pair.append(pair)
                    flat_goods.append(at[r])
                    flat_demand.append(d)
            triples.append((sp.name, *key))
            sp_of.append(s)
            users.append(e.users)
            weights.append(effective_weight(e.users, sp.alpha, e.weight))
            pair_of.append(pair)

    capacity = np.array(cap)
    # each pair's goods in increasing order, in the columns of its row
    order = np.lexsort((flat_goods, flat_pair))
    entry_pair = np.array(flat_pair, dtype=np.intp)[order]
    entry_good = np.array(flat_goods, dtype=np.intp)[order]
    width = np.bincount(entry_pair)
    column = np.arange(entry_pair.size) - (np.cumsum(width) - width)[entry_pair]
    pair_goods = np.zeros((width.size, width.max()), dtype=np.intp)
    pair_demand = np.zeros(pair_goods.shape)
    pair_goods[entry_pair, column] = entry_good
    pair_demand[entry_pair, column] = np.array(flat_demand)[order] / capacity[entry_good]
    # padding slot j of a row is the (j+1)-th lowest good the row does not
    # consume: step past each consumed good at or below the candidate
    slots = np.arange(pair_goods.shape[1])
    real = slots < width[:, None]
    pad = slots - width[:, None]
    for r in slots:
        pad += real[:, r : r + 1] & (pair_goods[:, r : r + 1] <= pad)
    pair_goods = np.where(real, pair_goods, pad)
    pair_of = np.array(pair_of, dtype=np.intp)
    slot_goods, slot_demand = pair_goods[pair_of], pair_demand[pair_of]
    index = MarketIndex(
        goods=tuple(goods),
        capacity=_frozen(capacity),
        sp_names=tuple(sp.name for sp in spec.sps),
        budgets=_frozen(np.array([sp.budget for sp in spec.sps])),
        alphas=_frozen(np.array([sp.alpha for sp in spec.sps])),
        triples=tuple(triples),
        sp_of=_frozen(np.array(sp_of, dtype=np.intp)),
        users=_frozen(np.array(users, dtype=np.intp)),
        weights=_frozen(np.array(weights)),
        slot_goods=_frozen(slot_goods),
        slot_demand=_frozen(slot_demand),
    )
    idle = ~index.demanded_goods()
    if idle.any():
        names = [goods[g] for g in np.flatnonzero(idle)]
        warnings.warn(f"resources demanded by no SP are ignored: {names}", stacklevel=2)
    return NormalizedScenario(spec=spec, index=index)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# JSON serialization (schema_version 1)
# ---------------------------------------------------------------------------

def _alpha_to_json(alpha: float):
    return "inf" if math.isinf(alpha) else alpha


def _alpha_from_json(value) -> float:
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ScenarioError(f"unrecognized alpha value {value!r}")
    return float(value)


def _users_from_json(entry) -> int:
    """A support entry's user count; a fractional count is an error, never
    truncated."""
    value = entry["users"]
    if isinstance(value, float) and not value.is_integer():
        raise ScenarioError(f"user count {value!r} at ({entry['cell']!r}, {entry['class']!r}) is not an integer")
    return int(value)


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "cells": [
            {
                "id": c.id,
                "resources": [{"name": r.name, "capacity": r.capacity} for r in c.resources],
            }
            for c in spec.cells
        ],
        "classes": [{"name": k.name, "demand": dict(k.demand)} for k in spec.classes],
        "sps": [
            {
                "name": sp.name,
                "budget": sp.budget,
                "alpha": _alpha_to_json(sp.alpha),
                "support": [
                    {
                        "cell": e.cell,
                        "class": e.klass,
                        "users": e.users,
                        **({"weight": e.weight} if e.weight is not None else {}),
                    }
                    for e in sp.support
                ],
            }
            for sp in spec.sps
        ],
    }


def scenario_from_dict(doc: dict) -> ScenarioSpec:
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")
    try:
        cells = tuple(
            CellDef(
                id=str(c["id"]),
                resources=tuple(
                    ResourceDef(name=str(r["name"]), capacity=float(r["capacity"]))
                    for r in c["resources"]
                ),
            )
            for c in doc["cells"]
        )
        classes = tuple(
            ClassDef(
                name=str(k["name"]),
                demand={str(r): float(d) for r, d in k["demand"].items()},
            )
            for k in doc["classes"]
        )
        sps = tuple(
            ProviderDef(
                name=str(sp["name"]),
                budget=float(sp["budget"]),
                alpha=_alpha_from_json(sp["alpha"]),
                support=tuple(
                    SupportEntry(
                        cell=str(e["cell"]),
                        klass=str(e["class"]),
                        users=_users_from_json(e),
                        weight=float(e["weight"]) if "weight" in e else None,
                    )
                    for e in sp["support"]
                ),
            )
            for sp in doc["sps"]
        )
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"malformed scenario document: {exc}") from exc
    return ScenarioSpec(cells=cells, classes=classes, sps=sps)


def save_scenario(spec: ScenarioSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(spec), fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_scenario(path) -> ScenarioSpec:
    with open(path, encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))
