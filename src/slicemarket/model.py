"""Domain model of the slicing market.

A scenario describes cells holding capacity-constrained resources, user
classes with per-unit-rate base demands, and budget-constrained service
providers (SPs) that serve class/cell pairs under an alpha-fairness
criterion.  Solvers operate on a normalized view in which every resource
capacity is rescaled to 1 and demands become fractions of the whole
resource per unit service rate; all file I/O stays in physical units.

:class:`MarketIndex` exposes that view as dense ``[n_triples, n_goods]``
arrays, the layout every public function takes and returns.  The providers'
closed-form demand, which the equilibrium solvers evaluate on every
iteration, runs in :class:`DemandKernel` on an internal compact layout with
one slot per consumed good.
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

    def class_by_name(self, name: str) -> ClassDef:
        for k in self.classes:
            if k.name == name:
                return k
        raise KeyError(name)

    def cell_by_id(self, cell_id: str) -> CellDef:
        for c in self.cells:
            if c.id == cell_id:
                return c
        raise KeyError(cell_id)

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
    budgets summing to 1, alpha >= 0, nonnegative integer user counts,
    every supported class existing at its cell with all consumed resources
    present there.
    """
    if not spec.cells:
        raise ScenarioError("scenario has no cells")
    if not spec.sps:
        raise ScenarioError("scenario has no service providers")
    seen_cells: set[str] = set()
    for cell in spec.cells:
        if cell.id in seen_cells:
            raise ScenarioError(f"duplicate cell id {cell.id!r}")
        seen_cells.add(cell.id)
        names = set()
        for res in cell.resources:
            if res.name in names:
                raise ScenarioError(f"duplicate resource {res.name!r} at cell {cell.id!r}")
            names.add(res.name)
            if not (res.capacity > 0) or not math.isfinite(res.capacity):
                raise ScenarioError(
                    f"capacity of {res.name!r} at cell {cell.id!r} must be positive"
                )
    class_names = set()
    for k in spec.classes:
        if k.name in class_names:
            raise ScenarioError(f"duplicate class {k.name!r}")
        class_names.add(k.name)
        if not k.demand:
            raise ScenarioError(f"class {k.name!r} consumes no resources")
        for r, d in k.demand.items():
            if not (d > 0) or not math.isfinite(d):
                raise ScenarioError(f"class {k.name!r} demand for {r!r} must be positive")

    total_budget = 0.0
    sp_names = set()
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
            if e.klass not in class_names:
                raise ScenarioError(f"SP {sp.name!r} supports unknown class {e.klass!r}")
            if e.cell not in seen_cells:
                raise ScenarioError(f"SP {sp.name!r} supports unknown cell {e.cell!r}")
            if e.users < 0 or e.users != int(e.users):
                raise ScenarioError(
                    f"user count for ({sp.name!r}, {e.cell!r}, {e.klass!r}) "
                    "must be a nonnegative integer"
                )
            if e.weight is not None and not (e.weight > 0):
                raise ScenarioError(
                    f"weight for ({sp.name!r}, {e.cell!r}, {e.klass!r}) must be positive"
                )
            cell = spec.cell_by_id(e.cell)
            have = {r.name for r in cell.resources}
            demand = spec.class_by_name(e.klass).demand
            missing = set(demand) - have
            if missing:
                raise ScenarioError(
                    f"class {e.klass!r} needs {sorted(missing)} absent at cell {e.cell!r}"
                )
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
    w = float(users) ** alpha
    if not math.isfinite(w):
        raise ScenarioError(
            f"default weight {users}**{alpha} overflows; supply explicit weights"
        )
    return w


@dataclass(frozen=True)
class MarketIndex:
    """Compiled array view of a scenario over its supported (sp, cell, class)
    triples and (cell, resource) goods.

    The public view is dense: bid tensors, allocations and demand matrices
    are ``[n_triples, n_goods]`` arrays, zero outside each triple's consumed
    goods.  Capacities are normalized to 1; ``capacity[g]`` keeps the
    physical scale for denormalization.  Triples are grouped by provider
    (``sp_of`` is sorted).  :attr:`kernel` holds the closed-form provider
    demand on an internal compact layout, built on first use.
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
    demand: np.ndarray
    consumed: np.ndarray

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
        return self.consumed.any(axis=0)

    @cached_property
    def kernel(self) -> "DemandKernel":
        """The providers' closed-form demand, built once per index."""
        return DemandKernel(self)

    @cached_property
    def blocks(self) -> "CellBlocks":
        """The (provider, cell) blocks of the providers' own alpha-fair
        problems, built once per index."""
        return CellBlocks(self)


class DemandKernel:
    """Every provider's closed-form demand at posted prices, on a compact
    slot layout.

    Slot ``(i, r)`` is the ``r``-th good consumed by triple ``i``: ``goods``
    holds its good index and ``demand`` its normalized demand.  Rows have as
    many slots as the widest triple consumes; shorter rows are padded with
    zero demand on goods the triple does not consume, so padded slots carry
    zero spending.  Per-provider reductions run over the contiguous row
    segments of ``sp_of``.

    With ``PD_i = sum_r p_g d_ir``, a provider with budget ``B`` and fairness
    ``a`` spends ``B * omega_i / sum omega`` on triple ``i``, where ``omega =
    w^(1/a) PD^((a-1)/a)`` (``w * PD`` at ``a = inf``), split over the
    triple's goods in proportion to ``p_g d_ig``; the induced rate is uniform
    across the goods of a class.  The softmax runs in log space so sharp
    concentration at small ``a`` stays finite.  ``a = 0`` has no closed form:
    its rows get the ``a = inf`` coefficients as a finite placeholder, and
    every caller rejects or skips alpha-0 providers.

    Every sum adds the same terms in the same order as numpy does on the
    dense layout (see :func:`_dense_sum_order`), so for triples consuming up
    to three goods the results equal the dense evaluation's bit for bit.
    That keeps the bid dynamics, which stop on a relative price change of
    1e-9 or less, on the iteration counts and prices of the dense code.
    """

    def __init__(self, index: MarketIndex):
        counts = index.consumed.sum(axis=1)
        # consumed goods first, in increasing good order, then padding
        goods = np.argsort(~index.consumed, axis=1, kind="stable")[:, : int(counts.max())]
        self.goods = _dense_sum_order(goods, counts, index.n_goods)
        self.demand = np.take_along_axis(index.demand, self.goods, axis=1)
        self.n_goods, self.n_triples = index.n_goods, index.n_triples
        self.row_ids = np.arange(index.n_triples)[:, None]
        self.triples = index.triples

        alpha = index.alphas[index.sp_of].astype(float)
        regular = np.isfinite(alpha) & (alpha > 0)
        log_w = np.log(index.weights)
        self.log_w_a = np.divide(log_w, alpha, out=log_w.copy(), where=regular)
        self.expo = np.divide(alpha - 1.0, alpha, out=np.ones_like(alpha), where=regular)
        # rows served at a common per-user level (a = inf, and the a = 0
        # placeholders)
        self.level = ~regular
        sps, self.starts = np.unique(index.sp_of, return_index=True)
        self.seg = np.searchsorted(sps, index.sp_of)
        self.budgets = index.budgets[sps]
        self.row_budgets = index.budgets[index.sp_of]

    def row_prices(self, prices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-slot ``p_g d_ig`` and per-row price ``PD_i`` of one unit rate."""
        pd_slots = prices[self.goods] * self.demand
        return pd_slots, pd_slots.sum(axis=1)

    def bids(self, prices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-slot spending of every provider's best response to
        ``prices``, each provider's slots summing to its budget exactly, and
        the per-row ``PD``.  Raises ``ValueError`` when some triple sees only
        zero prices (its demand is unbounded)."""
        pd_slots, pd = self.row_prices(prices)
        if not np.all(pd > 0):
            bad = [self.triples[i] for i in np.flatnonzero(~(pd > 0))]
            raise ValueError(f"all-zero price row for triples {bad}")
        return self.spend(pd_slots, pd), pd

    def spend(self, pd_slots: np.ndarray, pd: np.ndarray) -> np.ndarray:
        """:meth:`bids` from the output of :meth:`row_prices`, unchecked.
        Each provider's rows are computed apart from the others', so a
        triple with ``PD <= 0`` spoils its own provider's rows only."""
        log_omega = self.log_w_a + self.expo * np.log(pd)
        omega = np.exp(log_omega - np.maximum.reduceat(log_omega, self.starts)[self.seg])
        b_ck = self.row_budgets * omega / self._sp_sum(omega)[self.seg]
        bids = (b_ck / pd)[:, None] * pd_slots
        bids *= (self.budgets / self._sp_sum(bids.sum(axis=1)))[self.seg, None]
        return bids

    def rates(self, pd: np.ndarray) -> np.ndarray:
        """Per-row rate of every provider's best response to the per-row
        prices ``pd`` of :meth:`row_prices`: ``B omega / (PD sum omega)``,
        which is ``B w / sum w PD`` at ``a = inf`` and stays finite on a row
        with ``PD = 0`` there.  A provider with unbounded demand (a row with
        ``PD = 0`` at finite ``a``, or all rows at ``a = inf``) gets inf on
        all its rows."""
        priced = pd > 0
        log_pd = np.log(np.where(priced, pd, 1.0))
        log_omega = np.where(priced, self.log_w_a + self.expo * log_pd, -np.inf)
        top = np.maximum.reduceat(log_omega, self.starts)
        free = np.isneginf(top) | (self._sp_sum(~priced & ~self.level) > 0)
        top = np.where(free, 0.0, top)
        with np.errstate(divide="ignore", over="ignore"):
            lse = top + np.log(self._sp_sum(np.exp(log_omega - top[self.seg])))
            rate = self.row_budgets * np.exp(self.log_w_a + (self.expo - 1.0) * log_pd - lse[self.seg])
        return np.where(free[self.seg], np.inf, rate)

    def _sp_sum(self, per_row: np.ndarray) -> np.ndarray:
        # bincount adds in row order, as MarketIndex.sp_sum does;
        # np.add.reduceat sums pairwise and would change the last bits
        return np.bincount(self.seg, weights=per_row, minlength=self.budgets.size)

    def per_good(self, slot_values: np.ndarray) -> np.ndarray:
        """Total of per-slot values on each good (prices from bids, usage
        from per-slot consumption)."""
        return np.bincount(self.goods.ravel(), weights=slot_values.ravel(), minlength=self.n_goods)

    def dense(self, slot_values: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Per-slot values of ``rows`` scattered to the public ``[n_triples,
        n_goods]`` layout, zero elsewhere."""
        out = np.zeros((self.n_triples, self.n_goods))
        out[self.row_ids[rows], self.goods[rows]] = slot_values[rows]
        return out


class CellBlocks:
    """Every finite-alpha provider's classes grouped by cell, padded to a
    ``[n_blocks, K, m]`` layout.

    A provider that maximizes its own alpha-fair utility inside a box of
    per-good capacities faces one independent problem per cell: its classes
    there (``rows``, at most ``K``) share only that cell's goods (``goods``,
    at most ``m``).  ``demand[b, k, j]`` is the normalized demand of class
    ``k`` of block ``b`` on its good ``j``.  Padded classes
    (``class_mask`` False) and padded goods (``good_mask`` False) carry zero
    demand; padding indices point at row or good 0.  Max-min providers have
    no blocks: their common per-user level couples all their cells.
    """

    def __init__(self, index: MarketIndex):
        members: dict[tuple[int, str], list[int]] = {}
        for i, s in enumerate(index.sp_of):
            if math.isfinite(index.alphas[s]):
                members.setdefault((int(s), index.triples[i][1]), []).append(i)
        groups = list(members.values())
        used = [np.flatnonzero(index.consumed[g].any(axis=0)) for g in groups]
        n_k = max((len(g) for g in groups), default=1)
        n_m = max((len(g) for g in used), default=1)
        self.sp = np.array([s for s, _ in members], dtype=np.intp)
        self.rows = np.zeros((len(groups), n_k), dtype=np.intp)
        self.class_mask = np.zeros((len(groups), n_k), dtype=bool)
        self.goods = np.zeros((len(groups), n_m), dtype=np.intp)
        self.good_mask = np.zeros((len(groups), n_m), dtype=bool)
        for b, (rows, goods) in enumerate(zip(groups, used)):
            self.rows[b, : len(rows)] = rows
            self.class_mask[b, : len(rows)] = True
            self.goods[b, : len(goods)] = goods
            self.good_mask[b, : len(goods)] = True
        self.demand = np.where(
            self.class_mask[:, :, None] & self.good_mask[:, None, :],
            index.demand[self.rows[:, :, None], self.goods[:, None, :]],
            0.0,
        )
        self.weights = np.where(self.class_mask, index.weights[self.rows], 0.0)
        self.alphas = index.alphas[self.sp].astype(float)


@dataclass(frozen=True)
class NormalizedScenario:
    """A validated scenario plus its compiled normalized index."""

    spec: ScenarioSpec
    index: MarketIndex

    def denormalize_allocation(self, x: np.ndarray) -> np.ndarray:
        """Fractional allocation [n_triples, n_goods] back to physical units."""
        return x * self.index.capacity[None, :]


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
    good_pos: dict[tuple[str, str], int] = {}
    for cell in spec.cells:
        for res in cell.resources:
            good_pos[(cell.id, res.name)] = len(goods)
            goods.append((cell.id, res.name))
            cap.append(res.capacity)

    triples: list[tuple[str, str, str]] = []
    sp_of: list[int] = []
    users: list[int] = []
    weights: list[float] = []
    rows: list[np.ndarray] = []
    G = len(goods)
    for s, sp in enumerate(spec.sps):
        for e in sp.support:
            if e.users == 0:
                continue
            row = np.zeros(G)
            demand = spec.class_by_name(e.klass).demand
            for rname, d in demand.items():
                g = good_pos[(e.cell, rname)]
                row[g] = d / cap[g]
            triples.append((sp.name, e.cell, e.klass))
            sp_of.append(s)
            users.append(e.users)
            weights.append(effective_weight(e.users, sp.alpha, e.weight))
            rows.append(row)

    if not triples:
        raise ScenarioError("no supported (sp, cell, class) triple has users")

    demand_mat = np.array(rows)
    index = MarketIndex(
        goods=tuple(goods),
        capacity=_frozen(np.array(cap)),
        sp_names=tuple(sp.name for sp in spec.sps),
        budgets=_frozen(np.array([sp.budget for sp in spec.sps])),
        alphas=_frozen(np.array([sp.alpha for sp in spec.sps])),
        triples=tuple(triples),
        sp_of=_frozen(np.array(sp_of, dtype=np.intp)),
        users=_frozen(np.array(users, dtype=np.intp)),
        weights=_frozen(np.array(weights)),
        demand=_frozen(demand_mat),
        consumed=_frozen(demand_mat > 0),
    )
    idle = ~index.demanded_goods()
    if idle.any():
        names = [goods[g] for g in np.flatnonzero(idle)]
        warnings.warn(f"resources demanded by no SP are ignored: {names}", stacklevel=2)
    return NormalizedScenario(spec=spec, index=index)


def _dense_sum_order(goods: np.ndarray, counts: np.ndarray, n_goods: int) -> np.ndarray:
    """Order the slots of three-good rows so that summing a row left to right
    associates the terms as numpy's pairwise sum over the dense row does.

    A sum of two terms is exact in either order, so only rows with three
    consumed goods need this; which pair the dense sum adds first is found
    by probing it.  Rows with four or more goods keep increasing good order.
    """
    three = np.flatnonzero(counts == 3)
    if three.size == 0:
        return goods
    keys, inverse = np.unique(goods[three, :3], axis=0, return_inverse=True)
    at = np.arange(len(keys))
    lone = np.zeros(len(keys), dtype=np.intp)
    for k in range(3):
        probe = np.zeros((len(keys), n_goods))
        probe[at[:, None], keys] = 2.0 ** -53
        probe[at, keys[:, k]] = 1.0
        # (1 + h) + h rounds back to 1; 1 + (h + h) does not
        lone[probe.sum(axis=1) != 1.0] = k
    order = (lone[:, None] + np.array([1, 2, 0])) % 3
    out = goods.copy()
    out[three, :3] = np.take_along_axis(keys, order, axis=1)[inverse.reshape(-1)]
    return out


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
                        users=int(e["users"]),
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
