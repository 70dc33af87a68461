"""Reproducible scenario construction: the seven-cell benchmark preset,
randomized user-load instance families, and budget sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    CellDef,
    ClassDef,
    ProviderDef,
    ResourceDef,
    ScenarioSpec,
    SupportEntry,
)

#: (CPU units, RAM Gb, BW MHz) per unit service rate.
PRESET_CLASS_DEMANDS = {
    "bw-intensive": (1.0, 8.0, 10.0),
    "cpu-intensive": (4.0, 8.0, 3.0),
    "ram-intensive": (1.0, 32.0, 3.0),
    "balanced": (5.0, 40.0, 5.0),
}

PRESET_CAPACITIES = {"cpu": 30.0, "ram": 126.0, "bw": 40.0}

PRESET_SUPPORT = {
    "SP1": ("bw-intensive", "balanced"),
    "SP2": ("cpu-intensive", "balanced"),
    "SP3": ("ram-intensive", "balanced"),
}


def benchmark_preset(n_cells: int = 7, users: int = 0) -> ScenarioSpec:
    """The benchmark scenario: seven cells with (CPU 30, RAM 126 Gb, BW 40
    MHz) each, four service classes, three equal-budget providers supporting
    two classes apiece.  User counts default to 0, to be filled by a
    :class:`LoadModel` draw."""
    cells = tuple(
        CellDef(
            id=f"cell{c + 1}",
            resources=tuple(ResourceDef(name=r, capacity=cap) for r, cap in PRESET_CAPACITIES.items()),
        )
        for c in range(n_cells)
    )
    classes = tuple(
        ClassDef(name=k, demand={"cpu": d[0], "ram": d[1], "bw": d[2]})
        for k, d in PRESET_CLASS_DEMANDS.items()
    )
    sps = tuple(
        ProviderDef(
            name=name,
            budget=1.0 / 3.0,
            alpha=1.0,
            support=tuple(
                SupportEntry(cell=c.id, klass=k, users=users) for c in cells for k in klasses
            ),
        )
        for name, klasses in PRESET_SUPPORT.items()
    )
    return ScenarioSpec(cells=cells, classes=classes, sps=sps)


@dataclass(frozen=True)
class LoadModel:
    """Per-(sp, cell, class) user-load distribution: a truncated, rounded
    normal.  ``variance`` is read as sigma squared unless
    ``variance_is_sigma`` is set."""

    mean: float = 100.0
    variance: float = 50.0
    variance_is_sigma: bool = False
    floor: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("mean", "variance"):
            value = getattr(self, name)
            if not math.isfinite(value):  # a NaN draw casts to a meaningless user count
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.mean > 0:
            raise ValueError("mean must be positive")
        if self.variance < 0:
            raise ValueError("variance must be nonnegative")
        if self.floor < 0:
            raise ValueError("floor must be nonnegative")

    @property
    def sigma(self) -> float:
        return self.variance if self.variance_is_sigma else float(np.sqrt(self.variance))

    def draw(self, instance: int, count: int) -> np.ndarray:
        """User counts for one instance; deterministic per (seed, instance),
        independent of batch composition."""
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, instance)))
        raw = rng.normal(self.mean, self.sigma, size=count)
        return np.maximum(np.rint(raw), self.floor).astype(int)


def instantiate(template: ScenarioSpec, load: LoadModel, instance: int) -> ScenarioSpec:
    """Fill a template's user counts from the load model."""
    keys = [
        (sp.name, e.cell, e.klass) for sp in template.sps for e in sp.support
    ]
    counts = load.draw(instance, len(keys))
    return template.with_users(dict(zip(keys, (int(n) for n in counts))))


def generate_instances(
    template: ScenarioSpec, load: LoadModel, count: int
) -> list[ScenarioSpec]:
    """``count`` independent instances; instance ``k`` depends only on
    (seed, k), so a batch equals the union of its singletons."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [instantiate(template, load, k) for k in range(count)]


def budget_sweep(template: ScenarioSpec, sp: str, fractions) -> list[ScenarioSpec]:
    """Give ``sp`` each budget fraction in turn, splitting the remainder
    equally among the other providers."""
    names = [p.name for p in template.sps]
    if sp not in names:
        raise KeyError(sp)
    others = [n for n in names if n != sp]
    out = []
    for f in fractions:
        if not 0.0 < f < 1.0:
            raise ValueError(f"budget fraction {f} outside (0, 1)")
        budgets = {n: (1.0 - f) / len(others) for n in others}
        budgets[sp] = float(f)
        out.append(template.with_budgets(budgets))
    return out


def random_scenario(
    rng: np.random.Generator,
    n_sps: int = 3,
    n_cells: int = 2,
    n_resources: int = 3,
    alphas=None,
    classes_per_sp: int = 2,
    max_users: int = 3,
) -> ScenarioSpec:
    """A small random market for property tests and acceptance batches.

    Demands are drawn so per-class standalone rates are O(1) and every
    resource is consumed by several classes; budgets are a random point of
    the simplex; each provider serves ``classes_per_sp`` random classes at
    every cell.
    """
    alphas = list(alphas) if alphas is not None else [1.0, 1.5, 2.0, 5.0]
    capacities = rng.uniform(10.0, 100.0, size=n_resources)
    cells = tuple(
        CellDef(
            id=f"c{c}",
            resources=tuple(
                ResourceDef(name=f"r{r}", capacity=float(capacities[r]))
                for r in range(n_resources)
            ),
        )
        for c in range(n_cells)
    )
    n_classes = max(classes_per_sp + 1, 3)
    classes = []
    for k in range(n_classes):
        # fractions of the whole resource per unit rate, so standalone
        # per-class rates land in roughly [2.5, 20]
        frac = rng.uniform(0.05, 0.4, size=n_resources)
        classes.append(
            ClassDef(
                name=f"k{k}",
                demand={f"r{r}": float(frac[r] * capacities[r]) for r in range(n_resources)},
            )
        )
    budgets = rng.dirichlet(np.full(n_sps, 5.0))
    sps = []
    for s in range(n_sps):
        klasses = rng.choice(n_classes, size=classes_per_sp, replace=False)
        support = tuple(
            SupportEntry(cell=c.id, klass=f"k{k}", users=int(rng.integers(1, max_users + 1)))
            for c in cells
            for k in sorted(klasses)
        )
        sps.append(
            ProviderDef(
                name=f"sp{s}",
                budget=float(budgets[s]),
                alpha=float(rng.choice(alphas)),
                support=support,
            )
        )
    total = sum(sp.budget for sp in sps)
    sps[-1] = ProviderDef(
        name=sps[-1].name,
        budget=1.0 - (total - sps[-1].budget),
        alpha=sps[-1].alpha,
        support=sps[-1].support,
    )
    return ScenarioSpec(cells=cells, classes=tuple(classes), sps=tuple(sps))
