"""Batch experiment orchestration: fairness sweeps over instance batches,
scheme comparison, budget sensitivity and the convergence trace, with CSV and
SVG emission.

Every output is a pure function of (config, seed): instances are solved
independently (keyed by instance index) and merged in index order, so the
files are byte-identical at any parallelism degree.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import charts
from .dynamics import price_path
from .model import NormalizedScenario, ScenarioSpec, load_scenario, normalize_scenario
from .scenarios import LoadModel, budget_sweep, instantiate, benchmark_preset
from .solvers import (
    SchemeComparison,
    WelfareReport,
    max_utilities,
    nash_welfare,
    poa_bound,
    solve_eg,
    solve_social_optimal,
    static_share,
)

CSV_COLUMNS = (
    "instance",
    "alpha",
    "scheme",
    "sp",
    "cell",
    "class",
    "rate",
    "utility",
    "welfare",
    "nash_welfare",
    "poa",
    "converged",
    "iterations",
)

PRICE_TRACE_COLUMNS = ("iteration", "cell", "resource", "price")

#: Rounds of the bid dynamics in the convergence study.
CONVERGENCE_ROUNDS = 500

SCHEME_SOLVERS = {
    "me": solve_eg,
    "so": solve_social_optimal,
    "ss": static_share,
}


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = "preset"  # "preset" or a scenario JSON path
    load: LoadModel = field(default_factory=LoadModel)
    alphas: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0)
    instances: int = 100
    schemes: tuple[str, ...] = ("me", "so", "ss")
    budget_sweep_sp: str | None = None
    budget_fractions: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    budget_alphas: tuple[float, ...] = (1.0, 2.0, 3.0)
    out: str = "results"
    seed: int = 0
    jobs: int = 1
    full_paper_scale: bool = False

    def __post_init__(self):
        if not self.schemes:
            raise ValueError("at least one scheme is required")
        for s in self.schemes:
            if s not in SCHEME_SOLVERS:
                raise ValueError(f"unknown scheme {s!r} (expected me|so|ss)")
        if any(a < 0 for a in self.alphas):
            raise ValueError("alpha values must be >= 0")
        if self.instances < 1:
            raise ValueError("instances must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    @property
    def instance_count(self) -> int:
        return 2000 if self.full_paper_scale else self.instances


def config_from_dict(doc: dict, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Build a config from a JSON document, reporting bad fields by path."""
    cfg = base or ExperimentConfig()
    kwargs = {}
    load_doc = doc.get("load_model")
    if load_doc is not None:
        try:
            kwargs["load"] = LoadModel(**load_doc)
        except TypeError as exc:
            raise ValueError(f"load_model: {exc}") from exc
    simple = {
        "scenario": str,
        "instances": int,
        "seed": int,
        "jobs": int,
        "out": str,
        "full_paper_scale": bool,
        "budget_sweep_sp": str,
    }
    for key, cast in simple.items():
        if key in doc and doc[key] is not None:
            kwargs[key] = cast(doc[key])
    for key in ("alphas", "budget_fractions", "budget_alphas"):
        if key in doc:
            try:
                kwargs[key] = tuple(float(v) for v in doc[key])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{key}: expected a list of numbers") from exc
    if "schemes" in doc:
        kwargs["schemes"] = tuple(str(s).lower() for s in doc["schemes"])
    unknown = set(doc) - set(simple) - {"load_model", "alphas", "budget_fractions", "budget_alphas", "schemes"}
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return replace(cfg, **kwargs)


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def _template(config: ExperimentConfig) -> ScenarioSpec:
    if config.scenario == "preset":
        return benchmark_preset()
    return load_scenario(config.scenario)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _format_column(values: tuple) -> list[str]:
    """The cells of one CSV column as :func:`_fmt` writes them, with one
    formatter for the whole column where its values share a type."""
    kinds = set(map(type, values))
    if kinds <= {float, np.float64}:
        return ["%.17g" % x for x in values]
    if kinds <= {int, str}:
        return list(map(str, values))
    return list(map(_fmt, values))


def _scheme_rows(instance: int, alpha: float, spec: ScenarioSpec, schemes) -> list[tuple]:
    """Long-format rows for one (instance, alpha): one row per
    (scheme, sp, cell, class)."""
    scn = normalize_scenario(spec.with_alphas(alpha))
    index = scn.index
    reports = {name: SCHEME_SOLVERS[name](scn) for name in schemes}
    welfare = {
        name: float(np.dot(index.budgets, rep.utilities)) for name, rep in reports.items()
    }
    nash = {}
    for name, rep in reports.items():
        nash[name] = (
            nash_welfare(rep.utilities, index.budgets) if np.all(rep.utilities > 0) else 0.0
        )
    poa = None
    if "me" in reports and "so" in reports and welfare["so"] > 0:
        poa = (welfare["so"] - welfare["me"]) / welfare["so"]
    rows = []
    for name, rep in reports.items():
        for i, (sp, cell, klass) in enumerate(index.triples):
            s = index.sp_of[i]
            rows.append(
                (
                    instance,
                    alpha,
                    name,
                    sp,
                    cell,
                    klass,
                    rep.allocation.rates[i] / index.users[i],
                    float(rep.utilities[s]),
                    welfare[name],
                    nash[name],
                    poa,
                    bool(rep.converged),
                    int(rep.iterations),
                )
            )
    return rows


def _instance_task(args) -> list[tuple]:
    instance, spec, alphas, schemes = args
    rows = []
    for alpha in alphas:
        rows.extend(_scheme_rows(instance, alpha, spec, schemes))
    return rows


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[tuple]
    sensitivity_rows: list[tuple]
    #: ``(goods, prices)`` of the convergence study: the ``(cell, resource)``
    #: of each good and the ``[rounds + 1, n_goods]`` price path
    convergence: tuple[tuple, np.ndarray] | None = None

    @cached_property
    def aggregates(self) -> list[tuple]:
        """Mean/variance of rate and utility across instances, per
        (alpha, scheme, sp, class), computed once."""
        groups: dict[tuple, list[tuple[float, float]]] = {}
        for row in self.rows:
            key = (row[1], row[2], row[3], row[5])
            groups.setdefault(key, []).append((row[6], row[7]))
        out = []
        for key in sorted(groups, key=lambda k: (k[0], k[1], k[2], k[3])):
            vals = np.array(groups[key])
            out.append(
                key
                + (
                    float(vals[:, 0].mean()),
                    float(vals[:, 0].var()),
                    float(vals[:, 1].mean()),
                    float(vals[:, 1].var()),
                    len(vals),
                )
            )
        return out


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Solve every instance x alpha x scheme, write the result files under
    ``config.out``, and return the in-memory result set."""
    template = _template(config)
    # the experiment seed drives the load draws unless the load model pins its own
    load = replace(config.load, seed=config.seed) if config.load.seed == 0 else config.load
    n = config.instance_count
    tasks = [
        (k, instantiate(template, load, k), tuple(config.alphas), tuple(config.schemes))
        for k in range(n)
    ]
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            per_instance = list(pool.map(_instance_task, tasks, chunksize=1))
    else:
        per_instance = [_instance_task(t) for t in tasks]
    rows = [row for chunk in per_instance for row in chunk]

    sensitivity_rows = []
    if config.budget_sweep_sp is not None:
        sensitivity_rows = _sensitivity_study(config, template, load)

    result = ExperimentResult(
        config=config,
        rows=rows,
        sensitivity_rows=sensitivity_rows,
        convergence=_convergence_study(template, load),
    )
    emit_csv(result, config.out)
    emit_plotdata(result, config.out)
    return result


def _sensitivity_study(config: ExperimentConfig, template: ScenarioSpec, load: LoadModel):
    """Mean per-user rate of the swept provider vs its budget fraction."""
    spec0 = instantiate(template, load, 0)
    rows = []
    for alpha in config.budget_alphas:
        for frac, swept in zip(
            config.budget_fractions,
            budget_sweep(spec0, config.budget_sweep_sp, config.budget_fractions),
        ):
            scn = normalize_scenario(swept.with_alphas(alpha))
            index = scn.index
            for scheme in config.schemes:
                rep = SCHEME_SOLVERS[scheme](scn)
                s = index.sp_names.index(config.budget_sweep_sp)
                mine = index.sp_rows(s)
                mean_rate = float(
                    (rep.allocation.rates[mine] / index.users[mine]).mean()
                )
                rows.append((float(frac), float(alpha), scheme, mean_rate, bool(rep.converged)))
    return rows


def _convergence_study(template: ScenarioSpec, load: LoadModel) -> tuple[tuple, np.ndarray]:
    """Goods and price path of one proportional-fairness dynamics run."""
    spec = instantiate(template, load, 0).with_alphas(1.0)
    scn = normalize_scenario(spec)
    return scn.index.goods, price_path(scn, CONVERGENCE_ROUNDS)


def compare_schemes(spec: ScenarioSpec | NormalizedScenario, alphas) -> WelfareReport:
    """Run ME, SO and SS on one instance across the fairness sweep, with the
    price-of-anarchy bound and the per-provider market-vs-static deltas."""
    base = spec.spec if isinstance(spec, NormalizedScenario) else spec
    comparisons = []
    for alpha in alphas:
        scn = normalize_scenario(base.with_alphas(float(alpha)))
        index = scn.index
        me = solve_eg(scn)
        so = solve_social_optimal(scn)
        ss = static_share(scn)
        welfare = {
            "me": float(np.dot(index.budgets, me.utilities)),
            "so": float(np.dot(index.budgets, so.utilities)),
            "ss": float(np.dot(index.budgets, ss.utilities)),
        }
        nash = {
            name: (nash_welfare(rep.utilities, index.budgets) if np.all(rep.utilities > 0) else 0.0)
            for name, rep in (("me", me), ("so", so), ("ss", ss))
        }
        hat = max_utilities(scn)
        poa = None
        bound = math.nan
        if welfare["so"] > 0:
            poa, bound = poa_bound(scn, hat, so_report=so, me_report=me)
        comparisons.append(
            SchemeComparison(
                alpha=float(alpha),
                utilities={"me": me.utilities, "so": so.utilities, "ss": ss.utilities},
                welfare=welfare,
                nash=nash,
                poa_value=poa,
                poa_bound=bound,
                max_utilities=hat,
                me_minus_ss=me.utilities - ss.utilities,
                converged={"me": me.converged, "so": so.converged, "ss": ss.converged},
            )
        )
    first = normalize_scenario(base.with_alphas(float(alphas[0])))
    return WelfareReport(
        sp_names=first.index.sp_names,
        budgets=first.index.budgets,
        comparisons=comparisons,
    )


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _write_csv(path: str, header, rows) -> None:
    columns = [_format_column(col) for col in zip(*rows)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*columns))


def _write_price_trace(path: str, iterations, goods, prices: np.ndarray) -> None:
    """``PRICE_TRACE_COLUMNS`` rows, one per (iteration, good) of a price
    trace, as :func:`_write_csv` writes them: each good's ``cell,resource``
    is quoted once by ``csv.writer``."""
    prefixes = []
    for good in goods:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(good)
        prefixes.append(buf.getvalue()[:-1])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(PRICE_TRACE_COLUMNS)
        fh.writelines(
            f"{it},{prefix},{'%.17g' % p}\n"
            for it, row in zip(iterations, prices.tolist())
            for prefix, p in zip(prefixes, row)
        )


def emit_csv(result: ExperimentResult, outdir: str) -> list[str]:
    """Long-format results plus per-group aggregates."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    path = os.path.join(outdir, "results.csv")
    _write_csv(path, CSV_COLUMNS, result.rows)
    paths.append(path)
    path = os.path.join(outdir, "summary.csv")
    _write_csv(
        path,
        (
            "alpha",
            "scheme",
            "sp",
            "class",
            "mean_rate",
            "var_rate",
            "mean_utility",
            "var_utility",
            "instances",
        ),
        result.aggregates,
    )
    paths.append(path)
    return paths


def emit_plotdata(result: ExperimentResult, outdir: str) -> list[str]:
    """Per-study CSV plus a self-contained SVG chart for each study."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    agg = result.aggregates

    # fairness-parameter effect on per-user rates
    path = os.path.join(outdir, "alpha_effect.csv")
    _write_csv(
        path,
        ("alpha", "scheme", "sp", "class", "mean_rate", "std_rate"),
        [(a, sch, sp, kl, m, math.sqrt(v)) for a, sch, sp, kl, m, v, _, _, _ in agg],
    )
    paths.append(path)
    series = {}
    for a, sch, sp, kl, m, v, _, _, _ in agg:
        if sch != "me":
            continue
        series.setdefault(f"{sp}:{kl}", ([], []))
        series[f"{sp}:{kl}"][0].append(a)
        series[f"{sp}:{kl}"][1].append(m)
    svg = charts.line_chart(
        [(k, xs, ys) for k, (xs, ys) in sorted(series.items())],
        "Average per-user service rate vs fairness parameter (market scheme)",
        "alpha",
        "mean rate per user",
    )
    path = os.path.join(outdir, "alpha_effect.svg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    paths.append(path)

    # per-provider utility by scheme
    util_groups: dict[tuple, list[float]] = {}
    for row in result.rows:
        util_groups.setdefault((row[1], row[2], row[3]), []).append(row[7])
    util_agg = [
        key + (float(np.mean(vals)), float(np.std(vals)))
        for key, vals in sorted(util_groups.items(), key=lambda kv: kv[0])
    ]
    path = os.path.join(outdir, "welfare.csv")
    _write_csv(path, ("alpha", "scheme", "sp", "mean_utility", "std_utility"), util_agg)
    paths.append(path)
    series = {}
    for a, sch, sp, m, _sd in util_agg:
        series.setdefault(f"{sp} ({sch})", ([], []))
        series[f"{sp} ({sch})"][0].append(a)
        series[f"{sp} ({sch})"][1].append(m)
    svg = charts.line_chart(
        [(k, xs, ys) for k, (xs, ys) in sorted(series.items())],
        "Provider utility vs fairness parameter by scheme",
        "alpha",
        "utility",
    )
    path = os.path.join(outdir, "welfare.svg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    paths.append(path)

    # budget sensitivity
    if result.sensitivity_rows:
        path = os.path.join(outdir, "sensitivity.csv")
        _write_csv(
            path,
            ("fraction", "alpha", "scheme", "mean_rate", "converged"),
            result.sensitivity_rows,
        )
        paths.append(path)
        series = {}
        for frac, alpha, scheme, rate, _conv in result.sensitivity_rows:
            key = f"{scheme} a={alpha:g}"
            series.setdefault(key, ([], []))
            series[key][0].append(frac)
            series[key][1].append(rate)
        svg = charts.line_chart(
            [(k, xs, ys) for k, (xs, ys) in sorted(series.items())],
            "Swept provider mean per-user rate vs budget share",
            "budget fraction",
            "mean rate per user",
        )
        path = os.path.join(outdir, "sensitivity.svg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
        paths.append(path)

    # price convergence trace
    if result.convergence is not None:
        goods, prices = result.convergence
        iterations = range(len(prices))
        path = os.path.join(outdir, "convergence.csv")
        _write_price_trace(path, iterations, goods, prices)
        paths.append(path)
        cells = sorted({cell for cell, _ in goods})
        focus = cells[min(1, len(cells) - 1)]
        xs = [float(it) for it in iterations]
        series = sorted(
            (
                (resource, xs, prices[:, g].tolist())
                for g, (cell, resource) in enumerate(goods)
                if cell == focus
            ),
            key=lambda s: s[0],
        )
        svg = charts.line_chart(
            series,
            f"Price convergence at {focus} (proportional fairness)",
            "iteration",
            "price",
        )
        path = os.path.join(outdir, "convergence.svg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
        paths.append(path)
    return paths
