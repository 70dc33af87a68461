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
from .market import SolveReport
from .model import ScenarioSpec, load_scenario, normalize_scenario
from .scenarios import LoadModel, budget_sweep, instantiate, benchmark_preset
from .solvers import nash_welfare, solve_eg, solve_social_optimal, static_share

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
        for key in ("alphas", "budget_alphas"):
            # `not a >= 0` also catches NaN, which `a < 0` lets through
            bad = [a for a in getattr(self, key) if not a >= 0]
            if bad:
                raise ValueError(f"{key}: alpha values must be >= 0, got {bad[0]!r}")
        if self.instances < 1:
            raise ValueError("instances must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    @property
    def instance_count(self) -> int:
        return 2000 if self.full_paper_scale else self.instances


#: The fields of a config's ``load_model`` (:class:`LoadModel`) and their types.
_LOAD_FIELDS = {"mean": float, "variance": float, "variance_is_sigma": bool, "floor": int, "seed": int}


def config_from_dict(doc: dict, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Build a config from a JSON document, reporting bad fields by path."""
    cfg = base or ExperimentConfig()
    kwargs = {}
    load_doc = doc.get("load_model")
    if load_doc is not None:
        if not isinstance(load_doc, dict):
            raise ValueError(f"load_model: expected an object, got {load_doc!r}")
        unknown = set(load_doc) - set(_LOAD_FIELDS)
        if unknown:
            raise ValueError(f"unknown load_model fields: {sorted(unknown)}")
        kwargs["load"] = LoadModel(**{k: _typed(f"load_model.{k}", v, _LOAD_FIELDS[k]) for k, v in load_doc.items()})
    simple = {
        "scenario": str,
        "instances": int,
        "seed": int,
        "jobs": int,
        "out": str,
        "full_paper_scale": bool,
        "budget_sweep_sp": str,
    }
    for key, kind in simple.items():
        if key in doc and doc[key] is not None:
            kwargs[key] = _typed(key, doc[key], kind)
    for key in ("alphas", "budget_fractions", "budget_alphas"):
        if key in doc:
            kwargs[key] = _numbers(key, doc[key], infinite=key != "budget_fractions")
    if "schemes" in doc:
        kwargs["schemes"] = tuple(str(s).lower() for s in doc["schemes"])
    unknown = set(doc) - set(simple) - {"load_model", "alphas", "budget_fractions", "budget_alphas", "schemes"}
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return replace(cfg, **kwargs)


def _typed(key: str, value, kind: type):
    """A JSON field's ``value`` as ``kind``; ``ValueError`` naming the field
    when a bool field is not a JSON bool, a float field is a bool or not a
    number, or an int field is a bool or not integral, where a cast would
    take ``"false"`` as true and 2.5 as 2."""
    if kind is bool and not isinstance(value, bool):
        raise ValueError(f"{key}: expected true or false, got {value!r}")
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float and not number:
        raise ValueError(f"{key}: expected a number, got {value!r}")
    if kind is int and not (number and value % 1 == 0):
        raise ValueError(f"{key}: expected an integer, got {value!r}")
    return kind(value)


def _numbers(key: str, value, infinite: bool) -> tuple[float, ...]:
    """A JSON list of numbers as floats; ``ValueError`` naming the field
    when ``value`` is not a list or an element is a bool, NaN or no number.
    Where ``infinite``, the strings ``"inf"`` and ``"infinity"`` (any case)
    are read as inf, as a scenario's alpha is."""
    if not isinstance(value, list):
        raise ValueError(f"{key}: expected a list of numbers, got {value!r}")
    out = []
    for v in value:
        if infinite and isinstance(v, str) and v.lower() in ("inf", "infinity"):
            v = math.inf
        elif not isinstance(v, (int, float)) or isinstance(v, bool) or math.isnan(v):
            raise ValueError(f"{key}: expected a list of numbers, got the element {v!r}")
        out.append(float(v))
    return tuple(out)


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


def score_schemes(budgets: np.ndarray, reports: dict[str, SolveReport]) -> tuple[dict, dict, float | None]:
    """Budget-weighted welfare and Nash welfare of every scheme's report,
    keyed as ``reports`` (Nash welfare 0.0 where some utility is 0), and the
    realized price of anarchy ``(W_so - W_me) / W_so``, None without both
    schemes or at zero SO welfare."""
    welfare = {name: float(np.dot(budgets, rep.utilities)) for name, rep in reports.items()}
    nash = {
        name: nash_welfare(rep.utilities, budgets) if np.all(rep.utilities > 0) else 0.0
        for name, rep in reports.items()
    }
    poa = None
    if "me" in reports and "so" in reports and welfare["so"] > 0:
        poa = (welfare["so"] - welfare["me"]) / welfare["so"]
    return welfare, nash, poa


def _scheme_rows(instance: int, alpha: float, spec: ScenarioSpec, schemes) -> list[tuple]:
    """Long-format rows for one (instance, alpha): one row per
    (scheme, sp, cell, class)."""
    scn = normalize_scenario(spec.with_alphas(alpha))
    index = scn.index
    reports = {name: SCHEME_SOLVERS[name](scn) for name in schemes}
    welfare, nash, poa = score_schemes(index.budgets, reports)
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
        (alpha, scheme, sp, class), computed once.  The groups of each size
        are reduced together, one contiguous row per group and value, which
        numpy sums in the order of the group's own 1-D array."""
        groups: dict[tuple, list[tuple[float, float]]] = {}
        for row in self.rows:
            groups.setdefault((row[1], row[2], row[3], row[5]), []).append((row[6], row[7]))
        keys = sorted(groups)
        by_size: dict[int, list[tuple]] = {}
        for key in keys:
            by_size.setdefault(len(groups[key]), []).append(key)
        stats = {}
        for n, same in by_size.items():
            vals = np.ascontiguousarray(np.array([groups[key] for key in same]).transpose(2, 0, 1))
            means, variances = vals.mean(axis=2).tolist(), vals.var(axis=2).tolist()
            for j, key in enumerate(same):
                stats[key] = (means[0][j], variances[0][j], means[1][j], variances[1][j], n)
        return [key + stats[key] for key in keys]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Solve every instance x alpha x scheme, write the result files under
    ``config.out``, and return the in-memory result set."""
    template = _template(config)
    # checked before any solve, so that a bad sweep fails at once
    sweep = None if config.budget_sweep_sp is None else _budget_sweep(config, template)
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

    sensitivity_rows = [] if sweep is None else _sensitivity_study(config, sweep, load)

    result = ExperimentResult(
        config=config,
        rows=rows,
        sensitivity_rows=sensitivity_rows,
        convergence=_convergence_study(template, load),
    )
    emit_csv(result, config.out)
    emit_plotdata(result, config.out)
    return result


def _budget_sweep(config: ExperimentConfig, template: ScenarioSpec) -> list[ScenarioSpec]:
    """The template at each of the config's budget fractions of
    ``budget_sweep_sp`` (:func:`~slicemarket.scenarios.budget_sweep`);
    ``ValueError`` naming the field for a provider the template lacks or
    holds alone, or a fraction outside (0, 1)."""
    names = [sp.name for sp in template.sps]
    try:
        return budget_sweep(template, config.budget_sweep_sp, config.budget_fractions)
    except KeyError:
        raise ValueError(f"budget_sweep_sp: no provider {config.budget_sweep_sp!r} (the scenario has {names})") from None
    except ValueError as exc:
        # a lone provider is rejected before any fraction is read
        raise ValueError(f"{'budget_sweep_sp' if len(names) == 1 else 'budget_fractions'}: {exc}") from None


def _sensitivity_study(config: ExperimentConfig, sweep: list[ScenarioSpec], load: LoadModel):
    """Mean per-user rate of the swept provider vs its budget fraction, on
    load instance 0 of every scenario of the budget sweep."""
    swept_specs = [instantiate(spec, load, 0) for spec in sweep]
    rows = []
    for alpha in config.budget_alphas:
        for frac, swept in zip(config.budget_fractions, swept_specs):
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
    is quoted once by ``csv.writer``, and a round is formatted by one ``%``
    on its template ``it,prefix,%.17g`` per good (a ``%`` in a prefix is
    escaped)."""
    parts = [""]
    for good in goods:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(good)
        parts.append("," + buf.getvalue()[:-1].replace("%", "%%") + ",%.17g\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(PRICE_TRACE_COLUMNS)
        # ``str(it).join(parts)`` puts the iteration before every good's part
        fh.writelines(f"{it}".join(parts) % tuple(row) for it, row in zip(iterations, prices.tolist()))


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


def _write_chart(outdir: str, name: str, points, title: str, xlabel: str, ylabel: str) -> str:
    """``name.svg``: a line chart of ``(label, x, y)`` points, one series
    per label in label order, each in the order of its points."""
    series: dict[str, tuple[list, list]] = {}
    for label, x, y in points:
        xs, ys = series.setdefault(label, ([], []))
        xs.append(x)
        ys.append(y)
    svg = charts.line_chart([(k, xs, ys) for k, (xs, ys) in sorted(series.items())], title, xlabel, ylabel)
    path = os.path.join(outdir, f"{name}.svg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return path


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
    paths.append(_write_chart(
        outdir, "alpha_effect", ((f"{sp}:{kl}", a, m) for a, sch, sp, kl, m, *_ in agg if sch == "me"),
        "Average per-user service rate vs fairness parameter (market scheme)", "alpha", "mean rate per user",
    ))

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
    paths.append(_write_chart(
        outdir, "welfare", ((f"{sp} ({sch})", a, m) for a, sch, sp, m, _sd in util_agg),
        "Provider utility vs fairness parameter by scheme", "alpha", "utility",
    ))

    # budget sensitivity
    if result.sensitivity_rows:
        path = os.path.join(outdir, "sensitivity.csv")
        _write_csv(
            path,
            ("fraction", "alpha", "scheme", "mean_rate", "converged"),
            result.sensitivity_rows,
        )
        paths.append(path)
        paths.append(_write_chart(
            outdir, "sensitivity", ((f"{scheme} a={a:g}", frac, rate) for frac, a, scheme, rate, _ in result.sensitivity_rows),
            "Swept provider mean per-user rate vs budget share", "budget fraction", "mean rate per user",
        ))

    # price convergence trace
    if result.convergence is not None:
        goods, prices = result.convergence
        iterations = range(len(prices))
        path = os.path.join(outdir, "convergence.csv")
        _write_price_trace(path, iterations, goods, prices)
        paths.append(path)
        cells = sorted({cell for cell, _ in goods})
        focus = cells[min(1, len(cells) - 1)]
        paths.append(_write_chart(
            outdir, "convergence", ((resource, float(it), p) for g, (cell, resource) in enumerate(goods) if cell == focus
                                    for it, p in enumerate(prices[:, g].tolist())),
            f"Price convergence at {focus} (proportional fairness)", "iteration", "price",
        ))
    return paths
