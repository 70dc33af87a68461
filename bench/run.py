"""slicemarket benchmark: one workload, one seed, one time budget per run.

    python3 bench/run.py --workload paper-sweep --seed 1 --seconds 60 --trace 0

Workloads (see bench/README.md for why each exists):

* ``paper-sweep``   run_experiment on the 7-cell preset, 11 alphas, me/so/ss, jobs=1
* ``large-market``  per load instance: ME on both routes and SS at 112 cells

A run repeats work units until ``--seconds`` have been spent, checks every
solve report, and prints one line per metric followed by a JSON summary as
the last line.  ``--trace 0`` reports the end-to-end metrics with no tracing
installed; ``--trace 1`` runs each unit untraced and then traced and reports
the per-layer metrics.  Unit times are reported in seconds and, for the
registered metrics, as multiples of a reference job timed next to each unit
(see :meth:`Workload.reference_s`).  A record of the run (machine facts,
sample counts, per-unit fingerprints) is written under ``.bench_out/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from tracing import Tracer, layer_metrics, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh-interpreter set-up samples per untraced run, spread evenly over it.
SETUP_SAMPLES = 5
#: Timed batches per kernel micro-timing.
MICRO_REPEATS = 7

LARGE_CELLS = 112

CAPACITY_TOL = 1e-6
BUDGET_TOL = 1e-6
DOMINANCE_TOL = 1e-6

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "me_solve_ref.p50": "ref",
    "ok_share": "fraction",
    "certified_share.p50": "fraction",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "scenarios.instantiate.calls": "count",
    "scenarios.instantiate.s": "s",
    "model.normalize_scenario.calls": "count",
    "model.normalize_scenario.s": "s",
    "dynamics.run_dynamics.calls": "count",
    "dynamics.run_dynamics.s": "s",
    "dynamics.iterations.n": "count",
    "dynamics.iterations.p50": "count",
    "dynamics.iterations.max": "count",
    "dynamics.cap_hits": "count",
    "dynamics.us_per_iteration": "us",
    "dynamics.eval_potential.calls": "count",
    "dynamics.eval_potential.s": "s",
    "dynamics.bid_update.us": "us",
    "solvers.tatonnement.calls": "count",
    "solvers.tatonnement.s": "s",
    "solvers.tatonnement.iterations": "count",
    "solvers.social_optimal.calls": "count",
    "solvers.social_optimal.s": "s",
    "solvers.social_optimal.slsqp_calls": "count",
    "solvers.social_optimal.slsqp_s": "s",
    "solvers.social_optimal.other_s": "s",
    "solvers.static_share.calls": "count",
    "solvers.static_share.s": "s",
    "solvers.static_share.slsqp_calls": "count",
    "solvers.static_share.slsqp_s": "s",
    "solvers.static_share.linprog_calls": "count",
    "solvers.static_share.linprog_s": "s",
    "solvers.best_response.calls": "count",
    "solvers.best_response.s": "s",
    "solvers.best_response.us": "us",
    "market.verify_equilibrium.calls": "count",
    "market.verify_equilibrium.s": "s",
    "market.uncertified.dynamics": "count",
    "market.uncertified.tatonnement": "count",
    "market.uncertified.social_optimal": "count",
    "experiments.run_experiment.calls": "count",
    "experiments.run_experiment.s": "s",
    "experiments.emit_csv.s": "s",
    "experiments.emit_csv.bytes": "bytes",
    "experiments.emit_plotdata.s": "s",
    "experiments.emit_plotdata.bytes": "bytes",
    "charts.line_chart.calls": "count",
    "charts.line_chart.s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Solve probe: timing and output checks around every scheme solve
# ---------------------------------------------------------------------------

class Probe:
    """Times each scheme solve, checks its report and keeps one record per
    solve in :attr:`records`."""

    def __init__(self):
        self.records: list[dict] = []

    def wrap(self, scheme, fn):
        records = self.records

        def probed(scn, *args, **kwargs):
            start = time.perf_counter()
            try:
                rep = fn(scn, *args, **kwargs)
            except Exception as exc:
                records.append(solve_record(scheme, scn, None, time.perf_counter() - start,
                                            [f"raised {type(exc).__name__}: {exc}"]))
                raise
            seconds = time.perf_counter() - start
            records.append(solve_record(scheme, scn, rep, seconds, check_report(scheme, scn, rep)))
            return rep

        return probed

    def call(self, scheme, fn, scn) -> None:
        """Solve ``scn`` once; a raising solver is recorded, not re-raised."""
        try:
            self.wrap(scheme, fn)(scn)
        except Exception:
            pass

    def collect(self) -> list[dict]:
        out = self.records[:]
        self.records.clear()
        return out

    @contextmanager
    def patched(self, table):
        saved = dict(table)
        for key, fn in saved.items():
            table[key] = self.wrap(key, fn)
        try:
            yield
        finally:
            table.update(saved)


def market_key(scn) -> str:
    """Content hash of a market: equal for the schemes solved on one
    (instance, alpha), distinct across instances, alphas and sizes."""
    index = scn.index
    h = hashlib.blake2b(digest_size=8)
    for arr in (index.users, index.alphas, index.budgets, index.capacity):
        h.update(arr.tobytes())
    return h.hexdigest()


def check_report(scheme, scn, rep) -> list[str]:
    # numpy is first imported by slicemarket, inside the timed import
    import numpy as np

    index = scn.index
    problems = []
    for label, arr in (("price", rep.prices), ("rate", rep.allocation.rates), ("utility", rep.utilities)):
        if not np.all(np.isfinite(arr)):
            problems.append(f"non-finite {label}")
    use = float(rep.allocation.x.sum(axis=0).max())
    if use > 1.0 + CAPACITY_TOL:
        problems.append(f"a good is used at {use!r} of capacity")
    if scheme == "me":
        over = float((rep.spending - index.budgets).max())
        if over > BUDGET_TOL:
            problems.append(f"spend exceeds a budget by {over!r}")
    return problems


def solve_record(scheme, scn, rep, seconds, problems) -> dict:
    import numpy as np

    index = scn.index
    return {
        "scheme": scheme,
        "key": market_key(scn),
        "alpha": float(index.alphas[0]),
        "cells": len(scn.spec.cells),
        "s": seconds,
        "method": rep.method if rep is not None else None,
        "iterations": int(rep.iterations) if rep is not None else None,
        "converged": bool(rep.converged) if rep is not None else False,
        "welfare": float(np.dot(index.budgets, rep.utilities)) if rep is not None else None,
        "problems": problems,
    }


def check_dominance(records) -> None:
    """On each market solved by SO and another scheme, the budget-weighted
    welfare of SO must not fall below the others'."""
    by_key: dict[str, dict] = {}
    for rec in records:
        by_key.setdefault(rec["key"], {})[rec["scheme"]] = rec
    for group in by_key.values():
        so = group.get("so")
        others = [group[s]["welfare"] for s in ("me", "ss") if s in group and group[s]["welfare"] is not None]
        if so is None or so["welfare"] is None or not others:
            continue
        best = max(others)
        if so["welfare"] < best * (1.0 - DOMINANCE_TOL):
            so["problems"].append(f"SO welfare {so['welfare']!r} below ME/SS welfare {best!r}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Inputs and one unit of work; subclasses fill in the hooks."""

    name = ""
    schemes: tuple[str, ...] = ()
    #: unit inputs generated up front; a run that exhausts them starts over
    units = 24

    def __init__(self, sm, seed: int, probe, tracer):
        self.sm = sm
        self.seed = seed
        self.probe = probe
        self.tracer = tracer

    def warm(self) -> None:
        """First-call costs: one small solve per scheme the workload uses."""
        sm = self.sm
        spec = sm.instantiate(sm.benchmark_preset(n_cells=1), sm.LoadModel(seed=self.seed), 0)
        scn = sm.normalize_scenario(spec.with_alphas(2.0))
        for scheme in self.schemes:
            sm.experiments.SCHEME_SOLVERS[scheme](scn)

    def inputs(self) -> list:
        raise NotImplementedError

    def run_unit(self, out: Path, item, traced: bool) -> dict:
        """Run one unit of work; ``out`` is an empty directory the unit may
        write to."""
        raise NotImplementedError

    def probe_shape(self, item):
        """A normalized market of the workload's shape at alpha 2, for the
        kernel micro-timings."""
        raise NotImplementedError

    def reference_s(self) -> float:
        """Seconds of a fixed job, timed next to each unit, that uses the
        machine the way a unit does.

        A shared host's speed drifts by 20% and more over tens of seconds,
        and a run can fall into a slow phase whole.  A unit's time divided
        by this job's time next to it drifts far less, because both slow
        down together.  The job is the benchmark's own code, so no change to
        the program moves it.  This one is a pure-Python loop, about 50 ms
        on the reference box: ``paper-sweep`` spends its time in the
        interpreter and in small arrays, and the loop tracked its drift
        better than numpy passes did."""
        start = time.perf_counter()
        acc = 0
        for i in range(600_000):
            acc += i * i
        return time.perf_counter() - start


class PaperSweep(Workload):
    """The paper's study: ``run_experiment`` on the 7-cell preset with the
    default 11 alphas and all three schemes, one instance per unit, a fresh
    load seed per unit."""

    name = "paper-sweep"
    schemes = ("me", "so", "ss")

    def inputs(self):
        sm = self.sm
        template = sm.scenarios.benchmark_preset()
        alphas = sm.experiments.ExperimentConfig().alphas
        items = []
        for u in range(self.units):
            seed = self.seed * 1000 + u
            spec = sm.scenarios.instantiate(template, sm.scenarios.LoadModel(seed=seed), 0)
            triples = sm.model.normalize_scenario(spec).index.n_triples
            items.append({"seed": seed, "rows": triples * len(alphas) * len(self.schemes)})
        return items

    def run_unit(self, out, item, traced):
        ex = self.sm.experiments
        config = ex.ExperimentConfig(instances=1, seed=item["seed"], schemes=self.schemes, out=str(out))
        error = None
        start = time.perf_counter()
        with (self.tracer.installed() if traced else nullcontext()), self.probe.patched(ex.SCHEME_SOLVERS):
            try:
                ex.run_experiment(config)
            except Exception as exc:
                error = f"run_experiment raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        results = out / "results.csv"
        digest, rows = None, -1
        if results.exists():
            data = results.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            rows = data.count(b"\n") - 1
        problems = [error] if error else []
        if rows != item["rows"]:
            problems.append(f"results.csv has {rows} rows, expected {item['rows']}")
        return {"wall": wall, "results_sha256": digest, "checks": 1, "problems": problems}

    def probe_shape(self, item):
        sm = self.sm
        spec = sm.instantiate(sm.benchmark_preset(), sm.LoadModel(seed=item["seed"]), 0)
        return sm.normalize_scenario(spec.with_alphas(2.0))


class LargeMarket(Workload):
    """Single solves on the preset scaled to 112 cells.  A unit is one load
    instance solved by ME on both routes (dynamics at alpha 2, tatonnement
    at alpha 0.5) and by SS at alpha 2.  Each solve includes its
    ``normalize_scenario``.  Instances are taken in order.

    SO is left out: at 112 cells one solve takes over a minute, and at 28
    cells its time per instance (3-6 s at the same 2000 dual iterations)
    spread too widely between runs; ``paper-sweep`` measures it."""

    name = "large-market"
    schemes = ("me", "ss")
    solves = (("me", 2.0), ("me", 0.5), ("ss", 2.0))
    solvers = {"me": "solve_eg", "ss": "static_share"}

    def __init__(self, *args):
        import numpy as np

        super().__init__(*args)
        rng = np.random.default_rng(0)
        self.ref_arrays = (rng.random((400, 2000)), rng.random(2000))

    def inputs(self):
        sm = self.sm
        load = sm.scenarios.LoadModel(seed=self.seed)
        template = sm.scenarios.benchmark_preset(n_cells=LARGE_CELLS)
        return [sm.scenarios.instantiate(template, load, k) for k in range(self.units)]

    def run_unit(self, out, item, traced):
        sm = self.sm
        start = time.perf_counter()
        with self.tracer.installed() if traced else nullcontext():
            for scheme, alpha in self.solves:
                scn = sm.model.normalize_scenario(item.with_alphas(alpha))
                self.probe.call(scheme, getattr(sm.solvers, self.solvers[scheme]), scn)
        return {"wall": time.perf_counter() - start, "checks": 0, "problems": []}

    def probe_shape(self, item):
        return self.sm.normalize_scenario(item.with_alphas(2.0))

    def reference_s(self) -> float:
        """The Python loop plus numpy passes over a 400 x 2000 array, larger
        than a core's cache like the 112-cell arrays: together they tracked
        the drift of a 112-cell solve better than the loop alone."""
        import numpy as np

        a, b = self.ref_arrays
        start = time.perf_counter()
        for _ in range(20):
            (a * b).sum(axis=1)
            np.exp(-a[:50])
        return time.perf_counter() - start + super().reference_s()


WORKLOADS = {w.name: w for w in (PaperSweep, LargeMarket)}


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def micro_us(fn, *args, target_s=0.02, repeats=MICRO_REPEATS) -> float:
    """Median microseconds per call over ``repeats`` batches of at least
    ``target_s`` each."""
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn(*args)
        if time.perf_counter() - start >= target_s:
            break
        n *= 2
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(n):
            fn(*args)
        times.append((time.perf_counter() - start) / n)
    return statistics.median(times) * 1e6


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_text,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def import_package():
    if not (SRC / "slicemarket" / "__init__.py").is_file():
        fail(f"no slicemarket sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import slicemarket
    from slicemarket import charts, dynamics, experiments, market, model, scenarios, solvers  # noqa: F401

    if Path(slicemarket.__file__).resolve().parent != (SRC / "slicemarket").resolve():
        fail(f"imported slicemarket from {slicemarket.__file__}, not from {SRC}")
    return slicemarket


def setup(workload_name: str, seed: int):
    """Import slicemarket, warm it up and generate the inputs.

    Returns ``(package, workload, items, seconds)``.
    """
    start = time.perf_counter()
    sm = import_package()
    workload = WORKLOADS[workload_name](sm, seed, Probe(), Tracer(sm))
    workload.warm()
    items = workload.inputs()
    return sm, workload, items, time.perf_counter() - start


def setup_sample(workload_name: str, seed: int) -> float:
    """Seconds of :func:`setup` in a fresh interpreter, so that every
    first-call cost (imports, caches, lazy initialisation) is counted."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload_name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        fail(f"set-up in a fresh interpreter failed:\n{done.stderr}")
    return float(done.stdout)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure(workload, items, seconds, trace, scratch):
    """Run units until the next one is predicted to end after ``seconds``.

    An untraced run takes a fresh-interpreter set-up sample after the first
    unit to end past each fifth of ``seconds``, so set-up is sampled across
    the whole run.  A traced run runs each unit untraced and then traced
    instead.

    Returns the untraced units, their solve records, the set-up samples and
    (traced runs only) the spans and per-unit tracing overheads.
    """
    probe, tracer = workload.probe, workload.tracer
    units, records, setup_times, spans, overheads = [], [], [], [], []
    # refs[i] is taken just before unit i and refs[i + 1] just after it
    refs = [workload.reference_s()]
    passes = (False, True) if trace else (False,)
    pair_walls = []
    start = time.perf_counter()
    while True:
        unit = len(units)
        item = items[unit % len(items)]
        step_start = time.perf_counter()
        walls = {}
        for traced in passes:
            out = scratch / f"unit-{unit}-{int(traced)}"
            out.mkdir()
            res = workload.run_unit(out, item, traced)
            recs = probe.collect()
            check_dominance(recs)
            walls[traced] = res["wall"]
            if traced:
                spans.extend(tracer.collect())
            else:
                records.extend(recs)
                units.append({
                    "unit": unit,
                    "wall_s": res["wall"],
                    "solves": len(recs),
                    "me_s": unit_me_seconds(recs),
                    "certified_share": sum(r["converged"] for r in recs) / max(len(recs), 1),
                    "checks": res["checks"],
                    "problems": res["problems"],
                    "results_sha256": res.get("results_sha256"),
                    "fingerprint": sorted(
                        [r["key"], r["scheme"], r["iterations"], r["converged"]] for r in recs
                    ),
                })
            shutil.rmtree(out)
        refs.append(workload.reference_s())
        if trace:
            overheads.append(walls[True] - walls[False])
        elif time.perf_counter() - start >= len(setup_times) * seconds / SETUP_SAMPLES:
            setup_times.append(setup_sample(workload.name, workload.seed))
        pair_walls.append(time.perf_counter() - step_start)
        if time.perf_counter() - start + statistics.median(pair_walls) > seconds:
            break
    while not trace and len(setup_times) < SETUP_SAMPLES:
        setup_times.append(setup_sample(workload.name, workload.seed))
    for i, u in enumerate(units):
        u["ref_s"] = (refs[i] + refs[i + 1]) / 2
    return units, records, setup_times, spans, overheads


def unit_me_seconds(records):
    """Geometric mean seconds of the unit's ME solves: one load instance
    across its alphas (and so across both ME routes), so the per-unit
    figures are not split into per-route clusters.  The geometric mean
    weighs a given speed-up the same on every alpha; an arithmetic mean
    would be ruled by the slowest solve of an instance (the alpha-0
    continuation on ``paper-sweep``), whose cost moves most between
    instances."""
    times = [r["s"] for r in records if r["scheme"] == "me"]
    return statistics.geometric_mean(times) if times else None


def operation_counts(units, records) -> tuple[int, int]:
    """Attempted and failed operations: every solve, plus every unit-level
    check (the ``results.csv`` row count)."""
    attempted = len(records) + sum(u["checks"] for u in units)
    failed = sum(1 for r in records if r["problems"]) + sum(1 for u in units if u["problems"])
    return attempted, failed


def end_to_end(units, records, setup_times):
    """Registered end-to-end metrics with their sample counts, plus the
    figures printed for information only."""
    attempted, failed = operation_counts(units, records)
    converged = sum(1 for r in records if r["converged"])
    walls = [u["wall_s"] for u in units]
    me = [u["me_s"] for u in units if u["me_s"] is not None]
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_ref": statistics.median(u["wall_s"] / u["ref_s"] for u in units),
        "me_solve_ref.p50": statistics.median(u["me_s"] / u["ref_s"] for u in units if u["me_s"] is not None),
        "ok_share": 1.0 - failed / attempted,
        "certified_share.p50": statistics.median(u["certified_share"] for u in units),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {
        "setup_s": len(setup_times),
        "wall_ref": len(walls),
        "me_solve_ref.p50": len(me),
        "ok_share": attempted,
        "certified_share.p50": len(units),
        "peak_rss_mb": 1,
    }
    # printed but not registered: redundant with a registered metric, too
    # unsteady between runs, or short of ten samples beyond the p90
    info = {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "me_solve_s.p50": (statistics.median(me), "s", len(me)),
        "reference_s": (statistics.median(u["ref_s"] for u in units), "s", len(units)),
        "solves_per_s": (len(records) / sum(walls), "1/s", len(records)),
        "failed_share": (failed / attempted, "fraction", attempted),
        "uncertified_share": (1.0 - converged / len(records), "fraction", len(records)),
    }
    for scheme in ("me", "so", "ss"):
        times = [r["s"] for r in records if r["scheme"] == scheme]
        if not times:
            continue
        # me_solve_s.p50 keeps the per-unit figure set above
        info.setdefault(f"{scheme}_solve_s.p50", (statistics.median(times), "s", len(times)))
        p90, beyond = percentile(times, 0.9)
        if beyond >= 10:
            info[f"{scheme}_solve_s.p90"] = (p90, "s", len(times))
    info = {k: v for k, v in info.items() if k not in values}
    return values, samples, info


def per_layer(sm, workload, items, spans, overheads):
    values, samples = layer_metrics(spans)
    shape = workload.probe_shape(items[0])
    prices = sm.dynamics.uniform_bids(shape.index).sum(axis=0)
    values["dynamics.bid_update.us"] = micro_us(sm.dynamics.bid_update, shape, prices, 0)
    values["solvers.best_response.us"] = micro_us(sm.solvers.best_response, shape, prices, 0)
    values["trace.overhead_s"] = statistics.median(overheads)
    samples.update({
        "dynamics.bid_update.us": MICRO_REPEATS, "solvers.best_response.us": MICRO_REPEATS,
        "trace.overhead_s": len(overheads),
    })
    return values, samples


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    sm, workload, items, own_setup_s = setup(workload_name, seed)
    scratch = OUT / f"tmp-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        spans = []
        if trace:
            with workload.tracer.installed():
                workload.inputs()
            spans = workload.tracer.collect()
        units, records, setup_times, unit_spans, overheads = measure(workload, items, seconds, trace, scratch)
        spans.extend(unit_spans)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not records:
        fail("no solve was recorded")

    facts = machine_facts()
    print("# machine " + " ".join(f"{k}={v!r}" if " " in str(v) else f"{k}={v}" for k, v in facts.items()))
    attempted, failed = operation_counts(units, records)
    print(f"# workload={workload_name} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"units={len(units)} solves={len(records)} attempted={attempted} failed={failed}")
    problems = [p for r in records for p in r["problems"]] + [p for u in units for p in u["problems"]]
    for problem in problems[:20]:
        print(f"# FAILED: {problem}")

    e2e, samples, info, layer, layer_samples = {}, {}, {}, {}, {}
    if trace:
        layer, layer_samples = per_layer(sm, workload, items, spans, overheads)
        for name, unit_name in PER_LAYER.items():
            print(f"{name:40s} {layer[name]:>16.6g} {unit_name:8s} n={layer_samples[name]}")
        if layer_samples.get("dynamics.iterations.p90", 0) >= 10:
            print(f"{'dynamics.iterations.p90':40s} {layer['dynamics.iterations.p90']:>16.6g} count    (info)")
        metrics = {name: {"value": layer[name], "unit": u} for name, u in PER_LAYER.items()}
    else:
        e2e, samples, info = end_to_end(units, records, setup_times)
        for name, unit_name in END_TO_END.items():
            print(f"{name:40s} {e2e[name]:>16.6g} {unit_name:8s} n={samples[name]}")
        for name, (value, unit_name, n) in info.items():
            print(f"{name:40s} {value:>16.6g} {unit_name:8s} n={n} (info)")
        metrics = {name: {"value": e2e[name], "unit": u} for name, u in END_TO_END.items()}

    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": facts, "metrics": e2e, "samples": samples,
        "setup": {"fresh_interpreter_s": setup_times, "in_process_s": own_setup_s},
        "info": {k: {"value": v[0], "unit": v[1], "n": v[2]} for k, v in info.items()},
        "layers": layer, "layer_samples": layer_samples, "units": units,
        "solves": [{k: r[k] for k in ("scheme", "key", "alpha", "cells", "s", "method", "iterations", "converged")}
                   for r in records],
    }
    (OUT / f"{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    if trace:
        with open(OUT / f"{workload_name}-seed{seed}-spans.jsonl", "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, extra in spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end, "extra": extra}) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up alone and print its seconds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_only:
        print(repr(setup(args.workload, args.seed)[3]))
        return 0
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
