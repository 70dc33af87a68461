"""Span tracing of the slicemarket layers, installed from outside the library.

Every public function of the measured modules is wrapped at every place the
program looks it up: the defining module, each module that imported the name
(``from .market import verify_equilibrium`` binds a second reference in
``dynamics`` and ``solvers``), the package namespace and
``experiments.SCHEME_SOLVERS``.  Names that ``solvers`` and ``dynamics``
import lazily inside function bodies are read from the defining module at
call time, so patching that module covers them.  ``scipy.optimize`` as the
``solvers`` module sees it is replaced by a proxy whose ``minimize`` and
``linprog`` are traced, which attributes SLSQP and HiGHS time to the solver
span that called them.

Spans are ``(id, parent, name, start_ns, end_ns, extra)`` tuples kept in
memory; :meth:`Tracer.collect` hands them over and empties the list.
"""

from __future__ import annotations

import os
import statistics
import time
import types
from contextlib import contextmanager

MODULES = ("scenarios", "model", "market", "dynamics", "solvers", "experiments", "charts")


def _extra(name: str, args, kwargs, result):
    """Per-span facts the layer metrics need beyond timing."""
    if name == "solvers.solve_eg":
        return [result.method, int(result.iterations), bool(result.converged)]
    if name == "dynamics.run_dynamics":
        config = args[1] if len(args) > 1 else kwargs.get("config")
        return [int(result.iterations), bool(result.converged), getattr(config, "max_iterations", None)]
    if name == "solvers.solve_social_optimal":
        return [bool(result.converged)]
    if name in ("experiments.emit_csv", "experiments.emit_plotdata"):
        return [sum(os.path.getsize(p) for p in result)]
    return None


class Tracer:
    """Installs span-recording wrappers into the imported slicemarket
    package and removes them again."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.stack: list[int] = []
        self.counter = 0
        self._saved: list[tuple] = []
        self._wrappers: dict = {}

    def collect(self) -> list:
        """The spans recorded so far, emptying the list."""
        out, self.spans = self.spans, []
        return out

    def _wrap(self, fn, name: str):
        if fn in self._wrappers:
            return self._wrappers[fn]
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else 0
            tracer.counter += 1
            sid = tracer.counter
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            tracer.spans.append((sid, parent, name, start, end, _extra(name, args, kwargs, result)))
            return result

        traced.__wrapped__ = fn
        self._wrappers[fn] = traced
        return traced

    def _set(self, container, key, value) -> None:
        if isinstance(container, dict):
            self._saved.append((container, key, container[key]))
            container[key] = value
        else:
            self._saved.append((container, key, getattr(container, key)))
            setattr(container, key, value)

    def install(self) -> None:
        pkg = self.package
        mods = [getattr(pkg, m) for m in MODULES]
        public = {}
        for mod in mods:
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    public[obj] = f"{mod.__name__.rsplit('.', 1)[1]}.{attr}"
        for holder in [pkg, *mods]:
            for attr, obj in list(vars(holder).items()):
                if isinstance(obj, types.FunctionType) and obj in public:
                    self._set(holder, attr, self._wrap(obj, public[obj]))
        table = pkg.experiments.SCHEME_SOLVERS
        for key, fn in list(table.items()):
            self._set(table, key, self._wrap(fn, public[fn]))
        real = pkg.solvers.optimize
        proxy = types.SimpleNamespace(**{k: getattr(real, k) for k in dir(real) if not k.startswith("__")})
        proxy.minimize = self._wrap(real.minimize, "scipy.optimize.minimize")
        proxy.linprog = self._wrap(real.linprog, "scipy.optimize.linprog")
        self._set(pkg.solvers, "optimize", proxy)

    def uninstall(self) -> None:
        while self._saved:
            container, key, value = self._saved.pop()
            if isinstance(container, dict):
                container[key] = value
            else:
                setattr(container, key, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------

def self_times(spans) -> dict[int, float]:
    """Span id -> seconds not covered by child spans."""
    child_ns: dict[int, int] = {}
    for _sid, parent, _name, start, end, _extra in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    return {s[0]: (s[4] - s[3] - child_ns.get(s[0], 0)) / 1e9 for s in spans}


def percentile(values, q):
    """Inclusive ``q`` quantile and the number of samples strictly beyond it."""
    if len(values) == 1:
        return float(values[0]), 0
    cut = statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
    return float(cut), sum(1 for v in values if v > cut)


def layer_metrics(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer figures from the span list.

    Returns ``(values, samples)``: ``samples`` gives the number of spans
    behind each figure.
    """
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)
    own = self_times(spans)
    name_of = {s[0]: s[2] for s in spans}
    values: dict[str, float] = {}
    samples: dict[str, int] = {}

    def dur(group):
        return sum(s[4] - s[3] for s in group) / 1e9

    def put(key, value, n):
        values[key] = value
        samples[key] = n

    def calls_and_time(prefix, name):
        group = by_name.get(name, [])
        put(f"{prefix}.calls", len(group), len(group))
        put(f"{prefix}.s", dur(group), len(group))
        return group

    calls_and_time("scenarios.instantiate", "scenarios.instantiate")
    calls_and_time("model.normalize_scenario", "model.normalize_scenario")

    runs = calls_and_time("dynamics.run_dynamics", "dynamics.run_dynamics")
    solve_runs = [s for s in runs if name_of.get(s[1]) == "solvers.solve_eg"]
    iters = [s[5][0] for s in solve_runs]
    n = len(iters)
    put("dynamics.iterations.n", n, n)
    put("dynamics.iterations.p50", float(statistics.median(iters)) if iters else 0.0, n)
    put("dynamics.iterations.max", max(iters) if iters else 0, n)
    if n:
        # printed only where ten samples lie beyond it
        values["dynamics.iterations.p90"], samples["dynamics.iterations.p90"] = percentile(iters, 0.9)
    put("dynamics.cap_hits", sum(1 for s in solve_runs if not s[5][1] and s[5][2] and s[5][0] >= s[5][2]), n)
    total_iters = sum(iters)
    put("dynamics.us_per_iteration", dur(solve_runs) / total_iters * 1e6 if total_iters else 0.0, n)
    calls_and_time("dynamics.eval_potential", "dynamics.eval_potential")

    eg = by_name.get("solvers.solve_eg", [])
    tat = [s for s in eg if s[5][0] == "tatonnement"]
    put("solvers.tatonnement.calls", len(tat), len(tat))
    put("solvers.tatonnement.s", dur(tat), len(tat))
    put(
        "solvers.tatonnement.iterations",
        float(statistics.median([s[5][1] for s in tat])) if tat else 0.0,
        len(tat),
    )

    def nested(parent_name, child_name):
        kids = [s for s in by_name.get(child_name, []) if name_of.get(s[1]) == parent_name]
        return len(kids), dur(kids)

    so = calls_and_time("solvers.social_optimal", "solvers.solve_social_optimal")
    k, t = nested("solvers.solve_social_optimal", "scipy.optimize.minimize")
    put("solvers.social_optimal.slsqp_calls", k, k)
    put("solvers.social_optimal.slsqp_s", t, k)
    put("solvers.social_optimal.other_s", sum(own[s[0]] for s in so), len(so))

    calls_and_time("solvers.static_share", "solvers.static_share")
    k, t = nested("solvers.static_share", "scipy.optimize.minimize")
    put("solvers.static_share.slsqp_calls", k, k)
    put("solvers.static_share.slsqp_s", t, k)
    k, t = nested("solvers.static_share", "scipy.optimize.linprog")
    put("solvers.static_share.linprog_calls", k, k)
    put("solvers.static_share.linprog_s", t, k)

    calls_and_time("solvers.best_response", "solvers.best_response")
    calls_and_time("market.verify_equilibrium", "market.verify_equilibrium")

    uncert = {"dynamics": 0, "tatonnement": 0}
    for s in eg:
        if not s[5][2] and s[5][0] in uncert:
            uncert[s[5][0]] += 1
    put("market.uncertified.dynamics", uncert["dynamics"], len(eg))
    put("market.uncertified.tatonnement", uncert["tatonnement"], len(eg))
    put("market.uncertified.social_optimal", sum(1 for s in so if not s[5][0]), len(so))

    calls_and_time("experiments.run_experiment", "experiments.run_experiment")
    for emit in ("emit_csv", "emit_plotdata"):
        group = by_name.get(f"experiments.{emit}", [])
        put(f"experiments.{emit}.s", dur(group), len(group))
        put(f"experiments.{emit}.bytes", sum(s[5][0] for s in group), len(group))
    calls_and_time("charts.line_chart", "charts.line_chart")
    put("trace.spans", len(spans), len(spans))
    return values, samples
