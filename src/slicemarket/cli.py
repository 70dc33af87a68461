"""Command-line front end.

Subcommands: ``solve`` (one instance, one scheme), ``dynamics`` (trace a
trading-post run), ``experiment`` (batch study per config), ``compare``
(three-scheme report), ``gen`` (emit scenario files).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from .dynamics import run_dynamics
from .experiments import (
    ExperimentConfig,
    SCHEME_SOLVERS,
    _write_csv,
    _write_price_trace,
    load_config,
    run_experiment,
    score_schemes,
)
from .model import load_scenario, normalize_scenario, save_scenario
from .scenarios import LoadModel, generate_instances, instantiate, benchmark_preset
from .solvers import poa_bound


def _parse_alpha_list(text: str) -> tuple[float, ...]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        out.append(math.inf if part.lower() in ("inf", "infinity") else float(part))
    if not out:
        raise argparse.ArgumentTypeError("empty alpha list")
    return tuple(out)


def _load_spec(args):
    """Scenario from --config, or a preset instance drawn at --seed (0 if none)."""
    if args.config:
        return load_scenario(args.config)
    return instantiate(benchmark_preset(), LoadModel(seed=args.seed or 0), 0)


def _print_report(rep, index) -> None:
    print(f"method: {rep.method}  iterations: {rep.iterations}  converged: {rep.converged}")
    for key, val in rep.residuals.items():
        print(f"  {key}: {val:.3e}")
    print("per-provider utility (degree-one aggregate) and spending:")
    for s, name in enumerate(index.sp_names):
        print(f"  {name}: utility={rep.utilities[s]:.6g} spend={rep.spending[s]:.6g}")
    print("prices (cell, resource, price of whole resource):")
    for g, (cell, res) in enumerate(index.goods):
        print(f"  {cell} {res}: {rep.prices[g]:.6g}")


def _single_alpha(args):
    if args.alpha is None:
        return None
    if len(args.alpha) != 1:
        raise ValueError("this command takes a single --alpha value")
    return args.alpha[0]


def cmd_solve(args) -> int:
    spec = _load_spec(args)
    alpha = _single_alpha(args)
    if alpha is not None:
        spec = spec.with_alphas(alpha)
    scn = normalize_scenario(spec)
    rep = SCHEME_SOLVERS[args.scheme](scn)
    _print_report(rep, scn.index)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"solve_{args.scheme}.json")
        doc = {
            "scheme": args.scheme,
            "method": rep.method,
            "converged": bool(rep.converged),
            "iterations": int(rep.iterations),
            "residuals": {k: float(v) for k, v in rep.residuals.items()},
            "utilities": {n: float(u) for n, u in zip(scn.index.sp_names, rep.utilities)},
            "prices": {f"{c}/{r}": float(p) for (c, r), p in zip(scn.index.goods, rep.prices)},
            "rates": {
                "/".join(t): float(u) for t, u in zip(scn.index.triples, rep.allocation.rates)
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


def cmd_dynamics(args) -> int:
    spec = _load_spec(args)
    alpha = _single_alpha(args)
    if alpha is not None:
        spec = spec.with_alphas(alpha)
    scn = normalize_scenario(spec)
    rep = run_dynamics(scn, max_iterations=args.iterations)
    _print_report(rep, scn.index)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "price_trace.csv")
        _write_price_trace(path, range(len(rep.price_trace)), scn.index.goods, rep.price_trace)
        print(f"wrote {path}")
    return 0


def cmd_experiment(args) -> int:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out:
        overrides["out"] = args.out
    if args.alpha is not None:
        overrides["alphas"] = args.alpha
    if args.instances is not None:
        overrides["instances"] = args.instances
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.scheme:
        overrides["schemes"] = tuple(args.scheme)
    if args.full_paper_scale:
        overrides["full_paper_scale"] = True
    cfg = replace(cfg, **overrides)
    result = run_experiment(cfg)
    # every row of a run carries its flag: one (instance, alpha, scheme) each
    failed = list(dict.fromkeys(row[:3] for row in result.rows if not row[11]))
    n_runs = cfg.instance_count * len(cfg.alphas) * len(cfg.schemes)
    print(
        f"solved {cfg.instance_count} instances x {len(cfg.alphas)} alphas x "
        f"{len(cfg.schemes)} schemes -> {len(result.rows)} rows "
        f"({len(failed)} of {n_runs} runs non-converged)"
    )
    for instance, alpha, scheme in failed:
        print(f"  non-converged: instance {instance} alpha {alpha:g} scheme {scheme}")
    print(f"results under {cfg.out}/")
    return 0


def cmd_compare(args) -> int:
    spec = _load_spec(args)
    alphas = args.alpha or (1.0, 2.0, 3.0)
    rows = []
    print("scheme comparison (per-provider degree-one utilities)")
    for alpha in alphas:
        scn = normalize_scenario(spec.with_alphas(float(alpha)))
        reports = {name: SCHEME_SOLVERS[name](scn) for name in ("so", "me", "ss")}
        welfare, nash, poa = score_schemes(scn.index.budgets, reports)
        bound = math.nan
        if poa is not None:
            # a static share is the standalone optimum scaled by the budgets
            max_utils = reports["ss"].utilities / scn.index.budgets
            bound = poa_bound(scn, max_utils, reports["so"], reports["me"])[1]
        print(f"alpha = {alpha:g}")
        for scheme, rep in reports.items():
            utils = " ".join(f"{name}={u:.5g}" for name, u in zip(scn.index.sp_names, rep.utilities))
            print(f"  {scheme.upper():2s}: welfare={welfare[scheme]:.6g}  {utils}")
            rows.extend(
                (float(alpha), scheme, name, rep.utilities[s], welfare[scheme], nash[scheme], poa, bound)
                for s, name in enumerate(scn.index.sp_names)
            )
        poa_text = "n/a" if poa is None else f"{poa:.5g}"
        me_minus_ss = reports["me"].utilities - reports["ss"].utilities
        print(f"  PoA={poa_text} (bound {bound:.5g})  min ME-SS={me_minus_ss.min():.3g}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "compare.csv")
        _write_csv(
            path,
            ("alpha", "scheme", "sp", "utility", "welfare", "nash_welfare", "poa", "poa_bound"),
            rows,
        )
        print(f"wrote {path}")
    return 0


def cmd_gen(args) -> int:
    template = load_scenario(args.config) if args.config else benchmark_preset()
    load = LoadModel(seed=args.seed or 0)
    specs = generate_instances(template, load, 10 if args.instances is None else args.instances)
    out = args.out or "scenarios"
    os.makedirs(out, exist_ok=True)
    for k, spec in enumerate(specs):
        save_scenario(spec, os.path.join(out, f"scenario_{k:04d}.json"))
    print(f"wrote {len(specs)} scenario files under {out}/")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicemarket",
        description="Market-based multi-resource allocation for network slicing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scheme=False):
        p.add_argument("--config", help="scenario or experiment JSON path")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--alpha", type=_parse_alpha_list, default=None,
                       help="comma-separated fairness parameters (inf allowed)")
        if scheme:
            p.add_argument("--scheme", choices=("me", "so", "ss"), default="me")

    p = sub.add_parser("solve", help="solve one instance with one scheme")
    common(p, scheme=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("dynamics", help="trace a trading-post bid dynamics run")
    common(p)
    p.add_argument("--iterations", type=int, default=10000)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("experiment", help="run a batch experiment")
    common(p)
    p.add_argument("--scheme", action="append", choices=("me", "so", "ss"),
                   help="restrict to a scheme (repeatable)")
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None, help="parallel workers")
    p.add_argument("--full-paper-scale", action="store_true",
                   help="run the full 2000-instance batch")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("compare", help="three-scheme welfare report for one instance")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen", help="emit scenario JSON files")
    common(p)
    p.add_argument("--instances", type=int, default=None)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
