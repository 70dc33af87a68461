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

from .dynamics import DynamicsConfig, run_dynamics
from .experiments import (
    ExperimentConfig,
    SCHEME_SOLVERS,
    _write_csv,
    _write_price_trace,
    compare_schemes,
    load_config,
    run_experiment,
)
from .model import load_scenario, normalize_scenario, save_scenario
from .scenarios import LoadModel, generate_instances, instantiate, benchmark_preset


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


def _load_spec(args, seed: int):
    """Scenario from --config, or a preset instance drawn at the seed."""
    if args.config:
        return load_scenario(args.config)
    return instantiate(benchmark_preset(), LoadModel(seed=seed), 0)


def _print_report(rep, index) -> None:
    print(f"method: {rep.method}  iterations: {rep.iterations}  converged: {rep.converged}")
    if rep.surrogate_alphas:
        print(f"alpha surrogates applied for: {sorted(rep.surrogate_alphas)}")
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
    spec = _load_spec(args, args.seed)
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
    spec = _load_spec(args, args.seed)
    alpha = _single_alpha(args)
    if alpha is not None:
        spec = spec.with_alphas(alpha)
    scn = normalize_scenario(spec)
    rep = run_dynamics(scn, DynamicsConfig(max_iterations=args.iterations))
    _print_report(rep, scn.index)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "price_trace.csv")
        _write_price_trace(path, rep.trace_iterations.tolist(), scn.index.goods, rep.price_trace)
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
    n_fail = sum(1 for row in result.rows if not row[11])
    print(
        f"solved {cfg.instance_count} instances x {len(cfg.alphas)} alphas x "
        f"{len(cfg.schemes)} schemes -> {len(result.rows)} rows ({n_fail} non-converged)"
    )
    print(f"results under {cfg.out}/")
    return 0


def cmd_compare(args) -> int:
    spec = _load_spec(args, args.seed)
    alphas = args.alpha or (1.0, 2.0, 3.0)
    report = compare_schemes(spec, alphas)
    print("scheme comparison (per-provider degree-one utilities)")
    for comp in report.comparisons:
        print(f"alpha = {comp.alpha:g}")
        for scheme in ("so", "me", "ss"):
            utils = " ".join(
                f"{name}={u:.5g}" for name, u in zip(report.sp_names, comp.utilities[scheme])
            )
            print(f"  {scheme.upper():2s}: welfare={comp.welfare[scheme]:.6g}  {utils}")
        poa = "n/a" if comp.poa_value is None else f"{comp.poa_value:.5g}"
        print(f"  PoA={poa} (bound {comp.poa_bound:.5g})  min ME-SS={comp.me_minus_ss.min():.3g}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "compare.csv")
        _write_csv(
            path,
            ("alpha", "scheme", "sp", "utility", "welfare", "nash_welfare", "poa", "poa_bound"),
            [
                (
                    comp.alpha,
                    scheme,
                    name,
                    comp.utilities[scheme][s],
                    comp.welfare[scheme],
                    comp.nash[scheme],
                    comp.poa_value,
                    comp.poa_bound,
                )
                for comp in report.comparisons
                for scheme in ("so", "me", "ss")
                for s, name in enumerate(report.sp_names)
            ],
        )
        print(f"wrote {path}")
    return 0


def cmd_gen(args) -> int:
    template = load_scenario(args.config) if args.config else benchmark_preset()
    load = LoadModel(seed=args.seed if args.seed is not None else 0)
    out = args.out or "scenarios"
    os.makedirs(out, exist_ok=True)
    count = args.instances or 10
    for k, spec in enumerate(generate_instances(template, load, count)):
        save_scenario(spec, os.path.join(out, f"scenario_{k:04d}.json"))
    print(f"wrote {count} scenario files under {out}/")
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
    # default the seed where the command needs one
    if getattr(args, "seed", None) is None:
        args.seed = 0
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
