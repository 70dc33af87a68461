"""The certification census: every scheme on fixed market recipes, one
record per report.

Run it from the repository root::

    PYTHONPATH=src python tests/census.py --out CENSUS_28.json
    PYTHONPATH=src python tests/census.py --compare CENSUS_27.json CENSUS_28.json

A run solves every recipe with the market equilibrium (``me``), the social
optimum (``so``) and the static share (``ss``), and with the bid dynamics
(``dyn``) where every provider's alpha is in ``[1, inf]``.  Each report is
recorded with its status (``certified``, ``uncertified``, ``raised``, or
``rejected`` by ``normalize_scenario``), whether it is *silent* (converged
with a zero or infinite utility at positive rates), its duality gap, its
steps and a fingerprint of the float-hex forms of its prices, rates,
utilities, residuals, steps and flag, so that two runs can be called
bit-identical by comparing fingerprints.  SO and ME reports keep their
prices and every report its utilities, for comparisons within a tolerance.

``KNOWN`` lists the failures known today, each with the ROADMAP item that
owns it.  A run writes its file, reports every unlisted failure and every
listed one that now certifies, and exits 1 if there is either, so that
``KNOWN`` cannot go stale.
``--compare`` reads two runs' files, prints what changed between them and
exits 1 if some report lost its converged flag.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import warnings
from dataclasses import replace

import numpy as np

from slicemarket import (
    LoadModel,
    benchmark_preset,
    instantiate,
    normalize_scenario,
    random_scenario,
    run_dynamics,
    solve_eg,
    solve_social_optimal,
    static_share,
)

PAPER_ALPHAS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 100.0, math.inf)
#: The band around alpha 1 where the default weights ``users**alpha`` leave
#: float64 (ROADMAP item 8), and alpha 150.
EDGE_ALPHAS = (0.99, 0.999, 1.001, 1.005, 1.01, 1.05, 150.0)
MIX_ALPHAS = [0, 0.5, 0.9, 0.99, 1, 1.01, 2, 5, 20, 100, 150, math.inf]
SIZE_ALPHAS = (0.0, 0.5, 2.0, 5.0, 100.0, math.inf)

SCHEMES = {"me": solve_eg, "so": solve_social_optimal, "ss": static_share}

#: Known failures by the ROADMAP item that owns them, one market a line
#: with the schemes that fail on it: item 2, the bid dynamics' stop at the
#: round cap; item 7, price Newton at alpha 100; item 8, utilities that
#: leave float64 near alpha 1 (every failure of a market with an alpha in
#: 0.9-1.05 but 1).
_FAILING = {
    2: """
        rng5000/k133:dyn
    """,
    7: """
        mix/n1/k11:me
        mix/n2/k9:me
        mix/n2/k58:me
        cells112/sp3-alone-a100:me
        rng77/k1:me
        rng77/k7:me
    """,
    8: """
        preset/s0/a0.99:me,so,ss
        preset/s0/a0.999:me,so,ss
        preset/s0/a1.001:me,so,ss,dyn
        preset/s0/a1.005:me,so,ss,dyn
        preset/s0/a1.01:me,so,ss,dyn
        preset/s1/a0.99:me,so,ss
        preset/s1/a0.999:me,so,ss
        preset/s1/a1.001:me,so,ss,dyn
        preset/s1/a1.005:me,so,ss,dyn
        preset/s1/a1.01:me,so,ss,dyn
        preset/s2/a0.99:me,so,ss
        preset/s2/a0.999:me,so,ss
        preset/s2/a1.001:me,so,ss,dyn
        preset/s2/a1.005:me,so,ss,dyn
        preset/s2/a1.01:me,so,ss,dyn
        preset/s3/a0.99:me,so,ss
        preset/s3/a0.999:me,so,ss
        preset/s3/a1.001:me,so,ss,dyn
        preset/s3/a1.005:me,so,ss,dyn
        preset/s3/a1.01:me,so,ss,dyn
        preset/s4/a0.99:me,so,ss
        preset/s4/a0.999:me,so,ss
        preset/s4/a1.001:me,so,ss,dyn
        preset/s4/a1.005:me,so,ss,dyn
        preset/s4/a1.01:me,so,ss,dyn
        preset/s5/a0.99:me,so,ss
        preset/s5/a0.999:me,so,ss
        preset/s5/a1.001:me,so,ss,dyn
        preset/s5/a1.005:me,so,ss,dyn
        preset/s5/a1.01:me,so,ss,dyn
        preset/s6/a0.99:me,so,ss
        preset/s6/a0.999:me,so,ss
        preset/s6/a1.001:me,so,ss,dyn
        preset/s6/a1.005:me,so,ss,dyn
        preset/s6/a1.01:me,so,ss,dyn
        preset/s7/a0.99:me,so,ss
        preset/s7/a0.999:me,so,ss
        preset/s7/a1.001:me,so,ss,dyn
        preset/s7/a1.005:me,so,ss,dyn
        preset/s7/a1.01:me,so,ss,dyn
        mix/n1/k22:me,so,ss,dyn
        mix/n1/k35:me,so,ss,dyn
        mix/n1/k39:me,so,ss
        mix/n1/k71:me,so,ss
        mix/n2/k3:me,ss
        mix/n2/k4:me,ss
        mix/n2/k5:me,so,ss
        mix/n2/k8:me,so,ss
        mix/n2/k22:me,so,ss
        mix/n2/k33:me,ss
        mix/n2/k36:me,ss,dyn
        mix/n2/k45:me,so,ss,dyn
        mix/n2/k49:me,ss,dyn
        mix/n2/k63:me,so,ss
        mix/n2/k65:me,so,ss
        mix/n4/k0:me,so,ss
        mix/n4/k4:me,so,ss
        mix/n4/k18:me,ss
        mix/n4/k24:me,ss,dyn
        mix/n4/k26:me,so,ss
        mix/n4/k29:me,so,ss
        mix/n4/k30:me,ss,dyn
        mix/n4/k38:me,so,ss
        mix/n4/k53:me,ss
        mix/n4/k57:me,ss
        mix/n4/k75:me,ss
        mix/n4/k77:me,so,ss
    """,
}
KNOWN = {
    f"{key}/{scheme}": item
    for item, lines in _FAILING.items()
    for key, schemes in (line.split(":") for line in lines.split())
    for scheme in schemes.split(",")
}


def alpha_label(alpha: float) -> str:
    return "inf" if math.isinf(alpha) else f"{alpha:g}"


def recipes():
    """``(key, build)`` of every market of the census, in a fixed order;
    ``build()`` returns the market's spec."""
    for seed in range(8):
        spec = instantiate(benchmark_preset(), LoadModel(seed=seed), 0)
        for alpha in PAPER_ALPHAS + EDGE_ALPHAS:
            yield f"preset/s{seed}/a{alpha_label(alpha)}", lambda spec=spec, alpha=alpha: spec.with_alphas(alpha)
        for other in (1.05, 1.1):
            if seed < 3:
                # ROADMAP item 8: SP1 linear, the others just above alpha 1
                yield f"preset/s{seed}/sp1-0-{other:g}", lambda spec=spec, other=other: replace(
                    spec, sps=tuple(replace(sp, alpha=0.0 if i == 0 else other) for i, sp in enumerate(spec.sps))
                )
    for k in range(150):
        yield f"rng5000/k{k}", lambda k=k: random_scenario(np.random.default_rng(5000 + k))
    for n in (1, 2, 4):
        for k in range(80):
            def mix(n=n, k=k):
                rng = np.random.default_rng(9100 + 1000 * n + k)
                return random_scenario(
                    rng, n_sps=n, n_cells=int(rng.integers(1, 7)), alphas=MIX_ALPHAS, classes_per_sp=3, max_users=200
                )

            yield f"mix/n{n}/k{k}", mix
    for cells in (28, 112):
        spec = instantiate(benchmark_preset(n_cells=cells), LoadModel(seed=3), 0)
        for alpha in SIZE_ALPHAS:
            yield f"cells{cells}/a{alpha_label(alpha)}", lambda spec=spec, alpha=alpha: spec.with_alphas(alpha)
    # ROADMAP item 7: one provider at alpha 100
    spec = instantiate(benchmark_preset(n_cells=112), LoadModel(seed=3), 0).with_alphas(100.0)
    yield "cells112/sp3-alone-a100", lambda spec=spec: replace(spec, sps=(replace(spec.sps[2], budget=1.0),))
    rng = np.random.default_rng(77)
    for k in range(60):
        spec = random_scenario(rng, n_sps=1, alphas=[100.0, 2.0, 5.0])
        yield f"rng77/k{k}", lambda spec=spec: spec


def fingerprint(rep) -> str:
    """A digest of the float-hex forms of everything a report holds."""
    parts = [float(v).hex() for v in np.concatenate([rep.prices, rep.allocation.rates, rep.utilities])]
    parts += [f"{k}={float(v).hex()}" for k, v in sorted(rep.residuals.items())]
    parts += [rep.method, str(rep.iterations), str(rep.converged)]
    return hashlib.sha256(" ".join(parts).encode()).hexdigest()[:16]


def record(key, scheme, scn, solve) -> dict:
    out = {"key": key, "scheme": scheme}
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            # overflowing utilities are reported, not printed
            warnings.simplefilter("ignore", RuntimeWarning)
            rep = solve(scn)
    except Exception as exc:  # noqa: BLE001 - every failure is a census entry
        out.update(status="raised", error=f"{type(exc).__name__}: {exc}")
        return out
    index = scn.index
    served = index.sp_sum(rep.allocation.rates <= 0) == 0
    bad = ~np.isfinite(rep.utilities) | (served & (rep.utilities <= 0.0))
    out.update(
        status="certified" if rep.converged else "uncertified",
        silent=bool(rep.converged and bad.any()),
        method=rep.method,
        gap=float(rep.residuals.get("duality_gap", math.nan)),
        steps=int(rep.iterations),
        seconds=round(time.perf_counter() - start, 4),
        fingerprint=fingerprint(rep),
        welfare=float(index.budgets @ rep.utilities),
        utilities=[float(u) for u in rep.utilities],
    )
    if scheme in ("so", "me"):
        out["prices"] = [float(p) for p in rep.prices]
    return out


def run(keys=None) -> list[dict]:
    """Every record of the census, or of the recipes whose key is in
    ``keys``."""
    records = []
    for key, build in recipes():
        if keys is not None and key not in keys:
            continue
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                scn = normalize_scenario(build())
        except ValueError as exc:
            records.append({"key": key, "scheme": "*", "status": "rejected", "error": str(exc)})
            continue
        for scheme, solve in SCHEMES.items():
            records.append(record(key, scheme, scn, solve))
        alphas = scn.index.alphas
        if np.all(alphas >= 1.0):
            records.append(record(key, "dyn", scn, run_dynamics))
    return records


def failed(rec: dict) -> bool:
    return rec["status"] in ("uncertified", "raised") or rec.get("silent", False)


def check(records: list[dict]) -> tuple[list[str], list[str]]:
    """The unlisted failures and the listed entries that now certify."""
    unlisted, mended = [], []
    for rec in records:
        name = f"{rec['key']}/{rec['scheme']}"
        if failed(rec) and name not in KNOWN:
            unlisted.append(name)
        elif not failed(rec) and name in KNOWN and rec["status"] != "rejected":
            mended.append(name)
    return unlisted, mended


def summary(records: list[dict]) -> dict:
    out: dict = {}
    for rec in records:
        row = out.setdefault(rec["scheme"], {"reports": 0, "steps": 0, "seconds": 0.0})
        row["reports"] += 1
        row[rec["status"]] = row.get(rec["status"], 0) + 1
        row["silent"] = row.get("silent", 0) + int(rec.get("silent", False))
        row["steps"] += rec.get("steps", 0)
        row["seconds"] = round(row["seconds"] + rec.get("seconds", 0.0), 3)
        if rec["status"] == "certified":
            row["worst_gap"] = max(row.get("worst_gap", 0.0), rec["gap"])
    return out


def relative(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    scale = np.maximum(np.abs(a).max(initial=0.0), 1e-300)
    with np.errstate(invalid="ignore"):
        diff = np.where(a == b, 0.0, np.abs(a - b))
    return float(diff.max(initial=0.0) / scale)


def compare(old: list[dict], new: list[dict]) -> list[str]:
    """Print what changed between two runs of the census, and return the
    reports that lost their converged flag."""
    before = {(r["key"], r["scheme"]): r for r in old}
    lost, gained, identical, changed = [], [], {}, {}
    worst: dict[str, tuple[float, str]] = {}
    for rec in new:
        ref = before.get((rec["key"], rec["scheme"]))
        if ref is None:
            continue
        name = f"{rec['key']}/{rec['scheme']}"
        if ref["status"] == "certified" and rec["status"] != "certified":
            lost.append(name)
        if ref["status"] != "certified" and rec["status"] == "certified":
            gained.append(name)
        if "fingerprint" not in rec or "fingerprint" not in ref:
            continue
        kind = rec["scheme"] + ("/" + rec["method"] if rec["scheme"] == "me" else "")
        if rec["scheme"] == "ss":
            kind += "/closed" if ref["steps"] == 0 and rec["steps"] == 0 else "/engine"
        same = rec["fingerprint"] == ref["fingerprint"]
        (identical if same else changed)[kind] = (identical if same else changed).get(kind, 0) + 1
        if same or rec["status"] != "certified" or ref["status"] != "certified":
            continue
        moves = {"utilities": relative(ref["utilities"], rec["utilities"])}
        moves["welfare"] = relative([ref["welfare"]], [rec["welfare"]])
        if "prices" in rec:
            moves["prices"] = relative(ref["prices"], rec["prices"])
        for what, value in moves.items():
            if value > worst.get(f"{kind} {what}", (-1.0, ""))[0]:
                worst[f"{kind} {what}"] = (value, name)
    print(f"converged flags lost: {len(lost)}")
    for name in lost:
        print("  ", name)
    print(f"new certifications: {len(gained)}")
    for name in gained:
        print("  ", name)
    for kind in sorted(set(identical) | set(changed)):
        print(f"{kind}: {identical.get(kind, 0)} bit-identical, {changed.get(kind, 0)} changed")
    for what, (value, name) in sorted(worst.items()):
        print(f"largest relative move, {what}: {value:.2e} ({name})")
    for label, records in (("old", old), ("new", new)):
        print(label, json.dumps(summary(records), sort_keys=True))
    return lost


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the records to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two census files")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.load(open(path, encoding="utf-8"))["reports"] for path in args.compare)
        return 1 if compare(old, new) else 0
    records = run()
    unlisted, mended = check(records)
    if args.out:
        # one report a line, so that two runs' files diff report by report
        lines = ",\n".join(json.dumps(rec, sort_keys=True, separators=(",", ":")) for rec in records)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(f'{{"summary": {json.dumps(summary(records), sort_keys=True)},\n"reports": [\n{lines}\n]}}\n')
    print(json.dumps(summary(records), indent=1, sort_keys=True))
    for name in mended:
        print("listed failure now certifies:", name, f"(item {KNOWN[name]})")
    for name in unlisted:
        print("unlisted failure:", name)
    return 1 if unlisted or mended else 0


if __name__ == "__main__":
    sys.exit(main())
