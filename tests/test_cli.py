"""Command-line interface."""

import csv
import json
from dataclasses import replace

import pytest

from slicemarket import (
    benchmark_preset, experiments, normalize_scenario, poa_bound, save_scenario, instantiate, LoadModel, solvers
)
from slicemarket.cli import main


def test_solve_smoke(tmp_path, capsys):
    out = tmp_path / "solve"
    rc = main(["solve", "--seed", "3", "--scheme", "ss", "--out", str(out)])
    assert rc == 0
    assert (out / "solve_ss.json").exists()
    text = capsys.readouterr().out
    assert "per-provider utility" in text


def test_solve_from_scenario_file(tmp_path):
    spec = instantiate(benchmark_preset(n_cells=2), LoadModel(seed=1), 0)
    path = tmp_path / "scn.json"
    save_scenario(spec, path)
    rc = main(["solve", "--config", str(path), "--alpha", "2"])
    assert rc == 0


def test_dynamics_trace(tmp_path):
    out = tmp_path / "dyn"
    rc = main(["dynamics", "--seed", "1", "--out", str(out), "--iterations", "300"])
    assert rc == 0
    header = (out / "price_trace.csv").read_text().splitlines()[0]
    assert header == "iteration,cell,resource,price"


def test_experiment_with_config_file(tmp_path):
    cfg = {
        "instances": 1,
        "alphas": [1.0],
        "schemes": ["ss"],
        "out": str(tmp_path / "res"),
        "seed": 2,
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    rc = main(["experiment", "--config", str(path)])
    assert rc == 0
    assert (tmp_path / "res" / "results.csv").exists()


def small_config(tmp_path, name, **fields):
    """Path of a config file for a one-instance, one-alpha static-share run
    that writes under ``name``, with ``fields`` added."""
    cfg = {"instances": 1, "alphas": [1.0], "schemes": ["ss"], "out": str(tmp_path / name), **fields}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_experiment_config_seed_is_used_and_flag_overrides_it(tmp_path):
    def results(name, *flags, **fields):
        assert main(["experiment", "--config", small_config(tmp_path, name, **fields), *flags]) == 0
        return (tmp_path / name / "results.csv").read_bytes()

    seed0 = results("none")
    seed5 = results("file5", seed=5)
    assert seed5 != seed0
    assert results("flag5", "--seed", "5") == seed5
    assert results("file5flag0", "--seed", "0", seed=5) == seed0


def test_experiment_flag_overrides(tmp_path):
    rc = main(
        [
            "experiment",
            "--instances", "1",
            "--alpha", "1",
            "--scheme", "ss",
            "--out", str(tmp_path / "res2"),
            "--seed", "2",
            "--jobs", "1",
        ]
    )
    assert rc == 0
    assert (tmp_path / "res2" / "summary.csv").exists()


def test_experiment_summary_counts_runs_not_rows(tmp_path, capsys, monkeypatch):
    """One failed (instance, alpha, scheme) run is one non-converged run,
    however many (provider, cell, class) rows it writes, and it is named."""
    solve = experiments.SCHEME_SOLVERS["ss"]

    def fails_at_two(scn):
        rep = solve(scn)
        return replace(rep, converged=False) if scn.index.alphas[0] == 2.0 else rep

    monkeypatch.setitem(experiments.SCHEME_SOLVERS, "ss", fails_at_two)
    rc = main(["experiment", "--instances", "1", "--alpha", "1,2", "--scheme", "ss", "--out", str(tmp_path)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("(1 of 2 runs non-converged)")
    assert "  non-converged: instance 0 alpha 2 scheme ss" in lines


def test_compare_smoke(tmp_path, capsys):
    rc = main(["compare", "--seed", "2", "--alpha", "1", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "compare.csv").exists()
    assert "PoA" in capsys.readouterr().out


def test_compare_takes_the_poa_bound_from_the_static_share(tmp_path, monkeypatch):
    # one standalone solve per alpha, the static share's, and the bound
    # it gives is the one from a standalone solve of its own
    calls = []
    standalone = solvers._standalone

    def counted(index):
        calls.append(index)
        return standalone(index)

    monkeypatch.setattr(solvers, "_standalone", counted)
    assert main(["compare", "--seed", "2", "--alpha", "1,2", "--out", str(tmp_path)]) == 0
    assert len(calls) == 2
    with open(tmp_path / "compare.csv", encoding="utf-8") as fh:
        written = {float(row["alpha"]): float(row["poa_bound"]) for row in csv.DictReader(fh)}
    spec = instantiate(benchmark_preset(), LoadModel(seed=2), 0)
    for alpha, bound in written.items():
        want = poa_bound(normalize_scenario(spec.with_alphas(alpha)))[1]
        assert bound == pytest.approx(want, rel=1e-12, abs=0.0)
    assert sorted(written) == [1.0, 2.0]


def test_gen_writes_scenarios(tmp_path):
    out = tmp_path / "gen"
    rc = main(["gen", "--out", str(out), "--instances", "3", "--seed", "4"])
    assert rc == 0
    files = sorted(out.glob("scenario_*.json"))
    assert len(files) == 3
    doc = json.loads(files[0].read_text())
    assert doc["schema_version"] == 1
    assert {c["id"] for c in doc["cells"]} == {f"cell{i}" for i in range(1, 8)}


def test_gen_rejects_zero_instances(tmp_path, capsys):
    out = tmp_path / "gen"
    rc = main(["gen", "--out", str(out), "--instances", "0"])
    assert rc == 2
    assert "count must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_default_weight_is_an_error(capsys):
    rc = main(["solve", "--scheme", "me", "--alpha", "200"])
    assert rc == 2
    assert "overflows; supply explicit weights" in capsys.readouterr().err


def test_alpha_inf_parsing(tmp_path):
    rc = main(["solve", "--seed", "1", "--alpha", "inf", "--scheme", "ss"])
    assert rc == 0


def test_bad_scheme_is_usage_error():
    with pytest.raises(SystemExit):
        main(["solve", "--scheme", "bogus"])


def test_solve_rejects_alpha_list(capsys):
    rc = main(["solve", "--seed", "1", "--alpha", "1,2"])
    assert rc == 2
    assert "single --alpha" in capsys.readouterr().err


def test_missing_config_reports_error(capsys):
    rc = main(["solve", "--config", "/nonexistent/path.json"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_config_field_reports_error(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"alphas": "oops"}))
    rc = main(["experiment", "--config", str(path)])
    assert rc == 2
    assert "alphas" in capsys.readouterr().err


BAD_FIELDS = {
    "instances": {"instances": 2.5},
    "seed": {"seed": 1.9},
    "jobs": {"jobs": True},
    "full_paper_scale": {"full_paper_scale": "false"},
    "load_model.seed": {"load_model": {"seed": 1.5}},
    "load_model.floor": {"load_model": {"floor": True}},
    # a string is not iterated, a bool is not 1, and NaN is no number
    "alphas": {"alphas": "12"},
    "budget_alphas": {"budget_alphas": [True, 2]},
    "budget_fractions": {"budget_fractions": [0.5, float("nan")]},
}


@pytest.mark.parametrize("field", BAD_FIELDS)
def test_wrongly_typed_config_field_is_an_error(tmp_path, capsys, field):
    rc = main(["experiment", "--config", small_config(tmp_path, "res", **BAD_FIELDS[field])])
    assert rc == 2
    assert field in capsys.readouterr().err


def test_config_alphas_read_infinity_as_a_scenario_does():
    cfg = experiments.config_from_dict({"alphas": [0, "inf", "Infinity", 2.5], "budget_alphas": ["INF"]})
    assert cfg.alphas == (0.0, float("inf"), float("inf"), 2.5)
    assert cfg.budget_alphas == (float("inf"),)
