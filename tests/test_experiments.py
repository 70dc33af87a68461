"""Experiment orchestration, CSV/plot emission, scheme comparison."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from slicemarket import (
    CellDef,
    ClassDef,
    DynamicsConfig,
    LoadModel,
    ProviderDef,
    ResourceDef,
    ScenarioSpec,
    SupportEntry,
    benchmark_preset,
    instantiate,
    normalize_scenario,
    run_dynamics,
)
from slicemarket.experiments import (
    CONVERGENCE_ROUNDS,
    CSV_COLUMNS,
    PRICE_TRACE_COLUMNS,
    ExperimentConfig,
    ExperimentResult,
    _convergence_study,
    _write_csv,
    _write_price_trace,
    compare_schemes,
    config_from_dict,
    emit_csv,
    emit_plotdata,
    run_experiment,
)
from tests.test_market import make_scn


def tiny_config(tmp_path, **kw):
    defaults = dict(
        instances=2,
        alphas=(1.0, 2.0),
        schemes=("me", "ss"),
        out=str(tmp_path / "out"),
        seed=5,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestRunExperiment:
    def test_row_schema_and_counts(self, tmp_path):
        cfg = tiny_config(tmp_path)
        result = run_experiment(cfg)
        rows = read_csv(tmp_path / "out" / "results.csv")
        assert tuple(rows[0]) == CSV_COLUMNS
        # 2 instances x 2 alphas x 2 schemes x 42 triples
        assert len(rows) - 1 == 2 * 2 * 2 * 42
        assert len(result.rows) == len(rows) - 1

    def test_ss_single_scheme_rates(self, tmp_path):
        cfg = tiny_config(tmp_path, instances=1, alphas=(1.0,), schemes=("ss",))
        result = run_experiment(cfg)
        # SS rows carry per-(sp, cell, class) per-user rates under the caps
        assert all(row[2] == "ss" for row in result.rows)
        assert all(row[6] > 0 for row in result.rows)
        assert all(row[11] for row in result.rows)

    def test_parallel_runs_are_byte_identical(self, tmp_path):
        cfg1 = tiny_config(tmp_path, out=str(tmp_path / "a"), jobs=1)
        cfg2 = tiny_config(tmp_path, out=str(tmp_path / "b"), jobs=2)
        run_experiment(cfg1)
        run_experiment(cfg2)
        for name in ("results.csv", "summary.csv", "alpha_effect.csv", "welfare.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_me_rows_consistent_with_convergence_flag(self, tmp_path):
        cfg = tiny_config(tmp_path, instances=1, schemes=("me",))
        result = run_experiment(cfg)
        assert all(row[11] for row in result.rows)

    def test_reaggregation_oracle(self, tmp_path):
        """summary.csv must match an independent re-aggregation of results.csv."""
        cfg = tiny_config(tmp_path, instances=3)
        run_experiment(cfg)
        rows = read_csv(tmp_path / "out" / "results.csv")[1:]
        groups = {}
        for row in rows:
            key = (row[1], row[2], row[3], row[5])
            groups.setdefault(key, []).append(float(row[6]))
        summary = read_csv(tmp_path / "out" / "summary.csv")[1:]
        for rec in summary:
            key = tuple(rec[:4])
            assert key in groups
            assert float(rec[4]) == pytest.approx(np.mean(groups[key]), abs=1e-9)
            assert float(rec[5]) == pytest.approx(np.var(groups[key]), abs=1e-9)

    def test_sensitivity_and_convergence_studies(self, tmp_path):
        cfg = tiny_config(
            tmp_path,
            instances=1,
            alphas=(1.0,),
            schemes=("me",),
            budget_sweep_sp="SP1",
            budget_fractions=(0.2, 0.5, 0.8),
            budget_alphas=(1.0,),
        )
        run_experiment(cfg)
        sens = read_csv(tmp_path / "out" / "sensitivity.csv")
        assert sens[0] == ["fraction", "alpha", "scheme", "mean_rate", "converged"]
        assert len(sens) - 1 == 3
        conv = read_csv(tmp_path / "out" / "convergence.csv")
        assert conv[0] == ["iteration", "cell", "resource", "price"]
        assert (tmp_path / "out" / "convergence.svg").exists()
        assert (tmp_path / "out" / "sensitivity.svg").exists()

    def test_svg_is_well_formed(self, tmp_path):
        cfg = tiny_config(tmp_path, instances=1, alphas=(1.0,))
        run_experiment(cfg)
        svg = (tmp_path / "out" / "alpha_effect.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "polyline" in svg


def test_emit_csv_empty_result_is_header_only(tmp_path):
    cfg = ExperimentConfig(out=str(tmp_path))
    result = ExperimentResult(config=cfg, rows=[], sensitivity_rows=[])
    emit_csv(result, str(tmp_path))
    rows = read_csv(tmp_path / "results.csv")
    assert rows == [list(CSV_COLUMNS)]
    emit_plotdata(result, str(tmp_path))
    assert (tmp_path / "alpha_effect.csv").exists()


class TestPriceTrace:
    def test_study_is_the_dynamics_price_trace(self):
        load = LoadModel(seed=11)
        goods, path = _convergence_study(benchmark_preset(), load)
        scn = normalize_scenario(instantiate(benchmark_preset(), load, 0).with_alphas(1.0))
        rep = run_dynamics(scn, DynamicsConfig(max_iterations=CONVERGENCE_ROUNDS, tol=0.0))
        assert goods == scn.index.goods
        assert path.shape == (CONVERGENCE_ROUNDS + 1, scn.index.n_goods)
        assert np.array_equal(path, rep.price_trace)

    def test_writer_quotes_names_like_csv_writer(self, tmp_path):
        # names are not validated: a comma, a double quote and a newline
        # each make csv.writer quote the field
        cells = (
            CellDef('c,"0"', (ResourceDef("r0", 1.0), ResourceDef('r"1', 2.0))),
            CellDef("c\n1", (ResourceDef("r0", 1.5), ResourceDef("r,2", 1.0))),
        )
        classes = (ClassDef("k0", {"r0": 0.6, 'r"1': 0.2}), ClassDef("k1", {"r0": 0.3, "r,2": 0.8}))
        sps = (
            ProviderDef("sp0", 0.6, 2.0, (SupportEntry('c,"0"', "k0", 3), SupportEntry("c\n1", "k1", 2))),
            ProviderDef("sp1", 0.4, 1.0, (SupportEntry('c,"0"', "k0", 1), SupportEntry("c\n1", "k1", 4))),
        )
        scn = normalize_scenario(ScenarioSpec(cells, classes, sps))
        rep = run_dynamics(scn, DynamicsConfig(max_iterations=40, trace_stride=3))
        rows = [
            (int(it), cell, resource, float(rep.price_trace[k, g]))
            for k, it in enumerate(rep.trace_iterations)
            for g, (cell, resource) in enumerate(scn.index.goods)
        ]
        _write_csv(str(tmp_path / "rows.csv"), PRICE_TRACE_COLUMNS, rows)
        _write_price_trace(
            str(tmp_path / "array.csv"), rep.trace_iterations.tolist(), scn.index.goods, rep.price_trace
        )
        expected = (tmp_path / "rows.csv").read_bytes()
        assert b'"c,""0"""' in expected and b'"r""1"' in expected and b'"c\n1"' in expected
        assert (tmp_path / "array.csv").read_bytes() == expected


class TestConfig:
    def test_from_dict_roundtrip(self):
        cfg = config_from_dict(
            {
                "scenario": "preset",
                "alphas": [1, 2],
                "instances": 7,
                "schemes": ["ME", "ss"],
                "load_model": {"mean": 50.0, "variance": 10.0},
                "seed": 3,
            }
        )
        assert cfg.instances == 7
        assert cfg.schemes == ("me", "ss")
        assert cfg.load.mean == 50.0

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            config_from_dict({"skedule": [1]})

    def test_bad_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            config_from_dict({"schemes": ["zz"]})

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"alphas": [-1.0]})

    def test_full_paper_scale(self):
        cfg = ExperimentConfig(full_paper_scale=True)
        assert cfg.instance_count == 2000

    def test_requires_a_scheme(self):
        with pytest.raises(ValueError):
            ExperimentConfig(schemes=())


class TestCompareSchemes:
    def test_single_sp_schemes_coincide(self):
        scn = make_scn([[0.5, 0.25]], [2.0], [1.0])
        report = compare_schemes(scn, [2.0])
        comp = report.comparisons[0]
        assert comp.utilities["me"][0] == pytest.approx(comp.utilities["so"][0], rel=1e-6)
        assert comp.utilities["me"][0] == pytest.approx(comp.utilities["ss"][0], rel=1e-6)
        assert comp.poa_value == pytest.approx(0.0, abs=1e-6)

    def test_preset_dominance_and_poa(self):
        spec = instantiate(benchmark_preset(), LoadModel(seed=2), 0)
        report = compare_schemes(spec, [1.0, 2.0])
        for comp in report.comparisons:
            assert np.all(comp.me_minus_ss >= -1e-8)
            assert comp.poa_value <= comp.poa_bound + 1e-9
            assert comp.welfare["so"] >= comp.welfare["me"] - 1e-9
