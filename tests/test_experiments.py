"""Experiment orchestration, CSV/plot emission, scheme comparison."""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from slicemarket import (
    CellDef,
    ClassDef,
    LoadModel,
    ProviderDef,
    ResourceDef,
    ScenarioSpec,
    SupportEntry,
    benchmark_preset,
    instantiate,
    normalize_scenario,
    run_dynamics,
    save_scenario,
)
from slicemarket import experiments
from slicemarket.cli import main
from slicemarket.experiments import (
    CONVERGENCE_ROUNDS,
    CSV_COLUMNS,
    PRICE_TRACE_COLUMNS,
    ExperimentConfig,
    ExperimentResult,
    _convergence_study,
    _write_csv,
    _write_price_trace,
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

    def test_aggregates_match_per_group_reductions_exactly(self):
        """The groups are reduced together by size; every mean and variance
        is bit-identical to numpy's on the group's own array, for groups of
        1 to 300 rows (numpy sums 8 or more terms pairwise) in one result."""
        rng = np.random.default_rng(29)
        rows = []
        for g, n in enumerate([*range(1, 40), 127, 128, 129, 300]):
            for k in range(n):
                rate = float(rng.exponential() * 10.0 ** rng.integers(-6, 3))
                rows.append((k, float(g % 5), "me", f"SP{g}", "c", "k", rate, float(rng.normal() * 1e3)))
        rows = [rows[i] for i in rng.permutation(len(rows))]
        groups = {}
        for row in rows:
            groups.setdefault((row[1], row[2], row[3], row[5]), []).append((row[6], row[7]))
        want = []
        for key in sorted(groups):
            vals = np.array(groups[key])
            stats = (vals[:, 0].mean(), vals[:, 0].var(), vals[:, 1].mean(), vals[:, 1].var())
            want.append(key + tuple(float(v) for v in stats) + (len(vals),))
        assert ExperimentResult(ExperimentConfig(), rows, []).aggregates == want

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
        rep = run_dynamics(scn, max_iterations=CONVERGENCE_ROUNDS, tol=0.0)
        assert goods == scn.index.goods
        assert path.shape == (CONVERGENCE_ROUNDS + 1, scn.index.n_goods)
        assert np.array_equal(path, rep.price_trace)

    def test_writer_quotes_names_like_csv_writer(self, tmp_path):
        # names are not validated: a comma, a double quote and a newline
        # each make csv.writer quote the field, and a "%s" must reach the
        # file as written
        cells = (
            CellDef('c,"0"', (ResourceDef("r0", 1.0), ResourceDef('r"1', 2.0))),
            CellDef("c\n1", (ResourceDef("r0", 1.5), ResourceDef("r%s,2", 1.0))),
        )
        classes = (ClassDef("k0", {"r0": 0.6, 'r"1': 0.2}), ClassDef("k1", {"r0": 0.3, "r%s,2": 0.8}))
        sps = (
            ProviderDef("sp0", 0.6, 2.0, (SupportEntry('c,"0"', "k0", 3), SupportEntry("c\n1", "k1", 2))),
            ProviderDef("sp1", 0.4, 1.0, (SupportEntry('c,"0"', "k0", 1), SupportEntry("c\n1", "k1", 4))),
        )
        scn = normalize_scenario(ScenarioSpec(cells, classes, sps))
        rep = run_dynamics(scn, max_iterations=40)
        rows = [
            (it, cell, resource, float(rep.price_trace[it, g]))
            for it in range(len(rep.price_trace))
            for g, (cell, resource) in enumerate(scn.index.goods)
        ]
        _write_csv(str(tmp_path / "rows.csv"), PRICE_TRACE_COLUMNS, rows)
        _write_price_trace(
            str(tmp_path / "array.csv"), range(len(rep.price_trace)), scn.index.goods, rep.price_trace
        )
        expected = (tmp_path / "rows.csv").read_bytes()
        assert b'"c,""0"""' in expected and b'"r""1"' in expected and b'"c\n1"' in expected
        assert b'"r%s,2"' in expected
        assert (tmp_path / "array.csv").read_bytes() == expected


class TestConfig:
    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: ExperimentConfig(instances=0), "instances must be >= 1"),
            (lambda: ExperimentConfig(jobs=0), "jobs must be >= 1"),
            (lambda: config_from_dict({"load_model": 5}), "load_model: expected an object, got 5"),
            (lambda: config_from_dict({"load_model": [1.0]}), r"load_model: expected an object, got \[1.0\]"),
        ],
        ids=["zero-instances", "zero-jobs", "load-model-number", "load-model-list"],
    )
    def test_rejects(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

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

    @pytest.mark.parametrize("key", ["alphas", "budget_alphas"])
    @pytest.mark.parametrize("alpha", [-1.0, -math.inf, math.nan])
    def test_bad_alpha_rejected(self, key, alpha):
        with pytest.raises(ValueError, match=f"^{key}: alpha values must be >= 0"):
            ExperimentConfig(**{key: (1.0, alpha)})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("full_paper_scale", "false"),
            ("full_paper_scale", 0),
            ("instances", 2.5),
            ("instances", "3"),
            ("instances", True),
            ("seed", 1.9),
            ("seed", math.inf),
            ("jobs", True),
        ],
    )
    def test_wrongly_typed_field_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^{key}: expected"):
            config_from_dict({key: value})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", 1.5),
            ("seed", True),
            ("floor", True),
            ("floor", 0.5),
            ("mean", "50"),
            ("mean", True),
            ("variance", None),
            ("variance_is_sigma", 1),
        ],
    )
    def test_wrongly_typed_load_model_field_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^load_model.{key}: expected"):
            config_from_dict({"load_model": {key: value}})

    @pytest.mark.parametrize("text", ['{"mean": Infinity}', '{"variance": NaN}', '{"variance": Infinity}'])
    def test_non_finite_load_model_rejected(self, text):
        """JSON's NaN and Infinity literals are numbers to ``json``, but no
        load model draws finite user counts from them."""
        with pytest.raises(ValueError, match="(mean|variance) must be finite"):
            config_from_dict({"load_model": json.loads(text)})

    def test_load_model_fields_typed(self):
        doc = {"mean": 50, "variance": 9, "variance_is_sigma": True, "floor": 2.0, "seed": 3}
        load = config_from_dict({"load_model": doc}).load
        assert load == LoadModel(mean=50.0, variance=9.0, variance_is_sigma=True, floor=2, seed=3)
        assert isinstance(load.floor, int) and isinstance(load.seed, int) and isinstance(load.mean, float)
        with pytest.raises(ValueError, match="unknown load_model fields"):
            config_from_dict({"load_model": {"sead": 3}})

    def test_integral_numbers_accepted(self):
        cfg = config_from_dict({"instances": 3.0, "seed": 4, "full_paper_scale": False})
        assert (cfg.instances, cfg.seed, cfg.full_paper_scale) == (3, 4, False)
        assert isinstance(cfg.instances, int)

    def test_full_paper_scale(self):
        cfg = ExperimentConfig(full_paper_scale=True)
        assert cfg.instance_count == 2000

    def test_requires_a_scheme(self):
        with pytest.raises(ValueError):
            ExperimentConfig(schemes=())


def compare_rows(tmp_path, spec, alphas):
    """``compare.csv`` of the CLI ``compare`` command on ``spec``, as
    ``{(alpha, scheme): [row per provider]}``."""
    path = tmp_path / "scn.json"
    save_scenario(spec, path)
    argv = ["compare", "--config", str(path), "--alpha", ",".join(map(str, alphas)), "--out", str(tmp_path)]
    assert main(argv) == 0
    rows = {}
    with open(tmp_path / "compare.csv", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault((float(row["alpha"]), row["scheme"]), []).append(row)
    return rows


def column(rows, name):
    return np.array([float(row[name]) for row in rows])


class TestCompareSchemes:
    def test_single_sp_schemes_coincide(self, tmp_path):
        scn = make_scn([[0.5, 0.25]], [2.0], [1.0])
        rows = compare_rows(tmp_path, scn.spec, [2.0])
        me, so, ss = (column(rows[2.0, name], "utility")[0] for name in ("me", "so", "ss"))
        assert me == pytest.approx(so, rel=1e-6)
        assert me == pytest.approx(ss, rel=1e-6)
        assert float(rows[2.0, "me"][0]["poa"]) == pytest.approx(0.0, abs=1e-6)

    def test_preset_dominance_and_poa(self, tmp_path):
        spec = instantiate(benchmark_preset(), LoadModel(seed=2), 0)
        rows = compare_rows(tmp_path, spec, [1.0, 2.0])
        for alpha in (1.0, 2.0):
            me, so, ss = (rows[alpha, name] for name in ("me", "so", "ss"))
            assert np.all(column(me, "utility") - column(ss, "utility") >= -1e-8)
            assert np.all(column(me, "poa") <= column(me, "poa_bound") + 1e-9)
            assert column(so, "welfare")[0] >= column(me, "welfare")[0] - 1e-9


@pytest.mark.parametrize(
    "fields, field",
    [
        ({"budget_sweep_sp": "SP9"}, "budget_sweep_sp"),
        ({"budget_sweep_sp": "SP1", "budget_fractions": (0.5, 1.5)}, "budget_fractions"),
        ({"budget_sweep_sp": "SP1", "budget_alphas": (2.0, -1.0)}, "budget_alphas"),
        ({"budget_sweep_sp": "SP1", "budget_alphas": (math.nan,)}, "budget_alphas"),
    ],
    ids=["unknown-provider", "fraction-above-one", "negative-alpha", "nan-alpha"],
)
def test_bad_budget_sweep_fails_before_any_solve(tmp_path, monkeypatch, fields, field):
    # the sweep is checked before the instance sweep, not after it
    calls = []
    for name, solve in experiments.SCHEME_SOLVERS.items():
        monkeypatch.setitem(experiments.SCHEME_SOLVERS, name, lambda scn, solve=solve: calls.append(scn) or solve(scn))
    with pytest.raises(ValueError, match=field) as err:
        run_experiment(tiny_config(tmp_path, instances=1, alphas=(1.0,), **fields))
    assert calls == []
    if field == "budget_sweep_sp":
        assert all(sp in str(err.value) for sp in ("SP1", "SP2", "SP3"))
    assert not (tmp_path / "out").exists()
