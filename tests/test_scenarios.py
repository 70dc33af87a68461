"""Preset construction, load model, and instance families."""

import math
from dataclasses import replace

import numpy as np
import pytest

from slicemarket import (
    LoadModel,
    budget_sweep,
    generate_instances,
    instantiate,
    normalize_scenario,
    benchmark_preset,
    random_scenario,
)


class TestPreset:
    def test_shape(self):
        spec = benchmark_preset()
        assert len(spec.cells) == 7
        assert len(spec.classes) == 4
        assert len(spec.sps) == 3

    def test_capacities(self):
        caps = {r.name: r.capacity for r in benchmark_preset().cells[0].resources}
        assert caps == {"cpu": 30.0, "ram": 126.0, "bw": 40.0}

    def test_class_demands(self):
        spec = benchmark_preset()
        demand = {k.name: k.demand for k in spec.classes}
        assert demand["balanced"] == {"cpu": 5.0, "ram": 40.0, "bw": 5.0}
        assert demand["bw-intensive"] == {"cpu": 1.0, "ram": 8.0, "bw": 10.0}
        assert demand["cpu-intensive"] == {"cpu": 4.0, "ram": 8.0, "bw": 3.0}
        assert demand["ram-intensive"] == {"cpu": 1.0, "ram": 32.0, "bw": 3.0}

    def test_budgets_equal_thirds(self):
        assert [sp.budget for sp in benchmark_preset().sps] == [1 / 3] * 3

    def test_two_classes_per_sp(self):
        for sp in benchmark_preset().sps:
            assert len({e.klass for e in sp.support}) == 2
            assert len(sp.support) == 14  # 7 cells x 2 classes


class TestLoadModel:
    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"variance": -1.0}, "variance must be nonnegative"),
            ({"floor": -1}, "floor must be nonnegative"),
        ],
        ids=["negative-variance", "negative-floor"],
    )
    def test_rejects(self, fields, match):
        with pytest.raises(ValueError, match=match):
            LoadModel(**fields)

    def test_zero_variance_gives_the_mean(self):
        load = LoadModel(mean=100.0, variance=0.0, seed=5)
        assert np.all(load.draw(0, 42) == 100)

    def test_deterministic_per_seed_and_instance(self):
        load = LoadModel(seed=5)
        assert np.array_equal(load.draw(3, 10), LoadModel(seed=5).draw(3, 10))
        assert not np.array_equal(load.draw(3, 10), load.draw(4, 10))

    def test_batch_equals_singletons(self):
        tpl = benchmark_preset()
        load = LoadModel(seed=11)
        batch = generate_instances(tpl, load, 5)
        assert batch[3] == instantiate(tpl, load, 3)

    def test_sample_mean_near_target(self):
        load = LoadModel(seed=1)
        draws = np.concatenate([load.draw(k, 42) for k in range(2000)])
        assert 98.0 <= draws.mean() <= 102.0

    def test_sigma_interpretation_switch(self):
        spread = LoadModel(seed=2, variance_is_sigma=True)
        draws = np.concatenate([spread.draw(k, 42) for k in range(200)])
        # sigma = 50 instead of sqrt(50): far wider spread
        assert draws.std() > 30.0
        assert np.all(draws >= 1)

    def test_floor_truncation(self):
        load = LoadModel(mean=1.0, variance=100.0, seed=3)
        assert np.all(load.draw(0, 1000) >= 1)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LoadModel(mean=0.0)
        with pytest.raises(ValueError):
            LoadModel(variance=-1.0)

    @pytest.mark.parametrize(
        "field, value", [("mean", math.inf), ("mean", math.nan), ("variance", math.inf), ("variance", math.nan)]
    )
    def test_non_finite_parameters_rejected(self, field, value):
        """A NaN draw would be cast to an int user count (-2**63) with a
        RuntimeWarning, and the run would fail late in the scenario check."""
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            LoadModel(**{field: value})

    def test_instances_are_valid_scenarios(self):
        tpl = benchmark_preset()
        for spec in generate_instances(tpl, LoadModel(seed=7), 3):
            scn = normalize_scenario(spec)
            assert scn.index.n_triples == 42


class TestBudgetSweep:
    def test_sweep_rule(self):
        specs = budget_sweep(benchmark_preset(), "SP1", [0.1])
        budgets = {sp.name: sp.budget for sp in specs[0].sps}
        assert budgets["SP1"] == pytest.approx(0.1)
        assert budgets["SP2"] == pytest.approx(0.45)
        assert budgets["SP3"] == pytest.approx(0.45)

    def test_equal_fraction_recovers_preset(self):
        specs = budget_sweep(benchmark_preset(), "SP1", [1 / 3])
        assert all(sp.budget == pytest.approx(1 / 3) for sp in specs[0].sps)

    def test_budgets_sum_to_one(self):
        for spec in budget_sweep(benchmark_preset(), "SP2", np.linspace(0.1, 0.9, 9)):
            assert sum(sp.budget for sp in spec.sps) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            budget_sweep(benchmark_preset(), "SP1", [1.0])
        with pytest.raises(KeyError):
            budget_sweep(benchmark_preset(), "SP9", [0.5])

    def test_lone_provider(self):
        # the rest of the budget has no one to go to
        preset = benchmark_preset()
        lone = replace(preset, sps=(replace(preset.sps[0], budget=1.0),))
        with pytest.raises(ValueError, match="only provider"):
            budget_sweep(lone, "SP1", [0.5])


def test_random_scenario_is_valid():
    rng = np.random.default_rng(0)
    for _ in range(20):
        spec = random_scenario(rng, n_sps=4, n_cells=3)
        scn = normalize_scenario(spec)
        assert scn.index.budgets.sum() == pytest.approx(1.0, abs=1e-12)
        assert scn.index.n_triples == 4 * 3 * 2
