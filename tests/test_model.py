"""Scenario model, validation and normalization."""

import math

import numpy as np
import pytest

from slicemarket import (
    CellDef,
    ClassDef,
    LoadModel,
    ProviderDef,
    ResourceDef,
    ScenarioError,
    ScenarioSpec,
    SupportEntry,
    load_scenario,
    normalize_scenario,
    benchmark_preset,
    instantiate,
    save_scenario,
)
from slicemarket.experiments import SCHEME_SOLVERS
from slicemarket.model import scenario_from_dict, scenario_to_dict


def two_sp_spec(alpha1=1.0, alpha2=1.0, users=(1, 1), budgets=(0.5, 0.5)):
    cells = (CellDef(id="c0", resources=(ResourceDef("r0", 10.0), ResourceDef("r1", 20.0))),)
    classes = (
        ClassDef(name="a", demand={"r0": 2.0, "r1": 1.0}),
        ClassDef(name="b", demand={"r0": 1.0, "r1": 4.0}),
    )
    sps = (
        ProviderDef("sp0", budgets[0], alpha1, (SupportEntry("c0", "a", users[0]),)),
        ProviderDef("sp1", budgets[1], alpha2, (SupportEntry("c0", "b", users[1]),)),
    )
    return ScenarioSpec(cells=cells, classes=classes, sps=sps)


def test_normalization_divides_by_capacity():
    scn = normalize_scenario(two_sp_spec())
    # class a: 2/10 on r0, 1/20 on r1
    assert np.allclose(scn.index.demand[0], [0.2, 0.05])
    assert np.allclose(scn.index.demand[1], [0.1, 0.2])


def test_unit_capacity_is_identity():
    spec = two_sp_spec()
    spec = ScenarioSpec(
        cells=(CellDef(id="c0", resources=(ResourceDef("r0", 1.0), ResourceDef("r1", 1.0))),),
        classes=spec.classes,
        sps=spec.sps,
    )
    scn = normalize_scenario(spec)
    assert np.allclose(scn.index.demand[0], [2.0, 1.0])


def test_preset_row_normalizes_to_fractions():
    inst = benchmark_preset(n_cells=1, users=10)
    scn = normalize_scenario(inst)
    i = scn.index.triples.index(("SP1", "cell1", "bw-intensive"))
    got = {r: scn.index.demand[i, g] for g, (c, r) in enumerate(scn.index.goods)}
    assert got["cpu"] == pytest.approx(1.0 / 30.0, rel=1e-12)
    assert got["ram"] == pytest.approx(8.0 / 126.0, rel=1e-12)
    assert got["bw"] == pytest.approx(10.0 / 40.0, rel=1e-12)


def test_denormalize_round_trip():
    scn = normalize_scenario(two_sp_spec())
    x = np.array([[0.5, 0.25], [0.25, 0.5]])
    phys = scn.denormalize_allocation(x)
    assert np.allclose(phys, [[5.0, 5.0], [2.5, 10.0]], rtol=1e-12)


@pytest.mark.parametrize(
    "breaker",
    [
        lambda s: ScenarioSpec(
            cells=(CellDef("c0", (ResourceDef("r0", 0.0), ResourceDef("r1", 20.0))),),
            classes=s.classes,
            sps=s.sps,
        ),
        lambda s: ScenarioSpec(
            cells=s.cells,
            classes=(ClassDef("a", {"r0": -1.0, "r1": 1.0}), s.classes[1]),
            sps=s.sps,
        ),
        lambda s: ScenarioSpec(
            cells=s.cells,
            classes=s.classes,
            sps=(s.sps[0], ProviderDef("sp1", 0.6, 1.0, s.sps[1].support)),
        ),
        lambda s: ScenarioSpec(
            cells=s.cells,
            classes=s.classes,
            sps=(s.sps[0], ProviderDef("sp1", 0.5, -0.5, s.sps[1].support)),
        ),
    ],
    ids=["zero-capacity", "negative-demand", "budget-sum", "negative-alpha"],
)
def test_validation_rejects(breaker):
    with pytest.raises(ScenarioError):
        normalize_scenario(breaker(two_sp_spec()))


def test_unknown_class_and_duplicate_support_rejected():
    spec = two_sp_spec()
    bad = ProviderDef("sp1", 0.5, 1.0, (SupportEntry("c0", "nope", 1),))
    with pytest.raises(ScenarioError):
        normalize_scenario(ScenarioSpec(spec.cells, spec.classes, (spec.sps[0], bad)))
    dup = ProviderDef(
        "sp1", 0.5, 1.0, (SupportEntry("c0", "b", 1), SupportEntry("c0", "b", 2))
    )
    with pytest.raises(ScenarioError):
        normalize_scenario(ScenarioSpec(spec.cells, spec.classes, (spec.sps[0], dup)))


def test_missing_resource_at_cell_rejected():
    cells = (CellDef(id="c0", resources=(ResourceDef("r0", 10.0),)),)
    spec = two_sp_spec()
    with pytest.raises(ScenarioError):
        normalize_scenario(ScenarioSpec(cells, spec.classes, spec.sps))


def test_default_weights_follow_alpha():
    spec = two_sp_spec(alpha1=2.0, alpha2=math.inf, users=(3, 4))
    scn = normalize_scenario(spec)
    assert scn.index.weights[0] == pytest.approx(9.0)  # users**alpha
    assert scn.index.weights[1] == pytest.approx(4.0)  # users at alpha=inf


def test_zero_user_triples_dropped():
    spec = two_sp_spec(users=(1, 1))
    extra = ProviderDef(
        "sp0",
        0.5,
        1.0,
        (SupportEntry("c0", "a", 1), SupportEntry("c0", "b", 0)),
    )
    scn = normalize_scenario(ScenarioSpec(spec.cells, spec.classes, (extra, spec.sps[1])))
    assert scn.index.n_triples == 2


def test_provider_without_users_rejected_by_every_scheme():
    # SP3 keeps its budget but serves nobody: no scheme can give it a utility
    spec = instantiate(benchmark_preset(), LoadModel(seed=1), 0).with_alphas(2.0)
    sp3 = next(sp for sp in spec.sps if sp.name == "SP3")
    spec = spec.with_users({("SP3", e.cell, e.klass): 0 for e in sp3.support})
    messages = set()
    for solver in SCHEME_SOLVERS.values():
        with pytest.raises(ScenarioError) as err:
            solver(normalize_scenario(spec))
        messages.add(str(err.value))
    assert messages == {"SP 'SP3' serves no users"}


def test_with_alphas_keeps_explicit_weights():
    spec = two_sp_spec(users=(5, 5))
    sp0 = ProviderDef("sp0", 0.5, 1.0, (SupportEntry("c0", "a", 5, weight=7.0),))
    spec = ScenarioSpec(spec.cells, spec.classes, (sp0, spec.sps[1]))
    scn = normalize_scenario(spec.with_alphas(3.0))
    assert scn.index.weights[0] == pytest.approx(7.0)
    assert scn.index.weights[1] == pytest.approx(125.0)


def test_json_round_trip(tmp_path):
    spec = two_sp_spec(alpha2=math.inf)
    path = tmp_path / "scenario.json"
    save_scenario(spec, path)
    back = load_scenario(path)
    assert back == spec


def test_schema_version_rejected():
    doc = scenario_to_dict(two_sp_spec())
    doc["schema_version"] = 99
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


def test_undemanded_resource_warns():
    spec = two_sp_spec()
    cells = (
        CellDef(
            id="c0",
            resources=(ResourceDef("r0", 10.0), ResourceDef("r1", 20.0), ResourceDef("r2", 5.0)),
        ),
    )
    with pytest.warns(UserWarning, match="ignored"):
        normalize_scenario(ScenarioSpec(cells, spec.classes, spec.sps))
