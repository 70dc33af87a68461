"""Scenario model, validation and normalization."""

import json
import math
import warnings
from dataclasses import replace

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
    random_scenario,
    save_scenario,
)
from slicemarket.experiments import SCHEME_SOLVERS
from slicemarket.model import effective_weight, scenario_from_dict, scenario_to_dict
from tests.reference import dense_demand


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
    demand = dense_demand(scn.index)
    assert np.allclose(demand[0], [0.2, 0.05])
    assert np.allclose(demand[1], [0.1, 0.2])


def test_unit_capacity_is_identity():
    spec = two_sp_spec()
    spec = ScenarioSpec(
        cells=(CellDef(id="c0", resources=(ResourceDef("r0", 1.0), ResourceDef("r1", 1.0))),),
        classes=spec.classes,
        sps=spec.sps,
    )
    scn = normalize_scenario(spec)
    assert np.allclose(dense_demand(scn.index)[0], [2.0, 1.0])


def test_preset_row_normalizes_to_fractions():
    inst = benchmark_preset(n_cells=1, users=10)
    scn = normalize_scenario(inst)
    i = scn.index.triples.index(("SP1", "cell1", "bw-intensive"))
    got = {r: dense_demand(scn.index)[i, g] for g, (c, r) in enumerate(scn.index.goods)}
    assert got["cpu"] == pytest.approx(1.0 / 30.0, rel=1e-12)
    assert got["ram"] == pytest.approx(8.0 / 126.0, rel=1e-12)
    assert got["bw"] == pytest.approx(10.0 / 40.0, rel=1e-12)


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


def _replace_doc(**changes):
    """The document of ``two_sp_spec`` with top-level or first-provider fields
    changed."""
    doc = scenario_to_dict(two_sp_spec())
    for key, value in changes.items():
        if key == "alpha":
            doc["sps"][0]["alpha"] = value
        else:
            doc[key] = value
    return doc


def _spec_with(**parts):
    return replace(two_sp_spec(), **parts)


_S = two_sp_spec()


@pytest.mark.parametrize(
    "action, error, match",
    [
        (lambda: normalize_scenario(_spec_with(cells=())), ScenarioError, "no cells"),
        (lambda: normalize_scenario(_spec_with(sps=())), ScenarioError, "no service providers"),
        (lambda: normalize_scenario(_spec_with(cells=_S.cells * 2)), ScenarioError, "duplicate cell id 'c0'"),
        (
            lambda: normalize_scenario(
                _spec_with(cells=(CellDef("c0", _S.cells[0].resources + _S.cells[0].resources[:1]),))
            ),
            ScenarioError,
            "duplicate resource 'r0' at cell 'c0'",
        ),
        (
            lambda: normalize_scenario(_spec_with(classes=_S.classes + _S.classes[:1])),
            ScenarioError,
            "duplicate class 'a'",
        ),
        (
            lambda: normalize_scenario(_spec_with(sps=(_S.sps[0], replace(_S.sps[1], name="sp0")))),
            ScenarioError,
            "duplicate SP 'sp0'",
        ),
        (
            lambda: normalize_scenario(_spec_with(classes=(ClassDef("a", {}), _S.classes[1]))),
            ScenarioError,
            "class 'a' consumes no resources",
        ),
        (
            lambda: normalize_scenario(
                _spec_with(sps=(replace(_S.sps[0], budget=0.0), replace(_S.sps[1], budget=1.0)))
            ),
            ScenarioError,
            "SP 'sp0' budget must be positive",
        ),
        (
            lambda: normalize_scenario(
                _spec_with(sps=(replace(_S.sps[0], support=(SupportEntry("c9", "a", 1),)), _S.sps[1]))
            ),
            ScenarioError,
            "SP 'sp0' supports unknown cell 'c9'",
        ),
        (lambda: scenario_from_dict(_replace_doc(alpha="huge")), ScenarioError, "unrecognized alpha value 'huge'"),
        (lambda: scenario_from_dict(_replace_doc(cells=[{"id": "c0"}])), ScenarioError, "malformed scenario document"),
        (
            lambda: normalize_scenario(_S).index.gather(np.zeros((2, 3))),
            ValueError,
            r"dense values have shape \(2, 3\), expected \(2, 2\)",
        ),
    ],
    ids=[
        "no-cells",
        "no-sps",
        "duplicate-cell",
        "duplicate-resource",
        "duplicate-class",
        "duplicate-sp",
        "class-without-demand",
        "zero-budget",
        "unknown-cell",
        "unrecognized-alpha",
        "malformed-document",
        "gather-shape",
    ],
)
def test_model_error_paths(action, error, match):
    with pytest.raises(error, match=match):
        action()


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
    with pytest.raises(ScenarioError, match=r"class 'a' needs \['r1'\] absent at cell 'c0'"):
        normalize_scenario(ScenarioSpec(cells, spec.classes, spec.sps))
    # both providers serve the pair, and its message names every missing resource
    cells = (CellDef(id="c0", resources=(ResourceDef("r2", 10.0),)),)
    sps = tuple(replace(sp, support=(SupportEntry("c0", "b", 1),)) for sp in spec.sps)
    with pytest.raises(ScenarioError, match=r"class 'b' needs \['r0', 'r1'\] absent at cell 'c0'"):
        normalize_scenario(ScenarioSpec(cells, spec.classes, sps))


def test_faults_are_reported_in_walk_order():
    """A spec with several faults reports the first one of the walk: every
    structural fault before the budget sum, the budget sum before a default
    weight's overflow, and providers in order."""
    spec = two_sp_spec()
    sp0, sp1 = spec.sps

    def fault(*sps, classes=spec.classes):
        with pytest.raises(ScenarioError) as info:
            normalize_scenario(ScenarioSpec(spec.cells, classes, sps))
        return str(info.value)

    unknown = SupportEntry("c0", "nope", 1)
    assert fault(sp0, replace(sp1, budget=0.7, support=(unknown,))) == "SP 'sp1' supports unknown class 'nope'"
    # users**alpha = 100**200 overflows, after the budgets are summed
    overflow = replace(sp0, alpha=200.0, support=(SupportEntry("c0", "a", 100),))
    assert fault(overflow, replace(sp1, budget=0.6)) == "budgets sum to 1.1, expected 1"
    assert fault(overflow, sp1).startswith("default weight 100**200.0 overflows")
    bad_weight = replace(sp0, support=(SupportEntry("c0", "a", 1, weight=math.inf),))
    assert fault(bad_weight, replace(sp1, budget=-1.0)) == "weight for ('sp0', 'c0', 'a') must be positive and finite"
    assert fault(replace(sp1, budget=-1.0), bad_weight) == "SP 'sp1' budget must be positive"
    # an entry without users is checked all the same
    assert fault(sp0, replace(sp1, support=sp1.support + (replace(unknown, users=0),))) == (
        "SP 'sp1' supports unknown class 'nope'"
    )
    far = ClassDef("far", {"r9": 1.0})
    idle = replace(sp1, support=sp1.support + (SupportEntry("c0", "far", 0),))
    assert fault(sp0, idle, classes=spec.classes + (far,)) == "class 'far' needs ['r9'] absent at cell 'c0'"


def test_default_weights_follow_alpha():
    spec = two_sp_spec(alpha1=2.0, alpha2=math.inf, users=(3, 4))
    scn = normalize_scenario(spec)
    assert scn.index.weights[0] == pytest.approx(9.0)  # users**alpha
    assert scn.index.weights[1] == pytest.approx(4.0)  # users at alpha=inf


def test_overflowing_default_weight_rejected():
    with pytest.raises(ScenarioError, match=r"default weight 100\*\*200.0 overflows"):
        effective_weight(100, 200.0, None)
    assert effective_weight(100, 200.0, 2.0) == 2.0


def test_infinite_weight_rejected():
    """An explicit weight of inf used to pass validation: ME then solved to
    NaN utilities, SS and SO failed with messages about NaN."""
    spec = two_sp_spec(alpha1=2.0)
    sp0 = replace(spec.sps[0], support=(SupportEntry("c0", "a", 1, weight=math.inf),))
    spec = replace(spec, sps=(sp0, spec.sps[1]))
    message = r"weight for \('sp0', 'c0', 'a'\) must be positive and finite"
    with pytest.raises(ScenarioError, match=message):
        normalize_scenario(spec)
    # a scenario file's JSON Infinity reads as the same weight
    doc = json.loads(json.dumps(scenario_to_dict(spec)))
    assert doc["sps"][0]["support"][0]["weight"] == math.inf
    with pytest.raises(ScenarioError, match=message):
        normalize_scenario(scenario_from_dict(doc))


@pytest.mark.parametrize("alpha", [2.0, math.inf])
@pytest.mark.parametrize("users", [10**400, 10**20, math.inf])
def test_user_count_beyond_int64_rejected(users, alpha):
    """A count that no float holds used to end in an uncaught
    ``OverflowError`` at alpha inf and in a misleading default-weight error
    at alpha 2; one above ``2**63 - 1`` failed when the index stored it,
    and an infinite one when the check converted it to an integer."""
    spec = two_sp_spec(alpha1=alpha, users=(users, 1))
    with pytest.raises(ScenarioError, match=r"user count for \('sp0', 'c0', 'a'\) exceeds 9223372036854775807"):
        normalize_scenario(spec)
    with pytest.raises(ScenarioError, match="must be a nonnegative integer"):
        normalize_scenario(two_sp_spec(alpha1=alpha, users=(math.nan, 1)))
    normalize_scenario(two_sp_spec(alpha1=alpha, users=(2**63 - 1, 1)))


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


def test_fractional_user_count_rejected():
    doc = scenario_to_dict(two_sp_spec(users=(3, 1)))
    doc["sps"][0]["support"][0]["users"] = 2.5
    with pytest.raises(ScenarioError, match="user count 2.5 at .* is not an integer"):
        scenario_from_dict(doc)
    doc["sps"][0]["support"][0]["users"] = 3.0
    assert scenario_from_dict(doc) == two_sp_spec(users=(3, 1))


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


# ---------------------------------------------------------------------------
# The slot layout against dense references
# ---------------------------------------------------------------------------


def spec_demand(spec):
    """The normalized ``[n_triples, n_goods]`` demand matrix built from the
    scenario itself, one dense row per served (provider, cell, class)
    triple."""
    goods = [(c.id, r.name) for c in spec.cells for r in c.resources]
    cap = {g: r.capacity for g, r in zip(goods, (r for c in spec.cells for r in c.resources))}
    demands = {k.name: k.demand for k in spec.classes}
    rows = []
    for sp in spec.sps:
        for e in sp.support:
            if e.users == 0:
                continue
            row = np.zeros(len(goods))
            for r, d in demands[e.klass].items():
                row[goods.index((e.cell, r))] = d / cap[(e.cell, r)]
            rows.append(row)
    return np.array(rows)


def argsort_slots(demand):
    """Every row's consumed goods first, in increasing order, then the goods
    it does not consume, cut to the widest row, and their demands."""
    consumed = demand > 0
    width = int(consumed.sum(axis=1).max())
    goods = np.argsort(~consumed, axis=1, kind="stable")[:, :width]
    return goods, np.take_along_axis(demand, goods, axis=1)


def scanned_blocks(index, demand):
    """The fields of ``CellBlocks``, one scan of the dense ``demand`` per
    (finite-alpha provider, cell) group of triples, in (provider, cell)
    order, on all the goods of the group's cell."""
    cell_goods = {}
    for g, (c, _) in enumerate(index.goods):
        cell_goods.setdefault(c, []).append(g)
    cell_ids = list(cell_goods)
    members = {}
    for i, s in enumerate(index.sp_of):
        if math.isfinite(index.alphas[s]):
            members.setdefault((int(s), cell_ids.index(index.triples[i][1])), []).append(i)
    keys = sorted(members)
    n_k = max((len(members[key]) for key in keys), default=1)
    n_m = max(len(g) for g in cell_goods.values())
    rows = np.zeros((len(keys), n_k), dtype=np.intp)
    class_mask = np.zeros((len(keys), n_k), dtype=bool)
    block_demand = np.zeros((len(keys), n_k, n_m))
    for b, (s, c) in enumerate(keys):
        g_rows, goods = members[(s, c)], cell_goods[cell_ids[c]]
        rows[b, : len(g_rows)] = g_rows
        class_mask[b, : len(g_rows)] = True
        block_demand[b, : len(g_rows), : len(goods)] = demand[np.ix_(g_rows, goods)]
    sp = np.array([s for s, _ in keys], dtype=np.intp)
    return {
        "sp": sp, "rows": rows, "class_mask": class_mask,
        "demand": block_demand, "weights": np.where(class_mask, index.weights[rows], 0.0),
        "alphas": index.alphas[sp].astype(float),
    }


def scanned_price_cells(index, slot_goods):
    """The fields of ``PriceCells``, the cells numbered in order of their
    first good and the positions found by one scan per cell."""
    ids = {}
    cell = np.array([ids.setdefault(c, len(ids)) for c, _ in index.goods])
    pos = np.zeros(index.n_goods, dtype=np.intp)
    for c in range(len(ids)):
        at = np.flatnonzero(cell == c)
        pos[at] = np.arange(at.size)
    n_cells, m = len(ids), int(pos.max()) + 1
    good = np.zeros((n_cells, m), dtype=np.intp)
    mask = np.zeros((n_cells, m), dtype=bool)
    good[cell, pos] = np.arange(index.n_goods)
    mask[cell, pos] = True
    at = cell[slot_goods[:, :1]] * m + pos[slot_goods]
    return {
        "cell": cell, "pos": pos, "n_cells": n_cells, "m": m, "good": good, "mask": mask,
        "flat": cell * m + pos, "n_seg": index.n_sps,
        "pair": at[:, :, None] * m + pos[slot_goods][:, None, :],
        "slot": at * (1 + index.n_sps) + 1 + index.sp_of[:, None],
    }


def irregular_scenario(rng):
    """A ``random_scenario`` with resources shuffled per cell, an idle
    resource no class demands, classes consuming one to four resources,
    support entries in shuffled order and zero users on some entries."""
    spec = random_scenario(rng, n_sps=4, n_cells=3, n_resources=4, alphas=[0.0, 1.0, 2.0, math.inf])
    cells = []
    for c in spec.cells:
        res = [*c.resources, ResourceDef("idle", 7.0)]
        cells.append(CellDef(c.id, tuple(res[j] for j in rng.permutation(len(res)))))
    classes = []
    for k in spec.classes:
        keep = rng.choice(sorted(k.demand), size=int(rng.integers(1, 5)), replace=False)
        classes.append(ClassDef(k.name, {r: k.demand[r] for r in keep}))
    sps = []
    for sp in spec.sps:
        order = rng.permutation(len(sp.support))
        sps.append(replace(sp, support=tuple(sp.support[j] for j in order)))
    users = {}
    for sp in sps:
        for e in sp.support[1:]:
            if rng.random() < 0.3:
                users[(sp.name, e.cell, e.klass)] = 0
    return ScenarioSpec(tuple(cells), tuple(classes), tuple(sps)).with_users(users)


def assert_slots_match_dense(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        index = normalize_scenario(spec).index
    served = [(sp, e) for sp in spec.sps for e in sp.support if e.users != 0]
    assert index.triples == tuple((sp.name, e.cell, e.klass) for sp, e in served)
    assert index.weights.tolist() == [effective_weight(e.users, sp.alpha, e.weight) for sp, e in served]
    demand = spec_demand(spec)
    assert np.array_equal(dense_demand(index), demand)
    assert np.array_equal(index.dense(index.slot_demand), demand)
    assert np.array_equal(index.demanded_goods(), (demand > 0).any(axis=0))
    goods, slot_demand = argsort_slots(demand)
    assert np.array_equal(index.slot_goods, goods)
    assert np.array_equal(index.slot_demand, slot_demand)
    cells = index.price_cells
    for name, want in scanned_price_cells(index, goods).items():
        assert np.array_equal(getattr(cells, name), want), name
    blocks = index.blocks
    for name, want in scanned_blocks(index, demand).items():
        got = getattr(blocks, name)
        assert got.shape == want.shape and got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    return index


def test_slot_layout_matches_dense_references():
    rng = np.random.default_rng(421)
    widths, zero_users, idle = set(), 0, 0
    for _ in range(25):
        spec = irregular_scenario(rng)
        index = assert_slots_match_dense(spec)
        widths |= set((spec_demand(spec) > 0).sum(axis=1).tolist())
        zero_users += sum(e.users == 0 for sp in spec.sps for e in sp.support)
        idle += int((~index.demanded_goods()).sum())
    assert widths == {1, 2, 3, 4}
    assert zero_users > 0 and idle > 0


def test_slot_layout_matches_dense_references_at_112_cells():
    spec = instantiate(benchmark_preset(n_cells=112), LoadModel(seed=3), 0).with_alphas(2.0)
    index = assert_slots_match_dense(spec)
    assert index.blocks.sp.size == 3 * 112

