"""The social optimum against independent references: an exact HiGHS LP
where the welfare is linear (every provider at alpha 0 or inf), SLSQP on
random mixed-alpha markets, and weak duality of its price-space bound."""

import math
import warnings

import numpy as np
import pytest
from scipy import optimize

from slicemarket import (
    LoadModel,
    benchmark_preset,
    instantiate,
    normalize_scenario,
    random_scenario,
    solve_eg,
    solve_social_optimal,
    static_share,
)
from slicemarket import solvers
from slicemarket.solvers import _WelfareLayout
from tests.reference import dense_demand
from tests.test_market import make_scn
from tests.test_model import irregular_scenario

MIXED_ALPHAS = [0.0, 0.5, 1.0, 2.0, 5.0, math.inf]


def welfare(scn, rep):
    return float(np.dot(scn.index.budgets, rep.utilities))


def variables(index):
    """One column per rate of a finite-alpha triple and one per level of a
    max-min provider: ``(provider, rows, usage of one unit)``."""
    demand = dense_demand(index)
    out = []
    for s in range(index.n_sps):
        rows = index.sp_rows(s)
        if math.isinf(index.alphas[s]):
            out.append((s, rows, index.users[rows] @ demand[rows]))
        else:
            out.extend((s, rows[k : k + 1], demand[i]) for k, i in enumerate(rows))
    return out


def test_layout_matches_dense_columns():
    """The interior-point layout, built from the slots, against the columns
    of :func:`variables`: bit-equal for finite-alpha providers, and within
    1e-15 relative on a max-min provider's level, whose usage sums the same
    products in another order."""
    rng = np.random.default_rng(47)
    specs = [irregular_scenario(rng) for _ in range(40)]
    specs += [instantiate(benchmark_preset(n_cells=n), LoadModel(seed=3), 0).with_alphas(math.inf) for n in (7, 112)]
    levels = zero_users = 0
    for spec in specs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            index = normalize_scenario(spec).index
        lay = _WelfareLayout(index)
        cols = variables(index)
        amat = np.array([col for _, _, col in cols])
        used = amat > 0
        count = used.sum(axis=0)
        with np.errstate(divide="ignore"):
            ref = np.where(used, 1.0 / (amat * count), np.inf).min(axis=1)
        want = amat[:, count > 0] * ref[:, None]
        owner = np.zeros(index.n_triples, dtype=np.intp)
        mult = np.ones(index.n_triples)
        level = np.zeros(len(cols), dtype=bool)
        for v, (s, rows, _) in enumerate(cols):
            owner[rows] = v
            if math.isinf(index.alphas[s]):
                mult[rows] = index.users[rows]
                level[v] = True
        assert np.array_equal(lay.owner, owner) and np.array_equal(lay.mult, mult)
        assert np.array_equal(lay.goods, count > 0)
        assert np.array_equal(lay.ref[~level], ref[~level])
        assert np.array_equal(lay.amat[~level], want[~level])
        assert np.all(np.abs(lay.ref[level] - ref[level]) <= 1e-15 * ref[level])
        assert np.all(np.abs(lay.amat[level] - want[level]) <= 1e-15 * want[level])
        levels += int(level.sum())
        zero_users += sum(e.users == 0 for sp in spec.sps for e in sp.support)
    assert levels > 0 and zero_users > 0


def lp_welfare(index):
    """Exact optimum of a welfare that is linear in the variables."""
    cols = variables(index)
    gain = []
    for s, rows, _ in cols:
        weight = 1.0 if math.isinf(index.alphas[s]) else float(index.weights[rows[0]])
        gain.append(index.budgets[s] * weight)
    amat = np.array([col for _, _, col in cols]).T
    res = optimize.linprog(
        -np.array(gain), A_ub=amat, b_ub=np.ones(index.n_goods),
        bounds=[(0.0, None)] * len(cols), method="highs",
    )
    assert res.status == 0
    return -res.fun


def slsqp_welfare(index):
    """SLSQP on the welfare from an equal split of every good, with the
    degree-one utilities and their gradients written out per provider."""
    cols = variables(index)
    amat = np.array([col for _, _, col in cols]).T
    per_good = (amat > 0).sum(axis=1)
    x0 = 0.5 / np.where(amat > 0, amat * per_good[:, None], 0.0).max(axis=0)
    groups = [np.array([v for v, (s, _, _) in enumerate(cols) if s == sp]) for sp in range(index.n_sps)]

    def value_and_grad(x):
        total, grad = 0.0, np.zeros_like(x)
        for s, vs in enumerate(groups):
            alpha, budget = float(index.alphas[s]), float(index.budgets[s])
            u = x[vs]
            w = index.weights[np.concatenate([cols[v][1] for v in vs])]
            if math.isinf(alpha):
                val, g = u[0], np.ones(1)
            elif alpha == 0.0:
                val, g = float(w @ u), w
            elif alpha == 1.0:
                val = math.exp(float(w @ np.log(u)) / w.sum())
                g = val * w / w.sum() / u
            else:
                q = 1.0 - alpha
                inner = float(w @ u**q)
                val = inner ** (1.0 / q)
                g = val * w * u ** (q - 1.0) / inner
            total += budget * val
            grad[vs] = budget * g
        return total, grad

    scale = value_and_grad(x0)[0]
    cons = {"type": "ineq", "fun": lambda x: 1.0 - amat @ x, "jac": lambda x: -amat}
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*outside bounds.*")
        res = optimize.minimize(
            lambda x: tuple(-part / scale for part in value_and_grad(x)),
            x0,
            jac=True,
            bounds=[(1e-12, None)] * len(cols),
            constraints=[cons],
            method="SLSQP",
            options={"maxiter": 1000, "ftol": 1e-15},
        )
    x = res.x / max((amat @ res.x).max(), 1.0)
    return value_and_grad(x)[0]


@pytest.mark.parametrize("alphas", [[0.0], [math.inf], [0.0, math.inf]], ids=["zero", "inf", "mixed"])
def test_linear_welfare_matches_highs(alphas):
    rng = np.random.default_rng(29 + len(alphas))
    for _ in range(6):
        spec = random_scenario(rng, n_sps=int(rng.integers(1, 4)), classes_per_sp=int(rng.integers(1, 4)), alphas=alphas)
        scn = normalize_scenario(spec)
        rep = solve_social_optimal(scn)
        assert welfare(scn, rep) == pytest.approx(lp_welfare(scn.index), rel=1e-9)
        assert rep.converged


@pytest.mark.parametrize("alpha", [0.0, math.inf])
def test_preset_linear_welfare_matches_highs(alpha):
    spec = instantiate(benchmark_preset(), LoadModel(seed=5), 0)
    scn = normalize_scenario(spec.with_alphas(alpha))
    rep = solve_social_optimal(scn)
    assert welfare(scn, rep) == pytest.approx(lp_welfare(scn.index), rel=1e-9)
    assert rep.converged
    assert rep.residuals["duality_gap"] <= 1e-9


def test_mixed_alpha_markets_match_slsqp():
    rng = np.random.default_rng(31)
    for _ in range(12):
        spec = random_scenario(
            rng,
            n_sps=int(rng.integers(1, 4)),
            n_resources=int(rng.integers(1, 4)),
            classes_per_sp=int(rng.integers(1, 4)),
            alphas=MIXED_ALPHAS,
        )
        scn = normalize_scenario(spec)
        rep = solve_social_optimal(scn)
        got = welfare(scn, rep)
        assert rep.converged
        assert rep.residuals["duality_gap"] <= 1e-9
        assert rep.residuals["capacity_gap"] <= 1e-12
        assert got >= slsqp_welfare(scn.index) * (1 - 1e-9)
        # the reported prices are the certificate: their bound is above the
        # welfare by the reported gap
        lay = _WelfareLayout(scn.index)
        ratio = math.exp(lay.welfare.log_bound(lay.amat[None], rep.prices[lay.goods][None])[0]) / got
        assert 1.0 <= ratio <= 1.0 + 1e-9
        assert ratio - 1.0 == pytest.approx(rep.residuals["duality_gap"], abs=1e-13)


def test_price_space_bound_is_weak_duality():
    rng = np.random.default_rng(37)
    for _ in range(8):
        spec = random_scenario(rng, n_sps=int(rng.integers(1, 4)), alphas=MIXED_ALPHAS)
        scn = normalize_scenario(spec)
        lay = _WelfareLayout(scn.index)
        values = [welfare(scn, solver(scn)) for solver in (solve_social_optimal, solve_eg, static_share)]
        for _ in range(20):
            lam = rng.exponential(1.0, int(lay.goods.sum())) * rng.choice([1e-3, 1.0, 1e3])
            bound = math.exp(lay.welfare.log_bound(lay.amat[None], lam[None])[0])
            assert bound >= max(values) * (1 - 1e-12)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 5.0, math.inf])
def test_face_of_optima_certifies(alpha):
    """Two identical one-class providers share a good, so every split of it
    is optimal, and a third holds the other good alone: welfare is
    (2 + 2.5) / 3 whatever the split."""
    scn = make_scn([[0.5, 0.0], [0.5, 0.0], [0.0, 0.4]], [alpha] * 3, [1 / 3] * 3)
    rep = solve_social_optimal(scn)
    assert welfare(scn, rep) == pytest.approx(1.5, rel=1e-9)
    assert rep.converged


def test_mixed_market_beats_former_solver():
    """On this market the former dual-subgradient and SLSQP solver returned
    welfare 0.2451366692618882, 9.7e-5 below the certified optimum, and
    still reported convergence."""
    rng = np.random.default_rng(83)
    for _ in range(4):
        spec = random_scenario(rng, alphas=[1.0, 2.0, 5.0, math.inf])
    assert [sp.alpha for sp in spec.sps] == [5.0, 2.0, 2.0]
    scn = normalize_scenario(spec)
    rep = solve_social_optimal(scn)
    assert welfare(scn, rep) > 0.2451366692618882 * (1 + 9e-5)
    assert rep.converged


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_budget_perturbation_moves_welfare_by_its_size(alpha):
    """A change of one budget in the 13th digit moves the certified optimum
    by at most as much, so the returned welfare moves by no more than the
    certificate tolerance."""
    for seed in range(1000, 1010):
        spec = instantiate(benchmark_preset(), LoadModel(seed=seed), 0).with_alphas(alpha)
        budgets = {sp.name: sp.budget for sp in spec.sps}
        budgets[spec.sps[0].name] *= 1 + 1e-13
        nudged = spec.with_budgets(budgets)
        base, moved = (normalize_scenario(s) for s in (spec, nudged))
        w0 = welfare(base, solve_social_optimal(base))
        w1 = welfare(moved, solve_social_optimal(moved))
        assert abs(w1 / w0 - 1.0) <= 1e-9


def preset(seed, alpha):
    return normalize_scenario(instantiate(benchmark_preset(), LoadModel(seed=seed), 0).with_alphas(alpha))


def engine_runs(monkeypatch):
    """A list that gets one entry per run of the interior-point engine."""
    runs = []
    engine = solvers._interior_point

    def counted(*args):
        runs.append(1)
        return engine(*args)

    monkeypatch.setattr(solvers, "_interior_point", counted)
    return runs


@pytest.mark.parametrize("alpha", [1.0, 2.0, 5.0])
def test_priced_out_provider_gets_exactly_zero(alpha, monkeypatch):
    """A provider whose price-space ratio stays below the best is dropped
    from the solve: its rates are exactly 0, and the welfare is the one of
    a solve that keeps every provider to the end.  The engine pins the
    dropped provider's variables and goes on, so the solve is one engine
    run, where a restart per drop made two."""
    markets = [preset(seed, alpha) for seed in range(7001, 7005)]
    runs = engine_runs(monkeypatch)
    dropped = []
    for scn in markets:
        runs.clear()
        dropped.append(solve_social_optimal(scn))
        assert len(runs) == 1
    monkeypatch.setattr(solvers, "_DROP_SHARE", 0.0)
    for scn, rep in zip(markets, dropped):
        full = solve_social_optimal(scn)
        out = np.flatnonzero(rep.utilities == 0.0)
        assert out.size >= 1
        assert np.all(rep.allocation.rates[np.isin(scn.index.sp_of, out)] == 0.0)
        assert np.all(full.utilities[out] < 1e-6 * full.utilities.max())
        assert rep.converged and full.converged
        assert welfare(scn, rep) == pytest.approx(welfare(scn, full), rel=1e-10)
        assert rep.iterations < full.iterations


def test_report_takes_the_engine_s_last_welfare(monkeypatch):
    """The report's welfare is the one the engine's last stop test saw: a
    solve builds one welfare for its layout and one per pinned provider set,
    and none again after the run."""
    built, pins = [], []
    init = solvers._Welfare.__init__

    def counted_init(self, *args):
        built.append(1)
        init(self, *args)

    engine = solvers._interior_point

    def spied(welfare, amat, var_mask, certified):
        def stop_test(*args):
            done, pin = certified(*args)
            pins.append(pin is not None)
            return done, pin

        return engine(welfare, amat, var_mask, stop_test)

    monkeypatch.setattr(solvers._Welfare, "__init__", counted_init)
    monkeypatch.setattr(solvers, "_interior_point", spied)
    for seed in range(7001, 7005):
        built.clear()
        pins.clear()
        assert solve_social_optimal(preset(seed, 2.0)).converged
        assert sum(pins) >= 1
        assert len(built) == 1 + sum(pins)


def test_wrongly_dropped_provider_is_put_back(monkeypatch):
    """With the drop thresholds loosened, providers that the optimum gives
    a share leave the solve too.  The certificate runs over every provider,
    so each such one is put back, in a new engine run, and the solve still
    certifies the welfare of the default solve."""
    rng = np.random.default_rng(41)
    markets = [preset(7005, 0.5), preset(7008, 0.5)]
    for _ in range(10):
        spec = random_scenario(rng, n_sps=int(rng.integers(2, 5)), classes_per_sp=int(rng.integers(1, 4)), alphas=MIXED_ALPHAS)
        markets.append(normalize_scenario(spec))
    reference = [solve_social_optimal(scn) for scn in markets]
    assert reference[0].utilities.min() > 0.0 and reference[1].utilities.min() > 0.0
    monkeypatch.setattr(solvers, "_DROP_SHARE", 1.0)
    monkeypatch.setattr(solvers, "_DROP_RATIO", 0.0)
    monkeypatch.setattr(solvers, "_DROP_HOLD", 1e-9)
    runs = engine_runs(monkeypatch)
    counts = []
    for scn, ref in zip(markets, reference):
        runs.clear()
        rep = solve_social_optimal(scn)
        counts.append(len(runs))
        assert rep.converged
        assert welfare(scn, rep) == pytest.approx(welfare(scn, ref), rel=1e-9)
        assert np.all((rep.utilities > 0.0) == (ref.utilities > 0.0))
    assert max(counts) > 1


def test_overflowing_welfare_fails_before_any_step(monkeypatch):
    """At alpha 0.99 the preset's welfare at the interior-point start is
    about exp(719): the solve says so instead of stepping on NaN duals."""
    steps = []
    monkeypatch.setattr(solvers, "_newton_direction", lambda *a: steps.append(1))
    scn = normalize_scenario(instantiate(benchmark_preset(), LoadModel(seed=1), 0).with_alphas(0.99))
    with pytest.raises(ValueError, match="welfare .* overflows float64"):
        solve_social_optimal(scn)
    assert not steps
