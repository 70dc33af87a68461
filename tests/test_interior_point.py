"""Step counts and certificates of the interior-point engine shared by the
social optimum and the static share."""

import math

import numpy as np
import pytest

from slicemarket import (
    LoadModel,
    benchmark_preset,
    instantiate,
    normalize_scenario,
    random_scenario,
    solve_social_optimal,
    static_share,
)
from slicemarket import solvers

ALPHAS = [0.0, 0.5, 1.0, 2.0, 5.0, 100.0, math.inf]


def preset(seed, alpha):
    return normalize_scenario(instantiate(benchmark_preset(), LoadModel(seed=seed), 0).with_alphas(alpha))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_social_optimum_steps(alpha):
    """The former primal barrier took 144-187 Newton steps here; the
    primal-dual engine takes 10-39, and at most 75 at alpha 100."""
    for seed in range(3):
        rep = solve_social_optimal(preset(seed, alpha))
        assert rep.converged
        assert rep.iterations <= 80


@pytest.mark.parametrize("alpha", [1.5, 2.0, 5.0])
def test_priced_out_provider_costs_no_halving_steps(alpha):
    """The optimum gives one preset provider nothing here.  With its rates
    halved once per step the solve took 36-39 Newton steps; dropped from the
    solve once its share is small and its price-space ratio stays below
    the best, it takes 13-18."""
    for seed in range(3):
        rep = solve_social_optimal(preset(seed, alpha))
        assert rep.converged
        assert rep.iterations <= 25
        assert np.count_nonzero(rep.utilities == 0.0) >= 1


@pytest.mark.parametrize("alpha", ALPHAS)
def test_static_share_steps(alpha):
    """The former primal barrier took 49-64 Newton steps here at alpha <= 5
    and about 180 at alpha 100; the primal-dual engine takes at most 23."""
    for seed in range(3):
        rep = static_share(preset(seed, alpha))
        assert rep.converged
        assert rep.iterations <= 30


@pytest.mark.parametrize("alpha", [10.0, 20.0, 100.0])
def test_steep_alphas_certify(alpha):
    """Both solves certify at large alpha on preset instances and on random
    markets that mix alpha with alpha-2 and max-min providers."""
    markets = [preset(seed, alpha) for seed in range(1000, 1010)]
    rng = np.random.default_rng(int(alpha) + 500)
    for _ in range(40):
        spec = random_scenario(
            rng,
            n_sps=int(rng.integers(1, 5)),
            n_cells=int(rng.integers(1, 4)),
            n_resources=int(rng.integers(1, 4)),
            classes_per_sp=int(rng.integers(1, 4)),
            alphas=[alpha, 2.0, math.inf],
        )
        markets.append(normalize_scenario(spec))
    for scn in markets:
        assert solve_social_optimal(scn).converged
        assert static_share(scn).converged


def market(n_cells, seed, alpha):
    return normalize_scenario(instantiate(benchmark_preset(n_cells=n_cells), LoadModel(seed=seed), 0).with_alphas(alpha))


def fingerprint(rep):
    """Every number of a report, in forms that are equal only bit for bit."""
    arrays = (rep.allocation.rates, rep.prices, rep.utilities, rep.spending)
    residuals = {key: float(value).hex() for key, value in rep.residuals.items()}
    return rep.method, [a.tobytes() for a in arrays], rep.iterations, rep.converged, residuals


@pytest.mark.parametrize("shed", [1, math.inf])
def test_shedding_does_not_change_a_static_share(shed, monkeypatch):
    """Certified blocks leave the engine's batch once ``_SHED_ROWS`` of them
    wait.  A report may not depend on when that happens: shedding at every
    finish, or never, gives the default's reports to the bit, on the preset
    (21 blocks, which the default never sheds) and on 28 cells (84 blocks,
    which it does)."""
    keys = [(7, seed, alpha) for seed in range(3) for alpha in (0.0, 2.0, 5.0, 100.0, math.inf)]
    markets = [market(*key) for key in keys + [(28, 3, 2.0), (28, 3, 100.0)]]
    default = [fingerprint(static_share(scn)) for scn in markets]
    monkeypatch.setattr(solvers, "_SHED_ROWS", shed)
    assert [fingerprint(static_share(scn)) for scn in markets] == default


def test_static_share_batch_shrinks(monkeypatch):
    """On 28 cells the stop test is handed fewer blocks once enough have
    certified, and each time a welfare, iterate and duals of just those
    blocks."""
    handed = []
    engine = solvers._interior_point

    def spied(welfare, amat, var_mask, certified):
        def stop_test(welfare, amat, y, lam, log_u):
            handed.append(amat.shape[0])
            assert welfare.log_b.shape[0] == y.shape[0] == lam.shape[0] == log_u.shape[0] == amat.shape[0]
            return certified(welfare, amat, y, lam, log_u)

        return engine(welfare, amat, var_mask, stop_test)

    monkeypatch.setattr(solvers, "_interior_point", spied)
    rep = static_share(market(28, 3, 2.0))
    assert rep.converged
    assert len(handed) == rep.iterations
    assert handed[0] == 84 and handed[-1] < handed[0] - solvers._SHED_ROWS


def test_singular_member_leaves_the_others_on_lu():
    """A Newton matrix that LU cannot factor sends only its own member to
    the eigen-decomposition; the others keep their LU solutions."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    spd = a @ a.T + 4.0 * np.eye(4)
    hess = np.stack([spd, np.ones((4, 4)), spd])
    rhs = rng.normal(size=(3, 4))
    rhs[1] = 1.0
    x = solvers._newton_direction(hess, rhs)
    for b in (0, 2):
        assert x[b].tobytes() == np.linalg.solve(spd, rhs[b][:, None])[:, 0].tobytes()
    assert rhs[1] @ x[1] > 0.0
