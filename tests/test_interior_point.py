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
