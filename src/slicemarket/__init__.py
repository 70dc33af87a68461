"""Fisher-market / trading-post resource allocation for network slicing.

Budget-constrained service providers buy multi-type resources at multiple
cells; the library computes market-equilibrium allocations (decentralized
bid dynamics or centralized solves), social-optimal and static-share
baselines, and fairness/efficiency diagnostics.
"""

from .dynamics import (
    bid_update,
    run_dynamics,
    uniform_bids,
)
from .market import (
    Allocation,
    EquilibriumReport,
    SolveReport,
    utilities,
    verify_equilibrium,
)
from .model import (
    CellDef,
    ClassDef,
    MarketIndex,
    NormalizedScenario,
    ProviderDef,
    ResourceDef,
    ScenarioError,
    ScenarioSpec,
    SupportEntry,
    load_scenario,
    normalize_scenario,
    save_scenario,
)
from .scenarios import (
    LoadModel,
    budget_sweep,
    generate_instances,
    instantiate,
    benchmark_preset,
    random_scenario,
)
from .solvers import (
    best_response,
    max_utilities,
    nash_welfare,
    poa_bound,
    solve_eg,
    solve_social_optimal,
    static_share,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "CellDef",
    "ClassDef",
    "EquilibriumReport",
    "LoadModel",
    "MarketIndex",
    "NormalizedScenario",
    "ProviderDef",
    "ResourceDef",
    "ScenarioError",
    "ScenarioSpec",
    "SolveReport",
    "SupportEntry",
    "best_response",
    "bid_update",
    "budget_sweep",
    "generate_instances",
    "instantiate",
    "load_scenario",
    "max_utilities",
    "nash_welfare",
    "normalize_scenario",
    "benchmark_preset",
    "poa_bound",
    "random_scenario",
    "run_dynamics",
    "save_scenario",
    "solve_eg",
    "solve_social_optimal",
    "static_share",
    "uniform_bids",
    "utilities",
    "verify_equilibrium",
]
