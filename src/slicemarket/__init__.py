"""Fisher-market / trading-post resource allocation for network slicing.

Budget-constrained service providers buy multi-type resources at multiple
cells; the library computes market-equilibrium allocations (decentralized
bid dynamics or centralized solves), social-optimal and static-share
baselines, and fairness/efficiency diagnostics.
"""

from .dynamics import (
    DynamicsConfig,
    PotentialBreakdown,
    bid_update,
    bregman_gap,
    convergence_certificate,
    eval_dual,
    eval_potential,
    potential_gradient,
    random_feasible_bids,
    run_dynamics,
    uniform_bids,
)
from .market import (
    Allocation,
    BidTensor,
    EquilibriumReport,
    SolveReport,
    service_rate,
    sp_utility_homog,
    tp_allocate,
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
    SolverConfig,
    WelfareReport,
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
    "BidTensor",
    "CellDef",
    "ClassDef",
    "DynamicsConfig",
    "EquilibriumReport",
    "LoadModel",
    "MarketIndex",
    "NormalizedScenario",
    "PotentialBreakdown",
    "ProviderDef",
    "ResourceDef",
    "ScenarioError",
    "ScenarioSpec",
    "SolveReport",
    "SolverConfig",
    "SupportEntry",
    "WelfareReport",
    "best_response",
    "bid_update",
    "bregman_gap",
    "budget_sweep",
    "convergence_certificate",
    "eval_dual",
    "eval_potential",
    "generate_instances",
    "instantiate",
    "load_scenario",
    "max_utilities",
    "nash_welfare",
    "normalize_scenario",
    "benchmark_preset",
    "poa_bound",
    "potential_gradient",
    "random_feasible_bids",
    "random_scenario",
    "run_dynamics",
    "save_scenario",
    "service_rate",
    "solve_eg",
    "solve_social_optimal",
    "sp_utility_homog",
    "static_share",
    "tp_allocate",
    "uniform_bids",
    "utilities",
    "verify_equilibrium",
]
