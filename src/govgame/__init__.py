"""Exact bimatrix Nash solver and fork predictor for protocol-upgrade voting.

The package models a blockchain upgrade decision as a two-player game
between the voters and the surrounding community, enumerates all Nash
equilibria with exact rational arithmetic, and predicts the majority's
destination chain and the chain-split risk under no governance,
off-chain governance, and on-chain governance.
"""

from .errors import ValidationError
from .game_core import (
    BimatrixGame,
    EquilibriumKind,
    EquilibriumResult,
    MixedStrategy,
    StrategyProfile,
    enumerate_mixed_equilibria,
    enumerate_pure_equilibria,
    is_strong_nash,
    load_game,
    pareto_optimal_pure_profiles,
    pure_profile,
)
from .governance import (
    Chain,
    ForkRisk,
    GovernanceParams,
    Mode,
    PredictionResult,
    Regime,
    SurplusReport,
    build_governance_game,
    classify_regime,
    predict_outcome,
)
from .rationals import format_rational, parse_rational
from .scenario_runner import (
    CheckStatus,
    Scenario,
    ScenarioResult,
    builtin_table1_scenarios,
    load_scenarios,
    results_to_csv,
    results_to_json,
    run_ethereum_case_study,
    run_scenario,
    run_table1_suite,
)

__version__ = "0.1.0"

__all__ = [
    "BimatrixGame",
    "Chain",
    "CheckStatus",
    "EquilibriumKind",
    "EquilibriumResult",
    "ForkRisk",
    "GovernanceParams",
    "MixedStrategy",
    "Mode",
    "PredictionResult",
    "Regime",
    "Scenario",
    "ScenarioResult",
    "StrategyProfile",
    "SurplusReport",
    "ValidationError",
    "build_governance_game",
    "builtin_table1_scenarios",
    "classify_regime",
    "enumerate_mixed_equilibria",
    "enumerate_pure_equilibria",
    "format_rational",
    "is_strong_nash",
    "load_game",
    "load_scenarios",
    "pareto_optimal_pure_profiles",
    "parse_rational",
    "predict_outcome",
    "pure_profile",
    "results_to_csv",
    "results_to_json",
    "run_ethereum_case_study",
    "run_scenario",
    "run_table1_suite",
    "__version__",
]
