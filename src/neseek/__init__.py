"""Distributed Nash-equilibrium seeking over directed graphs with
event-triggered communication."""

from .bounds import BoundsReport, alpha_max, beta_min, compute_report
from .engine import Batch, EngineConfig, EngineState, Member, RunResult, init, run, step
from .games import (
    GameConstants,
    GameDefinition,
    QuadraticGame,
    SpectrumGame,
    estimate_constants,
    pseudo_gradient,
    spectral_efficiency,
)
from .graphs import DirectedGraph, LyapunovPair, coupling_blocks, laplacian, lyapunov_pair
from .harness import compare_laws, single_run
from .metrics import (
    Ensemble,
    EnsembleMetrics,
    gamma_series,
    interval_stats,
    rate_fit,
)
from .oracle import NeSolution, projected_ne, solve_ne, verify_ne
from .scenario import Scenario, load_scenario
from .triggers import (
    LawKind,
    TriggerParams,
    decide,
    triggering_function,
)

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "BoundsReport",
    "DirectedGraph",
    "EngineConfig",
    "EngineState",
    "Ensemble",
    "EnsembleMetrics",
    "GameConstants",
    "GameDefinition",
    "LawKind",
    "LyapunovPair",
    "Member",
    "NeSolution",
    "QuadraticGame",
    "RunResult",
    "Scenario",
    "SpectrumGame",
    "TriggerParams",
    "alpha_max",
    "beta_min",
    "compare_laws",
    "compute_report",
    "coupling_blocks",
    "decide",
    "estimate_constants",
    "gamma_series",
    "init",
    "interval_stats",
    "laplacian",
    "load_scenario",
    "lyapunov_pair",
    "projected_ne",
    "pseudo_gradient",
    "rate_fit",
    "run",
    "single_run",
    "solve_ne",
    "spectral_efficiency",
    "step",
    "triggering_function",
    "verify_ne",
]
