"""Seeded single runs and Monte-Carlo comparisons across communication laws.

Comparison policy: each law is a drop-in replacement for the broadcast
decision, but the dynamic comparison law runs with its disagreement weight
capped at the admissible bound (its own analysis requires a compliant
weight), while the randomized law keeps the scenario's weights. Ensemble
members use seeds base_seed, base_seed + 1, ..., merged in seed order, so
results do not depend on scheduling.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import metrics as metrics_mod
from .bounds import sigma_bound
from .engine import RunResult, run
from .oracle import solve_ne
from .scenario import Scenario
from .triggers import LawKind, TriggerParams

COMPARISON_LAWS = (LawKind.STATIC, LawKind.DYNAMIC, LawKind.STOCHASTIC)


def resolve_equilibrium(scenario: Scenario) -> np.ndarray:
    """Equilibrium the error series is measured against."""
    if scenario.ne_override is not None:
        return scenario.ne_override
    return solve_ne(scenario.game).x_star


def law_trigger_params(scenario: Scenario, law: LawKind) -> TriggerParams:
    """Trigger parameters a given law runs with in a comparison."""
    params = scenario.trigger
    if law is LawKind.DYNAMIC:
        capped = np.minimum(params.sigma, sigma_bound(scenario.graph))
        return TriggerParams(
            kappa=params.kappa,
            a_floor=params.a_floor,
            eta=params.eta,
            c=params.c,
            sigma=capped,
            delta0=params.delta0,
        )
    return params


def single_run(
    scenario: Scenario,
    seed: int | None = None,
    law: LawKind | None = None,
    dt: float | None = None,
    x_star: np.ndarray | None = None,
) -> RunResult:
    """One seeded simulation of the scenario, with optional overrides."""
    config = scenario.engine
    overrides = {}
    if seed is not None:
        overrides["seed"] = int(seed)
    if dt is not None:
        overrides["dt"] = float(dt)
    if law is not None:
        overrides["law"] = law
    if overrides:
        config = replace(config, **overrides)
    if x_star is None:
        x_star = resolve_equilibrium(scenario)
    return run(
        game=scenario.game,
        graph=scenario.graph,
        trigger_params=law_trigger_params(scenario, config.law),
        config=config,
        x0=scenario.x0,
        y0=scenario.y0,
        x_star=x_star,
    )


def run_ensemble(
    scenario: Scenario,
    law: LawKind,
    runs: int,
    base_seed: int,
    x_star: np.ndarray | None = None,
    dt: float | None = None,
) -> tuple[metrics_mod.EnsembleMetrics, list[metrics_mod.RunMetrics]]:
    """Seeds base_seed..base_seed+runs-1 under one law, aggregated."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if x_star is None:
        x_star = resolve_equilibrium(scenario)
    members = []
    for k in range(runs):
        result = single_run(scenario, seed=base_seed + k, law=law, dt=dt, x_star=x_star)
        members.append(result.metrics)
    return metrics_mod.aggregate(members), members


def compare_laws(
    scenario: Scenario,
    laws: list[LawKind],
    runs: int,
    base_seed: int,
    dt: float | None = None,
) -> dict[LawKind, metrics_mod.EnsembleMetrics]:
    """Ensemble metrics per law, all against the same equilibrium."""
    x_star = resolve_equilibrium(scenario)
    out = {}
    for law in laws:
        out[law], _ = run_ensemble(scenario, law, runs, base_seed, x_star=x_star, dt=dt)
    return out
