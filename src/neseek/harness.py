"""Seeded single runs and Monte-Carlo comparisons across communication laws.

Comparison policy: each law is a drop-in replacement for the broadcast
decision, but the dynamic comparison law runs with its disagreement weight
capped at the admissible bound (its own analysis requires a compliant
weight), while the randomized law keeps the scenario's weights. Ensemble
members use seeds base_seed, base_seed + 1, ..., integrated together in one
batch and returned in seed order. Only the randomized law reads the random
draw, so any other law's ensemble integrates one run and repeats it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import metrics as metrics_mod
from .bounds import sigma_bound
from .engine import RunResult, run
from .errors import ValidationError
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
        return replace(params, sigma=np.minimum(params.sigma, sigma_bound(scenario.graph)))
    return params


def _law_runs(
    scenario: Scenario,
    law: LawKind,
    base_seed: int,
    runs: int,
    dt: float | None,
    x_star: np.ndarray | None,
) -> list[RunResult]:
    """Runs at seeds base_seed..base_seed+runs-1 under one law, in one batch.

    Every seed and the dt override are checked here, so a bad override
    raises ValidationError. Only the stochastic law reads the random draw:
    any other law integrates the first seed and repeats that run.
    """
    try:
        seeds = range(int(base_seed), int(base_seed) + int(runs))
        if not seeds:
            raise ValueError("runs must be >= 1")
        overrides = {"law": law} if dt is None else {"law": law, "dt": float(dt)}
        # the seeds are consecutive, so checking both ends checks them all
        replace(scenario.engine, seed=seeds[-1], **overrides)
        config = replace(scenario.engine, seed=seeds[0], **overrides)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValidationError(str(exc)) from exc
    if x_star is None:
        x_star = resolve_equilibrium(scenario)
    stochastic = law is LawKind.STOCHASTIC
    results = run(
        scenario.game, scenario.graph, law_trigger_params(scenario, law), config,
        scenario.x0, scenario.y0, x_star, seeds=seeds if stochastic else seeds[:1],
    )
    return results if stochastic else results * len(seeds)


def single_run(
    scenario: Scenario,
    seed: int | None = None,
    law: LawKind | None = None,
    dt: float | None = None,
    x_star: np.ndarray | None = None,
) -> RunResult:
    """One seeded simulation of the scenario, with optional overrides."""
    seed = scenario.engine.seed if seed is None else seed
    law = scenario.law if law is None else law
    return _law_runs(scenario, law, seed, 1, dt, x_star)[0]


def run_ensemble(
    scenario: Scenario,
    law: LawKind,
    runs: int,
    base_seed: int,
    x_star: np.ndarray | None = None,
    dt: float | None = None,
) -> tuple[metrics_mod.EnsembleMetrics, list[metrics_mod.RunMetrics]]:
    """Seeds base_seed..base_seed+runs-1 under one law, aggregated.

    Under a deterministic law every member is the same ``RunMetrics`` object.
    """
    members = [r.metrics for r in _law_runs(scenario, law, base_seed, runs, dt, x_star)]
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
