"""Seeded single runs and Monte-Carlo comparisons across communication laws.

Comparison policy: each law is a drop-in replacement for the broadcast
decision, but the dynamic comparison law runs with its disagreement weight
capped at the admissible bound (its own analysis requires a compliant
weight), while the randomized law keeps the scenario's weights. Ensemble
members use seeds base_seed, base_seed + 1, ..., and are returned in seed
order. Only the randomized law reads the random draw, so any other law
integrates one run and repeats it. The members of every law in a
comparison are integrated together, in batches of up to ENSEMBLE_CHUNK.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import islice
from operator import attrgetter
from typing import Any, Callable

import numpy as np

from . import metrics as metrics_mod
from .bounds import sigma_bound
from .engine import Member, RunResult, run
from .errors import ValidationError
from .oracle import solve_ne
from .scenario import Scenario
from .triggers import LawKind, TriggerParams

COMPARISON_LAWS = (LawKind.STATIC, LawKind.DYNAMIC, LawKind.STOCHASTIC)

# Members integrated in one batch; bounds an ensemble's peak memory.
ENSEMBLE_CHUNK = 256


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
    laws: list[LawKind],
    base_seed: int,
    runs: int,
    dt: float | None,
    x_star: np.ndarray | None,
    keep: Callable[[RunResult], Any] = lambda result: result,
) -> dict[LawKind, list]:
    """Runs at seeds base_seed..base_seed+runs-1 under each law, each passed
    through ``keep``.

    Every seed and the dt override are checked here, so a bad override
    raises ValidationError. Only the stochastic law reads the random draw:
    any other law adds one member, at the first seed, and repeats its run.
    The members of all laws are integrated ENSEMBLE_CHUNK at a time and only
    ``keep`` of each run outlives its chunk, so memory does not grow with the
    batch arrays of the whole ensemble.
    """
    try:
        seeds = range(int(base_seed), int(base_seed) + int(runs))
        if not seeds:
            raise ValueError("runs must be >= 1")
        overrides = {} if dt is None else {"dt": float(dt)}
        # the seeds are consecutive, so checking both ends checks them all
        replace(scenario.engine, seed=seeds[-1], **overrides)
        config = replace(scenario.engine, seed=seeds[0], **overrides)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValidationError(str(exc)) from exc
    if x_star is None:
        x_star = resolve_equilibrium(scenario)
    members = []
    for law in laws:
        params = law_trigger_params(scenario, law)
        integrated = seeds if law is LawKind.STOCHASTIC else seeds[:1]
        members += [Member(law, params, seed) for seed in integrated]
    kept = []
    for start in range(0, len(members), ENSEMBLE_CHUNK):
        # bind no name to the chunk's results, so they are freed before the next
        kept += map(keep, run(
            scenario.game, scenario.graph, config, scenario.x0, scenario.y0, x_star,
            members=members[start:start + ENSEMBLE_CHUNK],
        ))
    results = iter(kept)
    return {
        law: list(islice(results, len(seeds))) if law is LawKind.STOCHASTIC
        else [next(results)] * len(seeds)
        for law in laws
    }


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
    return _law_runs(scenario, [law], seed, 1, dt, x_star)[law][0]


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
    members = _law_runs(
        scenario, [law], base_seed, runs, dt, x_star, keep=attrgetter("metrics")
    )[law]
    return metrics_mod.aggregate(members), members


def compare_laws(
    scenario: Scenario,
    laws: list[LawKind],
    runs: int,
    base_seed: int,
    dt: float | None = None,
) -> dict[LawKind, metrics_mod.EnsembleMetrics]:
    """Ensemble metrics per law, all against the same equilibrium, with the
    members of every law integrated together."""
    x_star = resolve_equilibrium(scenario)
    ensembles = _law_runs(scenario, laws, base_seed, runs, dt, x_star, keep=attrgetter("metrics"))
    return {law: metrics_mod.aggregate(members) for law, members in ensembles.items()}
