"""Seeded single runs and Monte-Carlo comparisons across communication laws.

Comparison policy: each law is a drop-in replacement for the broadcast
decision. A member is a law and a seed; ``engine.Batch.of`` caps the dynamic
comparison law's disagreement weight at the admissible bound (its own
analysis requires a compliant weight), while the randomized law keeps the
scenario's weights. Ensemble members use seeds base_seed, base_seed + 1,
..., and are folded in seed order. Only the randomized law reads the random
draw, so any other law integrates one run and repeats it. The members of
every law in a comparison are integrated together, in chunks whose estimate
matrices hold at most ENSEMBLE_ENTRIES entries: 256 members at n = 5, one
from n = 57.
"""

from __future__ import annotations

from dataclasses import replace

from . import metrics as metrics_mod
from .engine import Member, RunResult, run
from .errors import ValidationError
from .oracle import solve_ne
from .scenario import Scenario
from .triggers import LawKind

# Estimate entries (members * n * n) integrated in one batch; bounds an
# ensemble's peak memory and keeps a large-n batch's state in cache.
ENSEMBLE_ENTRIES = 256 * 5 * 5


def _setup(
    scenario: Scenario, laws: list[LawKind], base_seed: int, runs: int
) -> tuple[range, list[Member], Scenario]:
    """Seeds base_seed..base_seed+runs-1, the members that integrate them, and
    the scenario they run, whose ne_override is the equilibrium: solved here
    once per call when the scenario sets none.

    The stochastic law integrates every seed; any other law one member, at
    the first seed. A law may be given by name, but not twice. The scenario
    checks the seed and run count, and each member its law and seed, before
    the equilibrium is solved.
    """
    scenario = replace(scenario, seed=base_seed, runs=runs)
    laws = [LawKind(law) for law in laws]
    if len(set(laws)) < len(laws):
        raise ValidationError(f"laws: {[law.value for law in laws]} names a law twice")
    seeds = range(scenario.seed, scenario.seed + scenario.runs)
    members = [
        Member(law, seed)
        for law in laws
        for seed in (seeds if law is LawKind.STOCHASTIC else seeds[:1])
    ]
    x_star = scenario.ne_override
    if x_star is None:
        x_star = solve_ne(scenario.game).x_star
    return seeds, members, replace(scenario, ne_override=x_star)


def single_run(
    scenario: Scenario, seed: int | None = None, law: LawKind | None = None
) -> RunResult:
    """One seeded simulation of the scenario, with optional overrides."""
    seed = scenario.seed if seed is None else seed
    law = scenario.law if law is None else law
    _, members, anchored = _setup(scenario, [law], seed, 1)
    return run(anchored, members=members)[0]


def compare_laws(
    scenario: Scenario, laws: list[LawKind], runs: int, base_seed: int
) -> dict[LawKind, metrics_mod.EnsembleMetrics]:
    """Ensemble metrics per law over seeds base_seed..base_seed+runs-1, all
    against the same equilibrium.

    Only the stochastic law reads the random draw: any other law integrates
    one member, at the first seed, and stands for every seed. The members of
    all laws are integrated together, ENSEMBLE_ENTRIES // n**2 at a time (at
    least one), and each chunk is folded into the per-law sums as soon as it
    finishes, so memory does not grow with the number of runs.
    """
    seeds, members, anchored = _setup(scenario, laws, base_seed, runs)
    ensembles = {member.law: metrics_mod.Ensemble() for member in members}
    size = max(1, ENSEMBLE_ENTRIES // scenario.n ** 2)
    for start in range(0, len(members), size):
        chunk = members[start:start + size]
        for member, result in zip(chunk, run(anchored, members=chunk)):
            ensembles[member.law].add(result, 1 if member.law is LawKind.STOCHASTIC else len(seeds))
        # the loop name would keep this chunk's batch alive while the next integrates
        del result
    return {law: ensemble.metrics() for law, ensemble in ensembles.items()}
