"""Seeded single runs and Monte-Carlo comparisons across communication laws.

Comparison policy: each law is a drop-in substitute for the broadcast decision.
A member is a law and a seed; ``triggers.law_inputs`` zeroes the static law's
disagreement weights and caps the dynamic law's at the admissible bound (its
own analysis requires a compliant weight), while the randomized law keeps the
scenario's weights. An ensemble runs the scenario's run count of seeds from
scenario.seed up, folded in seed order: another law, seed or count is another
scenario. Only the randomized law reads the random draw, so any other law
integrates one run and repeats it. The members of every law in a comparison are
integrated together, in chunks whose estimate matrices hold at most
ENSEMBLE_ENTRIES entries: 256 members at n = 5, one from n = 57.
"""

from __future__ import annotations

from . import metrics as metrics_mod
from .engine import Member, RunResult, run
from .errors import ValidationError
from .scenario import Scenario
from .triggers import LawKind

# Estimate entries (members * n * n) integrated in one batch; bounds an
# ensemble's peak memory and keeps a large-n batch's state in cache.
ENSEMBLE_ENTRIES = 256 * 5 * 5


def single_run(scenario: Scenario, seed: int | None = None) -> RunResult:
    """One simulation of the scenario's law, at ``seed`` or the scenario's."""
    return run(scenario, [Member(scenario.law, scenario.seed if seed is None else seed)])[0]


def compare_laws(
    scenario: Scenario, laws: list[LawKind | str]
) -> dict[LawKind, metrics_mod.EnsembleMetrics]:
    """Ensemble metrics per law over the seeds scenario.seed ..
    scenario.seed + scenario.runs - 1, all against one ``scenario.x_star``.

    ``laws`` is a list of laws or their names, none twice. Only the
    stochastic law reads the random draw: any other law integrates one
    member, at the first seed, and stands for every seed. The members of all
    laws are integrated together, ENSEMBLE_ENTRIES // n**2 at a time (at
    least one), and each chunk is folded into the per-law sums as soon as it
    finishes, so memory does not grow with the number of runs.
    """
    if isinstance(laws, str):
        raise ValidationError(f"laws: expected a list of law names, got {laws!r}")
    laws = [LawKind(law) for law in laws]
    if not laws:
        raise ValidationError("laws: name at least one law")
    if len(set(laws)) < len(laws):
        raise ValidationError(f"laws: {[law.value for law in laws]} names a law twice")
    seeds = range(scenario.seed, scenario.seed + scenario.runs)
    members = [Member(law, seed) for law in laws
               for seed in (seeds if law is LawKind.STOCHASTIC else seeds[:1])]
    ensembles = {member.law: metrics_mod.Ensemble() for member in members}
    size = max(1, ENSEMBLE_ENTRIES // scenario.n ** 2)
    for start in range(0, len(members), size):
        chunk = members[start:start + size]
        for member, result in zip(chunk, run(scenario, members=chunk)):
            ensembles[member.law].add(result, 1 if member.law is LawKind.STOCHASTIC else len(seeds))
        # the loop name would keep this chunk's batch alive while the next integrates
        del result
    return {law: ensemble.metrics() for law, ensemble in ensembles.items()}
