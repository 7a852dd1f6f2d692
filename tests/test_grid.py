"""The forward-Euler grid against the paper's continuous time.

Each bundled scenario runs over [0, 8] s on four grids, dt = 0.025 * 2**-h
for h = 0..3, with the continuous, static and dynamic laws in one batch per
grid. On the grid every law is a periodic event-triggered scheme with period
dt (Heemels, Donkers & Teel, "Periodic event-triggered control for linear
systems", IEEE TAC 2013), so a smallest gap of one step is guaranteed and
says nothing about Zeno behaviour in continuous time; these tests read what
the grid converges to, not whether the continuous-time law is Zeno.
"""

import numpy as np
import pytest

from neseek import LawKind, Member, run

from conftest import load_bundled, with_engine

HORIZON = 8.0
GRIDS = [0.025 * 2.0 ** -h for h in range(4)]
LAWS = (LawKind.CONTINUOUS, LawKind.STATIC, LawKind.DYNAMIC)


@pytest.fixture(scope="module", params=["quadratic_demo", "spectrum_paper"])
def refined(request):
    """Per grid of GRIDS, the run of each law of LAWS by law, all in one batch."""
    s = load_bundled(request.param)
    members = [Member(law, 0) for law in LAWS]
    return [
        dict(zip(LAWS, run(with_engine(s, horizon=HORIZON, dt=dt), members))) for dt in GRIDS
    ]


def counts(refined, law):
    """The law's broadcasts over all players, per grid."""
    return [int(runs[law].trigger_counts.sum()) for runs in refined]


def smallest_gaps(refined, law):
    """The law's smallest gap between two broadcasts of a player, in
    seconds, per grid."""
    return [min(gaps.min() for gaps in runs[law].intervals if gaps.size) for runs in refined]


def test_continuous_law_converges_at_first_order(refined):
    # halving dt halves the change in the final actions: 2.001 and 2.000
    # on quadratic_demo, 2.001 and 2.001 on spectrum_paper
    final = [runs[LawKind.CONTINUOUS].actions[-1] for runs in refined]
    changes = [np.abs(a - b).max() for a, b in zip(final, final[1:])]
    ratios = [a / b for a, b in zip(changes, changes[1:])]
    assert all(1.8 <= r <= 2.2 for r in ratios), ratios


def test_static_law_has_no_grid_limit(refined):
    # its counts about double with every halving (576 -> 1,128 -> 2,207 ->
    # 4,316 on quadratic_demo, 1,418 -> 10,524 on spectrum_paper), and
    # some player broadcasts at two successive steps on every grid
    static = counts(refined, LawKind.STATIC)
    assert all(b >= 1.8 * a for a, b in zip(static, static[1:])), static
    assert smallest_gaps(refined, LawKind.STATIC) == GRIDS


def test_dynamic_law_settles_under_refinement(refined):
    # its counts barely move (65 -> 68 on quadratic_demo, 202 -> 218 on
    # spectrum_paper), and its smallest gap in seconds does not shrink
    # with dt: it stays above half its value at dt = 0.025
    dynamic = counts(refined, LawKind.DYNAMIC)
    assert all(b <= 1.1 * a for a, b in zip(dynamic, dynamic[1:])), dynamic
    gaps = smallest_gaps(refined, LawKind.DYNAMIC)
    assert all(gap > 0.5 * gaps[0] for gap in gaps), gaps
