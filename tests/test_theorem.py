"""The convergence theorem on random digraphs, inside and outside the
admissible disagreement weight ``graph.sigma_bound``.

Each instance is a strongly connected digraph on 3-8 players, every link
present with probability 0.35 plus a random Hamiltonian ring, weights
U[0.2, 2], carrying a strongly monotone quadratic game (``diag_a``
U[1.5, 3], |``cross``| <= 0.8/n, so every row is diagonally dominant).
Inside the bound every law converges with the always-broadcasting one;
at sigma = 0.8/din, above it on every instance here, the stochastic law
alone can diverge or stall.
"""

import re

import numpy as np
import pytest

from neseek import (
    DirectedGraph,
    EngineConfig,
    LawKind,
    Member,
    QuadraticGame,
    Scenario,
    TriggerParams,
    run,
)
from neseek.errors import NumericalDivergence

from test_engine import force_coupling


def instance(seed: int, capped: bool) -> Scenario:
    """Instance ``seed`` of the family, with sigma = 0.8/din, capped at the
    graph's ``sigma_bound`` with ``capped``; c = delta0 = 1, kappa = 1.075,
    a_floor = 0.05, eta = 0.5, alpha = 0.1, beta = 0.5, dt = 0.025, 60 s."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    w = np.where(rng.random((n, n)) < 0.35, rng.uniform(0.2, 2.0, (n, n)), 0.0)
    order = rng.permutation(n)
    w[order, np.roll(order, -1)] = rng.uniform(0.2, 2.0, n)
    np.fill_diagonal(w, 0.0)
    graph = DirectedGraph(w)
    cross = rng.uniform(-0.8 / n, 0.8 / n, (n, n))
    np.fill_diagonal(cross, 0.0)
    game = QuadraticGame(
        diag_a=rng.uniform(1.5, 3.0, n), cross=cross, offset=rng.uniform(-5.0, 5.0, n),
        intervals=[[-50.0, 50.0]] * n,
    )
    x0, y0 = rng.uniform(-10.0, 10.0, n), rng.uniform(-10.0, 10.0, (n, n))
    sigma = 0.8 / graph.in_degrees
    if capped:
        sigma = np.minimum(sigma, graph.sigma_bound)
    trigger = TriggerParams(
        kappa=1.075, a_floor=0.05, eta=0.5, c=np.ones(n), sigma=sigma, delta0=np.ones(n)
    )
    engine = EngineConfig(alpha=0.1, beta=0.5, dt=0.025, horizon=60.0)
    return Scenario(graph, game, trigger, engine, x0, y0, LawKind.STOCHASTIC, seed=seed)


@pytest.mark.parametrize("seed", range(12))
def test_every_law_converges_inside_the_bound(seed):
    # every law in one batch: each decays, and ends within 2x of the error
    # of the member that broadcasts at every step
    s = instance(seed, capped=True)
    assert (s.trigger.sigma <= s.graph.sigma_bound).all()
    results = run(s, [Member(law, seed) for law in LawKind])
    continuous = results[0].err_inf[-1]
    for law, result in zip(LawKind, results):
        assert result.rate_fit < 0, law
        assert result.err_inf[-1] <= 2.0 * continuous, law


def test_the_stochastic_law_alone_diverges_above_the_bound():
    # instance 0 at sigma = 0.8/din, above the bound for every player: the
    # other three laws converge in one batch, and the stochastic member,
    # whose sigma the dynamic law caps, diverges on its own
    s = instance(0, capped=False)
    assert (s.trigger.sigma > s.graph.sigma_bound).all()
    others = [law for law in LawKind if law is not LawKind.STOCHASTIC]
    for law, result in zip(others, run(s, [Member(law, 0) for law in others])):
        assert result.rate_fit < 0, law
        assert result.err_inf[-1] <= 1e-2 * result.err_inf[0], law
    with pytest.raises(NumericalDivergence, match=r"at t=20\.625;"):
        run(s, [Member(LawKind.STOCHASTIC, 0)])


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_a_divergence_names_its_member(sparse):
    # the four laws of instance 0 in one batch, on either path: the error
    # names the stochastic member, which alone diverges, the player whose
    # state left the guard, and the sigma the graph does not admit
    s = instance(0, capped=False)
    message = (
        "state magnitude exceeded 1e+09 or became non-finite at t=20.625; member 3 "
        "(stochastic, seed 0), player 7; its sigma exceeds sigma_bound "
        f"{s.graph.sigma_bound:.6g}; reduce alpha, beta, or dt"
    )
    with pytest.MonkeyPatch.context() as mp:
        force_coupling(mp, sparse)
        with pytest.raises(NumericalDivergence, match=f"^{re.escape(message)}$"):
            run(s, [Member(law, 0) for law in LawKind])
