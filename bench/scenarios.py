"""Seeded scenario generator for the generated-graph workloads.

Only numpy and the standard library are used here: the generator is the
benchmark's own, and the program under test receives only the scenario
document it returns.

Graph: a directed ring (player i hears player i-1) plus one seeded random
chord into every player, with unit weights. The ring alone makes every
generated graph strongly connected.

Game: a linear-price spectrum game whose per-player parameters are drawn
around the ranges of the bundled ``spectrum_paper`` scenario. Draws are
stratified (one uniform draw inside each of n equal slices of the range,
then shuffled), so two seeds give different games with nearly the same
spread of parameters. That keeps the cost of the equilibrium solve, which
depends on that spread, close across seeds.
"""

from __future__ import annotations

import numpy as np

# Parameter ranges of the bundled five-player scenario.
M_C_RANGE = (5.7, 15.0)
Q_RANGE = (1.1, 1.5)
S_DB_RANGE = (12.0, 18.0)
REVENUE = 20.0
BER_TARGET = 1e-4
ACTION_BOX = (0.0, 16.0)


def _stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> list[float]:
    cells = (np.arange(n) + rng.random(n)) / n
    return (lo + (hi - lo) * rng.permutation(cells)).tolist()


def ring_with_chords(rng: np.random.Generator, n: int) -> np.ndarray:
    """Adjacency of a directed ring plus one random chord into each node.

    ``a[i, j] = 1`` means player i hears player j. Node i's chord comes from
    a node other than itself and its ring predecessor.
    """
    a = np.zeros((n, n))
    for i in range(n):
        pred = (i - 1) % n
        a[i, pred] = 1.0
        others = [j for j in range(n) if j != i and j != pred]
        a[i, others[int(rng.integers(len(others)))]] = 1.0
    return a


def strongly_connected(adjacency: np.ndarray) -> bool:
    """Every node reaches every other along directed links (two searches)."""
    links = np.asarray(adjacency) > 0

    def reaches_all(lk: np.ndarray) -> bool:
        reached = np.zeros(lk.shape[0], dtype=bool)
        reached[0] = True
        frontier = reached.copy()
        while frontier.any():
            frontier = lk[:, frontier].any(axis=1) & ~reached
            reached |= frontier
        return bool(reached.all())

    return reaches_all(links) and reaches_all(links.T)


def generate(n: int, seed: int, horizon: float, beta: float = 1.5) -> dict:
    """Scenario document for ``n`` players, a pure function of ``seed``."""
    rng = np.random.default_rng([n, seed])
    adjacency = ring_with_chords(rng, n)
    lo, hi = ACTION_BOX
    return {
        "adjacency": adjacency.tolist(),
        "game": {
            "kind": "spectrum",
            "m_c": _stratified(rng, *M_C_RANGE, n),
            "q": _stratified(rng, *Q_RANGE, n),
            "r": [REVENUE] * n,
            "s_db": _stratified(rng, *S_DB_RANGE, n),
            "ber_target": [BER_TARGET] * n,
            "tau": 1.0,
            "intervals": [[lo, hi]] * n,
        },
        "trigger": {
            "law": "stochastic",
            "kappa": 1.075,
            "a_floor": 0.05,
            "eta": 10.0,
            "c": 1.0,
            "sigma_rule": "0.8/din",
            "delta0": 100.0,
        },
        "engine": {
            "alpha": 0.14,
            "beta": beta,
            "dt": 0.025,
            "horizon": horizon,
            "seed": 0,
            "record_every": 1,
        },
        "x0": rng.uniform(lo, hi, n).tolist(),
        "y0": rng.uniform(lo, hi, (n, n)).tolist(),
        "runs": 1,
    }
