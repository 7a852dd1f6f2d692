"""Scalar reference implementations the tests compare the package against.

Each is the textbook per-player form of something the package computes in
batched array code: a player's cost and own-action gradient, the projection
onto an action interval, the decaying trigger scale, the randomized law's
fire probability, and the dense coupling matrix whose diagonal blocks
``coupling_blocks`` returns.
"""

import math

import numpy as np

from neseek.errors import DomainError
from neseek.games import ActionInterval, GameDefinition, SpectrumGame
from neseek.graphs import DirectedGraph, laplacian
from neseek.triggers import TriggerParams


def project(interval: ActionInterval, v: float) -> float:
    """Clamp v into the interval (idempotent, non-expansive)."""
    return min(max(v, interval.lo), interval.hi)


def _total_power(game: SpectrumGame, total: float, power: float) -> float:
    if game.tau > 1 and total < 0:
        raise DomainError("negative total demand with fractional pricing exponent")
    return total ** power


def cost(game: GameDefinition, i: int, x: np.ndarray) -> float:
    """Cost of player i at the full action profile x."""
    x = np.asarray(x, dtype=float)
    if isinstance(game, SpectrumGame):
        price = game.m_c[i] + game.q[i] * _total_power(game, float(x.sum()), game.tau)
        return float(x[i] * price - game.r[i] * game.efficiencies[i] * x[i])
    others = float(game.cross[i] @ x)
    return float(0.5 * game.diag_a[i] * x[i] ** 2 + x[i] * others + game.offset[i] * x[i])


def partial_gradient(game: GameDefinition, i: int, y_i: np.ndarray) -> float:
    """Derivative of player i's cost w.r.t. its own action, evaluated at the
    profile estimate ``y_i`` (the i-th entry plays the role of the own action)."""
    y_i = np.asarray(y_i, dtype=float)
    if isinstance(game, SpectrumGame):
        total = float(y_i.sum())
        price = game.m_c[i] + game.q[i] * _total_power(game, total, game.tau)
        marginal = y_i[i] * game.q[i] * game.tau * _total_power(game, total, game.tau - 1.0)
        return float(price + marginal - game.r[i] * game.efficiencies[i])
    return float(game.diag_a[i] * y_i[i] + game.cross[i] @ y_i + game.offset[i])


def decay_at(params: TriggerParams, i: int, t: float) -> float:
    """Closed-form value of the decaying scale at time t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(params.delta0[i]) * math.exp(-params.eta * t)


def trigger_probability(params: TriggerParams, i: int, rho_val: float, delta: float) -> float:
    """Probability that the randomized law fires at the given margin and scale."""
    ln_kappa = math.log(params.kappa)
    if delta <= 0:
        # fully decayed scale: the law degenerates to a sign test on rho
        return 1.0 if rho_val > 0 else 0.0
    z = float(params.c[i]) * rho_val / delta
    if z <= ln_kappa:
        return 0.0
    if z >= ln_kappa - math.log(params.a_floor):
        return 1.0
    v = params.kappa * math.exp(-z)
    return (1.0 - v) / (1.0 - params.a_floor)


def coupling_matrix(g: DirectedGraph) -> np.ndarray:
    """Dense n^2 x n^2 matrix driving the stacked estimate errors:
    ``kron(L, I_n)`` plus the adjacency entries, stacked row by row, on the diagonal.

    Nonsingular with spectrum in the open right half-plane exactly when the
    graph is strongly connected. Kept as the reference for ``coupling_blocks``.
    """
    return np.kron(laplacian(g), np.eye(g.n)) + np.diag(g.weights.ravel())
