"""Centralized equilibrium solver used as ground truth for convergence metrics.

Under strong monotonicity the equilibrium is the unique fixed point of the
projected pseudo-gradient map, for every positive step, so a plain projected
fixed-point iteration from the box midpoint suffices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .games import GameDefinition, estimate_constants, pseudo_gradient


@dataclass(frozen=True)
class NeSolution:
    """The fixed point, its residual and iteration count, and the step used.

    ``exact`` is True when the step came from analytic game constants, and
    False when it came from sampled constants (nonlinear pricing), which
    guarantee nothing, or from the caller.
    """

    x_star: np.ndarray
    residual: float
    iterations: int
    step: float
    exact: bool


def verify_ne(game: GameDefinition, x: np.ndarray, step: float) -> float:
    """Fixed-point residual ``max|x - clip(x - step*F(x))|``; zero iff x is the equilibrium."""
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    lo, hi = game.bounds
    nxt = np.clip(x - step * pseudo_gradient(game, x), lo, hi)
    return float(np.abs(x - nxt).max())


def solve_ne(
    game: GameDefinition,
    step: float | None = None,
    tol: float = 1e-8,
    max_iter: int = 10 ** 6,
) -> NeSolution:
    """Iterate the projected pseudo-gradient map until the residual drops below tol.

    The default step is 0.9 * 2*mu/lbar**2, inside the classical contraction
    range for strongly monotone Lipschitz operators.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    exact = False
    if step is None:
        c = estimate_constants(game)
        step = 0.9 * 2.0 * c.mu / c.lbar ** 2
        exact = c.exact
    if step <= 0:
        raise ValueError("step must be positive")

    lo, hi = game.bounds
    x = 0.5 * (lo + hi)
    residual = np.inf
    for it in range(1, max_iter + 1):
        nxt = np.clip(x - step * pseudo_gradient(game, x), lo, hi)
        residual = float(np.abs(x - nxt).max())
        if residual <= tol:
            return NeSolution(
                x_star=x, residual=residual, iterations=it, step=float(step), exact=exact
            )
        x = nxt
    raise NoConvergence(
        f"no fixed point within {max_iter} iterations (residual {residual:.3e})",
        residual=residual,
    )
