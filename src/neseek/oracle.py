"""Centralized equilibrium solver used as ground truth for convergence metrics.

The spectrum game is aggregative: player i's gradient depends only on x_i and
the total S = sum(x), and is affine and increasing in x_i at fixed S. So each
clipped best response x_i(S) is non-increasing in S, the equilibrium total is
the one root of the strictly decreasing h(S) = sum_i x_i(S) - S, and bisection
finds it to machine precision. The quadratic game, whose constants are exact,
runs the projected pseudo-gradient iteration, a contraction under strong
monotonicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .games import GameDefinition, SpectrumGame, estimate_constants, pseudo_gradient


@dataclass(frozen=True)
class NeSolution:
    """The solution, its fixed-point residual, the iteration count, the method
    (``"aggregative"`` or ``"projected"``) and a bound on the max-norm distance
    to the equilibrium, ``inf`` when the game's constants were sampled."""

    x_star: np.ndarray
    residual: float
    iterations: int
    method: str
    distance_bound: float


def verify_ne(game: GameDefinition, x: np.ndarray, step: float) -> float:
    """Fixed-point residual ``max|x - clip(x - step*F(x))|``; zero iff x is the equilibrium."""
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    lo, hi = game.bounds
    nxt = np.clip(x - step * pseudo_gradient(game, x), lo, hi)
    return float(np.abs(x - nxt).max())


def projected_ne(
    game: GameDefinition,
    step: float | None = None,
    tol: float = 1e-8,
    max_iter: int = 10 ** 6,
) -> NeSolution:
    """Iterate the projected pseudo-gradient map until the residual drops below tol.

    The default step is 0.9 * 2*mu/lbar**2, inside the classical contraction
    range for strongly monotone Lipschitz operators. With exact constants the
    distance bound is the error bound (1 + s*L)/(s*mu) * ||r_s||_2 of
    Facchinei & Pang (2003), L = ||l||_2 (Frobenius bound on the Jacobian).
    An iterate equal to the one two steps back means the map cycles between
    neighbouring floats above tol, and raises NoConvergence at once.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    c = estimate_constants(game)
    if step is None:
        step = 0.9 * 2.0 * c.mu / c.lbar ** 2
    if step <= 0:
        raise ValueError("step must be positive")

    lo, hi = game.bounds
    x = prev = 0.5 * (lo + hi)
    residual = np.inf
    for it in range(1, max_iter + 1):
        nxt = np.clip(x - step * pseudo_gradient(game, x), lo, hi)
        residual = float(np.abs(x - nxt).max())
        if residual <= tol:
            lip = float(np.linalg.norm(c.l))
            bound = (1.0 + step * lip) / (step * c.mu) * float(np.linalg.norm(x - nxt))
            return NeSolution(x, residual, it, "projected", bound if c.exact else math.inf)
        if np.array_equal(nxt, prev):
            msg = f"iterates cycle at iteration {it}, residual {residual:.3e} above tol"
            raise NoConvergence(msg, residual=residual)
        prev, x = x, nxt
    raise NoConvergence(
        f"no fixed point within {max_iter} iterations (residual {residual:.3e})",
        residual=residual,
    )


def _aggregative_ne(game: SpectrumGame) -> NeSolution:
    """Bisect h on [sum(lo), sum(hi)] until the midpoint equals an endpoint."""
    lo, hi = game.bounds
    a = game.r * game.efficiencies - game.m_c
    q, tau = game.q, game.tau

    def responses(total: np.float64) -> np.ndarray:
        """Every player's clipped best response x_i(S) to the total S."""
        # tau > 1 at a vanishing total: num/0 is +-inf by the sign of num and
        # 0/0 is nan, which fmax sends to lo >= 0, the clipped limit of -S/tau
        own = (a - q * total ** tau) / (q * (tau * total ** (tau - 1.0)))
        return np.fmin(np.fmax(own, lo), hi)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ends = [lo.sum(), hi.sum()]
        gaps = [responses(s).sum() - s for s in ends]
        it = 0
        while ends[0] < (mid := 0.5 * (ends[0] + ends[1])) < ends[1]:
            it += 1
            gap = responses(mid).sum() - mid
            if gap >= 0:
                ends[0], gaps[0] = mid, gap
            if gap <= 0:
                ends[1], gaps[1] = mid, gap
        x_lo, x_hi = responses(ends[0]), responses(ends[1])
    x = x_lo if abs(gaps[0]) <= abs(gaps[1]) else x_hi
    # every x_i(S) is monotone, so x_i* lies between x_i(S_lo) and x_i(S_hi)
    bound = float(np.abs(x_lo - x_hi).max())
    return NeSolution(x, verify_ne(game, x, 1.0), it, "aggregative", bound)


def solve_ne(game: GameDefinition) -> NeSolution:
    """The aggregative root-find for a spectrum game (residual at unit step,
    iterations are bisection steps); otherwise ``projected_ne`` at its
    defaults. Call ``projected_ne`` directly to set its step, ``tol`` or
    ``max_iter``."""
    if isinstance(game, SpectrumGame):
        return _aggregative_ne(game)
    return projected_ne(game)
