"""Admissible step-size region and convergence-rate certificate.

All constants follow from the game's regularity constants (mu, lbar), the
Lyapunov certificate P of the graph's coupling matrix M with Q = I (so
lambda_min(Q) = 1 drops out of every formula), and the two step sizes. P
and M share one block-diagonal structure, so every norm of them below is a
maximum over the blocks. The certified decay rate is the smaller root of a
quadratic balancing the action-error and estimate-error contraction rates
against their coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .games import GameDefinition, estimate_constants
from .graphs import DirectedGraph, lyapunov_pair


@dataclass(frozen=True)
class BoundsReport:
    mu: float
    lbar: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    lambda_max_p: float
    phi1: float
    phi2: float
    omega1: float
    omega2: float
    theta_star: float
    k_v: float
    alpha: float
    beta: float
    eta: float
    alpha_max: float
    beta_min: float
    sigma_max: float
    feasible: bool


def beta_min(mu: float, c2: float, c3: float, c4: float) -> float:
    """Smallest consensus gain for which any admissible action step exists."""
    if mu <= 0:
        raise ValidationError("mu must be positive")
    return (4.0 * c2 * c3 + mu * c4) / mu


def alpha_max(mu: float, beta: float, c1: float, c2: float, c3: float, c4: float) -> float:
    """Upper bound on the action step given a consensus gain above beta_min;
    NaN at or below beta_min, where no admissible action step exists."""
    numerator = 2.0 * mu * beta - 8.0 * c2 * c3 - 2.0 * mu * c4
    if numerator <= 0:
        return math.nan
    denominator = (
        8.0 * c1 * c2 * c3
        + 4.0 * mu * c2 * c3
        + beta * c1 ** 2
        - c1 ** 2 * c4
    )
    return numerator / denominator


def compute_report(
    game: GameDefinition,
    graph: DirectedGraph,
    alpha: float,
    beta: float,
    eta: float,
) -> BoundsReport:
    """Full certificate for one (game, graph, alpha, beta, eta) instance.

    Feasibility is advisory: the report is always filled, and ``alpha_max``
    is NaN when the consensus gain is below its threshold.
    """
    constants = estimate_constants(game)
    mu, lbar = constants.mu, constants.lbar
    n = graph.n

    pair = lyapunov_pair(graph)
    lambda_max_p = pair.lambda_max
    norm_pm = float(np.linalg.norm(pair.p @ pair.blocks, 2, axis=(1, 2)).max())

    c1 = lbar * math.sqrt(n)
    c2 = lbar
    c3 = math.sqrt(n) * lambda_max_p
    c4 = 2.0 * math.sqrt(2.0 * (n - 1)) * norm_pm
    c5 = n * math.sqrt(2.0 / (n - 1)) * norm_pm

    phi1 = 2.0 * alpha * c2
    phi2 = 2.0 * c3 * (2.0 + alpha * c1)
    omega1 = 2.0 * (2.0 * alpha * mu - alpha ** 2 * c1 ** 2) / (2.0 + alpha * c1)
    omega2 = beta - 2.0 * alpha * c2 * c3 - c4
    theta_star = 0.5 * (
        omega1 + omega2 - math.sqrt((omega1 - omega2) ** 2 + 4.0 * phi1 * phi2)
    )
    k_v = min(theta_star, theta_star / lambda_max_p, eta / 2.0)

    b_min = beta_min(mu, c2, c3, c4)
    a_max = alpha_max(mu, beta, c1, c2, c3, c4)
    # a NaN a_max fails the comparison
    feasible = beta > b_min and 0.0 < alpha < a_max and theta_star > 0.0
    return BoundsReport(
        mu=mu,
        lbar=lbar,
        c1=c1,
        c2=c2,
        c3=c3,
        c4=c4,
        c5=c5,
        lambda_max_p=lambda_max_p,
        phi1=phi1,
        phi2=phi2,
        omega1=omega1,
        omega2=omega2,
        theta_star=theta_star,
        k_v=k_v,
        alpha=alpha,
        beta=beta,
        eta=eta,
        alpha_max=a_max,
        beta_min=b_min,
        sigma_max=graph.sigma_bound,
        feasible=feasible,
    )
