"""Event-triggered communication laws.

A player broadcasts (resets its event errors to zero) when its law fires.
The randomized law draws a threshold ``xi`` uniformly from (a_floor, 1) each
evaluation and fires when ``xi > kappa * exp(-c * rho / delta)``, where
``rho`` is the triggering function (event-error energy minus a weighted
disagreement allowance) and ``delta`` an exponentially decaying scale.

Equivalently, in the form used throughout this module,

    fire  <=>  rho > (delta / c) * (ln(kappa) - ln(xi)),

which makes the complementary no-fire inequality hold exactly, float-for-float,
whenever the law stays quiet. Deterministic comparison laws are expressed
through the same right-hand side so that the whole family differs only in how
it thresholds ``rho``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class LawKind(str, Enum):
    """Which communication law drives broadcasts."""

    CONTINUOUS = "continuous"
    STATIC = "static"
    DYNAMIC = "dynamic"
    STOCHASTIC = "stochastic"


@dataclass(frozen=True)
class TriggerParams:
    """Parameters shared by the triggering laws.

    kappa > 1 sharpens the firing probability; a_floor in (0, 1) is the lower
    edge of the random threshold's support; c scales each player's sensitivity;
    sigma weights the disagreement allowance; delta0 and eta set the decaying
    scale ``delta0 * exp(-eta * t)``.
    """

    kappa: float
    a_floor: float
    eta: float
    c: np.ndarray
    sigma: np.ndarray
    delta0: np.ndarray

    def __post_init__(self):
        if not self.kappa > 1:
            raise ValueError("kappa must exceed 1")
        if not 0 < self.a_floor < 1:
            raise ValueError("a_floor must lie in (0, 1)")
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        for name in ("c", "sigma", "delta0"):
            v = np.array(getattr(self, name), dtype=float)
            if v.ndim != 1:
                raise ValueError(f"{name} must be a vector")
            if not ((v > 0) & (v < math.inf)).all():
                raise ValueError(f"{name} entries must be positive and finite")
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        if not len(self.c) == len(self.sigma) == len(self.delta0):
            raise ValueError("c, sigma, delta0 must share one length")

    @property
    def n(self) -> int:
        return len(self.c)


def triggering_function(action_err_sq, estimate_err_sq, disagreement_sq, sigma):
    """Event-error energy minus the weighted disagreement allowance, per player.

    ``action_err_sq`` is the squared gap between the broadcast and current
    action, ``estimate_err_sq`` the squared norm of the broadcast-vs-current
    estimate row and ``disagreement_sq`` the squared norm of the weighted sum
    of broadcast differences against in-neighbors.
    """
    return action_err_sq + estimate_err_sq - sigma * disagreement_sq


def decay_at(params: TriggerParams, i: int, t: float) -> float:
    """Closed-form value of the decaying scale at time t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(params.delta0[i]) * math.exp(-params.eta * t)


def xi_from_uniform(params: TriggerParams, u: float | np.ndarray) -> float | np.ndarray:
    """Map a uniform draw u in [0, 1) onto the threshold support (a_floor, 1].

    Chosen so that ``fire(xi) == (u < trigger_probability)`` holds exactly.
    Applies elementwise to an array of draws.
    """
    return 1.0 - u * (1.0 - params.a_floor)


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


def _log(v: np.ndarray) -> np.ndarray:
    # math.log per entry: np.log can differ from it in the last ulp, which
    # would move borderline decisions off the scalar oracle
    return np.fromiter(map(math.log, v.ravel()), float, v.size).reshape(v.shape)


def decide(
    law: LawKind,
    params: TriggerParams,
    rho: np.ndarray,
    energy: np.ndarray,
    decay: np.ndarray,
    u: np.ndarray,
) -> np.ndarray:
    """Fire mask shaped like ``rho``: one entry per player, with an optional
    leading seed axis shared by ``energy`` and ``u``.

    ``rho`` is the triggering function and ``energy`` the raw event-error
    energy (action plus estimate term) of each evaluation. CONTINUOUS always
    fires. STATIC is a comparison law that fires once the raw energy exceeds
    the decaying scale (no disagreement allowance). DYNAMIC is the
    deterministic limit of the randomized law with the threshold pinned at
    a_floor. STOCHASTIC fires when the uniform draw u falls below
    ``trigger_probability``, evaluated through the equivalent log-domain
    threshold comparison, whose quiet branch is its exact negation.
    """
    if law is LawKind.CONTINUOUS:
        return np.ones(np.shape(rho), dtype=bool)
    scale = decay / params.c
    ln_kappa = math.log(params.kappa)
    if law is LawKind.STATIC:
        return energy > scale * (ln_kappa - math.log(params.a_floor))
    if law is LawKind.DYNAMIC:
        return rho > scale * (ln_kappa - math.log(params.a_floor))
    if law is LawKind.STOCHASTIC:
        return rho > scale * (ln_kappa - _log(xi_from_uniform(params, u)))
    raise ValueError(f"unknown law {law!r}")
