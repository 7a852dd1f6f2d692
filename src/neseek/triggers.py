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

from .errors import ValidationError, number, numbers


class LawKind(str, Enum):
    """Which communication law drives broadcasts."""

    CONTINUOUS = "continuous"
    STATIC = "static"
    DYNAMIC = "dynamic"
    STOCHASTIC = "stochastic"

    @classmethod
    def _missing_(cls, value):
        raise ValidationError(f"law: {value!r} is not one of {[k.value for k in cls]}")


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
        for name in ("kappa", "a_floor", "eta"):
            object.__setattr__(self, name, number(getattr(self, name), name))
        # written so that NaN fails every check
        if not 1 < self.kappa < math.inf:
            raise ValidationError("kappa must exceed 1 and be finite")
        if not 0 < self.a_floor < 1:
            raise ValidationError("a_floor must lie in (0, 1)")
        if not 0 < self.eta < math.inf:
            raise ValidationError("eta must be positive and finite")
        for name in ("c", "sigma", "delta0"):
            v = numbers(getattr(self, name), name)
            if v.ndim != 1:
                raise ValidationError(f"{name} must be a vector")
            if not ((v > 0) & (v < math.inf)).all():
                raise ValidationError(f"{name} entries must be positive and finite")
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        if not len(self.c) == len(self.sigma) == len(self.delta0):
            raise ValidationError("c, sigma, delta0 must share one length")

    @property
    def n(self) -> int:
        return len(self.c)


def triggering_function(energy, disagreement_sq, sigma):
    """Event-error energy minus the weighted disagreement allowance, per player.

    ``energy`` is the squared gap between the broadcast and current action
    plus the squared norm of the broadcast-vs-current estimate row (the raw
    energy ``decide`` also reads), and ``disagreement_sq`` the squared norm
    of the weighted sum of broadcast differences against in-neighbors.
    """
    return energy - sigma * disagreement_sq


def xi_from_uniform(params: TriggerParams, u: float | np.ndarray) -> float | np.ndarray:
    """Map a uniform draw u in [0, 1) onto the threshold support (a_floor, 1].

    Chosen so that ``fire(xi)`` equals ``u < p`` exactly, where p is the
    randomized law's fire probability.
    Applies elementwise to an array of draws.
    """
    return 1.0 - u * (1.0 - params.a_floor)


def _log(v: np.ndarray) -> np.ndarray:
    # math.log per entry: np.log can differ from it in the last ulp, which
    # would move borderline decisions off the scalar oracle
    return np.fromiter(map(math.log, v.ravel()), float, v.size).reshape(v.shape)


def threshold_term(params: TriggerParams, xi: np.ndarray) -> np.ndarray:
    """``ln(kappa) - ln(xi)`` per entry of the random thresholds ``xi``.

    A NaN entry, which is what a deterministic law records for ``xi``,
    stands for the threshold pinned at a_floor. ``Batch.of`` scales it by
    ``delta / c`` once for a whole run, so no step takes a log.
    """
    ln_kappa = math.log(params.kappa)
    term = np.full(np.shape(xi), ln_kappa - math.log(params.a_floor))
    drawn = ~np.isnan(xi)
    term[drawn] = ln_kappa - _log(xi[drawn])
    return term


def decide(
    rho: np.ndarray,
    energy: np.ndarray,
    threshold: np.ndarray,
    static: np.ndarray | bool,
    continuous: np.ndarray | bool,
) -> np.ndarray:
    """Fire mask shaped like ``rho``: one entry per player, with an optional
    leading member axis shared by ``energy``, ``threshold`` and the law masks.

    ``rho`` is the triggering function and ``energy`` the raw event-error
    energy (action plus estimate term) of each evaluation; ``threshold`` is
    ``(delta / c) * threshold_term`` at this evaluation. Every law compares
    a margin with it. STOCHASTIC fires when the uniform draw behind xi falls
    below the law's fire probability, through this log-domain form, whose
    quiet branch is its exact negation. DYNAMIC is its deterministic limit,
    with the threshold pinned at a_floor. Where ``static`` holds, the margin
    is the raw energy instead (no disagreement allowance); where
    ``continuous`` holds, the law always fires.
    """
    return (np.where(static, energy, rho) > threshold) | continuous
