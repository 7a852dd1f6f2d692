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
through the same margin and right-hand side, so that the whole family differs
only in its disagreement weights and how it thresholds ``rho``.

Each (player, evaluation) takes one i.i.d. uniform draw, which
``xi_from_uniform`` maps onto the threshold support. ``law_inputs`` defines
every law: it draws a stochastic member's uniforms from one generator of its
own, seeded with the member's seed, and forms each member's disagreement
weights and thresholds for a whole run, which ``engine.Batch.of`` stores.

The reference right-hand side takes ``ln(xi)`` with ``math.log``.
``law_inputs`` forms the thresholds with one ``np.log`` over every draw,
which can differ from ``math.log`` in the last bit, and brackets each drawn
one with its tie band once, so ``decide`` forms a drawn threshold again
with ``math.log`` wherever a margin lies inside that band: every decision
equals the reference one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError, number, numbers

# A margin within TIE_BAND * threshold + TIE_FLOOR of a drawn threshold is
# compared with the threshold formed again with math.log. np.log and
# math.log differ by at most one ulp, which moves a threshold by a few ulps
# (2**-52 relative each); the floor covers the subnormal thresholds of a
# decay near underflow, where the relative band rounds to zero.
TIE_BAND = 2.0 ** -44
TIE_FLOOR = 2.0 ** -1068


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
            if not (v > 0).all():
                raise ValidationError(f"{name} entries must be positive")
            object.__setattr__(self, name, v)
        if not len(self.c) == len(self.sigma) == len(self.delta0):
            raise ValidationError("c, sigma, delta0 must share one length")

    @property
    def n(self) -> int:
        return len(self.c)


def triggering_function(energy, disagreement_sq, sigma, out=None):
    """Event-error energy minus the weighted disagreement allowance, per player:
    the margin ``decide`` compares under every law, into ``out`` if given.

    ``energy`` is the squared gap between the broadcast and current action
    plus the squared norm of the broadcast-vs-current estimate row, and
    ``disagreement_sq`` the squared norm of the weighted sum of broadcast
    differences against in-neighbors. The static law's zero ``sigma`` leaves
    the energy, bit for bit: ``0 * disagreement_sq`` is +0 for a finite norm.
    """
    return np.subtract(energy, sigma * disagreement_sq, out=out)


def xi_from_uniform(params: TriggerParams, u: float | np.ndarray) -> float | np.ndarray:
    """Map a uniform draw u in [0, 1) onto the threshold support (a_floor, 1].

    Chosen so that ``fire(xi)`` equals ``u < p`` exactly, where p is the
    randomized law's fire probability.
    Applies elementwise to an array of draws.
    """
    return 1.0 - u * (1.0 - params.a_floor)


def law_inputs(params: TriggerParams, laws, seeds, steps: int, dt: float, graph):
    """Every member's trigger-decision inputs for every step, one member per
    entry of ``laws`` with its seed in ``seeds``: the ``(sigma, xi, lower,
    upper, scale)`` that ``engine.Batch`` stores. This defines the laws.

    ``sigma`` (R, n) is zero under STATIC, so its margin is the raw
    event-error energy, capped at ``graph.sigma_bound`` (read only then)
    under DYNAMIC, and ``params.sigma`` otherwise. ``xi`` (steps, R, n) is
    NaN but under STOCHASTIC, whose member draws its own
    ``default_rng(seed).random((steps, n))`` whole: player i at step k reads
    element ``k * n + i``, whatever the horizon or the other members.
    ``scale`` (steps, n) is ``delta0 * exp(-eta * (k * dt)) / c`` with
    libm's ``exp``: numpy's AVX-512 kernel differs in the last bit, and the
    tie bands cover only the log. The threshold is ``scale[k] * (ln(kappa) -
    ln(xi[k]))`` with one ``np.log``, ``math.log(a_floor)`` where ``xi`` is
    NaN, and -inf under CONTINUOUS, whose finite margin fires at every step.
    ``lower`` and ``upper`` are the threshold -/+ ``TIE_BAND * threshold +
    TIE_FLOOR`` where ``xi`` is drawn, and the threshold where it is NaN.
    """
    xi = np.full((steps, len(laws), params.n), math.nan)
    if LawKind.STOCHASTIC in laws:
        # imported here, so that importing neseek loads no numpy.random
        from numpy.random import default_rng

        for r, law in enumerate(laws):
            if law is LawKind.STOCHASTIC:
                xi[:, r] = xi_from_uniform(params, default_rng(seeds[r]).random((steps, params.n)))
    cap = {LawKind.STATIC: 0.0}
    if LawKind.DYNAMIC in laws:
        cap[LawKind.DYNAMIC] = graph.sigma_bound
    exp = np.array([math.exp(-params.eta * (k * dt)) for k in range(steps)])
    scale = params.delta0 * exp[:, None] / params.c
    ln_kappa, pinned = math.log(params.kappa), np.isnan(xi)
    threshold = ln_kappa - np.log(xi)
    threshold[pinned] = ln_kappa - math.log(params.a_floor)
    threshold *= scale[:, None]
    threshold[:, [law is LawKind.CONTINUOUS for law in laws]] = -math.inf
    band = threshold * TIE_BAND
    band += TIE_FLOOR
    band[pinned] = 0.0
    sigma = np.minimum(params.sigma, [[cap.get(law, math.inf)] for law in laws])
    return sigma, xi, threshold - band, np.add(threshold, band, out=band), scale


def decide(
    rho: np.ndarray, lower: np.ndarray, upper: np.ndarray, xi: np.ndarray,
    scale: np.ndarray, ln_kappa: float,
) -> np.ndarray:
    """Fire mask shaped like ``rho``, (R, n) in a step, as are ``lower``,
    ``upper`` and ``xi``.

    ``rho`` is the triggering function of each evaluation, the one margin
    every law compares: a law is its disagreement weights (zero under
    STATIC, so its margin is the raw event-error energy) and its threshold,
    ``scale * (ln(kappa) - ln(xi))`` at this evaluation, where ``scale`` is
    the step's ``delta / c``, one entry per player; ``lower`` and ``upper``
    are that threshold's tie bounds, as ``law_inputs`` forms them all.
    STOCHASTIC fires when the uniform draw behind xi falls below the law's
    fire probability, through this log-domain form, whose quiet branch is
    its exact negation. DYNAMIC and STATIC are its deterministic limit,
    with the threshold pinned at a_floor. CONTINUOUS compares against a
    -inf threshold, so it fires at every evaluation: its margin is the
    difference of two sums of squares of the state, which ``run``'s loop
    ``engine._integrate`` keeps finite (it raises NumericalDivergence), so
    it is never NaN and exceeds -inf.

    A margin above ``upper`` fires. ``xi`` holds the step's random
    thresholds, NaN under the deterministic laws. Where a margin lies in
    ``(lower, upper]``, the threshold is formed again as
    ``(ln_kappa - math.log(xi)) * scale``, in ``law_inputs``' order, so the
    decision is the one the ``math.log`` threshold gives. A NaN ``xi`` has
    a zero band, ``lower == upper``, so no deterministic threshold is
    formed again.
    """
    fired = rho > upper
    # upper >= lower, so fired is a subset of above; count_nonzero skips the
    # Python-level dispatch of comparing the masks
    above = rho > lower
    if np.count_nonzero(above) != np.count_nonzero(fired):
        near = np.not_equal(above, fired, out=above)
        exact = [
            (ln_kappa - math.log(v)) * s
            for v, s in zip(xi[near], np.broadcast_to(scale, near.shape)[near])
        ]
        fired[near] = rho[near] > exact
    return fired
