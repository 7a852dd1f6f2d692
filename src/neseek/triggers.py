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

The reference right-hand side takes ``ln(xi)`` with ``math.log``. A batch
forms its thresholds with one ``np.log`` over every draw, which can differ
from ``math.log`` in the last bit, and brackets each drawn one with its tie
band once (``tie_bounds``), so ``decide`` forms a drawn threshold again
with ``math.log`` wherever a margin lies inside that band: every decision
equals the reference one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ValidationError, number, numbers

# A margin within TIE_BAND * threshold + TIE_FLOOR of a drawn threshold is
# compared with the threshold formed again with math.log. np.log and
# math.log differ by at most one ulp, which moves a threshold by a few ulps
# (2**-52 relative each); the floor covers the subnormal thresholds of a
# decay near underflow, where the relative band rounds to zero.
TIE_BAND = 2.0 ** -44
TIE_FLOOR = 2.0 ** -1068


# numpy's SeedSequence hash constants, on 32-bit words. A child's pool
# words are its parent's, each mixed with one hash of the child's index,
# whose hash constant continues from the 16 rounds of MULT_A that filled
# (4) and mixed (12) the parent's pool.
MASK32 = 0xFFFFFFFF
MULT_A = 0x931E8875
SPAWN_HASH = 0x43B0D7E5 * pow(MULT_A, 16, MASK32 + 1) & MASK32
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED


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


def _xorshift(words: np.ndarray) -> np.ndarray:
    words &= MASK32
    return words ^ (words >> 16)


def _hash(words: np.ndarray, start: int, mult: int, rounds: int) -> np.ndarray:
    """SeedSequence's successive hash rounds, one per row of the result:
    each xors the hash constant in, multiplies the constant by ``mult`` and
    then the word by the new constant, and xorshifts."""
    const = [start * pow(mult, k, MASK32 + 1) & MASK32 for k in range(rounds + 1)]
    const = np.array(const, np.uint64)[:, None]
    return _xorshift((words ^ const[:-1]) * const[1:])


class _StateWords:
    """The seed ``uniform_streams`` hands PCG64: its state words, which it
    registers as an ``ISeedSequence`` on first use, so that importing
    neseek loads no ``numpy.random`` module."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=None):
        return self.words


def uniform_streams(seeds: Sequence[int], n: int, steps: int) -> np.ndarray:
    """The (steps, len(seeds), n) uniforms ``Generator(PCG64(child)).random(steps)``
    of player i of a run seeded with ``seeds[r]``, ``child`` being the i-th
    of the n children ``SeedSequence(seeds[r])`` spawns, bit for bit.

    A seed in [0, 2**64) fills at most four pool words, so before its index
    is mixed in a child's pool is its parent's, which numpy forms. The rest,
    mixing in the index and forming the eight state words PCG64 asks for,
    runs here for every child at once; PCG64 and the draws stay numpy's.
    """
    from numpy.random import PCG64, Generator, SeedSequence
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_StateWords)
    pools = np.array([SeedSequence(seed).pool for seed in seeds], dtype=np.uint64)
    keys = _hash(np.arange(n, dtype=np.uint64), SPAWN_HASH, MULT_A, 4)
    # (S, 4, n): pool word d of child i of seed r; then its 8 state words
    mixed = _xorshift(MIX_MULT_L * pools[:, :, None] - MIX_MULT_R * keys)
    state = _hash(np.concatenate([mixed, mixed], axis=1), INIT_B, MULT_B, 8)
    # PCG64 reads the words as little-endian pairs
    words = (state[:, ::2] | state[:, 1::2] << 32).transpose(0, 2, 1).copy()
    out = np.empty((len(seeds), n, steps))
    for row, child in zip(out.reshape(-1, steps), words.reshape(-1, 4)):
        Generator(PCG64(_StateWords(child))).random(out=row)
    return out.transpose(2, 0, 1)


def triggering_function(energy, disagreement_sq, sigma):
    """Event-error energy minus the weighted disagreement allowance, per player:
    the margin ``decide`` compares under every law.

    ``energy`` is the squared gap between the broadcast and current action
    plus the squared norm of the broadcast-vs-current estimate row, and
    ``disagreement_sq`` the squared norm of the weighted sum of broadcast
    differences against in-neighbors. The static law's zero ``sigma`` leaves
    the energy, bit for bit: ``0 * disagreement_sq`` is +0 for a finite norm.
    """
    return energy - sigma * disagreement_sq


def xi_from_uniform(params: TriggerParams, u: float | np.ndarray) -> float | np.ndarray:
    """Map a uniform draw u in [0, 1) onto the threshold support (a_floor, 1].

    Chosen so that ``fire(xi)`` equals ``u < p`` exactly, where p is the
    randomized law's fire probability.
    Applies elementwise to an array of draws.
    """
    return 1.0 - u * (1.0 - params.a_floor)


def threshold_term(params: TriggerParams, xi: np.ndarray) -> np.ndarray:
    """``ln(kappa) - ln(xi)`` per entry of the random thresholds ``xi``,
    with one ``np.log`` over the whole array, which ``decide`` corrects at
    its ties.

    A NaN entry, which is what a deterministic law records for ``xi``,
    stands for the threshold pinned at a_floor, formed with ``math.log``.
    ``Batch.of`` scales the terms by ``delta / c`` once for a whole run, so
    no step takes a log.
    """
    ln_kappa = math.log(params.kappa)
    term = ln_kappa - np.log(xi)
    term[np.isnan(xi)] = ln_kappa - math.log(params.a_floor)
    return term


def tie_bounds(threshold: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(lower, upper)`` bounds ``decide`` reads, as new arrays: the
    threshold -/+ ``TIE_BAND * threshold + TIE_FLOOR`` where ``xi`` is drawn,
    and the threshold itself, the reference one already, where it is NaN."""
    band = threshold * TIE_BAND
    band += TIE_FLOOR
    band[np.isnan(xi)] = 0.0
    return threshold - band, np.add(threshold, band, out=band)


def decide(
    rho: np.ndarray, lower: np.ndarray, upper: np.ndarray, xi: np.ndarray,
    scale: np.ndarray, ln_kappa: float,
) -> np.ndarray:
    """Fire mask shaped like ``rho``, (R, n) in a step, as are ``lower``,
    ``upper`` and ``xi``.

    ``rho`` is the triggering function of each evaluation, the one margin
    every law compares: a law is its disagreement weights (zero under
    STATIC, so its margin is the raw event-error energy) and its threshold,
    ``scale * threshold_term`` at this evaluation, where ``scale`` is the
    step's ``delta / c``, one entry per player; ``lower`` and ``upper`` are
    that threshold's ``tie_bounds``. STOCHASTIC fires when the uniform draw
    behind xi falls below the law's fire probability, through this
    log-domain form, whose quiet branch is its exact negation. DYNAMIC and
    STATIC are its deterministic limit, with the threshold pinned at
    a_floor. CONTINUOUS compares against a -inf threshold, so it fires at
    every evaluation: its margin is the difference of two sums of squares
    of the state, which ``engine.step`` keeps finite (a non-finite state
    raises NumericalDivergence), so it is never NaN and always exceeds -inf.

    A margin above ``upper`` fires. ``xi`` holds the step's random
    thresholds, NaN under the deterministic laws. Where a margin lies in
    ``(lower, upper]``, the threshold is formed again as
    ``(ln_kappa - math.log(xi)) * scale``, in ``Batch.of``'s order, so the
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
