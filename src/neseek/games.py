"""Game definitions: costs, partial gradients, projections, and regularity constants.

Two concrete games ship with the package. The spectrum access game prices a
shared resource linearly (or super-linearly) in the total demand and rewards
each player in proportion to its link's spectral efficiency. The quadratic
game is an analytic instance with a closed-form equilibrium, used as an
oracle in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .errors import DomainError, NonMonotone, ValidationError, number, numbers

# Random action pairs that estimate a non-affine game's constants.
CONSTANT_SAMPLES = 512


class _ActionBox:
    """Both games' action box: ``intervals`` holds one ``[lo, hi]`` row per player."""

    def _store_box(self, vectors: tuple[str, ...], square: tuple[str, ...] = ()) -> None:
        """Store ``intervals`` as a checked, read-only (n, 2) float copy, and
        likewise each field in ``vectors`` as (n,) and in ``square`` as (n, n):
        a field whose shape disagrees with the box is refused naming both."""
        box = numbers(self.intervals, "intervals")
        if box.shape[:1] == (0,):
            raise ValidationError("intervals: at least one player is required")
        if box.ndim != 2 or box.shape[1] != 2:
            raise ValidationError(f"intervals: expected shape (n, 2), got {box.shape}")
        if (box[:, 0] > box[:, 1]).any():
            raise ValidationError("intervals must satisfy lo <= hi")
        object.__setattr__(self, "intervals", box)
        n = len(box)
        for name in vectors + square:
            value = numbers(getattr(self, name), name)
            shape = (n, n) if name in square else (n,)
            if value.shape != shape:
                raise ValidationError(f"{name}: expected shape {shape} for intervals of "
                                      f"shape {box.shape}, got {value.shape}")
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.intervals)

    @cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only, contiguous ``lo`` and ``hi`` arrays."""
        lo_hi = self.intervals.T.copy()
        lo_hi.flags.writeable = False
        return lo_hi[0], lo_hi[1]


@dataclass(frozen=True)
class SpectrumGame(_ActionBox):
    """Resource-pricing game: player i pays ``x_i * (m_c_i + q_i * total**tau)``
    and earns ``r_i * efficiency_i * x_i``.

    The efficiency of a link depends only on its SNR and target bit-error
    rate, never on the actions, so it enters the gradient as a constant.
    """

    m_c: np.ndarray
    q: np.ndarray
    r: np.ndarray
    s_db: np.ndarray
    ber_target: np.ndarray
    intervals: np.ndarray
    tau: float = 1.0

    def __post_init__(self):
        self._store_box(("m_c", "q", "r", "s_db", "ber_target"))
        object.__setattr__(self, "tau", number(self.tau, "tau"))
        if (self.q <= 0).any():
            raise ValidationError("q must be positive")
        if (self.r < 0).any():
            raise ValidationError("r must be nonnegative")
        if ((self.ber_target <= 0) | (self.ber_target >= 0.2)).any():
            raise ValidationError("ber_target must lie in (0, 0.2)")
        try:
            finite = np.isfinite(self.efficiencies).all()
        except OverflowError:
            finite = False
        if not finite:
            raise ValidationError("s_db: an SNR this large gives a non-finite spectral efficiency")
        if not 1 <= self.tau < math.inf:
            raise ValidationError("tau must be finite and >= 1")
        if self.tau > 1 and (self.intervals[:, 0] < 0).any():
            # fractional powers of a negative total are undefined
            raise ValidationError("intervals: tau > 1 requires nonnegative lower bounds")

    @cached_property
    def efficiencies(self) -> np.ndarray:
        u = np.array([
            spectral_efficiency(float(s), float(b))
            for s, b in zip(self.s_db, self.ber_target)
        ])
        u.flags.writeable = False
        return u

    @cached_property
    def revenue(self) -> np.ndarray:
        """Per-unit revenue ``r * efficiency`` of each player."""
        u = self.r * self.efficiencies
        u.flags.writeable = False
        return u


@dataclass(frozen=True)
class QuadraticGame(_ActionBox):
    """Player i minimizes ``0.5*diag_a_i*x_i**2 + x_i*sum_j cross_ij*x_j + offset_i*x_i``."""

    diag_a: np.ndarray
    cross: np.ndarray
    offset: np.ndarray
    intervals: np.ndarray

    def __post_init__(self):
        self._store_box(("diag_a", "offset"), square=("cross",))
        if np.diagonal(self.cross).any():
            raise ValidationError("cross must have zero diagonal")
        if (self.diag_a <= 0).any():
            raise ValidationError("diag_a must be positive")


GameDefinition = Union[SpectrumGame, QuadraticGame]


@dataclass(frozen=True)
class GameConstants:
    """Monotonicity and smoothness constants of the pseudo-gradient.

    ``exact`` is True when they were computed analytically (linear
    pseudo-gradient) rather than sampled.
    """

    mu: float
    lbar: float
    l: np.ndarray = field(repr=False)
    exact: bool = True


def spectral_efficiency(s_db: float, ber_target: float) -> float:
    """Achievable bits/s/Hz for uncoded square-constellation QAM at the given
    received SNR (dB) and target bit-error rate."""
    if not 0.0 < ber_target < 0.2:
        raise DomainError("ber_target must lie in (0, 0.2)")
    s_lin = 10.0 ** (s_db / 10.0)
    return math.log2(1.0 + 1.5 * s_lin / math.log(0.2 / ber_target))


def row_functional(game: GameDefinition, rows: np.ndarray, players=slice(None), out=None):
    """The one reading of a whole estimate row that an own gradient makes,
    linear in the row: the total demand ``sum_j y_ij`` under the spectrum
    game, ``cross_i . y_i`` under the quadratic one, into ``out`` if given.

    ``rows[..., k, :]`` is the row of player ``players[k]`` (every player in
    order by default); a common profile of shape (n,) is one row that every
    player reads.
    """
    if isinstance(game, SpectrumGame):
        return np.add.reduce(rows, axis=-1, out=out)
    return np.add.reduce(game.cross[players] * rows, axis=-1, out=out)


def gradient_kernel(game: GameDefinition, shape: tuple[int, ...]):
    """Own-action partial gradients as a function ``gradient(own, functional,
    out)`` of arrays of ``shape``, from each player's own action and the
    ``row_functional`` of its view of the profile, into ``out``; the game's
    vectors are broadcast to ``shape`` once."""
    if isinstance(game, QuadraticGame):
        diag_a, offset = (np.full(shape, v) for v in (game.diag_a, game.offset))

        def gradient(own, functional, out):
            np.add(np.multiply(diag_a, own, out=out), functional, out=out)
            return np.add(out, offset, out=out)

        return gradient
    m_c, q, revenue, work = (np.full(shape, v) for v in (game.m_c, game.q, game.revenue, 0.0))

    def gradient(own, functional, out):
        if game.tau == 1:
            # linear pricing: the powers below are f ** 1 and f ** 0, exact,
            # so this is the same sum with the same bits
            np.multiply(q, functional, out=out)
            np.multiply(own, q, out=work)
        else:
            if (functional < 0).any():
                raise DomainError("negative total demand with fractional pricing exponent")
            np.multiply(q, functional ** game.tau, out=out)
            np.multiply(own * q * game.tau, functional ** (game.tau - 1.0), out=work)
        # (m_c + q * f ** tau) + own * q * tau * f ** (tau - 1) - revenue
        out += m_c
        out += work
        return np.subtract(out, revenue, out=out)

    return gradient


def functional_from_others(game: GameDefinition, own: np.ndarray, others: np.ndarray):
    """``row_functional`` of whole rows from ``others``, that of the rows with
    their own entry zeroed, and ``own``, the actions those entries stand for."""
    # the quadratic game's cross has a zero diagonal: the own entry adds nothing
    return others + own if isinstance(game, SpectrumGame) else others


def pseudo_gradient(game: GameDefinition, x: np.ndarray) -> np.ndarray:
    """Stacked own-action gradients at a common profile x.

    Equal, bit for bit, to the own gradients of n estimate rows that all
    read x; the spectrum game costs O(n) and builds no (n, n) array.
    """
    x = np.asarray(x, dtype=float)
    # one functional per player, as the tiled rows give: a power of a
    # scalar can differ in the last bit from the same power in an array
    functional = np.full(x.shape, row_functional(game, x))
    return gradient_kernel(game, x.shape)(x, functional, np.empty(x.shape))


def estimate_constants(game: GameDefinition) -> GameConstants:
    """Monotonicity constant and per-player gradient Lipschitz constants.

    Affine pseudo-gradients (quadratic game, linear pricing) are handled
    analytically. Otherwise the constants are sampled over CONSTANT_SAMPLES
    random pairs in the action box, drawn from a generator seeded with 0,
    and flagged as estimates.
    """
    if isinstance(game, QuadraticGame) or game.tau == 1.0:
        if isinstance(game, SpectrumGame):
            jac = np.outer(game.q, np.ones(game.n)) + np.diag(game.q)
            # gradient of player i w.r.t. the full estimate vector is q_i*(ones + e_i)
            l = game.q * math.sqrt(game.n + 3.0)
        else:
            jac = np.diag(game.diag_a) + game.cross
            l = np.sqrt(game.diag_a ** 2 + (game.cross ** 2).sum(axis=1))
        mu = float(np.linalg.eigvalsh(0.5 * (jac + jac.T)).min())
        if mu <= 0:
            raise NonMonotone(f"estimated monotonicity constant {mu:.3e} is not positive")
        return GameConstants(mu=mu, lbar=float(l.max()), l=l, exact=True)

    lo, hi = game.bounds
    rng = np.random.default_rng(0)
    mu = math.inf
    l = np.zeros(game.n)
    for _ in range(CONSTANT_SAMPLES):
        a = rng.uniform(lo, hi)
        b = rng.uniform(lo, hi)
        d = a - b
        nrm2 = float(d @ d)
        if nrm2 == 0.0:
            continue
        fa = pseudo_gradient(game, a)
        fb = pseudo_gradient(game, b)
        mu = min(mu, float(d @ (fa - fb)) / nrm2)
        l = np.maximum(l, np.abs(fa - fb) / math.sqrt(nrm2))
    if mu <= 0:
        raise NonMonotone(f"estimated monotonicity constant {mu:.3e} is not positive")
    return GameConstants(mu=mu, lbar=float(l.max()), l=l, exact=False)
