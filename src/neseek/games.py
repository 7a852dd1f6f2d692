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

from .errors import DomainError, NonMonotone


@dataclass(frozen=True)
class ActionInterval:
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval bounds must be finite")
        if self.lo > self.hi:
            raise ValueError("interval must satisfy lo <= hi")


def _as_array(values, shape: tuple[int, ...], name: str) -> np.ndarray:
    v = np.array(values, dtype=float)
    if v.shape != shape:
        raise ValueError(f"{name} must have shape {shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    v.flags.writeable = False
    return v


def _bounds(intervals) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array([iv.lo for iv in intervals])
    hi = np.array([iv.hi for iv in intervals])
    lo.flags.writeable = False
    hi.flags.writeable = False
    return lo, hi


@dataclass(frozen=True)
class SpectrumGame:
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
    intervals: tuple[ActionInterval, ...]
    tau: float = 1.0

    def __post_init__(self):
        n = len(self.intervals)
        if n < 1:
            raise ValueError("at least one player is required")
        object.__setattr__(self, "intervals", tuple(self.intervals))
        for name in ("m_c", "q", "r", "s_db", "ber_target"):
            object.__setattr__(self, name, _as_array(getattr(self, name), (n,), name))
        if (self.q <= 0).any():
            raise ValueError("price slopes q must be positive")
        if (self.r < 0).any():
            raise ValueError("revenue rates r must be nonnegative")
        if ((self.ber_target <= 0) | (self.ber_target >= 0.2)).any():
            raise ValueError("ber_target must lie in (0, 0.2)")
        if not 1 <= self.tau < math.inf:
            raise ValueError("pricing exponent tau must be finite and >= 1")
        if self.tau > 1 and any(iv.lo < 0 for iv in self.intervals):
            # fractional powers of a negative total are undefined
            raise DomainError("tau > 1 requires nonnegative action intervals")

    @property
    def n(self) -> int:
        return len(self.intervals)

    @cached_property
    def efficiencies(self) -> np.ndarray:
        u = np.array([
            spectral_efficiency(float(s), float(b))
            for s, b in zip(self.s_db, self.ber_target)
        ])
        u.flags.writeable = False
        return u

    @cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return _bounds(self.intervals)


@dataclass(frozen=True)
class QuadraticGame:
    """Player i minimizes ``0.5*diag_a_i*x_i**2 + x_i*sum_j cross_ij*x_j + offset_i*x_i``."""

    diag_a: np.ndarray
    cross: np.ndarray
    offset: np.ndarray
    intervals: tuple[ActionInterval, ...]

    def __post_init__(self):
        n = len(self.intervals)
        if n < 1:
            raise ValueError("at least one player is required")
        object.__setattr__(self, "intervals", tuple(self.intervals))
        object.__setattr__(self, "diag_a", _as_array(self.diag_a, (n,), "diag_a"))
        object.__setattr__(self, "offset", _as_array(self.offset, (n,), "offset"))
        object.__setattr__(self, "cross", _as_array(self.cross, (n, n), "cross"))
        if np.diagonal(self.cross).any():
            raise ValueError("cross must have zero diagonal")
        if (self.diag_a <= 0).any():
            raise ValueError("diag_a must be positive")

    @property
    def n(self) -> int:
        return len(self.intervals)

    @cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return _bounds(self.intervals)


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


def gradient_at_estimates(game: GameDefinition, y: np.ndarray) -> np.ndarray:
    """Stack of own-action partial gradients, player i evaluated at row i of y.

    ``y`` may carry leading axes (one estimate matrix per seed).
    """
    y = np.asarray(y, dtype=float)
    own = np.diagonal(y, axis1=-2, axis2=-1)
    if isinstance(game, SpectrumGame):
        totals = y.sum(axis=-1)
        if game.tau > 1 and (totals < 0).any():
            raise DomainError("negative total demand with fractional pricing exponent")
        price = game.m_c + game.q * totals ** game.tau
        marginal = own * game.q * game.tau * totals ** (game.tau - 1.0)
        return price + marginal - game.r * game.efficiencies
    return game.diag_a * own + (game.cross * y).sum(axis=-1) + game.offset


def pseudo_gradient(game: GameDefinition, x: np.ndarray) -> np.ndarray:
    """Stacked own-action gradients at a common profile x."""
    x = np.asarray(x, dtype=float)
    return gradient_at_estimates(game, np.tile(x, (len(x), 1)))


def _linear_jacobian(game: GameDefinition) -> np.ndarray | None:
    """Jacobian of the pseudo-gradient when it is affine, else None."""
    if isinstance(game, QuadraticGame):
        return np.diag(game.diag_a) + game.cross
    if isinstance(game, SpectrumGame) and game.tau == 1.0:
        return np.outer(game.q, np.ones(game.n)) + np.diag(game.q)
    return None


def estimate_constants(
    game: GameDefinition,
    probe_box: tuple[ActionInterval, ...] | None = None,
    samples: int = 512,
    seed: int = 0,
) -> GameConstants:
    """Monotonicity constant and per-player gradient Lipschitz constants.

    Affine pseudo-gradients (quadratic game, linear pricing) are handled
    analytically. Otherwise the constants are sampled over random pairs in
    ``probe_box`` (defaulting to the action box) and flagged as estimates.
    """
    jac = _linear_jacobian(game)
    if jac is not None:
        mu = float(np.linalg.eigvalsh(0.5 * (jac + jac.T)).min())
        if isinstance(game, SpectrumGame):
            # gradient of player i w.r.t. the full estimate vector is q_i*(ones + e_i)
            l = game.q * math.sqrt(game.n + 3.0)
        else:
            l = np.sqrt(game.diag_a ** 2 + (game.cross ** 2).sum(axis=1))
        if mu <= 0:
            raise NonMonotone(f"estimated monotonicity constant {mu:.3e} is not positive")
        return GameConstants(mu=mu, lbar=float(l.max()), l=l, exact=True)

    if samples < 2:
        raise ValueError("samples must be >= 2")
    box = game.intervals if probe_box is None else tuple(probe_box)
    lo = np.array([iv.lo for iv in box])
    hi = np.array([iv.hi for iv in box])
    rng = np.random.default_rng(seed)
    mu = math.inf
    l = np.zeros(game.n)
    for _ in range(samples):
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
