"""Exception types raised across the package, and the readers that turn an
input value into a number or an array of numbers or raise ValidationError."""

from __future__ import annotations

import itertools
import operator
from numbers import Real

import numpy as np


class NeseekError(Exception):
    """Base class for all package errors."""


class NotStronglyConnected(NeseekError):
    """The communication graph does not connect every player to every other."""


class SolverFailure(NeseekError):
    """A linear-algebra solve produced an unusable result."""


class DomainError(NeseekError):
    """An input lies outside the mathematical domain of a formula."""


class NonMonotone(NeseekError):
    """The game's pseudo-gradient is not strongly monotone on the probed region."""


class NoConvergence(NeseekError):
    """Fixed-point iteration exhausted its budget.

    Carries the last observed residual in ``residual``.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class NumericalDivergence(NeseekError):
    """Simulation state exceeded the magnitude guard; step sizes are too aggressive."""


class ShapeMismatch(NeseekError):
    """Ensemble members disagree on player count, step size, or horizon."""


class ParseError(NeseekError):
    """A scenario file is not valid JSON."""


class ValidationError(NeseekError, ValueError):
    """An input violates a structural or numerical invariant. Raised once, by
    the constructor of the type that holds the value; a ValueError too."""


def integer(value, name: str) -> int:
    """``value`` as an int. Booleans, floats (integral ones too) and other
    non-integers raise ValidationError naming ``name``; numpy integers pass."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{name}: expected an integer, got {value!r}")


def _floats(raw, name: str, shape: tuple[int, ...] | None) -> np.ndarray:
    """``raw`` as a new float array, converted and checked as by ``numbers``."""
    try:
        a = np.array(raw, dtype=float)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValidationError(f"{name}: {exc}") from exc
    if shape is not None and a.shape != shape:
        raise ValidationError(f"{name}: expected shape {shape}, got {a.shape}")
    if isinstance(raw, np.ndarray) and raw.dtype.kind in "iuf":
        return a
    leaves = [raw]
    for _ in range(a.ndim):
        leaves = list(itertools.chain.from_iterable(leaves))
    for kind in set(map(type, leaves)):
        if issubclass(kind, bool) or not issubclass(kind, Real):
            bad = next(v for v in leaves if type(v) is kind)
            raise ValidationError(f"{name}: expected a number, got {bad!r}")
    return a


def numbers(raw, name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """The one reader of an input array: a number or nested lists of numbers
    as a new, read-only float array with finite entries, of ``shape`` when
    given; raises ValidationError naming ``name``. Booleans and strings are
    refused, though numpy would read true as 1.0 and "0.1" as 0.1, and a
    NaN or an infinity reads ``<name>: entries must be finite``; an integer
    or float ndarray is converted whole, without a look at each entry."""
    a = _floats(raw, name, shape)
    if not np.isfinite(a).all():
        raise ValidationError(f"{name}: entries must be finite")
    a.flags.writeable = False
    return a


def number(raw, name: str) -> float:
    """A single number converted as by ``numbers``, as a float that may be
    infinite or NaN: the range check of the type that holds it refuses those."""
    return float(_floats(raw, name, ()))
