"""Exception types raised across the package."""


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


class InfeasibleBeta(NeseekError):
    """The consensus gain is below the admissible threshold; no step-size bound exists."""


class DegenerateWindow(NeseekError):
    """Too few samples, or nonpositive values, inside a fitting window."""


class ShapeMismatch(NeseekError):
    """Ensemble members disagree on player count, step size, or horizon."""


class ParseError(NeseekError):
    """A scenario file is not valid JSON."""


class ValidationError(NeseekError, ValueError):
    """An input violates a structural or numerical invariant. Raised once, by
    the constructor of the type that holds the value; a ValueError too."""
