"""Communication-rate and convergence statistics from the fire matrix.

The fire matrix is (steps, n): entry [k, i] says whether player i broadcast
at step k. The average communication rate discretizes the time-averaged
fraction of broadcasting players: an event occupies its whole grid step, so
at step k the rate is (total fires so far) / (n * k), with the convention
that it is zero at t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ShapeMismatch

if TYPE_CHECKING:
    from .engine import RunResult

# Gap arrays a player's pool holds before they are joined into one: thousands
# of small arrays fragment the heap, and peak memory then grows with the runs.
_POOL_LIMIT = 256

# The time span (seconds) whose errors the decay-rate fit reads.
RATE_WINDOW = (0.0, 10.0)


@dataclass(frozen=True)
class EnsembleMetrics:
    runs: int
    times: np.ndarray
    mean_gamma_series: np.ndarray
    mean_err_series: np.ndarray
    mean_counts: np.ndarray
    interval_stats: tuple[tuple[float, float, float], ...]


def gamma_series(fired: np.ndarray) -> np.ndarray:
    """Average communication rate on the grid t_k = k*dt, k = 0..steps."""
    steps, n = fired.shape
    out = np.zeros(steps + 1)
    out[1:] = np.cumsum(fired.sum(axis=1)) / (n * np.arange(1, steps + 1))
    return out


def interval_stats(gaps: np.ndarray) -> tuple[float, float, float]:
    """(max, mean, min) of inter-event gaps; NaN when there are none."""
    if gaps.size == 0:
        return math.nan, math.nan, math.nan
    return float(gaps.max()), float(gaps.mean()), float(gaps.min())


def rate_fit(times: np.ndarray, err_series: np.ndarray) -> float:
    """Least-squares slope of ln(err) against t over RATE_WINDOW; NaN when
    the window holds fewer than 3 samples, an error that is not positive or
    no time spread."""
    times = np.asarray(times, dtype=float)
    errs = np.asarray(err_series, dtype=float)
    lo, hi = RATE_WINDOW
    mask = (times >= lo) & (times <= hi)
    t, e = times[mask], errs[mask]
    if t.size < 3 or (e <= 0).any():
        return math.nan
    tbar = t.mean()
    denom = float(((t - tbar) ** 2).sum())
    if denom == 0.0:
        return math.nan
    z = np.log(e)
    return float(((t - tbar) * (z - z.mean())).sum() / denom)


def intervals(fired: np.ndarray, dt: float) -> tuple[np.ndarray, ...]:
    """Per player, the gaps (seconds) between consecutive events."""
    return tuple(np.diff(np.flatnonzero(fired[:, i])) * dt for i in range(fired.shape[1]))


class Ensemble:
    """Pointwise means over runs plus pooled per-player interval statistics,
    folded one run at a time.

    Series and counts are summed from zero in the order the runs are added
    and divided once in ``metrics``, which reproduces
    ``np.stack(...).mean(axis=0)`` bit for bit for series of two or more
    points, as every run's are. Each player's gaps are pooled in the same
    order and concatenated, because ``mean`` over them sums pairwise.
    """

    def __init__(self):
        self.runs = 0
        self.times: np.ndarray | None = None
        self._sums: list[np.ndarray] = []
        self._gaps: list[list[np.ndarray]] = []

    def add(self, run: RunResult, copies: int = 1) -> None:
        """Add ``run`` as ``copies`` consecutive members of the ensemble."""
        series = (run.gamma, run.err_inf, run.trigger_counts)
        if self.runs == 0:
            self.times = run.times
            self._sums = [np.zeros(len(s)) for s in series]
            self._gaps = [[] for _ in run.trigger_counts]
        elif len(run.gamma) != len(self._sums[0]) or len(run.trigger_counts) != len(self._gaps):
            raise ShapeMismatch("runs disagree on series length or player count")
        for _ in range(copies):
            for total, s in zip(self._sums, series):
                total += s
        for pooled, gaps in zip(self._gaps, run.intervals):
            pooled += [gaps] * copies
            if len(pooled) >= _POOL_LIMIT:
                pooled[:] = [np.concatenate(pooled)]
        self.runs += copies

    def metrics(self) -> EnsembleMetrics:
        """The means over every run added so far."""
        if self.runs == 0:
            raise ShapeMismatch("cannot aggregate zero runs")
        gamma, err, counts = (total / self.runs for total in self._sums)
        return EnsembleMetrics(
            runs=self.runs,
            times=self.times,
            mean_gamma_series=gamma,
            mean_err_series=err,
            mean_counts=counts,
            interval_stats=tuple(interval_stats(np.concatenate(g)) for g in self._gaps),
        )
