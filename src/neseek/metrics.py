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
from typing import Sequence

import numpy as np

from .errors import DegenerateWindow, ShapeMismatch


@dataclass(frozen=True)
class RunMetrics:
    n: int
    dt: float
    horizon: float
    times: np.ndarray
    gamma_series: np.ndarray
    trigger_counts: np.ndarray
    intervals: tuple[np.ndarray, ...]
    err_series: np.ndarray
    rate_fit: float


@dataclass(frozen=True)
class EnsembleMetrics:
    runs: int
    n: int
    dt: float
    horizon: float
    times: np.ndarray
    mean_gamma_series: np.ndarray
    mean_err_series: np.ndarray
    mean_counts: np.ndarray
    interval_stats: tuple[tuple[float, float, float] | None, ...]


def gamma_series(fired: np.ndarray) -> np.ndarray:
    """Average communication rate on the grid t_k = k*dt, k = 0..steps."""
    steps, n = fired.shape
    out = np.zeros(steps + 1)
    out[1:] = np.cumsum(fired.sum(axis=1)) / (n * np.arange(1, steps + 1))
    return out


def interval_stats(gaps: np.ndarray) -> tuple[float, float, float] | None:
    """(max, mean, min) of inter-event gaps; None when there are none."""
    if gaps.size == 0:
        return None
    return float(gaps.max()), float(gaps.mean()), float(gaps.min())


def rate_fit(times: np.ndarray, err_series: np.ndarray, window: tuple[float, float] = (0.0, 10.0)) -> float:
    """Least-squares slope of ln(err) against t over the window."""
    times = np.asarray(times, dtype=float)
    errs = np.asarray(err_series, dtype=float)
    lo, hi = window
    mask = (times >= lo) & (times <= hi)
    if mask.sum() < 3:
        raise DegenerateWindow("need at least 3 samples in the window")
    if (errs[mask] <= 0).any():
        raise DegenerateWindow("errors must be positive inside the window")
    t = times[mask]
    z = np.log(errs[mask])
    tbar = t.mean()
    denom = float(((t - tbar) ** 2).sum())
    if denom == 0.0:
        raise DegenerateWindow("window has no time spread")
    return float(((t - tbar) * (z - z.mean())).sum() / denom)


def run_metrics(
    fired: np.ndarray,
    times: np.ndarray,
    err_series: np.ndarray,
    dt: float,
    horizon: float,
    window: tuple[float, float] = (0.0, 10.0),
) -> RunMetrics:
    """Per-run statistics from the (steps, n) fire matrix; the rate fit
    degrades to NaN when undefined.

    ``intervals[i]`` holds the gaps (seconds) between player i's consecutive
    events.
    """
    fired = np.asarray(fired, dtype=bool)
    n = fired.shape[1]
    try:
        fit = rate_fit(times, err_series, window)
    except DegenerateWindow:
        fit = math.nan
    return RunMetrics(
        n=n,
        dt=dt,
        horizon=horizon,
        times=np.asarray(times, dtype=float),
        gamma_series=gamma_series(fired),
        trigger_counts=fired.sum(axis=0),
        intervals=tuple(np.diff(np.flatnonzero(fired[:, i])) * dt for i in range(n)),
        err_series=np.asarray(err_series, dtype=float),
        rate_fit=fit,
    )


def aggregate(members: Sequence[RunMetrics]) -> EnsembleMetrics:
    """Pointwise means over runs plus pooled per-player interval statistics."""
    if not members:
        raise ShapeMismatch("cannot aggregate zero runs")
    first = members[0]
    for m in members[1:]:
        if (
            m.n != first.n
            or m.dt != first.dt
            or m.horizon != first.horizon
            or len(m.gamma_series) != len(first.gamma_series)
        ):
            raise ShapeMismatch("runs disagree on player count, dt, or horizon")
    gammas = np.stack([m.gamma_series for m in members])
    errs = np.stack([m.err_series for m in members])
    counts = np.stack([m.trigger_counts for m in members])
    stats = [
        interval_stats(np.concatenate([m.intervals[i] for m in members]))
        for i in range(first.n)
    ]
    return EnsembleMetrics(
        runs=len(members),
        n=first.n,
        dt=first.dt,
        horizon=first.horizon,
        times=first.times,
        mean_gamma_series=gammas.mean(axis=0),
        mean_err_series=errs.mean(axis=0),
        mean_counts=counts.mean(axis=0),
        interval_stats=tuple(stats),
    )
