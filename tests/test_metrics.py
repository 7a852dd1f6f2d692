import math

import numpy as np
import pytest

from neseek import aggregate, gamma_series, interval_stats, rate_fit
from neseek.errors import DegenerateWindow, ShapeMismatch
from neseek.metrics import run_metrics


def fire_matrix(events, n=2, steps=10):
    """(steps, n) fire matrix with the given (step, player) entries set."""
    fired = np.zeros((steps, n), dtype=bool)
    for k, i in events:
        fired[k, i] = True
    return fired


def make_metrics(events, n=2, dt=0.1, steps=10, err=None):
    times = np.arange(steps + 1) * dt
    if err is None:
        err = np.exp(-times)
    fired = fire_matrix(events, n, steps)
    return run_metrics(fired, times, err, dt=dt, horizon=steps * dt, window=(0.0, steps * dt))


def player_stats(events, player, dt=0.1):
    return interval_stats(make_metrics(events, dt=dt).intervals[player])


class TestGammaSeries:
    def test_continuous_is_one(self):
        out = gamma_series(np.ones((10, 3), dtype=bool))
        assert out[0] == 0.0
        assert np.array_equal(out[1:], np.ones(10))

    def test_no_events_is_zero(self):
        assert np.array_equal(gamma_series(np.zeros((10, 3), dtype=bool)), np.zeros(11))

    def test_single_player_single_event(self):
        out = gamma_series(fire_matrix([(0, 0)], n=1))
        assert out[-1] == pytest.approx(0.1)

    def test_bounded_by_one_and_monotone_under_added_events(self):
        rng = np.random.default_rng(0)
        base = fire_matrix(zip(rng.integers(0, 40, 30), rng.integers(0, 3, 30)), n=3, steps=40)
        base[17, 1] = False
        extra = base.copy()
        extra[17, 1] = True
        g1 = gamma_series(base)
        g2 = gamma_series(extra)
        assert (g1 <= 1.0).all() and (g1 >= 0.0).all()
        assert (g2 >= g1).all() and g2[-1] > g1[-1]


class TestIntervalStats:
    def test_arithmetic(self):
        events = [(1, 0), (3, 0), (4, 0)]
        assert player_stats(events, 0) == pytest.approx((0.2, 0.15, 0.1))

    def test_single_event_returns_none(self):
        assert player_stats([(1, 0)], 0) is None
        assert player_stats([], 0) is None
        assert interval_stats(np.empty(0)) is None

    def test_other_players_ignored(self):
        events = [(1, 0), (2, 1), (5, 0)]
        assert player_stats(events, 0) == pytest.approx((0.4, 0.4, 0.4))


class TestRateFit:
    def test_exact_exponential(self):
        t = np.linspace(0, 10, 401)
        slope = rate_fit(t, np.exp(-2.0 * t), window=(0.0, 10.0))
        assert slope == pytest.approx(-2.0, abs=1e-6)

    def test_constant_series(self):
        t = np.linspace(0, 10, 101)
        assert rate_fit(t, np.full(101, 3.0)) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_cases(self):
        with pytest.raises(DegenerateWindow):
            rate_fit(np.array([0.0, 1.0]), np.array([1.0, 0.5]), window=(0.0, 1.0))
        t = np.linspace(0, 10, 101)
        bad = np.exp(-t)
        bad[3] = 0.0
        with pytest.raises(DegenerateWindow):
            rate_fit(t, bad)


class TestAggregate:
    def test_single_run_identity(self):
        m = make_metrics([(1, 0), (3, 0), (2, 1)])
        ens = aggregate([m])
        assert ens.runs == 1
        assert np.array_equal(ens.mean_gamma_series, m.gamma_series)
        assert np.array_equal(ens.mean_counts, m.trigger_counts)
        assert ens.interval_stats[0] == pytest.approx((0.2, 0.2, 0.2))
        assert ens.interval_stats[1] is None

    def test_mean_of_opposite_rates(self):
        full = make_metrics([(k, i) for k in range(10) for i in range(2)])
        empty = make_metrics([])
        ens = aggregate([full, empty])
        assert np.array_equal(ens.mean_gamma_series[1:], np.full(10, 0.5))

    def test_mean_within_member_envelope(self):
        rng = np.random.default_rng(4)
        members = []
        for _ in range(5):
            events = zip(rng.integers(0, 10, 12), rng.integers(0, 2, 12))
            members.append(make_metrics(events))
        ens = aggregate(members)
        stack = np.stack([m.gamma_series for m in members])
        assert (ens.mean_gamma_series <= stack.max(axis=0) + 1e-15).all()
        assert (ens.mean_gamma_series >= stack.min(axis=0) - 1e-15).all()

    def test_shape_mismatch(self):
        a = make_metrics([], dt=0.1)
        b = make_metrics([], dt=0.05, steps=20)
        with pytest.raises(ShapeMismatch):
            aggregate([a, b])
        with pytest.raises(ShapeMismatch):
            aggregate([])


def test_count_interval_consistency():
    rng = np.random.default_rng(8)
    for _ in range(20):
        steps = sorted(set(rng.integers(0, 50, size=rng.integers(1, 12)).tolist()))
        m = make_metrics([(s, 0) for s in steps], n=1, steps=50)
        assert m.trigger_counts[0] == len(m.intervals[0]) + 1


def test_run_metrics_nan_fit_when_errors_vanish():
    m = make_metrics([], err=np.zeros(11))
    assert math.isnan(m.rate_fit)


def test_player_intervals_sorted_by_occurrence():
    # gaps come out in time order, not sorted by size
    m = make_metrics([(2, 0), (9, 0), (7, 0)], n=1)
    assert m.intervals[0] == pytest.approx([0.5, 0.2])
