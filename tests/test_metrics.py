import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neseek import Ensemble, RunResult, gamma_series, interval_stats, rate_fit
from neseek.errors import DegenerateWindow, ShapeMismatch


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
    trig = np.zeros((steps + 1, n), dtype=np.int8)
    trig[1:] = fire_matrix(events, n, steps)
    unused = np.empty((steps, n))
    return RunResult(times, np.empty((steps + 1, n)), err, trig, unused, unused, np.zeros(n), dt)


def aggregate(members):
    ensemble = Ensemble()
    for m in members:
        ensemble.add(m)
    return ensemble.metrics()


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
        slope = rate_fit(t, np.exp(-2.0 * t))
        assert slope == pytest.approx(-2.0, abs=1e-6)

    def test_constant_series(self):
        t = np.linspace(0, 10, 101)
        assert rate_fit(t, np.full(101, 3.0)) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_cases(self):
        with pytest.raises(DegenerateWindow):
            rate_fit(np.array([0.0, 1.0]), np.array([1.0, 0.5]))
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
        assert np.array_equal(ens.mean_gamma_series, m.gamma)
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
        stack = np.stack([m.gamma for m in members])
        assert (ens.mean_gamma_series <= stack.max(axis=0) + 1e-15).all()
        assert (ens.mean_gamma_series >= stack.min(axis=0) - 1e-15).all()

    def test_shape_mismatch(self):
        a = make_metrics([], dt=0.1)
        b = make_metrics([], dt=0.05, steps=20)
        with pytest.raises(ShapeMismatch):
            aggregate([a, b])
        with pytest.raises(ShapeMismatch):
            aggregate([a, make_metrics([], n=3)])
        with pytest.raises(ShapeMismatch):
            aggregate([])

    def test_copies_equal_repeated_members(self):
        a = make_metrics([(1, 0), (3, 0), (2, 1)])
        b = make_metrics([(4, 1), (6, 1), (9, 0)])
        folded = Ensemble()
        folded.add(a, copies=3)
        folded.add(b)
        assert_same_ensemble(folded.metrics(), aggregate([a, a, a, b]))


def assert_same_ensemble(got, want):
    assert got.runs == want.runs
    for name in ("times", "mean_gamma_series", "mean_err_series", "mean_counts"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert got.interval_stats == want.interval_stats


@st.composite
def fold_cases(draw):
    """Random members (series, counts, gaps) with a copy count each.

    Series have at least two points, as every run's do: a one-point stack is
    reduced along a contiguous axis, which numpy sums pairwise."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    length, n = draw(st.integers(2, 40)), draw(st.integers(1, 6))
    members = []
    for _ in range(draw(st.integers(1, 300))):
        copies = 1 if rng.random() < 0.8 else int(rng.integers(2, 10))
        scale = 10.0 ** rng.integers(-8, 8, size=(2, length))
        members.append((SimpleNamespace(
            times=np.arange(length) * 0.1,
            gamma=rng.random(length) * scale[0],
            err_inf=rng.standard_normal(length) * scale[1],
            trigger_counts=rng.integers(0, 1000, n),
            intervals=tuple(rng.random(rng.integers(0, 5)) * 10.0 ** rng.integers(-3, 3)
                            for _ in range(n)),
        ), copies))
    return members


@settings(max_examples=60, deadline=None)
@given(fold_cases())
def test_fold_equals_stacked_mean_and_pooled_gaps(members):
    # up to 300 members, a fifth of them with 2-9 copies: R reaches about 600
    folded = Ensemble()
    for m, copies in members:
        folded.add(m, copies)
    expanded = [m for m, copies in members for _ in range(copies)]
    got = folded.metrics()
    assert got.runs == len(expanded)
    for name, column in (("mean_gamma_series", "gamma"), ("mean_err_series", "err_inf"),
                         ("mean_counts", "trigger_counts")):
        want = np.stack([getattr(m, column) for m in expanded]).mean(axis=0)
        assert getattr(got, name).tobytes() == want.tobytes()
    n = len(expanded[0].trigger_counts)
    assert got.interval_stats == tuple(
        interval_stats(np.concatenate([m.intervals[i] for m in expanded])) for i in range(n)
    )


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
