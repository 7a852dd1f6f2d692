import dataclasses
import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neseek import (
    Batch,
    EngineConfig,
    Ensemble,
    LawKind,
    Member,
    QuadraticGame,
    DirectedGraph,
    Scenario,
    SpectrumGame,
    TriggerParams,
    compare_laws,
    decide,
    init,
    run,
    single_run,
    solve_ne,
    step,
)
import neseek
from neseek import engine, harness
from neseek.engine import EngineState
from neseek.errors import NumericalDivergence, ValidationError
from neseek.triggers import TIE_BAND, TIE_FLOOR, xi_from_uniform

import oracles
from oracles import threshold_term
from conftest import load_bundled, random_strongly_connected, strongly_connected_graphs
from conftest import with_engine
from test_golden_sparse import ring_with_chords, with_hub
from test_metrics import assert_same_ensemble

PUBLISHED_X0 = np.array([14.0, 12.0, 10.0, 4.0, 2.0])
PUBLISHED_Y0 = np.array(
    [
        [0.0, 1.5, 2.5, 3.5, 4.5],
        [2.5, 3.5, 4.5, 5.5, 6.5],
        [4.5, 5.5, 6.5, 7.5, 8.5],
        [6.5, 7.5, 8.5, 9.5, 10.5],
        [8.5, 9.5, 10.5, 11.5, 12.5],
    ]
)


def two_player_setup(beta=0.2, dt=0.025, horizon=1.0):
    """A two-player quadratic game under the continuous law, started at
    x0 = (1, 2)."""
    game = QuadraticGame(
        diag_a=[2.0, 3.0],
        cross=[[0.0, 1.0], [-1.0, 0.0]],
        offset=[-4.0, 1.0],
        intervals=[[0.0, 5.0], [-2.0, 4.0]],
    )
    graph = DirectedGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    trig = TriggerParams(
        kappa=1.075,
        a_floor=0.05,
        eta=10.0,
        c=np.ones(2),
        sigma=np.full(2, 0.2),
        delta0=np.ones(2),
    )
    cfg = EngineConfig(alpha=0.1, beta=beta, dt=dt, horizon=horizon)
    return Scenario(
        graph, game, trig, cfg, x0=np.array([1.0, 2.0]),
        y0=np.array([[1.0, 0.5], [1.5, 2.0]]), law=LawKind.CONTINUOUS, ne_override=np.zeros(2),
    )


def one_member(law, scenario, seed):
    """The one-member ``Batch`` that ``init`` and ``step`` take for one run of
    the scenario."""
    return Batch.of(scenario, [Member(law, seed)])


class TestInit:
    def test_shipped_initial_state(self, spectrum_scenario):
        s = dataclasses.replace(spectrum_scenario, x0=PUBLISHED_X0, y0=PUBLISHED_Y0)
        state = init(one_member(s.law, s, 0))
        assert state.step_index == 0
        assert np.array_equal(state.x, [PUBLISHED_X0])
        assert state.y[0, 0, 0] == 14.0  # diagonal overwritten by the action
        assert np.array_equal(state.y.diagonal(0, 1, 2), [PUBLISHED_X0])
        assert np.array_equal(state.y_hat.diagonal(0, 1, 2), state.x)
        assert np.array_equal(state.y_hat, state.y)

    def test_equilibrium_start_has_zero_gradient_residual(self, spectrum_scenario):
        s = spectrum_scenario
        x_star = solve_ne(s.game).x_star
        y0 = np.tile(x_star, (5, 1))
        state = init(one_member(s.law, dataclasses.replace(s, x0=x_star, y0=y0), 0))
        from neseek import verify_ne

        assert verify_ne(s.game, state.x[0], s.engine.alpha) <= 1e-12

    def test_every_member_starts_from_the_scenario(self, quadratic_scenario):
        # the start and its terms are formed once and repeated along the
        # member axis, into arrays the state owns; a step keeps the axis
        s, n = quadratic_scenario, quadratic_scenario.n
        names = ("x", "y", "y_hat", "disagreement_sq", "increment")
        one = init(one_member(s.law, s, 0))
        batch = Batch.of(s, [Member(law, 3) for law in LawKind])
        state = init(batch)
        for name in names:
            assert np.array_equal(getattr(state, name), np.repeat(getattr(one, name), 4, axis=0))
        arrays = [getattr(state, name) for name in names] + [s.x0, s.y0]
        for k, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[k + 1:])
        new, fired, rho = step(state, batch)
        assert fired.shape == rho.shape == new.x.shape == new.disagreement_sq.shape == (4, n)
        assert new.y.shape == new.y_hat.shape == new.increment.shape == (4, n, n)


class TestStep:
    def test_single_step_matches_hand_computation(self):
        s = two_player_setup(horizon=0.025)
        batch = one_member(s.law, s, 0)
        new, fired, _ = step(init(batch), batch)
        (x,), (y,) = new.x, new.y

        # scalar forward-Euler computation, written out term by term
        g0 = (2.0 * 1.0 + (0.0 * 1.0 + 1.0 * 0.5)) + -4.0
        g1 = (3.0 * 2.0 + (-1.0 * 1.5 + 0.0 * 2.0)) + 1.0
        x0_new = 1.0 + 0.025 * (min(max(1.0 - 0.1 * g0, 0.0), 5.0) - 1.0)
        x1_new = 2.0 + 0.025 * (min(max(2.0 - 0.1 * g1, -2.0), 4.0) - 2.0)
        ydot00 = -0.2 * ((1.0 - 1.5) + 0.0)
        ydot01 = -0.2 * ((0.5 - 2.0) + (0.5 - 2.0))
        ydot10 = -0.2 * ((1.5 - 1.0) + (1.5 - 1.0))

        assert x[0] == pytest.approx(x0_new, abs=1e-12)
        assert x[1] == pytest.approx(x1_new, abs=1e-12)
        assert y[0, 1] == pytest.approx(0.5 + 0.025 * ydot01, abs=1e-12)
        assert y[1, 0] == pytest.approx(1.5 + 0.025 * ydot10, abs=1e-12)
        # diagonal pinned to the new actions, not the raw Euler value
        assert y[0, 0] == x[0]
        assert y[1, 1] == x[1]
        assert 1.0 + 0.025 * ydot00 != x[0]  # the pin is not a no-op
        assert new.step_index == 1
        assert fired.tolist() == [[True, True]]  # continuous law fires everyone

    def test_refuses_a_state_whose_writes_it_would_lose(self):
        # the step pins the diagonal through a reshaped view of the anchor,
        # which of a Fortran-order array is a copy: the pin was lost
        s = two_player_setup(horizon=0.025)
        batch = one_member(s.law, s, 0)
        state = init(batch)
        state.anchor = np.asfortranarray(state.anchor)
        with pytest.raises(ValidationError, match="^state: anchor: must be C-contiguous"):
            step(state, batch)

    @pytest.mark.parametrize("k", [-1, 1, 2], ids=["negative", "at-horizon", "past-horizon"])
    def test_refuses_a_step_index_outside_the_batch(self, k):
        # a one-step batch has thresholds for step 0 alone: past it numpy
        # indexing raises an IndexError, and a negative index reads the end
        s = two_player_setup(horizon=0.025)
        batch = one_member(s.law, s, 0)
        state = init(batch)
        state.step_index = k
        with pytest.raises(ValidationError, match="^state: step_index: "):
            step(state, batch)

    def test_continuous_law_reduces_to_exact_estimate_dynamics(self):
        s = two_player_setup(horizon=1.0)
        cfg = s.engine
        batch = one_member(LawKind.CONTINUOUS, s, 0)
        state = init(batch)

        # oracle: integrate the always-broadcast dynamics without any hats
        a = s.graph.weights
        x = np.array([1.0, 2.0])
        y = np.array([[1.0, 0.5], [1.5, 2.0]])
        lo = np.array([0.0, -2.0])
        hi = np.array([5.0, 4.0])
        for _ in range(cfg.steps):
            grads = np.array(
                [
                    (2.0 * y[0, 0] + y[0, 1]) - 4.0,
                    (3.0 * y[1, 1] - y[1, 0]) + 1.0,
                ]
            )
            xdot = np.clip(x - cfg.alpha * grads, lo, hi) - x
            ydot = np.empty((2, 2))
            for i in range(2):
                for j in range(2):
                    cons = sum(a[i, k] * (y[i, j] - y[k, j]) for k in range(2))
                    ydot[i, j] = -cfg.beta * (cons + a[i, j] * (y[i, j] - x[j]))
            x = x + cfg.dt * xdot
            y = y + cfg.dt * ydot
            y[np.arange(2), np.arange(2)] = x

            state, _, _ = step(state, batch)
        assert np.allclose(state.x[0], x, atol=1e-12)
        assert np.allclose(state.y[0], y, atol=1e-12)

    def test_diagonal_identity_and_decay_every_step(self, quadratic_scenario, monkeypatch):
        s = quadratic_scenario
        p, thresholds = s.trigger, []

        def spy(rho, lower, upper, *rest):
            thresholds.append(upper)
            return decide(rho, lower, upper, *rest)

        monkeypatch.setattr(engine, "decide", spy)
        batch = one_member(s.law, s, s.seed)
        state = init(batch)
        for k in range(50):
            state, _, _ = step(state, batch)
            assert np.array_equal(state.y.diagonal(0, 1, 2), state.x)
            decay = p.delta0 * np.exp(-p.eta * k * s.engine.dt)
            expected = (decay / p.c) * threshold_term(p, batch.xi[k])
            assert np.allclose(thresholds[k], expected, rtol=1e-12)

    def test_broadcast_constant_between_triggers(self, quadratic_scenario):
        s = quadratic_scenario
        batch = one_member(s.law, s, 3)
        state = init(batch)
        for _ in range(120):
            (prev_yhat,), (prev_x,), (prev_y,) = state.y_hat.copy(), state.x.copy(), state.y.copy()
            state, (fired,), _ = step(state, batch)
            (y_hat,) = state.y_hat
            for i in range(s.n):
                if fired[i]:
                    assert y_hat[i, i] == prev_x[i]
                    assert np.array_equal(y_hat[i], prev_y[i])
                else:
                    assert np.array_equal(y_hat[i], prev_yhat[i])

    def test_step_owns_the_broadcast_buffers(self, quadratic_scenario):
        # the fired rows are written into the input's buffers, which the new
        # state carries on
        s = quadratic_scenario
        batch = one_member(LawKind.CONTINUOUS, s, 0)
        state = init(batch)
        buffer = state.y_hat
        new, fired, _ = step(state, batch)
        assert fired.all()
        assert new.y_hat is buffer

    def test_divergence_guard(self):
        s = two_player_setup(beta=1e12, horizon=0.1)
        batch = one_member(s.law, s, 0)
        state = init(batch)
        with pytest.raises(NumericalDivergence):
            for _ in range(s.engine.steps):
                state, _, _ = step(state, batch)


class TestRun:
    def test_equilibrium_is_invariant(self, spectrum_scenario):
        s = spectrum_scenario
        x_star = solve_ne(s.game).x_star
        at_rest = dataclasses.replace(s, x0=x_star, y0=np.tile(x_star, (5, 1)), ne_override=x_star)
        (result,) = run(at_rest, members=[Member(s.law, s.seed)])
        assert result.err_inf.max() <= 1e-6

    def test_same_seed_reproduces_everything(self, quadratic_scenario):
        a = single_run(quadratic_scenario, seed=42)
        b = single_run(quadratic_scenario, seed=42)
        for column in ("trig", "rho", "xi", "actions"):
            assert np.array_equal(getattr(a, column), getattr(b, column))
        assert np.array_equal(a.gamma, b.gamma)

    def test_continuous_vs_stochastic_rate(self, quadratic_scenario):
        cont = single_run(dataclasses.replace(quadratic_scenario, law=LawKind.CONTINUOUS), seed=1)
        stoc = single_run(dataclasses.replace(quadratic_scenario, law=LawKind.STOCHASTIC), seed=1)
        assert np.array_equal(cont.gamma[1:], np.ones(len(cont.gamma) - 1))
        assert stoc.gamma[-1] < 1.0
        assert (stoc.trig.sum(axis=1) == 0).any()

    def test_actions_stay_feasible(self, spectrum_scenario):
        result = single_run(spectrum_scenario, seed=5)
        assert result.actions.min() >= 0.0
        assert result.actions.max() <= 16.0

    def test_shipped_scenario_converges_given_enough_time(self, spectrum_scenario):
        long = with_engine(spectrum_scenario, horizon=50.0)
        result = single_run(long, seed=0)
        assert result.err_inf[-1] < 0.05
        assert result.rate_fit < -0.1

    def test_error_decays_under_every_law(self, spectrum_scenario):
        for law in LawKind:
            result = single_run(dataclasses.replace(spectrum_scenario, law=law), seed=2)
            assert result.rate_fit < 0

    def test_no_trigger_inequality_exact(self, spectrum_scenario):
        s = spectrum_scenario
        p = s.trigger
        result = single_run(s, seed=11)
        ln_kappa = math.log(p.kappa)
        checked = 0
        for k, t in enumerate(result.times[:-1]):
            decay = p.delta0 * math.exp(-p.eta * t)
            for i in range(s.n):
                rho = float(result.rho[k, i])
                bound = (float(decay[i]) / float(p.c[i])) * (ln_kappa - math.log(result.xi[k, i]))
                if result.trig[k + 1, i]:
                    assert rho > bound
                else:
                    assert rho <= bound
                    checked += 1
        assert checked > 0

    def test_evaluation_errors_match_raw_state(self, quadratic_scenario):
        # recompute the squared error terms from the previous state by hand
        s = quadratic_scenario
        batch = one_member(s.law, s, s.seed)
        state = init(batch)
        for _ in range(60):
            (x,), (y,), (y_hat,) = state.x.copy(), state.y.copy(), state.y_hat.copy()
            state, _, (rho,) = step(state, batch)
            a = s.graph.weights
            for i in range(s.n):
                e_x = y_hat[i, i] - x[i]
                e_y = y_hat[i] - y[i]
                disagreement = sum(a[i, j] * (y_hat[i] - y_hat[j]) for j in range(s.n))
                terms = (
                    e_x * e_x,
                    float(e_y @ e_y),
                    -float(s.trigger.sigma[i]) * float(disagreement @ disagreement),
                )
                assert rho[i] == pytest.approx(
                    sum(terms), rel=1e-12, abs=1e-12 * max(map(abs, terms)) + 1e-300
                )

    def test_gamma_matches_metrics_recomputation(self, quadratic_scenario):
        # running count of fires over the evaluations so far, step by step
        result = single_run(quadratic_scenario, seed=9)
        n = quadratic_scenario.n
        fires = 0
        recomputed = [0.0]
        for k, row in enumerate(result.trig[1:]):
            fires += int(row.sum())
            recomputed.append(fires / (n * (k + 1)))
        assert np.array_equal(result.gamma, recomputed)
        assert 0 < result.gamma[-1] < 1

    def test_columns_have_one_row_per_step(self, quadratic_scenario):
        result = single_run(quadratic_scenario, seed=4)
        steps, n = quadratic_scenario.engine.steps, quadratic_scenario.n
        assert result.trig.shape == (steps + 1, n)
        assert not result.trig[0].any()
        assert result.rho.shape == result.xi.shape == (steps, n)
        assert ((result.xi > quadratic_scenario.trigger.a_floor) & (result.xi <= 1.0)).all()
        static = single_run(dataclasses.replace(quadratic_scenario, law=LawKind.STATIC), seed=4)
        assert np.isnan(static.xi).all()
        assert np.isfinite(static.rho).all()

    def test_one_step_horizon_rows(self, quadratic_scenario):
        short = with_engine(quadratic_scenario, horizon=quadratic_scenario.engine.dt)
        result = single_run(short, seed=0)
        assert len(result.times) == 2
        assert result.times[0] == 0.0
        assert result.times[1] == pytest.approx(short.engine.dt)

    def test_trigger_counts_bounded_as_dt_halves(self, spectrum_scenario):
        short = dataclasses.replace(with_engine(spectrum_scenario, horizon=10.0), runs=4, seed=0)
        coarse = compare_laws(short, [short.law])
        fine = compare_laws(with_engine(short, dt=0.0125), [short.law])
        coarse, fine = coarse[short.law].mean_counts, fine[short.law].mean_counts
        assert (fine <= 1.5 * coarse).all()

    def test_inter_event_gaps_at_least_dt(self, spectrum_scenario):
        result = single_run(spectrum_scenario, seed=3)
        for gaps in result.intervals:
            if gaps.size:
                assert gaps.min() >= spectrum_scenario.engine.dt

    def test_law_names_run_as_their_laws(self, spectrum_scenario):
        # a plain string once ran as an uncapped deterministic law with no draws
        s = dataclasses.replace(spectrum_scenario, law="stochastic")
        assert s.law is LawKind.STOCHASTIC
        assert_same_columns(
            single_run(s, seed=1), run(spectrum_scenario, [Member(LawKind.STOCHASTIC, 1)])[0]
        )
        for law in ("static", "dynamic"):
            assert_same_columns(
                single_run(dataclasses.replace(spectrum_scenario, law=law), seed=1),
                run(spectrum_scenario, [Member(LawKind(law), 1)])[0],
            )
        s = dataclasses.replace(spectrum_scenario, seed=1)
        named = compare_laws(s, ["dynamic"])
        assert list(named) == [LawKind.DYNAMIC]
        assert_same_ensemble(
            named[LawKind.DYNAMIC], compare_laws(s, [LawKind.DYNAMIC])[LawKind.DYNAMIC]
        )
        with pytest.raises(ValidationError, match="sometimes"):
            dataclasses.replace(spectrum_scenario, law="sometimes")

    def test_compare_refuses_a_law_named_twice(self, quadratic_scenario):
        # it integrated every member twice and reported runs == 6 for runs=3
        laws = [LawKind.STATIC, "static", LawKind.STOCHASTIC, LawKind.STOCHASTIC]
        with pytest.raises(ValidationError, match="names a law twice"):
            compare_laws(quadratic_scenario, laws)

    def test_compare_refuses_an_empty_law_list(self, quadratic_scenario):
        # it returned {} without a word, where the CLI refuses --laws ,
        with pytest.raises(ValidationError, match="at least one law"):
            compare_laws(quadratic_scenario, [])

    def test_compare_refuses_a_bare_law_name(self, quadratic_scenario):
        # a string is a list of letters: it was refused as law: 's' is not one of ...
        message = "^laws: expected a list of law names, got 'static'$"
        with pytest.raises(ValidationError, match=message):
            compare_laws(quadratic_scenario, "static")

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda s: single_run(s, seed=1.7), id="single_run-seed-fractional"),
            pytest.param(lambda s: single_run(s, seed=True), id="single_run-seed-bool"),
            pytest.param(lambda s: single_run(s, seed=2.0), id="single_run-seed-integral-float"),
            pytest.param(
                lambda s: dataclasses.replace(s, runs=2.5), id="compare-runs-fractional"
            ),
            pytest.param(lambda s: dataclasses.replace(s, runs=True), id="compare-runs-bool"),
            pytest.param(
                lambda s: dataclasses.replace(s, seed=0.5), id="compare-seed-fractional"
            ),
        ],
    )
    def test_non_integer_seeds_and_runs_are_refused(self, quadratic_scenario, call):
        # they were truncated: seed 1.7 and seed True both ran seed 1
        with pytest.raises(ValidationError, match="expected an integer"):
            call(quadratic_scenario)

    def test_numpy_integer_seeds_and_runs_pass(self, drawn_scenario):
        s, law = drawn_scenario, LawKind.STOCHASTIC
        alone = distinct_runs(s, [3, 4])
        assert_same_columns(single_run(s, seed=np.int64(3)), alone[0])
        ens = compare_laws(dataclasses.replace(s, runs=np.uint8(2), seed=np.int64(3)), [law])[law]
        assert ens.runs == 2
        assert_same_ensemble(ens, compare_laws(dataclasses.replace(s, runs=2, seed=3), [law])[law])

    def test_equilibrium_override_anchors_error_series(self, quadratic_scenario):
        s = dataclasses.replace(quadratic_scenario, ne_override=np.array([0.0, 0.0]))
        result = single_run(s, seed=0)
        assert np.array_equal(result.x_star, [0.0, 0.0])
        assert result.err_inf[0] == np.abs(s.x0).max()


@st.composite
def batch_cases(draw):
    """A quadratic game on a random strongly connected digraph, one law and
    1..5 distinct seeds; 40 steps of 0.025 s."""
    g = draw(strongly_connected_graphs())
    n = g.n
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cross = rng.uniform(-0.5, 0.5, (n, n))
    np.fill_diagonal(cross, 0.0)
    game = QuadraticGame(
        diag_a=rng.uniform(1.0, 3.0, n),
        cross=cross,
        offset=rng.uniform(-2.0, 2.0, n),
        intervals=[[-3.0, 3.0]] * n,
    )
    trig = TriggerParams(
        kappa=1.075,
        a_floor=0.05,
        eta=float(rng.uniform(0.5, 3.0)),
        c=rng.uniform(0.5, 2.0, n),
        sigma=rng.uniform(0.01, 0.3, n),
        delta0=rng.uniform(0.05, 1.0, n),
    )
    law = draw(st.sampled_from(list(LawKind)))
    cfg = EngineConfig(alpha=0.1, beta=0.5, dt=0.025, horizon=1.0)
    seeds = draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=5, unique=True))
    scenario = Scenario(
        graph=g,
        game=game,
        trigger=trig,
        engine=cfg,
        x0=rng.uniform(-3.0, 3.0, n),
        y0=rng.uniform(-3.0, 3.0, (n, n)),
        law=law,
        ne_override=np.zeros(n),
    )
    return scenario, seeds


@st.composite
def mixed_batch_cases(draw):
    """A batch case with 1..8 members, each with a law drawn from all four
    and any seed."""
    s, _ = draw(batch_cases())
    members = draw(st.lists(
        st.builds(Member, st.sampled_from(list(LawKind)), st.integers(0, 2 ** 64 - 1)),
        min_size=1, max_size=8,
    ))
    return s, members


BATCH_COLUMNS = ("trig", "rho", "xi", "actions", "err_inf")


def assert_same_columns(got, alone):
    for column in BATCH_COLUMNS:
        a, b = getattr(got, column), getattr(alone, column)
        assert a.dtype == b.dtype and a.shape == b.shape, column
        assert np.array_equal(a, b, equal_nan=True), column


def spy_on_run(monkeypatch, results=None):
    """The (law, seed) of each member of every ``run`` call the harness makes
    from now on, one list per call; the runs themselves go to ``results``
    when it is given."""
    calls = []

    def spy(*args, **kwargs):
        calls.append([(m.law, m.seed) for m in kwargs["members"]])
        out = run(*args, **kwargs)
        if results is not None:
            results.extend(out)
        return out

    monkeypatch.setattr(harness, "run", spy)
    return calls


def stochastic(*seeds):
    return [(LawKind.STOCHASTIC, seed) for seed in seeds]


def assert_draws_alone(scenario, members):
    """A member's draws do not depend on its batch-mates, its position in
    the batch or the horizon: its first k steps are the ones it draws alone
    at a horizon of k steps."""
    short = with_engine(scenario, horizon=0.5)
    steps = short.engine.steps
    batch = Batch.of(scenario, members)
    assert batch.xi.shape[0] > steps
    for r, m in enumerate(members):
        if m.law is LawKind.STOCHASTIC:
            alone = Batch.of(short, [m]).xi[:, 0]
            assert np.array_equal(batch.xi[:steps, r], alone), m
            assert not np.isnan(batch.xi[:, r]).any()
        else:
            assert np.isnan(batch.xi[:, r]).all()


@pytest.fixture(scope="module")
def drawn_scenario(quadratic_scenario):
    """quadratic_demo with a slower decay, eta = 1: there the stochastic law
    fires on its draws, and seeds 0-11 give pairwise different runs. At the
    bundled eta = 10 every seed gives the same run."""
    trigger = dataclasses.replace(quadratic_scenario.trigger, eta=1.0)
    return dataclasses.replace(quadratic_scenario, trigger=trigger)


def distinct_runs(s, seeds):
    """The stochastic run of each seed alone, checked to differ pairwise, so
    that a test over these seeds would see one member run another's seed."""
    s = dataclasses.replace(s, law=LawKind.STOCHASTIC)
    runs = [single_run(s, seed=seed) for seed in seeds]
    assert len({r.trig.tobytes() for r in runs}) == len(runs)
    return runs


class TestBatch:
    @settings(max_examples=60, deadline=None)
    @given(batch_cases())
    def test_batch_equals_separate_runs(self, case):
        s, seeds = case
        batch = run(s, members=[Member(s.law, seed) for seed in seeds])
        for seed, got in zip(seeds, batch):
            (alone,) = run(s, members=[Member(s.law, seed)])
            assert_same_columns(got, alone)
        if s.law is not LawKind.STOCHASTIC:
            # a deterministic ensemble replicates one run; it must still equal
            # the ensemble of every seed's own separate run
            base = min(seeds[0], 2 ** 64 - len(seeds))
            ens = compare_laws(dataclasses.replace(s, runs=len(seeds), seed=base), [s.law])[s.law]
            first, separate = single_run(s, seed=base), Ensemble()
            for k in range(len(seeds)):
                alone = single_run(s, seed=base + k)
                assert_same_columns(alone, first)
                assert np.array_equal(alone.gamma, first.gamma)
                separate.add(alone)
            assert_same_ensemble(ens, separate.metrics())

    @settings(max_examples=60, deadline=None)
    @given(mixed_batch_cases())
    def test_mixed_law_batch_equals_separate_runs(self, case):
        s, members = case
        for member, got in zip(members, run(s, members=members)):
            (alone,) = run(s, members=[member])
            assert_same_columns(got, alone)

    @pytest.mark.parametrize(
        "seed", [pytest.param(-1, id="seed-negative"), pytest.param(2 ** 64, id="seed-2**64")]
    )
    def test_member_rejects_out_of_range(self, seed):
        with pytest.raises(ValueError, match="seed"):
            Member(LawKind.STOCHASTIC, seed)

    def test_member_reads_a_law_name(self):
        assert Member("stochastic", 1) == Member(LawKind.STOCHASTIC, 1)
        assert Member("stochastic", 1).law is LawKind.STOCHASTIC
        with pytest.raises(ValueError, match="sometimes"):
            Member("sometimes", 1)

    @pytest.mark.parametrize("seed", [1.7, 1.0, True, "1"], ids=repr)
    def test_member_refuses_a_non_integer_seed(self, seed):
        with pytest.raises(ValidationError, match="seed: expected an integer"):
            Member(LawKind.STOCHASTIC, seed)

    def test_member_takes_numpy_integers(self):
        member = Member(LawKind.STOCHASTIC, np.uint64(2 ** 64 - 1))
        assert member.seed == 2 ** 64 - 1 and type(member.seed) is int

    @pytest.mark.parametrize(
        "name, dt, weights, horizon",
        [
            pytest.param("spectrum_scenario", None, None, None, id="spectrum"),
            pytest.param("spectrum_scenario", 0.0125, None, None, id="spectrum-dt-0.0125"),
            pytest.param("quadratic_scenario", None, None, None, id="quadratic"),
            pytest.param("quadratic_scenario", 0.0125, None, None, id="quadratic-dt-0.0125"),
            # both bundled scenarios have c = 1, under which the order of
            # the products and the division cannot show
            pytest.param(
                "quadratic_scenario", None, ([0.7, 1.3], [0.3, 2.9]), None, id="quadratic-c"
            ),
            # from eta * k * dt = 715 on the thresholds are subnormal, where
            # the relative band rounds to zero and only TIE_FLOOR brackets them
            pytest.param("quadratic_scenario", None, None, 71.75, id="quadratic-subnormal"),
        ],
    )
    def test_batch_derives_sigma_and_thresholds(
        self, request, monkeypatch, name, dt, weights, horizon
    ):
        # the batch forms the cap and every step's threshold once, with the
        # bits of the per-step formula
        s = request.getfixturevalue(name)
        if dt is not None:
            s = with_engine(s, dt=dt)
        if horizon is not None:
            s = with_engine(s, horizon=horizon)
        if weights is not None:
            c, delta0 = weights
            s = dataclasses.replace(s, trigger=dataclasses.replace(s.trigger, c=c, delta0=delta0))
        p, members = s.trigger, [Member(law, 5) for law in LawKind]
        batch = Batch.of(s, members)
        # a law is its disagreement weights: none under the static law,
        # capped under the dynamic one
        sigma = {LawKind.STATIC: 0.0 * p.sigma,
                 LawKind.DYNAMIC: np.minimum(p.sigma, s.graph.sigma_bound)}
        for r, member in enumerate(members):
            assert np.array_equal(batch.sigma[r], sigma.get(member.law, p.sigma)), member.law
        assert not np.signbit(batch.sigma).any()
        # the continuous law reads its margin against a -inf threshold
        continuous = [m.law is LawKind.CONTINUOUS for m in members]
        assert batch.lower.shape == batch.upper.shape == (s.engine.steps, len(members), s.n)
        for k in range(s.engine.steps):
            decay = p.delta0 * math.exp(-p.eta * (k * s.engine.dt))
            want = (decay / p.c) * threshold_term(p, batch.xi[k])
            want[continuous] = -math.inf
            # the tie band of a drawn threshold, formed once; a deterministic
            # threshold is its own bounds
            band = np.where(np.isnan(batch.xi[k]), 0.0, want * TIE_BAND + TIE_FLOOR)
            assert np.array_equal(batch.lower[k], want - band), k
            assert np.array_equal(batch.upper[k], want + band), k
            # what decide forms a drawn threshold again from at a tie
            assert np.array_equal(batch.scale[k], decay / p.c), k
        assert batch.ln_kappa == math.log(p.kappa)
        # a batch without a drawing member draws nothing, and its bounds
        # are its thresholds
        def no_generator(*args):
            raise AssertionError("a deterministic batch made a generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        quiet = Batch.of(s, [m for m in members if m.law is not LawKind.STOCHASTIC])
        assert np.isnan(quiet.xi).all()
        assert quiet.lower.tobytes() == quiet.upper.tobytes()

    @pytest.mark.parametrize(
        "name, eta, steps",
        [
            pytest.param("spectrum_scenario", None, None, id="spectrum"),
            pytest.param("quadratic_scenario", None, None, id="quadratic"),
            pytest.param("quadratic_scenario", 0.5, 2000, id="quadratic-eta-0.5-2000-steps"),
        ],
    )
    def test_decay_is_libm_exp_on_every_cpu(self, request, name, eta, steps):
        # numpy's AVX-512 exp differs from libm's in the last bit: the scale
        # is formed with math.exp, so a threshold does not depend on the CPU
        s = request.getfixturevalue(name)
        if eta is not None:
            s = dataclasses.replace(s, trigger=dataclasses.replace(s.trigger, eta=eta))
        if steps is not None:
            s = with_engine(s, horizon=steps * s.engine.dt)
        p, dt = s.trigger, s.engine.dt
        scale = Batch.of(s, [Member(LawKind.STATIC, 0)]).scale
        assert scale.shape == (steps or s.engine.steps, s.n)
        want = [[oracles.decay_at(p, i, k * dt) / p.c[i] for i in range(s.n)]
                for k in range(len(scale))]
        assert scale.tobytes() == np.array(want).tobytes()

    def test_thresholds_follow_per_player_streams(self, quadratic_scenario):
        s = quadratic_scenario
        members = [Member(LawKind.STATIC, 9), Member(LawKind.STOCHASTIC, 9)]
        batch = Batch.of(s, members)
        # one generator per member: player i at step k reads element k*n + i
        u = np.random.default_rng(9).random((s.engine.steps, s.n))
        assert np.array_equal(batch.xi[:, 1], xi_from_uniform(s.trigger, u))
        assert np.isnan(batch.xi[:, 0]).all()

    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
    def test_edge_seeds_draw_alone(self, quadratic_scenario, order):
        seeds = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]
        members = [Member(law, seed) for seed in seeds for law in LawKind]
        assert_draws_alone(quadratic_scenario, members[::order])

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.builds(Member, st.sampled_from(list(LawKind)), st.integers(0, 2 ** 64 - 1)),
            min_size=1, max_size=6,
        ),
    )
    def test_draws_depend_on_the_member_alone(self, quadratic_scenario, members):
        assert_draws_alone(quadratic_scenario, members)

    def test_stochastic_broadcast_count_keeps_its_distribution(self, spectrum_scenario):
        # a check on the law, not on the bits of its draws: over 200 seeds the
        # mean total broadcast count on spectrum_paper stays within 3 standard
        # errors of 213.935, its mean under one generator per player, whose
        # per-run standard deviation was 2.03
        s = spectrum_scenario
        s = dataclasses.replace(s, ne_override=solve_ne(s.game).x_star)
        runs = run(s, [Member(LawKind.STOCHASTIC, seed) for seed in range(200)])
        counts = [r.trig.sum() for r in runs]
        assert abs(np.mean(counts) - 213.935) <= 3 * 2.03 / math.sqrt(len(counts))

    @pytest.mark.parametrize("law", [LawKind.CONTINUOUS, LawKind.STATIC, LawKind.DYNAMIC])
    def test_deterministic_ensemble_integrates_one_seed(
        self, quadratic_scenario, monkeypatch, law
    ):
        calls = spy_on_run(monkeypatch)
        ens = compare_laws(dataclasses.replace(quadratic_scenario, runs=7, seed=3), [law])[law]
        assert calls == [[(law, 3)]]
        assert ens.runs == 7
        compare_laws(dataclasses.replace(quadratic_scenario, runs=4, seed=3), [LawKind.STOCHASTIC])
        assert calls[-1] == stochastic(3, 4, 5, 6)

    def test_compare_integrates_every_law_in_one_call(self, spectrum_scenario, monkeypatch):
        calls = spy_on_run(monkeypatch)
        laws = [LawKind.STATIC, LawKind.DYNAMIC, LawKind.STOCHASTIC]
        compare_laws(dataclasses.replace(spectrum_scenario, runs=2, seed=5), laws)
        assert calls == [[(LawKind.STATIC, 5), (LawKind.DYNAMIC, 5), *stochastic(5, 6)]]

    def test_stochastic_ensemble_integrates_in_chunks(self, drawn_scenario, monkeypatch):
        s, law = dataclasses.replace(drawn_scenario, runs=7, seed=3), LawKind.STOCHASTIC
        whole = compare_laws(s, [law])[law]
        results = []
        calls = spy_on_run(monkeypatch, results)
        monkeypatch.setattr(harness, "ENSEMBLE_ENTRIES", 3 * s.n ** 2)
        chunked = compare_laws(s, [law])[law]
        assert calls == [stochastic(3, 4, 5), stochastic(6, 7, 8), stochastic(9)]
        assert len(results) == 7
        monkeypatch.undo()
        for got, alone in zip(results, distinct_runs(s, range(3, 10))):
            assert_same_columns(got, alone)
        assert_same_ensemble(chunked, whole)

    def test_chunk_is_released_before_the_next_integrates(self, quadratic_scenario, monkeypatch):
        # a batch array that outlives its chunk makes peak memory grow with R
        batches, alive = [], []

        def spy(*args, **kwargs):
            gc.collect()
            alive.append([ref() is not None for ref in batches])
            out = run(*args, **kwargs)
            batches.extend(weakref.ref(a) for a in (out[0].actions.base, out[0].err_inf.base))
            return out

        # room for two members and not three
        monkeypatch.setattr(harness, "ENSEMBLE_ENTRIES", 3 * quadratic_scenario.n ** 2 - 1)
        monkeypatch.setattr(harness, "run", spy)
        s = dataclasses.replace(quadratic_scenario, runs=5, seed=0)
        ens = compare_laws(s, [LawKind.STOCHASTIC])
        assert ens[LawKind.STOCHASTIC].runs == 5
        assert alive == [[], [False] * 2, [False] * 4]

    def test_chunks_fill_the_entry_budget(self, spectrum_scenario, monkeypatch):
        # 256 members of n = 5 fill ENSEMBLE_ENTRIES; from n = 57 one member does
        calls = spy_on_run(monkeypatch)
        short = dataclasses.replace(with_engine(spectrum_scenario, horizon=0.05), runs=300, seed=0)
        compare_laws(short, [LawKind.STOCHASTIC])
        assert [len(call) for call in calls] == [256, 44]
        rng, game, graph, trig = coupling_case(0, 57, unit=True)
        wide = Scenario(
            graph, game, trig, EngineConfig(alpha=0.1, beta=0.5, horizon=0.05),
            x0=np.zeros(57), y0=np.zeros((57, 57)), law=LawKind.STOCHASTIC, runs=3,
            ne_override=np.zeros(57),
        )
        compare_laws(wide, [LawKind.STOCHASTIC])
        assert [len(call) for call in calls[2:]] == [1, 1, 1]

    def test_mixed_law_compare_integrates_in_chunks(self, drawn_scenario, monkeypatch):
        # 1 + 1 + 1 deterministic members and 4 stochastic ones: chunks 3, 3, 1
        s, laws = dataclasses.replace(drawn_scenario, runs=4, seed=3), list(LawKind)
        distinct_runs(s, range(3, 7))
        whole = compare_laws(s, laws)
        calls = spy_on_run(monkeypatch)
        monkeypatch.setattr(harness, "ENSEMBLE_ENTRIES", 3 * s.n ** 2)
        chunked = compare_laws(s, laws)
        assert [len(call) for call in calls] == [3, 3, 1]
        monkeypatch.undo()
        for law in laws:
            alone = compare_laws(s, [law])[law]
            for ens in (chunked[law], alone):
                assert ens.runs == whole[law].runs == 4
                assert_same_ensemble(ens, whole[law])


def copied(state):
    """A copy of the state that owns all of its arrays."""
    return dataclasses.replace(state, **{
        f.name: getattr(state, f.name).copy()
        for f in dataclasses.fields(state) if isinstance(getattr(state, f.name), np.ndarray)
    })


def assert_state(new, fired, rho, expected, exact=True):
    """The step's outputs against ``oracles.closed_form_step``: every field
    bit for bit, or, with ``exact`` off, the fields the coupling feeds
    within 1e-14 of their scale (the sparse and dense products of non-unit
    weights round differently)."""
    fields, want_fired, want_rho = expected
    assert np.array_equal(fired, want_fired) and np.array_equal(rho, want_rho)
    for name, want in fields.items():
        got = getattr(new, name)
        if want is None:
            assert got is None
            continue
        assert got.shape == want.shape and got.dtype == want.dtype, name
        if exact or name in ("x", "age", "y_hat"):
            assert np.array_equal(got, want), name
        else:
            assert np.abs(got - want).max() <= 1e-14 * max(np.abs(want).max(), 1.0), name


def force_coupling(mp, sparse):
    """Route the estimate coupling through one path, whatever the graph."""
    mp.setattr(engine, "SPARSE_MIN_N", 0 if sparse else math.inf)
    mp.setattr(engine, "SPARSE_MAX_DENSITY", 1.0)


def coupling_case(seed, n, unit, hub=False):
    """A quadratic game and trigger parameters on the digraph of
    ``random_strongly_connected``, with player 0's in-links removed. With
    ``unit``, every row keeps at most two links, of weight 1: each coupling
    entry then sums at most two exact products, in any order the same bits.
    With ``hub``, player 1 then also hears every player it did not, at
    weight 0.01: a row as wide as n - 1, which ``unit`` does not cover."""
    rng = np.random.default_rng(seed)
    w = random_strongly_connected(rng, n).weights.copy()
    if unit:
        for row in w:
            links = np.flatnonzero(row)
            row[:] = 0.0
            row[rng.choice(links, size=min(2, links.size), replace=False)] = 1.0
    w[0] = 0.0
    if hub:
        w = with_hub(DirectedGraph(w), 1).weights
    cross = rng.uniform(-0.5, 0.5, (n, n))
    np.fill_diagonal(cross, 0.0)
    game = QuadraticGame(
        diag_a=rng.uniform(1.0, 3.0, n),
        cross=cross,
        offset=rng.uniform(-2.0, 2.0, n),
        intervals=[[-3.0, 3.0]] * n,
    )
    trig = TriggerParams(
        kappa=1.075, a_floor=0.05, eta=1.0, c=rng.uniform(0.5, 2.0, n),
        sigma=rng.uniform(0.01, 0.3, n), delta0=rng.uniform(0.05, 1.0, n),
    )
    return rng, game, DirectedGraph(w), trig


class TestSparseCoupling:
    CONFIG = EngineConfig(alpha=0.1, beta=0.5, dt=0.025, horizon=0.25)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2 ** 32 - 1), st.integers(2, 40), st.booleans(), st.sampled_from([1, 4]),
    )
    def test_sparse_step_equals_dense_step(self, seed, n, unit, runs):
        # a drawn state of each form, stepped by the engine and by the plain
        # dense reference: the sparse form with anchored rows of drawn ages,
        # through the CSR product, and the dense form with every row at its
        # anchor, through the dense one
        rng, game, graph, trig = coupling_case(seed, n, unit)
        s = Scenario(
            graph, game, trig, self.CONFIG, x0=np.zeros(n), y0=np.zeros((n, n)),
            law=LawKind.STOCHASTIC,
        )
        x = rng.uniform(-3.0, 3.0, (runs, n))
        anchor, y_hat = rng.uniform(-3.0, 3.0, (2, runs, n, n))
        # the own entries of the estimates are the actions
        anchor[:, np.arange(n), np.arange(n)] = x
        age = rng.integers(0, 6, (runs, n)).astype(float)
        laws = list(LawKind)
        batch = Batch.of(s, [Member(laws[r % 4], seed + r) for r in range(runs)])
        disagreement_sq, increment = oracles.dense_coupling(graph, y_hat, self.CONFIG)
        for sparse in (False, True):
            terms = None
            if sparse:
                # the sparse form keeps the own entries of the increment zero
                increment = increment.copy()
                increment[:, np.arange(n), np.arange(n)] = 0.0
                terms = oracles.row_terms(game, y_hat, anchor, increment)
            state = EngineState(
                3, x, anchor, age if sparse else np.zeros_like(age), y_hat, disagreement_sq,
                increment, terms,
            )
            expected = oracles.closed_form_step(
                state, batch, oracles.dense_coupling, engine.REANCHOR_SHARE
            )
            with pytest.MonkeyPatch.context() as mp:
                force_coupling(mp, sparse)
                assert engine.sparse_coupling(graph) is sparse
                # step owns its input's arrays: it steps a copy
                new, fired, rho = step(copied(state), batch)
            assert new.step_index == 4
            # the decision precedes the coupling, so only the fields it feeds
            # may differ, and only in the summation of non-unit weights
            assert_state(new, fired, rho, expected, exact=unit or not sparse)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2 ** 32 - 1), st.integers(2, 30), st.booleans(), st.sampled_from([1, 4]),
        st.lists(st.sampled_from(["none", "all", "some"]), min_size=1, max_size=4),
    )
    def test_event_driven_step_equals_full_recompute(
        self, sparse, seed, n, unit, runs, patterns
    ):
        # the first step from init, then further steps, each with a drawn fire
        # pattern in place of the laws' decisions; runs 4: one member of each
        # law. Each step equals the plain dense reference from the state
        # before it, whose coupling is formed whole: a quiet step keeps the
        # carried terms, and one that fires forms the touched rows again
        rng, game, graph, trig = coupling_case(seed, n, unit)
        s = Scenario(
            graph, game, trig, self.CONFIG, x0=rng.uniform(-3.0, 3.0, n),
            y0=rng.uniform(-3.0, 3.0, (n, n)), law=LawKind.STOCHASTIC, ne_override=np.zeros(n),
        )
        masks = {
            "none": lambda shape: np.zeros(shape, dtype=bool),
            "all": lambda shape: np.ones(shape, dtype=bool),
            "some": lambda shape: rng.random(shape) < rng.uniform(0.02, 0.5),
        }
        with pytest.MonkeyPatch.context() as mp:
            force_coupling(mp, sparse)
            batch = Batch.of(s, [Member(law, seed) for law in list(LawKind)[:runs]])
            state = init(batch)
            assert (state.row_terms is None) is not sparse
            for pattern in patterns:
                mask = masks[pattern]((runs, n))
                mp.setattr(engine, "decide", lambda *args: mask.copy())
                prev = copied(state)
                state, fired, rho = step(state, batch)
                expected = oracles.closed_form_step(
                    prev, batch, engine.broadcast_terms, engine.REANCHOR_SHARE, mask
                )
                assert_state(state, fired, rho, expected)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2 ** 32 - 1), st.integers(2, 40), st.booleans(), st.sampled_from([1, 4]),
        st.booleans(),
    )
    def test_rows_equal_the_rows_of_the_full_form(self, sparse, seed, n, unit, runs, hub):
        # a row comes out the same whichever rows are asked for, in any order,
        # a wide row among them; the full form written into given arrays is
        # the full form
        rng, _, graph, _ = coupling_case(seed, n, unit, hub)
        y_hat = rng.uniform(-3.0, 3.0, (runs, n, n))
        rows = rng.permutation(n)[: rng.integers(1, n + 1)]
        out = np.full((runs, n), np.nan), np.full((runs, n, n), np.nan)
        with pytest.MonkeyPatch.context() as mp:
            force_coupling(mp, sparse)
            assert engine.sparse_coupling(graph) is sparse
            full = engine.broadcast_terms(graph, y_hat, self.CONFIG)
            part = engine.broadcast_terms(graph, y_hat, self.CONFIG, rows)
            into = engine.broadcast_terms(graph, y_hat, self.CONFIG, out=out)
        for whole, got, given, written in zip(full, part, out, into):
            assert got.shape == whole[:, rows].shape
            assert np.array_equal(got, whole[:, rows])
            assert written is given and np.array_equal(written, whole)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 30), st.booleans())
    def test_sparse_batch_members_equal_their_runs_alone(self, seed, n, unit):
        rng, game, graph, trig = coupling_case(seed, n, unit)
        s = Scenario(
            graph, game, trig, self.CONFIG, x0=rng.uniform(-3.0, 3.0, n),
            y0=rng.uniform(-3.0, 3.0, (n, n)), law=LawKind.STOCHASTIC, ne_override=np.zeros(n),
        )
        members = [Member(law, seed) for law in LawKind]
        with pytest.MonkeyPatch.context() as mp:
            force_coupling(mp, sparse=True)
            batch = run(s, members=members)
            for member, got in zip(members, batch):
                (alone,) = run(s, members=[member])
                assert_same_columns(got, alone)

    def test_no_step_slices_the_csr(self, monkeypatch):
        # a generated 200-player ring-plus-chord spectrum game takes the
        # sparse path, and its firing steps take their rows from the whole
        # CSR product: no step slices the CSR to the rows it asks for
        n, rng = 200, np.random.default_rng(200)
        graph = ring_with_chords(rng, n)
        game = SpectrumGame(
            m_c=rng.uniform(5.7, 15.0, n), q=rng.uniform(1.1, 1.5, n), r=np.full(n, 20.0),
            s_db=rng.uniform(12.0, 18.0, n), ber_target=np.full(n, 1e-4),
            intervals=[[0.0, 16.0]] * n, tau=1.0,
        )
        trigger = TriggerParams(
            kappa=1.075, a_floor=0.05, eta=10.0, c=np.ones(n),
            sigma=0.8 / graph.in_degrees, delta0=np.full(n, 100.0),
        )
        s = Scenario(
            graph, game, trigger, EngineConfig(alpha=0.14, beta=1.5, dt=0.025, horizon=1.0),
            x0=rng.uniform(0.0, 16.0, n), y0=rng.uniform(0.0, 16.0, (n, n)),
            law=LawKind.STOCHASTIC,
        )
        assert engine.sparse_coupling(graph)

        def refuse(*args):
            raise AssertionError("a step sliced the CSR")

        monkeypatch.setattr(type(graph.csr), "__getitem__", refuse)
        terms, asked = engine.broadcast_terms, []

        def spy(graph, y_hat, config, rows=None, out=None):
            asked.append(rows is not None)
            return terms(graph, y_hat, config, rows, out)

        monkeypatch.setattr(engine, "broadcast_terms", spy)
        for law in (LawKind.STATIC, LawKind.DYNAMIC, LawKind.STOCHASTIC):
            asked.clear()
            result = single_run(dataclasses.replace(s, law=law), seed=1)
            assert np.isfinite(result.actions).all()
            assert any(asked), law

    def test_bundled_scenarios_resolve_dense(self, spectrum_scenario, quadratic_scenario):
        assert not engine.sparse_coupling(spectrum_scenario.graph)
        assert not engine.sparse_coupling(quadratic_scenario.graph)

    def test_dense_path_never_imports_scipy_sparse(self):
        # the imports cost set-up time that only a graph on the sparse path
        # (scipy.sparse) or the certificate (scipy.linalg) needs
        code = "\n".join([
            "import dataclasses, sys, warnings",
            "warnings.simplefilter('ignore')",
            "import neseek",
            "from neseek.data import bundled_path",
            "for name in ('spectrum_paper', 'quadratic_demo'):",
            "    s = neseek.load_scenario(bundled_path(name))",
            "    neseek.single_run(s, seed=0)",
            "    s = dataclasses.replace(s, runs=2, seed=0)",
            "    neseek.compare_laws(s, list(neseek.LawKind))",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ])
        src = str(Path(neseek.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["[]"]

    def test_generated_n200_graph_resolves_sparse(self):
        # a directed ring plus one chord into every player, unit weights
        n, rng = 200, np.random.default_rng(5)
        w = np.zeros((n, n))
        for i in range(n):
            w[i, i - 1] = 1.0
            w[i, (i + 1 + rng.integers(n - 2)) % n] = 1.0
        assert engine.sparse_coupling(DirectedGraph(w))
        assert not engine.sparse_coupling(DirectedGraph(np.ones((n, n)) - np.eye(n)))


def generated_case(seed, n, spectrum):
    """A directed ring with one unit chord into every player, and a
    spectrum or quadratic game on it, with the trigger parameters and step
    sizes of the generated benchmark scenarios, 40 steps long."""
    rng = np.random.default_rng([seed, n])
    w = np.zeros((n, n))
    for i in range(n):
        w[i, i - 1] = 1.0
        w[i, (i + 1 + rng.integers(n - 2)) % n] = 1.0
    graph = DirectedGraph(w)
    if spectrum:
        game = SpectrumGame(
            m_c=rng.uniform(5.7, 15.0, n), q=rng.uniform(1.1, 1.5, n), r=np.full(n, 20.0),
            s_db=rng.uniform(12.0, 18.0, n), ber_target=np.full(n, 1e-4),
            intervals=[[0.0, 16.0]] * n,
        )
        box = (0.0, 16.0)
    else:
        cross = rng.uniform(-0.05, 0.05, (n, n))
        np.fill_diagonal(cross, 0.0)
        game = QuadraticGame(
            diag_a=rng.uniform(1.0, 3.0, n), cross=cross, offset=rng.uniform(-2.0, 2.0, n),
            intervals=[[-3.0, 3.0]] * n,
        )
        box = (-3.0, 3.0)
    trig = TriggerParams(
        kappa=1.075, a_floor=0.05, eta=10.0, c=np.ones(n), sigma=0.8 / graph.in_degrees,
        delta0=np.full(n, 100.0),
    )
    return Scenario(
        graph, game, trig, EngineConfig(alpha=0.14, beta=1.5, dt=0.025, horizon=1.0),
        x0=rng.uniform(*box, n), y0=rng.uniform(*box, (n, n)), law=LawKind.STOCHASTIC,
        ne_override=np.zeros(n),
    )


class TestClosedFormRows:
    @pytest.mark.parametrize("spectrum", [True, False], ids=["spectrum", "quadratic"])
    @pytest.mark.parametrize("n", [128, 200])
    def test_closed_form_run_follows_the_iterated_one(self, n, spectrum):
        # between events a row is anchor + age * increment, the iterated
        # step's own sum up to rounding: every decision is the same, and the
        # actions agree to 1e-12 of their scale
        s = generated_case(7, n, spectrum)
        assert engine.sparse_coupling(s.graph)
        for law in LawKind:
            member = Member(law, 11)
            (got,) = run(s, [member])
            actions, trig = oracles.iterated_run(s, member)
            assert np.array_equal(got.trig[1:], trig), law
            scale = np.abs(actions).max()
            assert np.abs(got.actions - actions).max() <= 1e-12 * scale, law

    def test_quiet_step_allocates_less_than_one_matrix(self, monkeypatch):
        # a quiet step on the sparse path reads the row terms, so it forms
        # no (n, n) array; a whole-matrix pass brought back would
        n = 200
        s = generated_case(3, n, spectrum=True)
        batch = Batch.of(s, [Member(LawKind.STOCHASTIC, 0)])
        state = init(batch)
        monkeypatch.setattr(engine, "decide", lambda rho, *rest: np.zeros(rho.shape, bool))
        state, _, _ = step(state, batch)
        tracemalloc.start()
        try:
            state, fired, _ = step(state, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not fired.any() and state.age.min() == 2.0
        assert peak < n * n * np.dtype(float).itemsize

    def test_burst_holds_one_matrix_at_a_time(self, monkeypatch):
        # a step where every player fires, after a quiet one: it anchors
        # every row in place and forms the coupling whole into the state's
        # own arrays, so no more than one (n, n) array is alive at a time
        # (the CSR product, the aged increments, or the gaps of the row
        # terms); forming the terms anew took more than two
        n = 200
        s = generated_case(3, n, spectrum=True)
        batch = Batch.of(s, [Member(LawKind.STOCHASTIC, 0)])
        state = init(batch)
        monkeypatch.setattr(engine, "decide", lambda rho, *rest: np.zeros(rho.shape, bool))
        state, _, _ = step(state, batch)
        monkeypatch.setattr(engine, "decide", lambda rho, *rest: np.ones(rho.shape, bool))
        tracemalloc.start()
        try:
            state, fired, _ = step(state, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fired.all() and not state.age.any()
        assert peak < 1.5 * n * n * np.dtype(float).itemsize

    def test_quiet_steps_past_the_largest_bounds_equal_their_steps(self):
        # row 0's anchor and row 3's increment: the largest anchor norm plus
        # the largest age times the largest increment norm leaves the guard
        # from the tenth quiet step on, while no row's own bound does. Those
        # steps read the rows' bounds, raise nothing, and a run over them is
        # its steps, bit for bit
        n, steps = 8, 20
        rng, game, graph, trig = coupling_case(5, n, unit=True)
        config = dataclasses.replace(TestSparseCoupling.CONFIG, horizon=steps * 0.025)
        s = Scenario(
            graph, game, trig, config, x0=np.zeros(n), y0=np.zeros((n, n)),
            law=LawKind.STOCHASTIC, ne_override=np.zeros(n),
        )
        x = rng.uniform(-3.0, 3.0, (1, n))
        anchor, y_hat = rng.uniform(-3.0, 3.0, (2, 1, n, n))
        increment = rng.uniform(-1.0, 1.0, (1, n, n))
        anchor[0, 0, 1], increment[0, 3, 4] = 9e8, 1e7
        anchor[:, np.arange(n), np.arange(n)] = x
        increment[:, np.arange(n), np.arange(n)] = 0.0
        start = EngineState(
            0, x, anchor, np.zeros((1, n)), y_hat, rng.uniform(0.0, 1.0, (1, n)), increment,
            oracles.row_terms(game, y_hat, anchor, increment),
        )
        guarded, guard = [], engine._guard_rows

        def spy(state, *rest):
            guarded.append(state.step_index)
            return guard(state, *rest)

        with pytest.MonkeyPatch.context() as mp:
            force_coupling(mp, sparse=True)
            mp.setattr(engine, "decide", lambda rho, *rest: np.zeros(rho.shape, bool))
            mp.setattr(engine, "_guard_rows", spy)
            batch = Batch.of(s, [Member(LawKind.STOCHASTIC, 0)])
            shape = (steps, 1, n)
            x_rows, fired_rows, rho_rows = np.empty(shape), np.empty(shape, bool), np.empty(shape)
            whole = engine._integrate(copied(start), batch, x_rows, fired_rows, rho_rows)
            state = copied(start)
            for j in range(steps):
                state, fired, rho = step(state, batch)
                assert np.array_equal(state.x, x_rows[j]) and np.array_equal(rho, rho_rows[j])
                assert not fired.any() and not fired_rows[j].any()
        assert guarded == 2 * list(range(9, steps))
        terms, age = whole.row_terms, whole.age
        assert terms[5].max() + age.max() * terms[6].max() > engine.DIVERGENCE_GUARD
        assert (terms[5] + age * terms[6]).max() < 0.95 * engine.DIVERGENCE_GUARD
        for f in dataclasses.fields(EngineState):
            got, want = getattr(whole, f.name), getattr(state, f.name)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    def test_guard_forms_the_rows_its_bound_does_not_clear(self):
        # rows of large entries: their norm bound exceeds the guard, so the
        # step forms them, and finds every entry below it
        n = 128
        s = dataclasses.replace(generated_case(3, n, spectrum=False), y0=np.full((n, n), 5e8))
        batch = Batch.of(s, [Member(LawKind.STOCHASTIC, 0)])
        state, _, _ = step(init(batch), batch)
        bound = state.row_terms[5] + state.age * state.row_terms[6]
        assert bound.max() > engine.DIVERGENCE_GUARD
        assert np.abs(state.y).max() <= engine.DIVERGENCE_GUARD

    def test_divergence_guard_on_the_sparse_path(self):
        # the row bound trips, the rows it does not clear are formed, and a
        # run with unstable step sizes stops at its first step
        s = generated_case(3, 128, spectrum=False)
        s = with_engine(s, beta=1e12)
        batch = Batch.of(s, [Member(LawKind.STATIC, 0)])
        state = init(batch)
        with pytest.raises(NumericalDivergence, match="at t=0.025; member 0 .static, seed 0."):
            for _ in range(s.engine.steps):
                state, _, _ = step(state, batch)


def tau_two(spectrum_scenario):
    """The bundled spectrum scenario under quadratic pricing, tau = 2, on a
    5 s horizon, with its equilibrium set."""
    s = with_engine(spectrum_scenario, horizon=5.0)
    game = dataclasses.replace(s.game, tau=2.0)
    return dataclasses.replace(s, game=game, ne_override=solve_ne(game).x_star)


class TestOneLoop:
    """``run`` and ``step`` execute the one integration loop: a run over the
    horizon is its steps, bit for bit, on both paths."""

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("name", ["quadratic_demo", "spectrum_paper", "tau_two"])
    def test_run_equals_its_steps(self, request, name, sparse):
        if name == "tau_two":
            s = tau_two(request.getfixturevalue("spectrum_scenario"))
        else:
            s = with_engine(load_bundled(name), horizon=5.0)
            s = dataclasses.replace(s, ne_override=solve_ne(s.game).x_star)
        members = [Member(law, 7) for law in LawKind]
        with pytest.MonkeyPatch.context() as mp:
            force_coupling(mp, sparse)
            batch = Batch.of(s, members)
            results = run(s, members)
            shape = (s.engine.steps, len(members), s.n)
            whole = engine._integrate(
                init(batch), batch, np.empty(shape), np.empty(shape, dtype=bool), np.empty(shape)
            )
            state, actions, trig, rho = init(batch), [init(batch).x], [], []
            for _ in range(s.engine.steps):
                state, fired, r = step(state, batch)
                actions.append(state.x)
                trig.append(fired)
                rho.append(r)
        assert (state.row_terms is None) is not sparse
        for r, result in enumerate(results):
            assert np.array_equal(result.actions, np.array(actions)[:, r])
            assert np.array_equal(result.trig[1:], np.array(trig)[:, r])
            assert np.array_equal(result.rho, np.array(rho)[:, r])
        assert whole.step_index == state.step_index == s.engine.steps
        for f in dataclasses.fields(EngineState)[1:]:
            got, want = getattr(whole, f.name), getattr(state, f.name)
            if want is None:
                assert got is None, f.name
            else:
                assert got.dtype == want.dtype and np.array_equal(got, want), f.name
                assert np.array_equal(np.signbit(got), np.signbit(want)), f.name

    @pytest.mark.parametrize("beta", [1e12, 150.0])
    def test_dense_guard_trips_where_the_reference_leaves_the_bound(self, beta):
        # the plain dense reference, stepped until its state leaves the
        # guard: the run stops at that step, and at no other
        s = two_player_setup(beta=beta, horizon=2.0)
        batch = one_member(s.law, s, 0)
        state, first = init(batch), None
        for k in range(s.engine.steps):
            fields, _, _ = oracles.closed_form_step(
                state, batch, oracles.dense_coupling, engine.REANCHOR_SHARE
            )
            state = EngineState(k + 1, **fields)
            if not np.abs(state.anchor).max() <= engine.DIVERGENCE_GUARD:
                first = k + 1
                break
        assert first is not None and (beta < 1e12) is (first > 1)
        with pytest.raises(NumericalDivergence, match=f"at t={first * s.engine.dt:.6g};"):
            run(s, [Member(s.law, 0)])

    @pytest.mark.parametrize("entry", ["action", "estimate"])
    def test_dense_guard_stops_a_state_turned_non_finite(self, quadratic_scenario, entry):
        # a NaN in the actions or off the diagonal of the estimates fails the
        # guard's comparison at the next step, which does not hand it on
        s = quadratic_scenario
        batch = one_member(s.law, s, 0)
        state, _, _ = step(init(batch), batch)
        if entry == "action":
            state.x[0, 1] = math.nan
        else:
            state.anchor[0, 0, 1] = math.nan
        with pytest.raises(NumericalDivergence, match=f"at t={2 * s.engine.dt:.6g};"):
            step(state, batch)


class TestEngineConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(alpha=0.0, beta=1.0, horizon=1.0)
        with pytest.raises(ValueError):
            EngineConfig(alpha=0.1, beta=-1.0, horizon=1.0)
        with pytest.raises(ValueError):
            EngineConfig(alpha=0.1, beta=1.0, horizon=1.0, dt=2.0)
        with pytest.raises(ValueError):
            EngineConfig(alpha=0.1, beta=1.0, horizon=math.nan)
        # a grid whose step count overflows a float is refused, not left to
        # fail in int(math.ceil(inf))
        with pytest.raises(ValidationError, match="horizon / dt is not finite"):
            EngineConfig(alpha=0.1, beta=1.0, horizon=20.0, dt=5e-324)

    def test_step_count_avoids_float_drift(self):
        cfg = EngineConfig(alpha=0.1, beta=1.0, horizon=20.0, dt=0.025)
        assert cfg.steps == 800
        one = EngineConfig(alpha=0.1, beta=1.0, horizon=0.025, dt=0.025)
        assert one.steps == 1
