import dataclasses
import gc
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neseek import (
    ActionInterval,
    Batch,
    EngineConfig,
    Ensemble,
    LawKind,
    Member,
    QuadraticGame,
    DirectedGraph,
    Scenario,
    TriggerParams,
    compare_laws,
    decide,
    init,
    run,
    sigma_bound,
    single_run,
    solve_ne,
    step,
)
import neseek
from neseek import engine, harness
from neseek.engine import EngineState
from neseek.errors import NumericalDivergence, ValidationError
from neseek.triggers import threshold_term, xi_from_uniform

from conftest import random_strongly_connected, strongly_connected_graphs, with_engine
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
        intervals=(ActionInterval(0.0, 5.0), ActionInterval(-2.0, 4.0)),
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


def make_rngs(seed, n):
    return [
        np.random.Generator(np.random.PCG64(ss))
        for ss in np.random.SeedSequence(seed).spawn(n)
    ]


def draw(rngs):
    """One uniform per player, as one step of a run consumes them."""
    return np.array([g.random() for g in rngs])


def one_member(law, scenario, seed):
    """``step``'s inputs for one run of the scenario on an unbatched state: a
    one-member ``Batch`` with its member axis dropped."""
    b = Batch.of(scenario, [Member(law, seed)])
    return dataclasses.replace(
        b, sigma=b.sigma[0], xi=b.xi[:, 0], threshold=b.threshold[:, 0],
        static=b.static[0], continuous=b.continuous[0],
    )


class TestInit:
    def test_shipped_initial_state(self, spectrum_scenario):
        s = spectrum_scenario
        state = init(dataclasses.replace(s, x0=PUBLISHED_X0, y0=PUBLISHED_Y0))
        assert state.step_index == 0
        assert np.array_equal(state.x, PUBLISHED_X0)
        assert state.y[0, 0] == 14.0  # diagonal overwritten by the action
        assert np.array_equal(np.diagonal(state.y), PUBLISHED_X0)
        assert np.array_equal(state.x_hat, state.x)
        assert np.array_equal(state.y_hat, state.y)

    def test_equilibrium_start_has_zero_gradient_residual(self, spectrum_scenario):
        s = spectrum_scenario
        x_star = solve_ne(s.game).x_star
        y0 = np.tile(x_star, (5, 1))
        state = init(dataclasses.replace(s, x0=x_star, y0=y0))
        from neseek import verify_ne

        assert verify_ne(s.game, state.x, s.engine.alpha) <= 1e-12


class TestStep:
    def test_single_step_matches_hand_computation(self):
        s = two_player_setup(horizon=0.025)
        new, fired, _ = step(init(s), one_member(s.law, s, 0))

        # scalar forward-Euler computation, written out term by term
        g0 = (2.0 * 1.0 + (0.0 * 1.0 + 1.0 * 0.5)) + -4.0
        g1 = (3.0 * 2.0 + (-1.0 * 1.5 + 0.0 * 2.0)) + 1.0
        x0_new = 1.0 + 0.025 * (min(max(1.0 - 0.1 * g0, 0.0), 5.0) - 1.0)
        x1_new = 2.0 + 0.025 * (min(max(2.0 - 0.1 * g1, -2.0), 4.0) - 2.0)
        ydot00 = -0.2 * ((1.0 - 1.5) + 0.0)
        ydot01 = -0.2 * ((0.5 - 2.0) + (0.5 - 2.0))
        ydot10 = -0.2 * ((1.5 - 1.0) + (1.5 - 1.0))

        assert new.x[0] == pytest.approx(x0_new, abs=1e-12)
        assert new.x[1] == pytest.approx(x1_new, abs=1e-12)
        assert new.y[0, 1] == pytest.approx(0.5 + 0.025 * ydot01, abs=1e-12)
        assert new.y[1, 0] == pytest.approx(1.5 + 0.025 * ydot10, abs=1e-12)
        # diagonal pinned to the new actions, not the raw Euler value
        assert new.y[0, 0] == new.x[0]
        assert new.y[1, 1] == new.x[1]
        assert 1.0 + 0.025 * ydot00 != new.x[0]  # the pin is not a no-op
        assert new.step_index == 1
        assert fired.tolist() == [True, True]  # continuous law fires everyone

    def test_continuous_law_reduces_to_exact_estimate_dynamics(self):
        s = two_player_setup(horizon=1.0)
        cfg = s.engine
        state = init(s)
        batch = one_member(LawKind.CONTINUOUS, s, 0)

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
        assert np.allclose(state.x, x, atol=1e-12)
        assert np.allclose(state.y, y, atol=1e-12)

    def test_diagonal_identity_and_decay_every_step(self, quadratic_scenario, monkeypatch):
        s = quadratic_scenario
        p, thresholds = s.trigger, []

        def spy(rho, energy, threshold, *rest):
            thresholds.append(threshold)
            return decide(rho, energy, threshold, *rest)

        monkeypatch.setattr(engine, "decide", spy)
        state = init(s)
        batch = one_member(s.law, s, s.seed)
        for k in range(50):
            state, _, _ = step(state, batch)
            assert np.array_equal(np.diagonal(state.y), state.x)
            decay = p.delta0 * np.exp(-p.eta * k * s.engine.dt)
            expected = (decay / p.c) * threshold_term(p, batch.xi[k])
            assert np.allclose(thresholds[k], expected, rtol=1e-12)

    def test_broadcast_constant_between_triggers(self, quadratic_scenario):
        s = quadratic_scenario
        state = init(s)
        batch = one_member(s.law, s, 3)
        for _ in range(120):
            prev_xhat = state.x_hat.copy()
            prev_yhat = state.y_hat.copy()
            prev_x = state.x.copy()
            prev_y = state.y.copy()
            state, fired, _ = step(state, batch)
            for i in range(s.n):
                if fired[i]:
                    assert state.x_hat[i] == prev_x[i]
                    assert np.array_equal(state.y_hat[i], prev_y[i])
                else:
                    assert state.x_hat[i] == prev_xhat[i]
                    assert np.array_equal(state.y_hat[i], prev_yhat[i])

    def test_step_owns_the_broadcast_buffers(self, quadratic_scenario):
        # the fired rows are written into the input's buffers, which the new
        # state carries on; an unbatched state under a batch with a member
        # axis takes the axis on, as run stacks it
        s = quadratic_scenario
        batch = Batch.of(s, [Member(LawKind.CONTINUOUS, 0)])
        stacked = engine.with_members(init(s), 1)
        buffers = (stacked.x_hat, stacked.y_hat)
        new, fired, _ = step(stacked, batch)
        assert fired.all()
        assert new.x_hat is buffers[0] and new.y_hat is buffers[1]
        promoted, _, _ = step(init(s), batch)
        for name in ("x", "y", "x_hat", "y_hat", "disagreement_sq", "increment"):
            assert np.array_equal(getattr(promoted, name), getattr(new, name)), name

    def test_divergence_guard(self):
        s = two_player_setup(beta=1e12, horizon=0.1)
        state = init(s)
        batch = one_member(s.law, s, 0)
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
        cont = single_run(quadratic_scenario, seed=1, law=LawKind.CONTINUOUS)
        stoc = single_run(quadratic_scenario, seed=1, law=LawKind.STOCHASTIC)
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
            result = single_run(spectrum_scenario, seed=2, law=law)
            assert result.rate_fit < 0

    def test_no_trigger_inequality_exact(self, spectrum_scenario):
        s = spectrum_scenario
        p = s.trigger
        result = single_run(s, seed=11)
        ln_kappa = math.log(p.kappa)
        checked = 0
        for k, t in enumerate(result.times[:-1]):
            decay = p.delta0 * np.exp(-p.eta * t)
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
        state = init(s)
        batch = one_member(s.law, s, s.seed)
        for _ in range(60):
            prev = dataclasses.replace(
                state,
                x=state.x.copy(),
                y=state.y.copy(),
                x_hat=state.x_hat.copy(),
                y_hat=state.y_hat.copy(),
            )
            state, _, rho = step(state, batch)
            a = s.graph.weights
            for i in range(s.n):
                e_x = prev.x_hat[i] - prev.x[i]
                e_y = prev.y_hat[i] - prev.y[i]
                disagreement = sum(
                    a[i, j] * (prev.y_hat[i] - prev.y_hat[j]) for j in range(s.n)
                )
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
        static = single_run(quadratic_scenario, seed=4, law=LawKind.STATIC)
        assert np.isnan(static.xi).all()
        assert np.isfinite(static.rho).all()

    def test_one_step_horizon_rows(self, quadratic_scenario):
        short = with_engine(quadratic_scenario, horizon=quadratic_scenario.engine.dt)
        result = single_run(short, seed=0)
        assert len(result.times) == 2
        assert result.times[0] == 0.0
        assert result.times[1] == pytest.approx(short.engine.dt)

    def test_trigger_counts_bounded_as_dt_halves(self, spectrum_scenario):
        short = with_engine(spectrum_scenario, horizon=10.0)
        coarse = compare_laws(short, [short.law], 4, base_seed=0)
        fine = compare_laws(with_engine(short, dt=0.0125), [short.law], 4, base_seed=0)
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
            single_run(s, seed=1), single_run(spectrum_scenario, seed=1, law=LawKind.STOCHASTIC)
        )
        for law in ("static", "dynamic"):
            assert_same_columns(
                single_run(spectrum_scenario, seed=1, law=law),
                single_run(spectrum_scenario, seed=1, law=LawKind(law)),
            )
        named = compare_laws(spectrum_scenario, ["dynamic"], 1, base_seed=1)
        assert list(named) == [LawKind.DYNAMIC]
        assert_same_ensemble(
            named[LawKind.DYNAMIC],
            compare_laws(spectrum_scenario, [LawKind.DYNAMIC], 1, base_seed=1)[LawKind.DYNAMIC],
        )
        with pytest.raises(ValidationError, match="sometimes"):
            single_run(spectrum_scenario, seed=1, law="sometimes")

    def test_compare_refuses_a_law_named_twice(self, quadratic_scenario):
        # it integrated every member twice and reported runs == 6 for runs=3
        laws = [LawKind.STATIC, "static", LawKind.STOCHASTIC, LawKind.STOCHASTIC]
        with pytest.raises(ValidationError, match="names a law twice"):
            compare_laws(quadratic_scenario, laws, 3, 0)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda s: single_run(s, seed=1.7), id="single_run-seed-fractional"),
            pytest.param(lambda s: single_run(s, seed=True), id="single_run-seed-bool"),
            pytest.param(lambda s: single_run(s, seed=2.0), id="single_run-seed-integral-float"),
            pytest.param(
                lambda s: compare_laws(s, ["stochastic"], 2.5, 0), id="compare-runs-fractional"
            ),
            pytest.param(
                lambda s: compare_laws(s, ["stochastic"], True, 0), id="compare-runs-bool"
            ),
            pytest.param(
                lambda s: compare_laws(s, ["stochastic"], 2, 0.5), id="compare-seed-fractional"
            ),
        ],
    )
    def test_non_integer_seeds_and_runs_are_refused(self, quadratic_scenario, call):
        # they were truncated: seed 1.7 and seed True both ran seed 1
        with pytest.raises(ValidationError, match="expected an integer"):
            call(quadratic_scenario)

    def test_numpy_integer_seeds_and_runs_pass(self, quadratic_scenario):
        s, law = quadratic_scenario, LawKind.STOCHASTIC
        assert_same_columns(single_run(s, seed=np.int64(3)), single_run(s, seed=3))
        assert compare_laws(s, [law], np.uint8(2), np.int64(3))[law].runs == 2

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
        intervals=(ActionInterval(-3.0, 3.0),) * n,
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
            ens = compare_laws(s, [s.law], len(seeds), base)[s.law]
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
        "name, dt, weights",
        [
            pytest.param("spectrum_scenario", None, None, id="spectrum"),
            pytest.param("spectrum_scenario", 0.0125, None, id="spectrum-dt-0.0125"),
            pytest.param("quadratic_scenario", None, None, id="quadratic"),
            pytest.param("quadratic_scenario", 0.0125, None, id="quadratic-dt-0.0125"),
            # both bundled scenarios have c = 1, under which the order of
            # the products and the division cannot show
            pytest.param("quadratic_scenario", None, ([0.7, 1.3], [0.3, 2.9]), id="quadratic-c"),
        ],
    )
    def test_batch_derives_sigma_and_thresholds(self, request, name, dt, weights):
        # the batch forms the cap and every step's threshold once, with the
        # bits of the per-step formula
        s = request.getfixturevalue(name)
        if dt is not None:
            s = with_engine(s, dt=dt)
        if weights is not None:
            c, delta0 = weights
            s = dataclasses.replace(s, trigger=dataclasses.replace(s.trigger, c=c, delta0=delta0))
        p, members = s.trigger, [Member(law, 5) for law in LawKind]
        batch = Batch.of(s, members)
        for r, member in enumerate(members):
            capped = member.law is LawKind.DYNAMIC
            want = np.minimum(p.sigma, sigma_bound(s.graph)) if capped else p.sigma
            assert np.array_equal(batch.sigma[r], want), member.law
        assert batch.threshold.shape == (s.engine.steps, len(members), s.n)
        for k in range(s.engine.steps):
            decay = p.delta0 * np.exp(-p.eta * (k * s.engine.dt))
            assert np.array_equal(
                batch.threshold[k], (decay / p.c) * threshold_term(p, batch.xi[k])
            ), k

    def test_thresholds_follow_per_player_streams(self, quadratic_scenario):
        s = quadratic_scenario
        members = [Member(LawKind.STATIC, 9), Member(LawKind.STOCHASTIC, 9)]
        batch = Batch.of(s, members)
        rngs = make_rngs(9, s.n)
        for k in range(30):
            assert np.array_equal(batch.xi[k, 1], xi_from_uniform(s.trigger, draw(rngs)))
        assert np.isnan(batch.xi[:, 0]).all()

    @pytest.mark.parametrize("law", [LawKind.CONTINUOUS, LawKind.STATIC, LawKind.DYNAMIC])
    def test_deterministic_ensemble_integrates_one_seed(
        self, quadratic_scenario, monkeypatch, law
    ):
        calls = spy_on_run(monkeypatch)
        ens = compare_laws(quadratic_scenario, [law], 7, base_seed=3)[law]
        assert calls == [[(law, 3)]]
        assert ens.runs == 7
        compare_laws(quadratic_scenario, [LawKind.STOCHASTIC], 4, base_seed=3)
        assert calls[-1] == stochastic(3, 4, 5, 6)

    def test_compare_integrates_every_law_in_one_call(self, spectrum_scenario, monkeypatch):
        calls = spy_on_run(monkeypatch)
        laws = [LawKind.STATIC, LawKind.DYNAMIC, LawKind.STOCHASTIC]
        compare_laws(spectrum_scenario, laws, runs=2, base_seed=5)
        assert calls == [[(LawKind.STATIC, 5), (LawKind.DYNAMIC, 5), *stochastic(5, 6)]]

    def test_stochastic_ensemble_integrates_in_chunks(self, quadratic_scenario, monkeypatch):
        s, law = quadratic_scenario, LawKind.STOCHASTIC
        whole = compare_laws(s, [law], 7, base_seed=3)[law]
        results = []
        calls = spy_on_run(monkeypatch, results)
        monkeypatch.setattr(harness, "ENSEMBLE_ENTRIES", 3 * s.n ** 2)
        chunked = compare_laws(s, [law], 7, base_seed=3)[law]
        assert calls == [stochastic(3, 4, 5), stochastic(6, 7, 8), stochastic(9)]
        assert len(results) == 7
        monkeypatch.undo()
        for seed, got in zip(range(3, 10), results):
            assert_same_columns(got, single_run(s, seed=seed, law=law))
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
        ens = compare_laws(quadratic_scenario, [LawKind.STOCHASTIC], 5, base_seed=0)
        assert ens[LawKind.STOCHASTIC].runs == 5
        assert alive == [[], [False] * 2, [False] * 4]

    def test_chunks_fill_the_entry_budget(self, spectrum_scenario, monkeypatch):
        # 256 members of n = 5 fill ENSEMBLE_ENTRIES; from n = 57 one member does
        calls = spy_on_run(monkeypatch)
        compare_laws(with_engine(spectrum_scenario, horizon=0.05), [LawKind.STOCHASTIC], 300, 0)
        assert [len(call) for call in calls] == [256, 44]
        rng, game, graph, trig = coupling_case(0, 57, unit=True)
        wide = Scenario(
            graph, game, trig, EngineConfig(alpha=0.1, beta=0.5, horizon=0.05),
            x0=np.zeros(57), y0=np.zeros((57, 57)), law=LawKind.STOCHASTIC,
            ne_override=np.zeros(57),
        )
        compare_laws(wide, [LawKind.STOCHASTIC], 3, 0)
        assert [len(call) for call in calls[2:]] == [1, 1, 1]

    def test_mixed_law_compare_integrates_in_chunks(self, quadratic_scenario, monkeypatch):
        # 1 + 1 + 1 deterministic members and 4 stochastic ones: chunks 3, 3, 1
        s, laws = quadratic_scenario, list(LawKind)
        whole = compare_laws(s, laws, 4, base_seed=3)
        calls = spy_on_run(monkeypatch)
        monkeypatch.setattr(harness, "ENSEMBLE_ENTRIES", 3 * s.n ** 2)
        chunked = compare_laws(s, laws, 4, base_seed=3)
        assert [len(call) for call in calls] == [3, 3, 1]
        monkeypatch.undo()
        for law in laws:
            alone = compare_laws(s, [law], 4, base_seed=3)[law]
            for ens in (chunked[law], alone):
                assert ens.runs == whole[law].runs == 4
                assert_same_ensemble(ens, whole[law])


def copied(state):
    """A copy of the state that owns all of its arrays."""
    return dataclasses.replace(state, **{
        f.name: getattr(state, f.name).copy()
        for f in dataclasses.fields(state) if f.name != "step_index"
    })


def force_coupling(mp, sparse):
    """Route the estimate coupling through one path, whatever the graph."""
    mp.setattr(engine, "SPARSE_MIN_N", 0 if sparse else math.inf)
    mp.setattr(engine, "SPARSE_MAX_DENSITY", 1.0)


def coupling_case(seed, n, unit):
    """A quadratic game and trigger parameters on the digraph of
    ``random_strongly_connected``, with player 0's in-links removed. With
    ``unit``, every row keeps at most two links, of weight 1: each coupling
    entry then sums at most two exact products, in any order the same bits."""
    rng = np.random.default_rng(seed)
    w = random_strongly_connected(rng, n).weights.copy()
    if unit:
        for row in w:
            links = np.flatnonzero(row)
            row[:] = 0.0
            row[rng.choice(links, size=min(2, links.size), replace=False)] = 1.0
    w[0] = 0.0
    cross = rng.uniform(-0.5, 0.5, (n, n))
    np.fill_diagonal(cross, 0.0)
    game = QuadraticGame(
        diag_a=rng.uniform(1.0, 3.0, n),
        cross=cross,
        offset=rng.uniform(-2.0, 2.0, n),
        intervals=(ActionInterval(-3.0, 3.0),) * n,
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
        st.integers(0, 2 ** 32 - 1), st.integers(2, 40), st.booleans(),
        st.sampled_from([None, 1, 4]),
    )
    def test_sparse_step_equals_dense_step(self, seed, n, unit, runs):
        # runs None: an unbatched (n, n) state under a one-member batch
        rng, game, graph, trig = coupling_case(seed, n, unit)
        s = Scenario(
            graph, game, trig, self.CONFIG, x0=np.zeros(n), y0=np.zeros((n, n)),
            law=LawKind.STOCHASTIC,
        )
        shape = (n,) if runs is None else (runs, n)
        x, x_hat = rng.uniform(-3.0, 3.0, (2, *shape))
        y, y_hat = rng.uniform(-3.0, 3.0, (2, *shape, n))
        with pytest.MonkeyPatch.context() as mp:
            force_coupling(mp, sparse=False)
            terms = engine.broadcast_terms(graph, x_hat, y_hat, self.CONFIG)
        state = EngineState(3, x, y, x_hat, y_hat, *terms)
        laws = list(LawKind)
        if runs is None:
            batch = one_member(LawKind.STOCHASTIC, s, seed)
        else:
            batch = Batch.of(s, [Member(laws[r % 4], seed + r) for r in range(runs)])
        out = {}
        for sparse in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                force_coupling(mp, sparse)
                assert engine.sparse_coupling(graph) is sparse
                # step owns its input's buffers: each path steps its own copy
                new, fired, rho = step(copied(state), batch)
            out[sparse] = (
                new.y, new.disagreement_sq, new.increment,
                new.x, new.x_hat, new.y_hat, fired, rho,
            )
        for k, (dense, sparse) in enumerate(zip(out[False], out[True])):
            assert dense.shape == sparse.shape and dense.dtype == sparse.dtype
            # the decision precedes the coupling, so only y and the coupling
            # terms may differ, and only in the summation of non-unit weights
            if unit or k > 2:
                assert np.array_equal(dense, sparse)
            else:
                assert np.abs(sparse - dense).max() <= 1e-14 * np.abs(dense).max()

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2 ** 32 - 1), st.integers(2, 30), st.booleans(),
        st.sampled_from([None, 1, 4]),
        st.lists(st.sampled_from(["none", "all", "some"]), min_size=1, max_size=4),
    )
    def test_event_driven_step_equals_full_recompute(
        self, sparse, seed, n, unit, runs, patterns
    ):
        # the first step from init, then further steps, each with a drawn fire
        # pattern in place of the laws' decisions; runs None: an unbatched
        # state under a one-member batch, 4: one member of each law. On both
        # paths a quiet step keeps the carried terms and a step that fires
        # forms them again
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
            if runs is None:
                state = init(s)
                batch = one_member(LawKind.STOCHASTIC, s, seed)
            else:
                state = engine.with_members(init(s), runs)
                batch = Batch.of(s, [Member(law, seed) for law in list(LawKind)[:runs]])
            for pattern in patterns:
                mp.setattr(engine, "decide", lambda rho, *rest: masks[pattern](rho.shape))
                prev = copied(state)
                state, fired, _ = step(state, batch)
                x_hat = np.where(fired, prev.x, prev.x_hat)
                y_hat = np.where(fired[..., None], prev.y, prev.y_hat)
                disagreement_sq, increment = engine.broadcast_terms(
                    graph, x_hat, y_hat, self.CONFIG
                )
                y = prev.y + increment
                y[..., np.arange(n), np.arange(n)] = state.x
                for got, full in [
                    (state.x_hat, x_hat), (state.y_hat, y_hat),
                    (state.disagreement_sq, disagreement_sq), (state.increment, increment),
                    (state.y, y),
                ]:
                    assert got.shape == full.shape
                    assert np.array_equal(got, full)

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

    def test_bundled_scenarios_resolve_dense(self, spectrum_scenario, quadratic_scenario):
        assert not engine.sparse_coupling(spectrum_scenario.graph)
        assert not engine.sparse_coupling(quadratic_scenario.graph)

    def test_dense_path_never_imports_scipy_sparse(self):
        # the import costs set-up time that only a graph on the sparse path needs
        code = "\n".join([
            "import sys, warnings",
            "warnings.simplefilter('ignore')",
            "import neseek",
            "from neseek.data import bundled_path",
            "s = neseek.load_scenario(bundled_path('spectrum_paper'))",
            "neseek.single_run(s, seed=0)",
            "neseek.compare_laws(s, ['static', 'stochastic'], 2, 0)",
            "print('scipy.sparse' in sys.modules)",
        ])
        src = str(Path(neseek.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]

    def test_generated_n200_graph_resolves_sparse(self):
        # a directed ring plus one chord into every player, unit weights
        n, rng = 200, np.random.default_rng(5)
        w = np.zeros((n, n))
        for i in range(n):
            w[i, i - 1] = 1.0
            w[i, (i + 1 + rng.integers(n - 2)) % n] = 1.0
        assert engine.sparse_coupling(DirectedGraph(w))
        assert not engine.sparse_coupling(DirectedGraph(np.ones((n, n)) - np.eye(n)))


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

    def test_step_count_avoids_float_drift(self):
        cfg = EngineConfig(alpha=0.1, beta=1.0, horizon=20.0, dt=0.025)
        assert cfg.steps == 800
        one = EngineConfig(alpha=0.1, beta=1.0, horizon=0.025, dt=0.025)
        assert one.steps == 1
