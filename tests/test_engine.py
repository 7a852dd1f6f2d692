import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neseek import (
    ActionInterval,
    EngineConfig,
    LawKind,
    QuadraticGame,
    DirectedGraph,
    Scenario,
    TriggerParams,
    init,
    run,
    run_ensemble,
    single_run,
    solve_ne,
    step,
)
from neseek import harness
from neseek.errors import InfeasibleStart, NumericalDivergence

from conftest import strongly_connected_graphs, with_engine

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


def two_player_setup(law=LawKind.CONTINUOUS, beta=0.2, dt=0.025, horizon=1.0, seed=0):
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
    cfg = EngineConfig(alpha=0.1, beta=beta, dt=dt, horizon=horizon, seed=seed, law=law)
    return game, graph, trig, cfg


def make_rngs(seed, n):
    return [
        np.random.Generator(np.random.PCG64(ss))
        for ss in np.random.SeedSequence(seed).spawn(n)
    ]


def draw(rngs):
    """One uniform per player, for one call of ``step``."""
    return np.array([g.random() for g in rngs])


class TestInit:
    def test_shipped_initial_state(self, spectrum_scenario):
        s = spectrum_scenario
        state = init(s.game, s.graph, s.trigger, s.engine, PUBLISHED_X0, PUBLISHED_Y0)
        assert state.t == 0.0
        assert np.array_equal(state.x, PUBLISHED_X0)
        assert state.y[0, 0] == 14.0  # diagonal overwritten by the action
        assert np.array_equal(np.diagonal(state.y), PUBLISHED_X0)
        assert np.array_equal(state.x_hat, state.x)
        assert np.array_equal(state.y_hat, state.y)
        assert np.array_equal(state.delta, s.trigger.delta0)

    def test_equilibrium_start_has_zero_gradient_residual(self, spectrum_scenario):
        s = spectrum_scenario
        x_star = solve_ne(s.game).x_star
        y0 = np.tile(x_star, (5, 1))
        state = init(s.game, s.graph, s.trigger, s.engine, x_star, y0)
        from neseek import verify_ne

        assert verify_ne(s.game, state.x, s.engine.alpha) <= 1e-7

    def test_infeasible_start(self, spectrum_scenario):
        s = spectrum_scenario
        bad = PUBLISHED_X0.copy()
        bad[0] = 20.0
        with pytest.raises(InfeasibleStart):
            init(s.game, s.graph, s.trigger, s.engine, bad, PUBLISHED_Y0)

    def test_nan_start_is_infeasible(self, spectrum_scenario):
        s = spectrum_scenario
        bad = PUBLISHED_X0.copy()
        bad[2] = math.nan
        with pytest.raises(InfeasibleStart, match=r"x0\[2\]=nan outside"):
            init(s.game, s.graph, s.trigger, s.engine, bad, PUBLISHED_Y0)


class TestStep:
    def test_single_step_matches_hand_computation(self):
        game, graph, trig, cfg = two_player_setup(horizon=0.025)
        state = init(game, graph, trig, cfg, np.array([1.0, 2.0]),
                     np.array([[1.0, 0.5], [1.5, 2.0]]))
        new, fired, _ = step(state, game, graph, trig, cfg, draw(make_rngs(0, 2)))

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
        assert new.t == pytest.approx(0.025)
        assert fired.tolist() == [True, True]  # continuous law fires everyone

    def test_continuous_law_reduces_to_exact_estimate_dynamics(self):
        game, graph, trig, cfg = two_player_setup(horizon=1.0)
        state = init(game, graph, trig, cfg, np.array([1.0, 2.0]),
                     np.array([[1.0, 0.5], [1.5, 2.0]]))
        rngs = make_rngs(cfg.seed, 2)

        # oracle: integrate the always-broadcast dynamics without any hats
        a = graph.weights
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

            state, _, _ = step(state, game, graph, trig, cfg, draw(rngs))
        assert np.allclose(state.x, x, atol=1e-12)
        assert np.allclose(state.y, y, atol=1e-12)

    def test_diagonal_identity_and_decay_every_step(self, quadratic_scenario):
        s = quadratic_scenario
        state = init(s.game, s.graph, s.trigger, s.engine, s.x0, s.y0)
        rngs = make_rngs(s.engine.seed, s.n)
        for _ in range(50):
            state, _, _ = step(state, s.game, s.graph, s.trigger, s.engine, draw(rngs))
            assert np.array_equal(np.diagonal(state.y), state.x)
            expected = s.trigger.delta0 * np.exp(-s.trigger.eta * state.t)
            assert np.allclose(state.delta, expected, rtol=1e-12)

    def test_broadcast_constant_between_triggers(self, quadratic_scenario):
        s = quadratic_scenario
        state = init(s.game, s.graph, s.trigger, s.engine, s.x0, s.y0)
        rngs = make_rngs(3, s.n)
        for _ in range(120):
            prev_xhat = state.x_hat.copy()
            prev_yhat = state.y_hat.copy()
            prev_x = state.x.copy()
            prev_y = state.y.copy()
            state, fired, _ = step(state, s.game, s.graph, s.trigger, s.engine, draw(rngs))
            for i in range(s.n):
                if fired[i]:
                    assert state.x_hat[i] == prev_x[i]
                    assert np.array_equal(state.y_hat[i], prev_y[i])
                else:
                    assert state.x_hat[i] == prev_xhat[i]
                    assert np.array_equal(state.y_hat[i], prev_yhat[i])

    def test_divergence_guard(self):
        game, graph, trig, cfg = two_player_setup(beta=1e12, horizon=0.1)
        state = init(game, graph, trig, cfg, np.array([1.0, 2.0]),
                     np.array([[1.0, 0.5], [1.5, 2.0]]))
        with pytest.raises(NumericalDivergence):
            for _ in range(cfg.steps):
                state, _, _ = step(state, game, graph, trig, cfg, draw(make_rngs(0, 2)))


class TestRun:
    def test_equilibrium_is_invariant(self, spectrum_scenario):
        s = spectrum_scenario
        x_star = solve_ne(s.game).x_star
        (result,) = run(
            s.game,
            s.graph,
            s.trigger,
            s.engine,
            x0=x_star,
            y0=np.tile(x_star, (5, 1)),
            x_star=x_star,
            seeds=[s.engine.seed],
        )
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
        assert result.metrics.rate_fit < -0.1

    def test_error_decays_under_every_law(self, spectrum_scenario):
        for law in LawKind:
            result = single_run(spectrum_scenario, seed=2, law=law)
            assert result.metrics.rate_fit < 0

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
        state = init(s.game, s.graph, s.trigger, s.engine, s.x0, s.y0)
        rngs = make_rngs(s.engine.seed, s.n)
        for _ in range(60):
            prev = dataclasses.replace(
                state,
                x=state.x.copy(),
                y=state.y.copy(),
                x_hat=state.x_hat.copy(),
                y_hat=state.y_hat.copy(),
            )
            state, _, rho = step(state, s.game, s.graph, s.trigger, s.engine, draw(rngs))
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
        seeds = range(4)
        coarse = np.mean(
            [single_run(short, seed=s).metrics.trigger_counts for s in seeds], axis=0
        )
        fine = np.mean(
            [single_run(short, seed=s, dt=0.0125).metrics.trigger_counts for s in seeds],
            axis=0,
        )
        assert (fine <= 1.5 * coarse).all()

    def test_inter_event_gaps_at_least_dt(self, spectrum_scenario):
        result = single_run(spectrum_scenario, seed=3)
        for gaps in result.metrics.intervals:
            if gaps.size:
                assert gaps.min() >= spectrum_scenario.engine.dt

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
    cfg = EngineConfig(alpha=0.1, beta=0.5, dt=0.025, horizon=1.0, seed=0, law=law)
    seeds = draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=5, unique=True))
    scenario = Scenario(
        graph=g,
        game=game,
        trigger=trig,
        engine=cfg,
        x0=rng.uniform(-3.0, 3.0, n),
        y0=rng.uniform(-3.0, 3.0, (n, n)),
    )
    return scenario, seeds


BATCH_COLUMNS = ("trig", "rho", "xi", "actions", "err_inf")


class TestBatch:
    @settings(max_examples=60, deadline=None)
    @given(batch_cases())
    def test_batch_equals_separate_runs(self, case):
        s, seeds = case
        x_star = np.zeros(s.n)
        args = (s.game, s.graph, s.trigger, s.engine, s.x0, s.y0, x_star)
        batch = run(*args, seeds=seeds)
        for seed, got in zip(seeds, batch):
            (alone,) = run(*args, seeds=[seed])
            for column in BATCH_COLUMNS:
                a, b = getattr(got, column), getattr(alone, column)
                assert a.dtype == b.dtype and a.shape == b.shape, column
                assert np.array_equal(a, b, equal_nan=True), column
        if s.law is not LawKind.STOCHASTIC:
            # a deterministic ensemble replicates one run; each member must
            # still equal the separate run of its own seed
            base = min(seeds[0], 2 ** 64 - len(seeds))
            _, members = run_ensemble(s, s.law, len(seeds), base, x_star=x_star)
            for k, m in enumerate(members):
                alone = single_run(s, seed=base + k, x_star=x_star)
                assert np.array_equal(m.err_series, alone.err_inf)
                assert np.array_equal(m.gamma_series, alone.gamma)
                assert np.array_equal(m.trigger_counts, alone.metrics.trigger_counts)

    @pytest.mark.parametrize("law", [LawKind.CONTINUOUS, LawKind.STATIC, LawKind.DYNAMIC])
    def test_deterministic_ensemble_integrates_one_seed(
        self, quadratic_scenario, monkeypatch, law
    ):
        calls = []

        def spy(*args, **kwargs):
            calls.append(list(kwargs["seeds"]))
            return run(*args, **kwargs)

        monkeypatch.setattr(harness, "run", spy)
        ens, members = run_ensemble(quadratic_scenario, law, 7, base_seed=3)
        assert calls == [[3]]
        assert ens.runs == len(members) == 7
        run_ensemble(quadratic_scenario, LawKind.STOCHASTIC, 4, base_seed=3)
        assert calls[-1] == [3, 4, 5, 6]


class TestEngineConfig:
    def test_validation(self):
        from neseek import EngineConfig

        with pytest.raises(ValueError):
            EngineConfig(alpha=0.0, beta=1.0, horizon=1.0, seed=0, law=LawKind.CONTINUOUS)
        with pytest.raises(ValueError):
            EngineConfig(alpha=0.1, beta=-1.0, horizon=1.0, seed=0, law=LawKind.CONTINUOUS)
        with pytest.raises(ValueError):
            EngineConfig(alpha=0.1, beta=1.0, horizon=1.0, dt=2.0, seed=0, law=LawKind.CONTINUOUS)
        with pytest.raises(ValueError):
            EngineConfig(alpha=0.1, beta=1.0, horizon=1.0, seed=-1, law=LawKind.CONTINUOUS)

    def test_step_count_avoids_float_drift(self):
        from neseek import EngineConfig

        cfg = EngineConfig(alpha=0.1, beta=1.0, horizon=20.0, dt=0.025, seed=0,
                           law=LawKind.CONTINUOUS)
        assert cfg.steps == 800
        one = EngineConfig(alpha=0.1, beta=1.0, horizon=0.025, dt=0.025, seed=0,
                           law=LawKind.CONTINUOUS)
        assert one.steps == 1
