import math
import time
from itertools import count

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neseek import (
    QuadraticGame,
    SpectrumGame,
    estimate_constants,
    projected_ne,
    solve_ne,
    verify_ne,
)
from neseek.errors import NoConvergence

from oracles import gradient_at_estimates
from test_games import decoupled_quadratic, published_game


def coupled_two_player():
    # pseudo-gradient matrix [[2, 1], [1, 2]] with offset (-4, -5): equilibrium (1, 2)
    return QuadraticGame(
        diag_a=[2.0, 2.0],
        cross=[[0.0, 1.0], [1.0, 0.0]],
        offset=[-4.0, -5.0],
        intervals=[[-10.0, 10.0], [-10.0, 10.0]],
    )


def test_spectrum_equilibrium_matches_published(published_x_star):
    t0 = time.perf_counter()
    sol = solve_ne(published_game())
    elapsed = time.perf_counter() - t0
    assert np.abs(sol.x_star - published_x_star).max() < 1e-2
    assert sol.residual <= 1e-12
    assert sol.method == "aggregative"
    assert sol.distance_bound <= 1e-12
    assert elapsed < 1.0


def test_decoupled_closed_form():
    game = decoupled_quadratic(diag=(2.0, 4.0), offset=(-4.0, -12.0), box=(0.0, 2.5))
    sol = solve_ne(game)
    # unconstrained minimizers are (2, 3); the second clamps at 2.5
    assert np.allclose(sol.x_star, [2.0, 2.5], atol=1e-7)


def test_coupled_two_player_hand_solve():
    sol = solve_ne(coupled_two_player())
    assert np.allclose(sol.x_star, [1.0, 2.0], atol=1e-7)


def test_verify_at_solution():
    game = published_game()
    sol = solve_ne(game)
    assert verify_ne(game, sol.x_star, step=0.05) <= 1e-8


def test_verify_at_published_equilibrium(published_x_star):
    assert verify_ne(published_game(), published_x_star, step=0.05) < 0.05


def test_verify_interior_minimizer_is_zero():
    game = decoupled_quadratic(diag=(2.0, 4.0), offset=(-4.0, -12.0))
    assert verify_ne(game, np.array([2.0, 3.0]), step=0.1) <= 1e-12


def test_step_invariance():
    # the fixed point does not depend on the step; slack covers the
    # residual-to-distance factor of the slowest contraction
    game = published_game()
    sols = [projected_ne(game, step=s, tol=1e-12).x_star for s in (0.01, 0.05, 0.1)]
    for a in sols:
        for b in sols:
            assert np.abs(a - b).max() <= 1e-9


def test_residual_not_worse_than_start():
    game = published_game()
    lo, hi = game.bounds
    start = 0.5 * (lo + hi)
    sol = solve_ne(game)
    step = 0.05
    assert verify_ne(game, sol.x_star, step) <= verify_ne(game, start, step)


def test_no_convergence_reports_residual():
    with pytest.raises(NoConvergence) as err:
        projected_ne(published_game(), tol=1e-15, max_iter=3)
    assert err.value.residual > 0


def test_float_cycle_stops_early():
    # at tol below the float resolution of x*, the map settles into a
    # period-2 cycle between neighbouring floats near iteration 160
    game = SpectrumGame(
        m_c=[7.0], q=[1.3], r=[0.0], s_db=[12.0], ber_target=[1e-4],
        intervals=[[-10.0, 10.0]],
    )
    with pytest.raises(NoConvergence, match="cycle") as err:
        projected_ne(game, tol=1e-15, max_iter=200)
    assert 0 < err.value.residual < 1e-14


def test_step_and_its_origin_reported():
    game = published_game()
    c = estimate_constants(game)
    sol = projected_ne(game)
    # analytic constants (linear pricing) certify a distance bound
    assert math.isfinite(sol.distance_bound)
    default = projected_ne(game, step=0.9 * 2.0 * c.mu / c.lbar ** 2)
    assert sol.x_star.tobytes() == default.x_star.tobytes()
    assert sol.iterations == default.iterations
    # sampled constants (nonlinear pricing) carry no guarantee
    assert projected_ne(published_game(tau=2.0)).distance_bound == math.inf
    # the error bound holds at any step once the constants are exact
    caller = projected_ne(game, step=0.05)
    exact = solve_ne(game).x_star
    assert np.abs(caller.x_star - exact).max() <= caller.distance_bound


def tiled_solve_ne(game, tol=1e-8):
    """The projected fixed-point iteration with the pseudo-gradient taken as
    every player's gradient at its own copy of the profile."""
    c = estimate_constants(game)
    step = 0.9 * 2.0 * c.mu / c.lbar ** 2
    lo, hi = game.bounds
    x = 0.5 * (lo + hi)
    for it in count(1):
        grad = gradient_at_estimates(game, np.tile(x, (len(x), 1)))
        nxt = np.clip(x - step * grad, lo, hi)
        residual = float(np.abs(x - nxt).max())
        if residual <= tol:
            return x, residual, it
        x = nxt


def test_solution_bits_equal_tiled_reference_at_n200():
    n = 200
    rng = np.random.default_rng(200)
    game = SpectrumGame(
        m_c=rng.uniform(5.7, 15.0, n),
        q=rng.uniform(1.1, 1.5, n),
        r=[20.0] * n,
        s_db=rng.uniform(12.0, 18.0, n),
        ber_target=[1e-4] * n,
        intervals=[[0.0, 16.0]] * n,
    )
    sol = projected_ne(game)
    x_star, residual, iterations = tiled_solve_ne(game)
    assert sol.x_star.tobytes() == x_star.tobytes()
    assert sol.residual == residual
    assert sol.iterations == iterations


@st.composite
def spectrum_games(draw, max_n=300, linear=False):
    """Spectrum games near the published ranges, with revenue rates down to
    zero so that some players earn less than their base price (r_i*u_i <
    m_c_i). Under linear pricing the box may reach below zero; when every
    player then has r_i = 0, the equilibrium total is negative."""
    n = draw(st.integers(1, max_n))
    tau = 1.0 if linear else draw(st.one_of(st.just(1.0), st.floats(1.0, 3.0)))
    negative = tau == 1.0 and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo = rng.uniform(-16.0, 0.0, n) if negative else rng.uniform(0.0, 2.0, n)
    hi = lo + rng.uniform(0.0, 16.0, n)
    r = rng.uniform(0.0, 20.0, n)
    if negative and draw(st.booleans()):
        r = np.zeros(n)
    return SpectrumGame(
        m_c=rng.uniform(5.7, 15.0, n),
        q=rng.uniform(1.1, 1.5, n),
        r=r,
        s_db=rng.uniform(12.0, 18.0, n),
        ber_target=rng.uniform(1e-5, 1e-2, n),
        intervals=np.column_stack([lo, hi]),
        tau=tau,
    )


# every player in deficit over a box reaching below zero: the total is negative
NEGATIVE_TOTAL = SpectrumGame(
    m_c=[8.0, 9.0, 10.0, 11.0],
    q=[1.1, 1.2, 1.3, 1.4],
    r=[0.0] * 4,
    s_db=[12.0] * 4,
    ber_target=[1e-4] * 4,
    intervals=[[-20.0, 5.0]] * 4,
)

# every player in deficit under superlinear pricing: the total is zero, where
# each best response is the limit of x_i(S) as S -> 0, which here is lo_i
ZERO_TOTAL = SpectrumGame(
    m_c=[8.0, 9.0, 10.0],
    q=[1.1, 1.2, 1.3],
    r=[0.0] * 3,
    s_db=[12.0] * 3,
    ber_target=[1e-4] * 3,
    intervals=[[0.0, 16.0]] * 3,
    tau=2.0,
)


def relative_residual(game, x):
    """Unit-step fixed-point residual over the largest term of the gradient at x."""
    total = abs(x.sum())
    terms = (
        game.m_c,
        game.r * game.efficiencies,
        game.q * total ** game.tau,
        np.abs(x) * game.q * game.tau * total ** (game.tau - 1.0),
    )
    return verify_ne(game, x, 1.0) / max(1.0, *(float(t.max()) for t in terms))


@settings(max_examples=150, deadline=None)
@given(spectrum_games())
@example(NEGATIVE_TOTAL)
@example(ZERO_TOTAL)
def test_aggregative_solution_is_a_fixed_point(game):
    sol = solve_ne(game)
    assert sol.method == "aggregative"
    assert relative_residual(game, sol.x_star) <= 1e-12
    assert sol.distance_bound <= 1e-11
    if (game.r == 0).all() and (game.bounds[0] < 0).all():
        assert sol.x_star.sum() < 0


@settings(max_examples=60, deadline=None)
@given(spectrum_games(max_n=20, linear=True))
@example(NEGATIVE_TOTAL)
def test_aggregative_agrees_with_projected_iteration(game):
    # at tol 1e-15 the projected iteration can cycle between neighbouring
    # floats (a one-player game stalls at residual 3.6e-15), so the reference
    # stops at 1e-13 and both certified bounds must cover the gap
    sol = solve_ne(game)
    reference = projected_ne(game, tol=1e-13)
    gap = np.abs(sol.x_star - reference.x_star).max()
    assert gap <= 1e-11
    assert gap <= sol.distance_bound + reference.distance_bound


def test_superlinear_pricing_solves_without_sampled_constants(monkeypatch):
    # parameters in the published ranges; with the sampled-constant step the
    # projected iteration needs 229,391 iterations and stops 3.2e-4 from x*
    n = 50
    rng = np.random.default_rng(2027)
    game = SpectrumGame(
        m_c=rng.uniform(5.7, 15.0, n),
        q=rng.uniform(1.1, 1.5, n),
        r=[20.0] * n,
        s_db=rng.uniform(12.0, 18.0, n),
        ber_target=[1e-4] * n,
        intervals=[[0.0, 16.0]] * n,
        tau=2.7,
    )

    def no_sampling(*args, **kwargs):
        raise AssertionError("estimate_constants called")

    monkeypatch.setattr("neseek.oracle.estimate_constants", no_sampling)
    sol = solve_ne(game)
    assert sol.method == "aggregative"
    assert sol.iterations <= 128
    assert sol.distance_bound <= 1e-11
    assert verify_ne(game, sol.x_star, 1e-3) <= 1e-12
