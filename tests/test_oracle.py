import time
from itertools import count

import numpy as np
import pytest

from neseek import (
    ActionInterval,
    QuadraticGame,
    SpectrumGame,
    estimate_constants,
    solve_ne,
    verify_ne,
)
from neseek.errors import NoConvergence
from neseek.games import gradient_at_estimates

from test_games import decoupled_quadratic, published_game


def coupled_two_player():
    # pseudo-gradient matrix [[2, 1], [1, 2]] with offset (-4, -5): equilibrium (1, 2)
    return QuadraticGame(
        diag_a=[2.0, 2.0],
        cross=[[0.0, 1.0], [1.0, 0.0]],
        offset=[-4.0, -5.0],
        intervals=(ActionInterval(-10.0, 10.0), ActionInterval(-10.0, 10.0)),
    )


def test_spectrum_equilibrium_matches_published(published_x_star):
    t0 = time.perf_counter()
    sol = solve_ne(published_game())
    elapsed = time.perf_counter() - t0
    assert np.abs(sol.x_star - published_x_star).max() < 1e-2
    assert sol.residual <= 1e-8
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
    sol = solve_ne(game, tol=1e-9)
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
    sols = [solve_ne(game, step=s, tol=1e-12).x_star for s in (0.01, 0.05, 0.1)]
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
        solve_ne(published_game(), tol=1e-15, max_iter=3)
    assert err.value.residual > 0


def test_step_and_its_origin_reported():
    game = published_game()
    c = estimate_constants(game)
    sol = solve_ne(game)
    assert sol.exact is True
    assert sol.step == 0.9 * 2.0 * c.mu / c.lbar ** 2
    # sampled constants (nonlinear pricing) and a caller's step carry no guarantee
    assert solve_ne(published_game(tau=2.0)).exact is False
    caller = solve_ne(game, step=0.05)
    assert caller.exact is False and caller.step == 0.05


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
        intervals=(ActionInterval(0.0, 16.0),) * n,
    )
    sol = solve_ne(game)
    x_star, residual, iterations = tiled_solve_ne(game)
    assert sol.x_star.tobytes() == x_star.tobytes()
    assert sol.residual == residual
    assert sol.iterations == iterations
