import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neseek import (
    QuadraticGame,
    SpectrumGame,
    estimate_constants,
    pseudo_gradient,
    spectral_efficiency,
)
from neseek.errors import DomainError, NonMonotone, ValidationError
from neseek import games

from oracles import cost, gradient_at_estimates, partial_gradient, project

# Frozen by high-precision evaluation of the closed form.
U_12DB = 2.0453406611627294
U_18DB = 3.749708766231957
COST_P1_AT_ONES = -29.70681322325459

BOX16 = [[0.0, 16.0]] * 5


def published_game(tau=1.0):
    return SpectrumGame(
        m_c=[5.7, 10.7, 10.3, 9.7, 15.0],
        q=[1.1, 1.2, 1.3, 1.4, 1.5],
        r=[20.0] * 5,
        s_db=[12.0, 14.0, 15.0, 16.0, 18.0],
        ber_target=[1e-4] * 5,
        tau=tau,
        intervals=BOX16,
    )


def decoupled_quadratic(diag=(2.0, 4.0), offset=(-4.0, -12.0), box=(-50.0, 50.0)):
    n = len(diag)
    return QuadraticGame(
        diag_a=diag,
        cross=np.zeros((n, n)),
        offset=offset,
        intervals=[box] * n,
    )


class TestSpectralEfficiency:
    def test_frozen_values(self):
        assert spectral_efficiency(12.0, 1e-4) == pytest.approx(U_12DB, rel=1e-12)
        assert spectral_efficiency(18.0, 1e-4) == pytest.approx(U_18DB, rel=1e-12)

    def test_unit_efficiency_closed_form(self):
        # choose the SNR so the fraction inside the log equals one
        s_db = 10.0 * math.log10(math.log(2000.0) / 1.5)
        assert spectral_efficiency(s_db, 1e-4) == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        for ber in (0.0, 0.2, 0.25, -1e-3):
            with pytest.raises(DomainError):
                spectral_efficiency(12.0, ber)


class TestCost:
    def test_spectrum_zero_profile(self):
        game = published_game()
        for i in range(5):
            assert cost(game, i, np.zeros(5)) == 0.0

    def test_spectrum_player1_at_ones(self):
        game = published_game()
        got = cost(game, 0, np.ones(5))
        assert got == pytest.approx(COST_P1_AT_ONES, rel=1e-12)
        assert got == pytest.approx(1.0 * (5.7 + 1.1 * 5.0) - 20.0 * game.efficiencies[0])

    def test_quadratic_pure_diagonal(self):
        game = decoupled_quadratic(diag=(3.0, 1.0), offset=(0.0, 0.0))
        assert cost(game, 0, np.array([2.0, 9.0])) == pytest.approx(6.0)


class TestPartialGradient:
    def test_vanishes_at_published_equilibrium(self, published_x_star):
        game = published_game()
        for i in range(5):
            assert abs(partial_gradient(game, i, published_x_star)) < 0.05

    def test_quadratic_diagonal(self):
        game = decoupled_quadratic(diag=(2.0, 4.0), offset=(0.0, 0.0))
        y = np.array([3.0, -1.0])
        assert partial_gradient(game, 0, y) == pytest.approx(6.0)
        assert partial_gradient(game, 1, y) == pytest.approx(-4.0)

    def test_spectrum_at_origin(self):
        game = published_game()
        for i in range(5):
            expected = game.m_c[i] - game.r[i] * game.efficiencies[i]
            assert partial_gradient(game, i, np.zeros(5)) == pytest.approx(expected)

    def test_negative_total_with_superlinear_pricing(self):
        game = SpectrumGame(
            m_c=[1.0, 1.0],
            q=[1.0, 1.0],
            r=[1.0, 1.0],
            s_db=[10.0, 10.0],
            ber_target=[1e-3, 1e-3],
            tau=2.0,
            intervals=[[0.0, 4.0], [0.0, 4.0]],
        )
        with pytest.raises(DomainError):
            partial_gradient(game, 0, np.array([-3.0, 1.0]))

    def test_superlinear_pricing_needs_nonnegative_box(self):
        with pytest.raises(ValidationError, match="^intervals: "):
            SpectrumGame(
                m_c=[1.0],
                q=[1.0],
                r=[1.0],
                s_db=[10.0],
                ber_target=[1e-3],
                tau=1.5,
                intervals=[[-1.0, 4.0]],
            )

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-4
        for game in (published_game(), published_game(tau=2.0), decoupled_quadratic(),
                     QuadraticGame(diag_a=[2.0, 3.0], cross=[[0.0, 0.7], [-0.4, 0.0]],
                                   offset=[1.0, -2.0],
                                   intervals=[[-5, 5], [-5, 5]])):
            lo, hi = game.bounds
            for _ in range(100):
                y = rng.uniform(lo, hi)
                i = int(rng.integers(game.n))
                up, dn = y.copy(), y.copy()
                up[i] += h
                dn[i] -= h
                fd = (cost(game, i, up) - cost(game, i, dn)) / (2 * h)
                g = partial_gradient(game, i, y)
                assert abs(fd - g) <= 1e-5 * max(1.0, abs(g))


class TestPseudoGradient:
    def test_small_at_published_equilibrium(self, published_x_star):
        assert np.abs(pseudo_gradient(published_game(), published_x_star)).max() < 0.05

    def test_quadratic_affine_form(self):
        game = QuadraticGame(
            diag_a=[2.0, 3.0],
            cross=[[0.0, 1.0], [0.5, 0.0]],
            offset=[-1.0, 2.0],
            intervals=[[-5, 5], [-5, 5]],
        )
        m = np.diag(game.diag_a) + game.cross
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-5, 5, size=2)
            assert np.allclose(pseudo_gradient(game, x), m @ x + game.offset, atol=1e-12)

    def test_quadratic_superposition(self):
        game = QuadraticGame(
            diag_a=[1.0, 2.0, 3.0],
            cross=[[0.0, 0.4, -0.2], [0.1, 0.0, 0.6], [-0.5, 0.2, 0.0]],
            offset=[0.3, -0.1, 1.0],
            intervals=[[-9, 9]] * 3,
        )
        rng = np.random.default_rng(1)
        f0 = pseudo_gradient(game, np.zeros(3))
        for _ in range(50):
            a = rng.uniform(-4, 4, size=3)
            b = rng.uniform(-4, 4, size=3)
            lhs = pseudo_gradient(game, a + b) - f0
            rhs = (pseudo_gradient(game, a) - f0) + (pseudo_gradient(game, b) - f0)
            assert np.allclose(lhs, rhs, atol=1e-10)

    def test_pure_function(self):
        game = published_game()
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.array_equal(pseudo_gradient(game, x), pseudo_gradient(game, x))

    def test_stacks_partial_gradients(self):
        game = published_game()
        x = np.array([0.5, 1.5, 2.5, 3.5, 4.5])
        stacked = [partial_gradient(game, i, x) for i in range(5)]
        assert np.allclose(pseudo_gradient(game, x), stacked, atol=1e-12)

    def test_gradient_at_estimates_rows(self):
        game = published_game()
        rng = np.random.default_rng(2)
        y = rng.uniform(0, 16, size=(5, 5))
        per_row = [partial_gradient(game, i, y[i]) for i in range(5)]
        assert np.allclose(gradient_at_estimates(game, y), per_row, atol=1e-12)


@st.composite
def common_profile_cases(draw):
    """A spectrum game (linear or fractional pricing) or a quadratic game on
    1..300 players, and a profile whose entries span nine decades, so the
    order in which a sum is taken shows in its last bits."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["linear", "fractional", "quadratic"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** rng.uniform(-6.0, 3.0, n)
    box = [[0.0, 16.0]] * n
    if kind == "quadratic":
        cross = rng.standard_normal((n, n))
        np.fill_diagonal(cross, 0.0)
        game = QuadraticGame(
            diag_a=rng.uniform(0.5, 3.0, n), cross=cross, offset=rng.standard_normal(n),
            intervals=box,
        )
        return game, rng.standard_normal(n) * scale
    tau = 1.0 if kind == "linear" else draw(st.floats(1.0, 3.0, exclude_min=True))
    game = SpectrumGame(
        m_c=rng.uniform(5.7, 15.0, n), q=rng.uniform(1.1, 1.5, n), r=rng.uniform(0.0, 20.0, n),
        s_db=rng.uniform(12.0, 18.0, n), ber_target=rng.uniform(1e-5, 1e-2, n),
        intervals=box, tau=tau,
    )
    # fractional powers need a nonnegative total
    x = rng.random(n) if kind == "fractional" else rng.standard_normal(n)
    return game, x * scale


@settings(max_examples=150, deadline=None)
@given(common_profile_cases())
def test_pseudo_gradient_equals_tiled_estimates(case):
    game, x = case
    tiled = gradient_at_estimates(game, np.tile(x, (len(x), 1)))
    got = pseudo_gradient(game, x)
    assert got.dtype == tiled.dtype and got.shape == tiled.shape
    assert got.tobytes() == tiled.tobytes()


class TestActionBox:
    @pytest.mark.parametrize("game", [
        published_game(),
        QuadraticGame(diag_a=[2.0, 3.0], cross=[[0.0, 0.7], [-0.4, 0.0]], offset=[1.0, -2.0],
                      intervals=np.array([[-5, 5], [0.25, 0.5]])),
    ], ids=["spectrum", "quadratic"])
    def test_the_box_is_one_read_only_array(self, game):
        box = game.intervals
        assert box.dtype == float and box.shape == (game.n, 2)
        assert not box.flags.writeable
        lo, hi = game.bounds
        assert game.bounds is game.bounds
        for bound, column in ((lo, box[:, 0]), (hi, box[:, 1])):
            assert bound.flags.c_contiguous and not bound.flags.writeable
            assert bound.tobytes() == np.array(column.tolist()).tobytes()

    def test_the_box_is_a_copy(self):
        source = np.array([[0.0, 4.0], [-1.0, 1.0]])
        game = QuadraticGame(diag_a=[1.0, 1.0], cross=np.zeros((2, 2)), offset=[0.0, 0.0],
                             intervals=source)
        source[0, 1] = 9.0
        assert game.intervals.tolist() == [[0.0, 4.0], [-1.0, 1.0]]
        assert game.bounds[1].tolist() == [4.0, 1.0]

    def test_no_per_player_interval_type(self):
        assert not hasattr(games, "ActionInterval")


class TestProjection:
    def test_clamps(self):
        assert project(0.0, 16.0, 20.0) == 16.0
        assert project(0.0, 16.0, 7.3) == 7.3
        assert project(0.0, 16.0, -5.0) == 0.0

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        for v in rng.uniform(-10, 10, size=100):
            assert project(-2.0, 3.0, project(-2.0, 3.0, v)) == project(-2.0, 3.0, v)

    def test_non_expansive(self):
        rng = np.random.default_rng(9)
        for lo, hi in ((0.0, 16.0), (-3.0, 5.0), (1.0, 1.0)):
            v = rng.uniform(-50, 50, size=(1000, 2))
            for v1, v2 in v:
                assert abs(project(lo, hi, v1) - project(lo, hi, v2)) <= abs(v1 - v2)


class TestEstimateConstants:
    def test_spectrum_linear_exact(self):
        game = published_game()
        c = estimate_constants(game)
        jac = np.outer(game.q, np.ones(5)) + np.diag(game.q)
        mu_oracle = np.linalg.eigvalsh(0.5 * (jac + jac.T)).min()
        assert c.exact
        assert c.mu == pytest.approx(mu_oracle, rel=1e-12)
        assert np.allclose(c.l, game.q * math.sqrt(8.0), rtol=1e-12)
        assert c.lbar == pytest.approx(1.5 * math.sqrt(8.0), rel=1e-12)
        # numerical cross-check of the row-norm algebra
        for i in range(5):
            row = np.full(5, game.q[i])
            row[i] = 2 * game.q[i]
            assert np.linalg.norm(row) == pytest.approx(c.l[i], rel=1e-12)
        assert c.mu <= c.lbar

    def test_quadratic_diagonal_exact(self):
        game = decoupled_quadratic(diag=(2.0, 4.0), offset=(0.0, 0.0))
        c = estimate_constants(game)
        assert c.exact
        assert c.mu == pytest.approx(2.0)
        assert np.allclose(c.l, [2.0, 4.0])

    def test_non_monotone_detected(self):
        game = QuadraticGame(
            diag_a=[1.0, 1.0],
            cross=[[0.0, -3.0], [-3.0, 0.0]],
            offset=[0.0, 0.0],
            intervals=[[-5, 5], [-5, 5]],
        )
        with pytest.raises(NonMonotone):
            estimate_constants(game)

    def test_sampled_path_for_superlinear_pricing(self):
        game = published_game(tau=2.0)
        c = estimate_constants(game)
        assert not c.exact
        assert c.mu > 0
        assert (c.l > 0).all()
        assert c.mu <= c.lbar

    def test_monotonicity_witness(self):
        game = published_game()
        c = estimate_constants(game)
        rng = np.random.default_rng(12)
        for _ in range(1000):
            x = rng.uniform(0, 16, size=5)
            y = rng.uniform(0, 16, size=5)
            gap = (x - y) @ (pseudo_gradient(game, x) - pseudo_gradient(game, y))
            assert gap >= c.mu * ((x - y) @ (x - y)) * (1 - 1e-9) - 1e-12
