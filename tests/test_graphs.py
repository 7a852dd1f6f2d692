import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings

from neseek import (
    DirectedGraph,
    coupling_blocks,
    coupling_matrix,
    is_strongly_connected,
    laplacian,
    lyapunov_pair,
)
from neseek.errors import NotStronglyConnected
from neseek.graphs import solve_lyapunov_pd

from conftest import dense_p, random_strongly_connected, strongly_connected_graphs

TWO_CYCLE = DirectedGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
EDGELESS = DirectedGraph(np.zeros((3, 3)))


def test_graph_validation():
    with pytest.raises(ValueError):
        DirectedGraph(np.zeros((1, 1)))
    with pytest.raises(ValueError):
        DirectedGraph(np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        DirectedGraph(np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        DirectedGraph(np.zeros((2, 3)))


def test_laplacian_two_cycle():
    assert np.array_equal(laplacian(TWO_CYCLE), np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_edgeless_is_zero():
    assert np.array_equal(laplacian(EDGELESS), np.zeros((3, 3)))


def test_laplacian_rows_sum_to_zero(spectrum_scenario):
    lap = laplacian(spectrum_scenario.graph)
    assert np.array_equal(lap @ np.ones(5), np.zeros(5))
    # operator norm agrees with an SVD oracle
    direct = np.linalg.norm(lap, 2)
    svd_oracle = np.linalg.svd(lap, compute_uv=False)[0]
    assert direct == pytest.approx(svd_oracle, rel=1e-12)


def test_laplacian_row_sums_random():
    rng = np.random.default_rng(3)
    for _ in range(25):
        g = random_strongly_connected(rng, int(rng.integers(2, 7)))
        assert np.abs(laplacian(g) @ np.ones(g.n)).max() < 1e-12


def adjacency_diagonal(g):
    """The adjacency term of the coupling matrix, beyond ``kron(L, I)``."""
    return coupling_matrix(g) - np.kron(laplacian(g), np.eye(g.n))


def test_adjacency_diagonal_two_cycle():
    assert np.array_equal(adjacency_diagonal(TWO_CYCLE), np.diag([0.0, 1.0, 1.0, 0.0]))


def test_adjacency_diagonal_edgeless():
    assert np.array_equal(adjacency_diagonal(EDGELESS), np.zeros((9, 9)))


def test_adjacency_diagonal_stacking_order_exhaustive():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        for _ in range(10):
            w = rng.uniform(0.0, 2.0, size=(n, n))
            w[np.arange(n), np.arange(n)] = 0.0
            g = DirectedGraph(w)
            d = adjacency_diagonal(g)
            for i in range(n):
                for j in range(n):
                    # L[i, i] + w[i, j] - L[i, i] may miss w[i, j] by an ulp of the sum
                    assert d[i * n + j, i * n + j] == pytest.approx(w[i, j], rel=0, abs=1e-14)
            assert np.count_nonzero(d - np.diag(np.diagonal(d))) == 0


def test_adjacency_diagonal_edge_count(spectrum_scenario):
    g = spectrum_scenario.graph
    edges = int(np.count_nonzero(g.weights))
    assert np.count_nonzero(np.diagonal(adjacency_diagonal(g))) == edges


def test_coupling_matrix_two_cycle_hand_expansion():
    expected = np.array(
        [
            [1.0, 0.0, -1.0, 0.0],
            [0.0, 2.0, 0.0, -1.0],
            [-1.0, 0.0, 2.0, 0.0],
            [0.0, -1.0, 0.0, 1.0],
        ]
    )
    m = coupling_matrix(TWO_CYCLE)
    assert np.array_equal(m, expected)
    assert abs(np.linalg.det(m)) > 1e-9


def test_coupling_matrix_edgeless_singular():
    assert np.array_equal(coupling_matrix(EDGELESS), np.zeros((9, 9)))


def test_coupling_matrix_spectrum_in_right_half_plane(spectrum_scenario):
    eig = np.linalg.eigvals(coupling_matrix(spectrum_scenario.graph))
    assert eig.real.min() > 0


def test_coupling_blocks_are_the_grouped_coupling_matrix():
    # rows i*n + j for i = 0..n-1 form block j; no entry couples two blocks
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = random_strongly_connected(rng, int(rng.integers(2, 7)))
        n = g.n
        blocks = coupling_blocks(g)
        m = coupling_matrix(g).copy()
        for j in range(n):
            assert np.array_equal(m[j::n, j::n], blocks[j])
            m[j::n, j::n] = 0.0
        assert not m.any()


def test_is_strongly_connected_cases(spectrum_scenario):
    assert is_strongly_connected(TWO_CYCLE)
    assert not is_strongly_connected(DirectedGraph(np.array([[0.0, 1.0], [0.0, 0.0]])))
    assert not is_strongly_connected(EDGELESS)
    assert is_strongly_connected(spectrum_scenario.graph)


def test_lyapunov_scalar_analog():
    # m.T p + p m = q with 1x1 m = [[a]] gives p = q / (2 a)
    for a in (0.5, 1.0, 3.0):
        p, _ = solve_lyapunov_pd(np.array([[a]]))
        assert p[0, 0] == pytest.approx(1.0 / (2.0 * a), rel=1e-12)


def test_lyapunov_two_cycle_identity():
    pair = lyapunov_pair(TWO_CYCLE)
    m = coupling_matrix(TWO_CYCLE)
    p = dense_p(pair)
    assert np.linalg.eigvalsh(p).min() > 0
    assert np.allclose(p, p.T, atol=0)
    defect = np.linalg.norm(m.T @ p + p @ m - np.eye(4), 2)
    assert defect < 1e-10
    assert pair.residual == pytest.approx(defect)


def test_lyapunov_identity_q_min_eigenvalue(spectrum_scenario):
    # the certificate's Q = M.T P + P M is the identity
    pair = lyapunov_pair(spectrum_scenario.graph)
    m = coupling_matrix(spectrum_scenario.graph)
    p = dense_p(pair)
    assert np.linalg.eigvalsh(m.T @ p + p @ m).min() == pytest.approx(1.0)


def test_lyapunov_requires_strong_connectivity():
    with pytest.raises(NotStronglyConnected):
        lyapunov_pair(DirectedGraph(np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_lyapunov_property_random_strongly_connected_graphs():
    rng = np.random.default_rng(7)
    for _ in range(100):
        g = random_strongly_connected(rng, int(rng.integers(2, 7)))
        m = coupling_matrix(g)
        assert np.linalg.eigvals(m).real.min() > 0
        pair = lyapunov_pair(g)
        p = dense_p(pair)
        assert np.linalg.eigvalsh(p).min() > 0
        assert pair.residual <= 1e-8
        assert np.linalg.norm(m.T @ p + p @ m - np.eye(g.n ** 2), 2) <= 1e-8


@settings(max_examples=100, deadline=None)
@given(strongly_connected_graphs())
def test_block_certificate_matches_dense_solve(g):
    m = coupling_matrix(g)
    p = dense_p(lyapunov_pair(g))
    assert np.linalg.norm(m.T @ p + p @ m - np.eye(g.n ** 2), 2) <= 1e-8
    ref = scipy.linalg.solve_continuous_lyapunov(m.T, np.eye(g.n ** 2))
    for got, want in ((p, ref), (p @ m, ref @ m)):
        assert np.linalg.norm(got, 2) == pytest.approx(np.linalg.norm(want, 2), rel=1e-10)
    assert np.linalg.eigvalsh(p).max() == pytest.approx(
        np.linalg.eigvalsh(0.5 * (ref + ref.T)).max(), rel=1e-10
    )
