import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from scipy.linalg import lapack

from neseek import (
    Batch,
    DirectedGraph,
    LawKind,
    Member,
    compute_report,
    coupling_blocks,
    laplacian,
    load_scenario,
    lyapunov_pair,
)
from neseek import cli, graphs
from neseek.data import bundled_path
from neseek.errors import NotStronglyConnected, SolverFailure, ValidationError
from neseek.graphs import solve_lyapunov_pd

from conftest import dense_p, load_bundled, random_strongly_connected, strongly_connected_graphs
from oracles import coupling_matrix, lyapunov_blocks

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


def test_in_degrees_computed_once_and_read_only(spectrum_scenario):
    g = spectrum_scenario.graph
    assert g.in_degrees is g.in_degrees
    assert np.array_equal(g.in_degrees, g.weights.sum(axis=1))
    with pytest.raises(ValueError):
        g.in_degrees[0] = 0.0


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
    assert TWO_CYCLE.strongly_connected
    assert not DirectedGraph(np.array([[0.0, 1.0], [0.0, 0.0]])).strongly_connected
    assert not EDGELESS.strongly_connected
    assert spectrum_scenario.graph.strongly_connected


def test_graph_facts_are_computed_once_per_graph(monkeypatch):
    # the loader's advisories, a dynamic batch and the certificate read one
    # sigma bound and one connectivity search, which a replaced scenario keeps
    norm, reaches_all = np.linalg.norm, graphs._reaches_all
    lap = laplacian(load_bundled("spectrum_paper").graph)
    counts = {"norm": 0, "search": 0}

    def spy_norm(x, *args, **kwargs):
        if np.shape(x) == lap.shape and np.array_equal(x, lap):
            counts["norm"] += 1
        return norm(x, *args, **kwargs)

    def spy_search(links):
        counts["search"] += 1
        return reaches_all(links)

    monkeypatch.setattr(np.linalg, "norm", spy_norm)
    monkeypatch.setattr(graphs, "_reaches_all", spy_search)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        loaded = load_scenario(bundled_path("spectrum_paper"))
    # one search runs both directions once
    assert counts == {"norm": 1, "search": 2}
    s = dataclasses.replace(loaded, seed=3)
    Batch.of(s, [Member(LawKind.DYNAMIC, 0)])
    compute_report(s.game, s.graph, s.engine.alpha, s.engine.beta, s.trigger.eta)
    lyapunov_pair(s.graph)
    assert counts == {"norm": 1, "search": 2}


def test_links_follow_the_csr_entries():
    # broadcast_terms reads the link weights from csr.data in links order
    rng = np.random.default_rng(12)
    g = random_strongly_connected(rng, 40)
    rows, cols = g.links
    assert np.array_equal(np.repeat(np.arange(g.n), np.diff(g.csr.indptr)), rows)
    assert np.array_equal(g.csr.indices, cols)
    assert np.array_equal(g.csr.data, g.weights[rows, cols])


def test_edgeless_graph_warns_once_on_the_first_read():
    g = DirectedGraph(np.zeros((3, 3)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert g.sigma_bound == math.inf
        assert g.sigma_bound == math.inf
    assert len(caught) == 1
    assert "no edges" in str(caught[0].message)
    # the warning points at the reader, not at functools
    assert caught[0].filename == __file__


def test_lyapunov_scalar_analog():
    # m.T p + p m = q with 1x1 m = [[a]] gives p = q / (2 a)
    for a in (0.5, 1.0, 3.0):
        p = solve_lyapunov_pd(np.array([[a]])).p
        assert p[0, 0] == pytest.approx(1.0 / (2.0 * a), rel=1e-12)


def test_lyapunov_refuses_an_indefinite_solution():
    # m = [[-1]] solves exactly, to p = [[-0.5]], which certifies nothing
    with pytest.raises(SolverFailure, match="Lyapunov solution is not positive definite"):
        solve_lyapunov_pd(np.array([[-1.0]]))


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


@settings(max_examples=100, deadline=None)
@given(strongly_connected_graphs(max_n=12))
def test_block_stack_matches_scipy_bit_for_bit(g):
    # every bit of P is scipy's per-block solve, symmetrised; the pair keeps
    # the blocks it solved and the largest eigenvalue of P
    pair = lyapunov_pair(g)
    assert np.array_equal(pair.p, lyapunov_blocks(g))
    assert np.array_equal(pair.blocks, coupling_blocks(g))
    assert pair.lambda_max == np.linalg.eigvalsh(pair.p).max()


def fail_block(monkeypatch, name, block, change):
    """Make LAPACK's ``name`` return ``change(result)`` on ``block``'s call;
    a workspace query is not a block's call."""
    real, calls = getattr(lapack, name), itertools.count()

    def fake(*args, **kwargs):
        out = real(*args, **kwargs)
        if kwargs.get("lwork") == -1 or next(calls) != block:
            return out
        return change(out)

    monkeypatch.setattr(lapack, name, fake)


FAILURES = {
    "dgees info > 0": ("dgees", lambda out: (*out[:-1], 2), "Schur form not found"),
    "dtrsyl info < 0": ("dtrsyl", lambda out: (*out[:-1], -3), "illegal value in argument 3"),
    "NaN residual": (
        "dtrsyl", lambda out: (np.full_like(out[0], np.nan), *out[1:]),
        "Lyapunov residual nan above tolerance",
    ),
}


@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_a_failed_block_is_named(monkeypatch, spectrum_scenario, failure):
    name, change, message = FAILURES[failure]
    fail_block(monkeypatch, name, 3, change)
    with pytest.raises(SolverFailure, match=f"^block 3: {message}"):
        lyapunov_pair(spectrum_scenario.graph)


@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_a_failed_block_is_one_error_line_of_bounds(monkeypatch, capsys, failure):
    name, change, message = FAILURES[failure]
    fail_block(monkeypatch, name, 1, change)
    assert cli.main(["bounds", "--config", "spectrum_paper"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if not line.startswith("warning:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: block 1: {message}")


def test_a_perturbed_sylvester_solve_warns_and_the_residual_decides(
    monkeypatch, spectrum_scenario
):
    # dtrsyl info 1 (perturbed coefficients) keeps scipy's warning; the
    # solution itself is still checked, and here it certifies
    fail_block(monkeypatch, "dtrsyl", 2, lambda out: (*out[:-1], 1))
    with pytest.warns(RuntimeWarning, match='^block 2: Input "a" has an eigenvalue pair'):
        pair = lyapunov_pair(spectrum_scenario.graph)
    assert np.array_equal(pair.p, lyapunov_blocks(spectrum_scenario.graph))


def test_in_degrees_that_overflow_are_refused():
    with pytest.raises(ValidationError, match="^weights: an in-degree sum overflows$"):
        DirectedGraph(np.full((3, 3), 1e308) * (1 - np.eye(3)))


@pytest.mark.parametrize("weight", [1e200, 1e-200, 1e-320])
def test_a_sigma_bound_out_of_the_float_range_is_refused(weight):
    # ||L||^2 overflows (the bound reads 0) or underflows (it reads infinite)
    g = DirectedGraph(np.full((3, 3), weight) * (1 - np.eye(3)))
    message = "weights: the bound (n-1)/(2n*||L||^2) is out of the float range"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        g.sigma_bound


@pytest.mark.parametrize("weight", [1e150, 1e-150])
def test_a_sigma_bound_in_the_float_range_keeps_its_formula(weight):
    g = DirectedGraph(np.full((3, 3), weight) * (1 - np.eye(3)))
    norm_l = float(np.linalg.norm(laplacian(g), 2))
    assert 0.0 < g.sigma_bound == 2 / (6.0 * norm_l ** 2) < math.inf
