"""Directed communication graphs and their spectral certificates.

The estimate-sharing dynamics couple all n*n stacked estimates through the
matrix ``M = kron(L, I) + diag(stacked adjacency)``; for strongly connected
digraphs that matrix has spectrum in the open right half-plane, so a
positive definite P solving ``M.T @ P + P @ M = I`` exists and certifies
exponential contraction.

Row i*n + j of M is player i's estimate of player j, and M only couples rows
that share j, so M and P are block diagonal once grouped by j: the
certificate takes n solves of size n instead of one of size n*n.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotStronglyConnected, SolverFailure, ValidationError, numbers

# Residual allowed on the Lyapunov solve; the right-hand side is I, of norm 1.
LYAPUNOV_RTOL = 1e-8


@dataclass(frozen=True)
class DirectedGraph:
    """Weighted digraph over n >= 2 players.

    ``weights[i, j] > 0`` means there is a link from player j to player i,
    i.e. i hears j's broadcasts. Self-loops are disallowed.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = numbers(self.weights, "weights")
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValidationError("weights must be a square matrix")
        if w.shape[0] < 2:
            raise ValidationError("at least two players are required")
        if (w < 0).any():
            raise ValidationError("weights must be nonnegative")
        if np.diagonal(w).any():
            raise ValidationError("diagonal weights (self-loops) must be zero")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @cached_property
    def in_degrees(self) -> np.ndarray:
        din = self.weights.sum(axis=1)
        din.flags.writeable = False
        return din

    @cached_property
    def strongly_connected(self) -> bool:
        """True iff every node reaches every other along directed links."""
        links = self.weights > 0
        return _reaches_all(links) and _reaches_all(links.T)

    @cached_property
    def sigma_bound(self) -> float:
        """Largest admissible disagreement weight, (n-1) / (2*n*||L||^2);
        infinite, with a warning on the first read, when there are no edges."""
        norm_l = float(np.linalg.norm(laplacian(self), 2))
        if norm_l == 0.0:
            msg = "graph has no edges; the disagreement term is void and the bound is infinite"
            warnings.warn(msg, stacklevel=3)  # the reader's line, past functools
            return math.inf
        return (self.n - 1) / (2.0 * self.n * norm_l ** 2)

    @cached_property
    def links(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the nonzero weights, in row-major order."""
        rows, cols = np.nonzero(self.weights)
        rows.flags.writeable = cols.flags.writeable = False
        return rows, cols

    @cached_property
    def neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """The padded neighbour table: (n, d) link columns and weights, d the
        most links of a row. Slot s of row i is its s-th link in ``links``
        order; a row with fewer is padded with weight 0.0 at its own column."""
        rows, cols = self.links
        # links are in row-major order: a link's slot is its offset in its row
        slots = np.arange(len(rows)) - np.searchsorted(rows, rows)
        d = int(slots.max(initial=-1)) + 1
        columns = np.repeat(np.arange(self.n)[:, None], d, axis=1)
        columns[rows, slots] = cols
        weights = np.zeros((self.n, d))
        weights[rows, slots] = self.weights[rows, cols]
        columns.flags.writeable = weights.flags.writeable = False
        return columns, weights

    @cached_property
    def csr(self):
        """``weights`` as a ``scipy.sparse.csr_array``; its entries follow ``links``."""
        import scipy.sparse  # imported here: graphs on the dense path never need it

        return scipy.sparse.csr_array(self.weights)


@dataclass(frozen=True)
class LyapunovPair:
    """Positive definite P with ``M.T @ P + P @ M == I`` for the coupling matrix M.

    ``p`` is the (n, n, n) block stack: ``p[j]`` solves the equation for the
    block ``coupling_blocks(g)[j]``, and the dense P is
    ``P[i*n + j, k*n + j] = p[j][i, k]``, zero elsewhere. ``residual`` is the
    operator norm of the defect ``M.T @ P + P @ M - I``, the largest over
    the blocks.
    """

    p: np.ndarray
    residual: float


def laplacian(g: DirectedGraph) -> np.ndarray:
    """In-degree Laplacian ``diag(in_degrees) - weights``; rows sum to zero."""
    return np.diag(g.in_degrees) - g.weights


def coupling_blocks(g: DirectedGraph) -> np.ndarray:
    """The (n, n, n) stack of diagonal blocks of the coupling matrix,
    ``blocks[j] = L + diag(W[:, j])``: its rows i*n + j for i = 0..n-1."""
    lap = laplacian(g)
    return np.array([lap + np.diag(w) for w in g.weights.T])


def _reaches_all(links: np.ndarray) -> bool:
    # links[i, j] True means j -> i; breadth-first expansion from node 0
    n = links.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    frontier = reached.copy()
    while frontier.any():
        nxt = links[:, frontier].any(axis=1) & ~reached
        reached |= nxt
        frontier = nxt
    return bool(reached.all())


def solve_lyapunov_pd(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``m.T @ P + P @ m = I`` for symmetric positive definite P.

    Requires m with spectrum in the open right half-plane; returns P and the
    operator norm of the defect, and raises SolverFailure if the solve does
    not certify.
    """
    import scipy.linalg  # imported here: only the certificate needs it

    eye = np.eye(len(m))
    p = scipy.linalg.solve_continuous_lyapunov(m.T, eye)
    p = 0.5 * (p + p.T)
    residual = float(np.linalg.norm(m.T @ p + p @ m - eye, 2))
    if residual > LYAPUNOV_RTOL:
        raise SolverFailure(f"Lyapunov residual {residual:.3e} above tolerance")
    if np.linalg.eigvalsh(p).min() <= 0:
        raise SolverFailure("Lyapunov solution is not positive definite")
    return p, residual


def lyapunov_pair(g: DirectedGraph) -> LyapunovPair:
    """Lyapunov certificate, with Q = I, for the coupling matrix of a
    strongly connected graph, solved block by block."""
    if not g.strongly_connected:
        raise NotStronglyConnected("graph must be strongly connected")
    solved = [solve_lyapunov_pd(b) for b in coupling_blocks(g)]
    return LyapunovPair(
        p=np.array([p for p, _ in solved]),
        residual=max(r for _, r in solved),
    )
