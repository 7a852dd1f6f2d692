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
        with np.errstate(over="ignore"):
            if not np.isfinite(self.in_degrees).all():
                raise ValidationError("weights: an in-degree sum overflows")

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
        infinite, with a warning on the first read, when there are no edges.
        Weights so large or so small that the bound is not a positive finite
        float (||L||^2 overflows or underflows) raise ValidationError."""
        norm_l = float(np.linalg.norm(laplacian(self), 2))
        if norm_l == 0.0:
            msg = "graph has no edges; the disagreement term is void and the bound is infinite"
            warnings.warn(msg, stacklevel=3)  # the reader's line, past functools
            return math.inf
        try:
            bound = (self.n - 1) / (2.0 * self.n * norm_l ** 2)
        except (OverflowError, ZeroDivisionError):
            bound = math.nan
        if not 0.0 < bound < math.inf:
            raise ValidationError("weights: the bound (n-1)/(2n*||L||^2) is out of the float range")
        return bound

    @cached_property
    def links(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the nonzero weights, in row-major order."""
        rows, cols = np.nonzero(self.weights)
        rows.flags.writeable = cols.flags.writeable = False
        return rows, cols

    @cached_property
    def csr(self):
        """``weights`` as a ``scipy.sparse.csr_array``. Its entries follow
        ``links``: ``csr.data`` holds the link weights in that order."""
        import scipy.sparse  # imported here: graphs on the dense path never need it

        return scipy.sparse.csr_array(self.weights)


@dataclass(frozen=True)
class LyapunovPair:
    """Positive definite P with ``M.T @ P + P @ M == I`` for the coupling matrix M.

    ``p`` is the (n, n, n) block stack: ``p[j]`` solves the equation for
    ``blocks[j]``, the block ``coupling_blocks(g)[j]`` of M, and the dense P
    is ``P[i*n + j, k*n + j] = p[j][i, k]``, zero elsewhere. ``lambda_max`` is
    the largest eigenvalue of P, which is its operator norm.
    """

    p: np.ndarray
    blocks: np.ndarray
    lambda_max: float

    @cached_property
    def residual(self) -> float:
        """The largest operator norm of a block's ``M.T @ P + P @ M - I``, formed on first read."""
        stack = self.blocks.reshape((-1,) + self.blocks.shape[-2:])
        return float(_operator_norms(_defect(stack, self.p.reshape(stack.shape))).max())


def laplacian(g: DirectedGraph) -> np.ndarray:
    """In-degree Laplacian ``diag(in_degrees) - weights``; rows sum to zero."""
    return np.diag(g.in_degrees) - g.weights


def coupling_blocks(g: DirectedGraph) -> np.ndarray:
    """The (n, n, n) stack of diagonal blocks of the coupling matrix,
    ``blocks[j] = L + diag(W[:, j])``: its rows i*n + j for i = 0..n-1."""
    blocks = np.repeat(laplacian(g)[None], g.n, axis=0)
    # W.T onto the diagonals; off them each entry of L is 0.0 - w, never
    # -0.0, so it has the bits of L + diag(W[:, j]) there, signed zeros too
    blocks.reshape(g.n, -1)[:, :: g.n + 1] += g.weights.T
    return blocks


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


def _unsorted(wr, wi):
    # dgees's eigenvalue selector; unused, the Schur form is not reordered
    return None


def solve_lyapunov_pd(m: np.ndarray) -> LyapunovPair:
    """Solve ``m.T @ P + P @ m = I`` for symmetric positive definite P, for
    a square matrix m or for each block of an (k, n, n) stack m.

    Each block takes the Bartels-Stewart steps (Bartels & Stewart, CACM
    1972) through LAPACK, with the arguments, order and memory layout of
    scipy's continuous Lyapunov solver for ``m.T`` and I, so that every bit
    of P is the same as scipy's: the real Schur form ``m.T = U R U.T``
    (``dgees``, its workspace queried once per stack), the quasi-triangular
    Sylvester solve ``R Y + Y R.T = U.T U`` (``dtrsyl``), then
    ``P = U Y U.T``. The symmetrisation, the defects and the eigenvalues
    then run once over the stack; a defect takes its SVD only where its
    Frobenius norm, a bound on its operator norm, misses the tolerance.
    Requires every block's spectrum in the open right half-plane; raises
    SolverFailure naming the first block that does not certify, a NaN
    failing every check.
    """
    from scipy.linalg import lapack  # imported here: only the certificate needs it

    blocks = np.asarray(m, dtype=float)
    stack = blocks.reshape((-1,) + blocks.shape[-2:])
    eye = np.eye(stack.shape[-1])
    lwork = int(lapack.dgees(_unsorted, stack[0].T, lwork=-1)[-2][0])
    p = np.empty_like(stack)
    for j, block in enumerate(stack):
        r, _, _, _, u, _, info = lapack.dgees(_unsorted, block.T, lwork=lwork)
        if info > 0:
            raise SolverFailure(f"block {j}: Schur form not found (dgees info {info})")
        y, scale, info = lapack.dtrsyl(r, r, u.T.dot(eye.dot(u)), tranb="T")
        if info < 0:
            raise SolverFailure(f"block {j}: illegal value in argument {-info} of dtrsyl")
        if info == 1:
            warnings.warn(
                f'block {j}: Input "a" has an eigenvalue pair whose sum is very close '
                "to or exactly zero. The solution is obtained via perturbing the "
                "coefficients.",
                RuntimeWarning,
                stacklevel=2,
            )
        y *= scale
        p[j] = u.dot(y).dot(u.T)

    p = 0.5 * (p + p.transpose(0, 2, 1))
    defect = _defect(stack, p)
    # ||D||_2 <= ||D||_F: a block whose sum of squares clears the tolerance,
    # less a margin for its rounding, certifies; the rest (a NaN among them)
    # take the operator norm
    sum_sq = np.einsum("kij,kij->k", defect, defect)
    unclear = np.flatnonzero(~(sum_sq <= (LYAPUNOV_RTOL * (1.0 - 1e-9)) ** 2))
    residual = _operator_norms(defect[unclear])
    failed = np.flatnonzero(~(residual <= LYAPUNOV_RTOL))
    if failed.size:
        j, r = unclear[failed[0]], residual[failed[0]]
        raise SolverFailure(f"block {j}: Lyapunov residual {r:.3e} above tolerance")
    eigenvalues = np.linalg.eigvalsh(p)  # ascending in each block
    failed = np.flatnonzero(~(eigenvalues[:, 0] > 0))
    if failed.size:
        raise SolverFailure(f"block {failed[0]}: Lyapunov solution is not positive definite")
    return LyapunovPair(p.reshape(blocks.shape), blocks, float(eigenvalues.max()))


def _defect(stack: np.ndarray, p: np.ndarray) -> np.ndarray:
    # M.T @ P + P @ M - I of each block of the (k, n, n) stacks
    return stack.transpose(0, 2, 1) @ p + p @ stack - np.eye(stack.shape[-1])


def _operator_norms(defect: np.ndarray) -> np.ndarray:
    # the 2-norm of each block of a (k, n, n) defect, which it overwrites; a
    # block that is not finite has no singular values: it reads NaN
    finite = np.isfinite(defect).all(axis=(1, 2))
    defect[~finite] = 0.0
    return np.where(finite, np.linalg.norm(defect, 2, axis=(1, 2)), np.nan)


def lyapunov_pair(g: DirectedGraph) -> LyapunovPair:
    """Lyapunov certificate, with Q = I, for the coupling matrix of a
    strongly connected graph, solved over its stack of blocks."""
    if not g.strongly_connected:
        raise NotStronglyConnected("graph must be strongly connected")
    return solve_lyapunov_pd(coupling_blocks(g))
