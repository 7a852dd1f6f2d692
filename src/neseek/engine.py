"""Fixed-step integration of the coupled action/estimate dynamics.

Each step: (1) all players evaluate their communication law at once on the
current event errors, and those that fire re-broadcast their estimate row,
whose diagonal entry is their action;
(2) actions follow the projected own-gradient flow evaluated at each
player's local estimate row; (3) estimate rows relax toward the broadcast
field (neighbor estimates plus each neighbor's broadcast action); (4) a
forward Euler update advances the state, and the own-estimate diagonal is
pinned back to the actions.

The broadcasts are piecewise constant between events, and so is
everything the estimate coupling derives from them. The state carries those
terms, and a step forms them again only when a player fired: whole below
the sparse crossover, and only at the rows its broadcasts touch above it.
Between the events that touch it, an estimate row moves by the same
increment every step, so above the crossover the state keeps each row in
closed form, ``anchor + age * increment``, with a few scalars per row that
a step reads instead of the row: a quiet step costs O(n) per member.

The state carries a leading member axis: R runs of one scenario advance
together, as (R, n) actions and (R, n, n) estimates. A member is a law and
a seed; the members of a batch share the scenario's trigger parameters,
and ``Batch.of`` turns them into each member's thresholds once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import metrics
from .errors import NumericalDivergence, ValidationError, integer, number
from .games import gradient_at_estimates, gradient_from_others, row_functional
from .graphs import DirectedGraph
from .triggers import LawKind, decide, threshold_term, tie_bounds, triggering_function
from .triggers import uniform_streams, xi_from_uniform

if TYPE_CHECKING:
    from .scenario import Scenario

# State magnitudes beyond this abort the run: the step sizes are unstable.
DIVERGENCE_GUARD = 1e9

# The sparse path, with its closed-form rows and W's CSR form, runs from this
# many players on, when at most this share of the n*n weights are links; the
# dense path runs below. Both stay because each wins on its side. Measured
# on a 2-core x86-64 host with one BLAS thread: `run` of the four-member
# `spectrum_paper` batch (static, dynamic and two stochastic members, n = 5)
# took 32-35 ms on the dense path and 120-200 ms on the closed-form kernel
# (medians of 9, three rounds). The sparse/dense time per step on generated
# ring-plus-chord graphs crosses at about n = 128 under the stochastic law,
# and between n = 128 and 200 under the static law (1.21 at n = 128, 0.77 at
# n = 200). The density cap is older: when the sparse step formed every row,
# it stopped winning between 5% and 10% links at n = 200-1000.
SPARSE_MIN_N = 128
SPARSE_MAX_DENSITY = 0.05

# On the sparse path a step that touches more than this share of a member's
# rows anchors all of them, and forms the coupling whole once the rows
# touched for any member exceed it. Measured on one core with the generated
# ring-plus-chord scenarios: a step anchoring gathered rows costs as much as
# one anchoring every row in place from about a quarter of the rows at
# n = 200 and a half at n = 1000, and `single_run` took the same time for
# every share from 0.2 to 0.6 at n = 200 and least from 0.4 to 0.6 at
# n = 1000.
REANCHOR_SHARE = 0.5

# broadcast_terms sums the rows it is asked for over blocks of about this
# many entries, 256 kB, which stay in cache between its passes. Measured on
# one core for 250 rows of two links at n = 1000: 1.26 ms in one block,
# 1.11-1.15 ms in blocks of 2**15 or 2**16 entries, 1.16-1.52 ms in 2**13.
BLOCK_ENTRIES = 2 ** 15


@dataclass(frozen=True)
class EngineConfig:
    """Step sizes and grid."""

    alpha: float
    beta: float
    horizon: float
    dt: float = 0.025

    def __post_init__(self):
        for name in ("alpha", "beta", "horizon", "dt"):
            object.__setattr__(self, name, number(getattr(self, name), name))
        # written so that NaN fails every check
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ValidationError("alpha and beta must be positive and finite")
        if not self.dt > 0:
            raise ValidationError("dt must be positive")
        if not math.isfinite(self.horizon):
            raise ValidationError("horizon must be finite")
        if self.dt > self.horizon:
            raise ValidationError("dt must not exceed the horizon")
        if not math.isfinite(self.horizon / self.dt):
            raise ValidationError("dt is too small for the horizon: horizon / dt is not finite")

    @property
    def steps(self) -> int:
        return max(1, int(math.ceil(self.horizon / self.dt - 1e-9)))


@dataclass(frozen=True)
class Member:
    """One run of a batch: its law and its seed. A law name is read as its
    ``LawKind``."""

    law: LawKind
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "law", LawKind(self.law))
        object.__setattr__(self, "seed", integer(self.seed, "seed"))
        if not 0 <= self.seed < 2 ** 64:
            raise ValidationError(f"seed: {self.seed} does not fit in 64 unsigned bits")


@dataclass(frozen=True)
class Batch:
    """The trigger-decision inputs of R members of one scenario.

    ``sigma`` is (R, n), each member's disagreement weights. ``xi``,
    ``lower`` and ``upper`` are (steps, R, n): the random thresholds, NaN
    under the deterministic laws, and the ``tie_bounds`` of the right-hand
    side every law compares its margin with, both equal to it where ``xi``
    is NaN. ``scale`` is the (steps, n) ``delta / c`` of every step and
    ``ln_kappa`` the ``math.log`` of kappa, from which ``decide`` forms a
    drawn threshold again at a tie. A law is its row of ``sigma`` and its
    thresholds, and every member's margin is
    ``triggering_function(energy, disagreement_sq, sigma)``.
    """

    scenario: Scenario
    sigma: np.ndarray
    xi: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    scale: np.ndarray
    ln_kappa: float

    @classmethod
    def of(cls, scenario: Scenario, members: Sequence[Member]) -> "Batch":
        """The members' inputs for every step of the scenario.

        A STATIC member's disagreement weights are zero, so its margin is
        the raw event-error energy; a DYNAMIC member's are capped at
        ``scenario.graph.sigma_bound``, which the graph computes once; every
        other member keeps the scenario's.
        Each stochastic member's player i draws from its own generator, for
        the i-th of the n children ``SeedSequence(seed)`` spawns, so
        per-player streams are independent of one another. They are drawn
        whole up front by ``triggers.uniform_streams``, which seeds every
        child of the batch in one vectorised pass with numpy's bits, as
        ``tests/test_triggers.py`` checks against numpy's own spawn.
        The threshold at step k is ``(delta0 * exp(-eta * (k * dt)) / c) *
        threshold_term(params, xi[k])``, formed here for every step with
        one ``np.log``, with the tie bands, so no step takes a log or an
        exponential but at the rare ties ``decide`` forms with ``math.log``.

        A CONTINUOUS member's thresholds are -inf: its margin is the
        difference of two finite sums of squares of a finite state, so it
        exceeds -inf at every step and the member always fires.
        """
        if not members:
            raise ValidationError("members: a batch needs at least one member")
        params, dt, steps = scenario.trigger, scenario.engine.dt, scenario.engine.steps
        xi = np.full((steps, len(members), params.n), math.nan)
        drawn = [r for r, m in enumerate(members) if m.law is LawKind.STOCHASTIC]
        if drawn:
            streams = uniform_streams([members[r].seed for r in drawn], params.n, steps)
            xi[:, drawn] = xi_from_uniform(params, streams)
        continuous = [m.law is LawKind.CONTINUOUS for m in members]
        cap = {LawKind.STATIC: 0.0}
        if any(m.law is LawKind.DYNAMIC for m in members):
            cap[LawKind.DYNAMIC] = scenario.graph.sigma_bound
        decay = params.delta0 * np.exp(-params.eta * (np.arange(steps) * dt))[:, None]
        scale = decay / params.c
        threshold = threshold_term(params, xi)
        threshold *= scale[:, None]
        threshold[:, continuous] = -math.inf
        return cls(
            scenario,
            np.minimum(params.sigma, [[cap.get(m.law, math.inf)] for m in members]),
            xi,
            *tie_bounds(threshold, xi),
            scale,
            math.log(params.kappa),
        )


@dataclass
class EngineState:
    """Simulation state at one grid instant.

    Row i of the estimate matrix is player i's view of everyone; its
    diagonal entry is the action x_i. ``y_hat`` holds the most recently
    broadcast rows, so its diagonal holds the broadcast actions. Two terms
    of the estimate coupling are carried with them, both functions of the
    broadcasts alone (see ``broadcast_terms``): ``disagreement_sq``, the
    squared norm of each row of ``din * y_hat - W @ y_hat``, which the
    triggering function reads, and ``increment``, the estimate update
    ``dt * (-beta * bracket)`` under the step sizes of the scenario's engine
    config, zero on the diagonal on the sparse path.

    Between the events that touch it a row moves by the same increment
    every step, so the state keeps each row in closed form: off the
    diagonal, row i is ``anchor_i + age_i * increment_i``, where ``age``
    counts the steps since the row was last anchored, and ``y`` forms the
    whole matrix. On the dense path every row is anchored at every step:
    ``age`` stays zero, ``anchor`` is the estimate matrix itself and
    ``row_terms`` is None. On the sparse path ``row_terms`` is the (7, R, n)
    stack of the per-row scalars a step reads instead of the rows, formed
    when a row is anchored. With d_i = y_hat_i - anchor_i and the own entry
    left out of every row, they are |d_i|^2, <d_i, increment_i> and
    |increment_i|^2, which give the event-error energy; the game's
    ``row_functional`` of anchor_i and of increment_i, which give the
    gradient; and the Euclidean norms |anchor_i| and |increment_i|, which
    bound the row for the divergence guard.

    Every array has the batch's leading member axis: ``x``, ``age`` and
    ``disagreement_sq`` are (R, n), ``anchor``, ``y_hat`` and ``increment``
    (R, n, n). The instant is ``step_index * dt``.
    """

    step_index: int
    x: np.ndarray
    anchor: np.ndarray
    age: np.ndarray
    y_hat: np.ndarray
    disagreement_sq: np.ndarray
    increment: np.ndarray
    row_terms: np.ndarray | None

    @property
    def y(self) -> np.ndarray:
        """The (R, n, n) estimate matrix, formed anew from the anchors."""
        y = self.anchor + self.age[..., None] * self.increment
        y.reshape(len(y), -1)[:, :: y.shape[-1] + 1] = self.x
        return y


@dataclass
class RunResult:
    """One run on the grid t_k = k*dt, k = 0..steps, with its statistics.

    ``trig`` is the (steps + 1, n) fire matrix, with an all-zero row 0 so its
    rows align with ``times``: ``trig[k + 1]`` holds the decisions made at
    t_k. ``rho`` is the (steps, n) triggering function of those evaluations,
    the margin the law compared (the raw event energy under the static law),
    and ``xi`` their random thresholds, NaN under the deterministic laws.
    The statistics are derived from ``trig`` and ``err_inf`` on first use
    and then cached.
    """

    times: np.ndarray
    actions: np.ndarray
    err_inf: np.ndarray
    trig: np.ndarray
    rho: np.ndarray
    xi: np.ndarray
    x_star: np.ndarray
    dt: float

    @cached_property
    def gamma(self) -> np.ndarray:
        """Average communication rate at every grid instant."""
        return metrics.gamma_series(self.trig[1:])

    @cached_property
    def trigger_counts(self) -> np.ndarray:
        """Broadcasts per player over the run."""
        return self.trig[1:].sum(axis=0)

    @cached_property
    def intervals(self) -> tuple[np.ndarray, ...]:
        """Per player, the gaps (seconds) between consecutive broadcasts."""
        return metrics.intervals(self.trig[1:], self.dt)

    @cached_property
    def rate_fit(self) -> float:
        """Decay slope of ln(err_inf) over t in [0, 10]; NaN when undefined."""
        return metrics.rate_fit(self.times, self.err_inf)


def sparse_coupling(graph: DirectedGraph) -> bool:
    """True when ``broadcast_terms`` applies W through its CSR form, not
    densely, and the state keeps its estimate rows in closed form."""
    n = graph.n
    return n >= SPARSE_MIN_N and len(graph.links[0]) <= SPARSE_MAX_DENSITY * n * n


def broadcast_terms(
    graph: DirectedGraph, y_hat: np.ndarray, config: EngineConfig, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The state's ``disagreement_sq`` and ``increment`` for the (R, n, n)
    broadcasts ``y_hat``, as new arrays: the squared row norms of
    ``disagreement = din * y_hat - W @ y_hat``, and the bracket
    ``disagreement + W * (y_hat - x_hat)`` of the estimate dynamics scaled as
    ``(bracket * -beta) * dt``, where column j of the second term reads the
    broadcast action x_hat[j] = y_hat[j, j]. This is the one place that
    applies W.

    The sparse path folds the members into the columns of one CSR product
    and forms the second term only at the slots of ``graph.neighbours``.
    There, and only there, ``rows``, an array of row indices, asks for those
    rows alone, which it sums over that table from zero in the CSR product's
    order, so they have the bits of the same rows of the full form (a
    padded slot adds a zero to a sum that is never -0.0). The dense path
    forms every row whatever ``rows`` says. With unit weights and at most
    two links per row both paths give the same bits, but for the diagonal
    of the increment: a row's own entry is the action, which the estimate
    dynamics do not move, and the sparse path sets it to zero, so that the
    row terms of the state read whole rows. The dense path leaves it, and a
    step overwrites it.
    """
    din = graph.in_degrees[:, None]
    if not sparse_coupling(graph):
        disagreement = din * y_hat - graph.weights @ y_hat
        x_hat = y_hat.diagonal(0, 1, 2)
        bracket = disagreement + graph.weights * (y_hat - x_hat[:, None, :])
        bracket *= -config.beta
        bracket *= config.dt
        return (disagreement * disagreement).sum(axis=-1), bracket
    (runs, n, _), (cols, weights) = y_hat.shape, graph.neighbours
    if rows is None:
        own, rows = y_hat, np.arange(n)
        # (R, n, n) -> (n, R * n): row i of the product is W[i] @ y_hat[r] for every r
        folded = y_hat.transpose(1, 0, 2).reshape(n, runs * n)
        w_y = (graph.csr @ folded).reshape(n, runs, n).transpose(1, 0, 2)
    else:
        din, own, cols, weights = din[rows], y_hat[:, rows], cols[rows], weights[rows]
        # scipy's order: from zero, add weight * y_hat[:, column] link by link,
        # a block of rows at a time that stays in cache; 1.0 * y is y, so a
        # slot of unit weights adds its rows as they are. take buffers its
        # out under mode="raise", and the columns are valid
        w_y, size = np.zeros(own.shape), max(1, BLOCK_ENTRIES // (runs * n))
        for start in range(0, len(rows), size):
            block = w_y[:, start : start + size]
            term = np.empty(block.shape)
            for col, weight in zip(cols[start : start + size].T, weights[start : start + size].T):
                np.take(y_hat, col, axis=1, out=term, mode="clip")
                unit = (weight == 1.0).all()
                block += term if unit else np.multiply(term, weight[:, None], out=term)
    disagreement = np.subtract(din * own, w_y, out=w_y)
    # the table's slots, padding included, in the rows' own numbering
    link_rows = np.arange(len(rows))[:, None]
    # C order, as every state array is: w_y of the whole form is a transposed view
    bracket = np.multiply(disagreement, -config.beta, order="C")
    bracket[:, link_rows, cols] = (
        disagreement[:, link_rows, cols]
        + weights * (own[:, link_rows, cols] - y_hat[:, cols, cols])
    ) * -config.beta
    bracket *= config.dt
    # a padded slot is the row's own entry, set here like every other
    bracket[:, link_rows[:, 0], rows] = 0.0
    return np.multiply(disagreement, disagreement, out=disagreement).sum(axis=-1), bracket


def touched_rows(graph: DirectedGraph, fired: np.ndarray) -> np.ndarray:
    """The (R, n) mask of the rows whose coupling terms change when the
    players that fired, an (R, n) mask, re-broadcast: per member, those
    players and every player hearing one of them. Read from the links, not
    the weights."""
    hit = fired.copy()
    rows, cols = graph.links
    member, link = np.nonzero(fired[:, cols])
    hit[member, rows[link]] = True
    return hit


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...j,...j->...", a, b)


def _row_terms(
    game, y_hat: np.ndarray, anchor: np.ndarray, increment: np.ndarray, players: np.ndarray
) -> np.ndarray:
    """The (7, K) ``EngineState.row_terms`` of K estimate rows, row k being player
    ``players[k]``'s: its broadcast row, its anchor with the own entry
    zeroed, and its increment, zero there already."""
    d = y_hat - anchor
    d[np.arange(len(players)), players] = 0.0
    inc_sq = _dot(increment, increment)
    return np.stack([
        _dot(d, d), _dot(d, increment), inc_sq,
        row_functional(game, anchor, players), row_functional(game, increment, players),
        np.sqrt(_dot(anchor, anchor)), np.sqrt(inc_sq),
    ])


def init(batch: Batch) -> EngineState:
    """The initial state of the batch's members: broadcasts equal the state,
    so event errors start at zero, and their terms are formed under the
    scenario's engine config. Every row is anchored at step 0. The
    scenario's start and its terms are formed once and repeated along the
    member axis.

    The diagonal of y0 is overwritten with x0 to keep own-estimates exact.
    The scenario validated its start when it was built.
    """
    scenario, runs = batch.scenario, len(batch.sigma)
    n, players = scenario.n, np.arange(scenario.n)
    x0, y0 = scenario.x0[None], scenario.y0[None].copy()
    y0[:, players, players] = x0
    terms = broadcast_terms(scenario.graph, y0, scenario.engine)
    row_terms = None
    if sparse_coupling(scenario.graph):
        off = y0[0].copy()
        off[players, players] = 0.0
        row_terms = np.repeat(
            _row_terms(scenario.game, y0[0], off, terms[1][0], players)[:, None], runs, axis=1
        )
    x, anchor, y_hat, disagreement_sq, increment = (
        np.repeat(a, runs, axis=0) for a in (x0, y0, y0, *terms)
    )
    return EngineState(
        0, x, anchor, np.zeros((runs, n)), y_hat, disagreement_sq, increment, row_terms
    )


def step(state: EngineState, batch: Batch) -> tuple[EngineState, np.ndarray, np.ndarray]:
    """Advance one grid step of the batch's scenario and members.

    Returns the new state, the boolean fire mask and the triggering-function
    values of this step's evaluations, both (R, n) like ``state.x``. Trigger
    decisions are made before derivatives are computed, so the broadcast
    values entering the estimate dynamics are the latest ones.

    The step takes ownership of the input state's arrays: it updates them
    in place and hands them on in the new state, so a state must not be
    stepped twice; step a copy instead.

    The coupling terms are formed again only when some player fired: a
    quiet step has the same broadcasts, so it keeps the carried terms and
    their bits. Below the sparse crossover a step that fires recomputes
    both terms whole, and every step adds the increment to every row. On
    the sparse path a step reads each row through its ``row_terms`` and
    costs O(n) per member when quiet. A step that fires forms again only
    the rows ``touched_rows`` names, in one pass for every member
    (or the whole coupling once more than ``REANCHOR_SHARE`` of the rows
    are touched), and anchors each member's touched rows at the next step:
    every row of a member whose touched rows exceed that share, so a burst
    costs whole-array passes rather than row gathers. Which rows are
    anchored depends only on the member's own events, so a member's run has
    the same bits in any batch.
    """
    game, config = batch.scenario.game, batch.scenario.engine
    x, y_hat, age, terms = state.x, state.y_hat, state.age, state.row_terms
    e_x = y_hat.diagonal(0, 1, 2) - x
    action_err_sq = e_x * e_x
    if terms is None:
        # every row is at its anchor, which is the estimate matrix
        y = state.anchor
        e_y = y_hat - y
        # e_y's buffer is reused for its square and, below, for the guard
        estimate_err_sq = np.multiply(e_y, e_y, out=e_y).sum(axis=-1)
        grad = gradient_at_estimates(game, y)
    else:
        d_sq, d_inc, inc_sq, f_anchor, f_inc = terms[:5]
        # the own entry of e_y is e_x; off it, |d - age * increment|^2
        # expanded, which rounding can take below zero
        off = d_sq - age * (2.0 * d_inc - age * inc_sq)
        estimate_err_sq = action_err_sq + np.maximum(off, 0.0, out=off)
        grad = gradient_from_others(game, x, f_anchor + age * f_inc)
    energy = action_err_sq + estimate_err_sq

    rho = triggering_function(energy, state.disagreement_sq, batch.sigma)
    k = state.step_index
    fired = decide(rho, batch.lower[k], batch.upper[k], batch.xi[k], batch.scale[k], batch.ln_kappa)

    lo, hi = game.bounds
    # np.minimum/np.maximum skip np.clip's Python wrapper, with the same bits
    xdot = np.minimum(np.maximum(x - config.alpha * grad, lo), hi) - x
    x_new = x + config.dt * xdot
    if terms is None:
        terms = _iterate(state, batch, fired, x_new, e_y)
    else:
        terms = _advance_rows(state, batch, fired, x_new)
    new = EngineState(k + 1, x_new, *terms)
    return new, fired, rho


def _diverged(config: EngineConfig, k: int) -> NumericalDivergence:
    return NumericalDivergence(
        f"state magnitude exceeded {DIVERGENCE_GUARD:.0e} or became non-finite "
        f"at t={k * config.dt:.6g}; reduce alpha, beta, or dt"
    )


def _iterate(state: EngineState, batch: Batch, fired: np.ndarray, x_new: np.ndarray, scratch):
    """The dense path's rest of a step: every row takes its increment and is
    anchored again. Returns the new state's fields after ``x``."""
    graph, config = batch.scenario.graph, batch.scenario.engine
    y, y_hat = state.anchor, state.y_hat
    disagreement_sq, increment = state.disagreement_sq, state.increment
    # count_nonzero skips the Python-level dispatch of fired.any()
    if np.count_nonzero(fired):
        # A dense step that fires recomputes both terms whole. On a
        # 2-core x86-64 host, `run` of the paper_ensemble batch (4
        # members, 800 steps, median of 8 alternating best-of-5) took
        # 27.4 ms that way against 38.3 ms with the row-level update of
        # the sparse path.
        np.copyto(y_hat, y, where=fired[:, :, None])
        disagreement_sq, increment = broadcast_terms(graph, y_hat, config)
    y += increment
    n = graph.n
    y.reshape(len(y), n * n)[:, :: n + 1] = x_new
    # y carries x_new on its diagonal, so it bounds the whole state; a NaN
    # fails the comparison as well
    if not np.abs(y, out=scratch).max() <= DIVERGENCE_GUARD:
        raise _diverged(config, state.step_index + 1)
    return y, state.age, y_hat, disagreement_sq, increment, None


def _advance_rows(state: EngineState, batch: Batch, fired: np.ndarray, x_new: np.ndarray):
    """The sparse path's rest of a step: quiet rows age by one step, the
    rows the events touched take their new terms and are anchored at the
    next step. Returns the new state's fields after ``x``."""
    game, graph, config = batch.scenario.game, batch.scenario.graph, batch.scenario.engine
    anchor, y_hat, age, terms = state.anchor, state.y_hat, state.age, state.row_terms
    disagreement_sq, increment = state.disagreement_sq, state.increment
    runs, n = state.x.shape
    age += 1.0
    if np.count_nonzero(fired):
        touched = touched_rows(graph, fired)
        touched[touched.sum(axis=1) > REANCHOR_SHARE * n] = True
        # every array as R * n rows of n: row r * n + i is member r's player i
        flat = np.flatnonzero(touched)
        # a burst anchors every row in place; otherwise the touched rows are gathered
        rows = slice(None) if flat.size == runs * n else flat
        players, k = flat % n, np.arange(flat.size)
        anchors, ages = anchor.reshape(runs * n, n), age.reshape(runs * n)
        # the touched rows at this step, before their increments change
        y_rows = anchors[rows]
        since = ages[rows] - 1.0
        if since.any():
            y_rows += since[:, None] * increment.reshape(runs * n, n)[rows]
        y_rows[k, players] = state.x.reshape(-1)[rows]
        fires = fired.reshape(-1)[rows]
        y_hat.reshape(runs * n, n)[flat[fires]] = y_rows[fires]

        union = np.flatnonzero(touched.any(axis=0))
        if union.size > REANCHOR_SHARE * n:
            disagreement_sq, increment = broadcast_terms(graph, y_hat, config)
        else:
            disagreement_sq[:, union], increment[:, union] = broadcast_terms(
                graph, y_hat, config, union
            )
        increments = increment.reshape(runs * n, n)[rows]
        y_rows += increments
        y_rows[k, players] = 0.0
        terms.reshape(len(terms), runs * n)[:, rows] = _row_terms(
            game, y_hat.reshape(runs * n, n)[rows], y_rows, increments, players
        )
        y_rows[k, players] = x_new.reshape(-1)[rows]
        if isinstance(rows, np.ndarray):
            anchors[rows] = y_rows
        ages[rows] = 0.0

    # |anchor| + age * |increment| bounds every entry of a row off the
    # diagonal, less a slack for the rounding of the norms; the rows it does
    # not clear are formed and checked exactly
    clear = DIVERGENCE_GUARD * (1.0 - 1e-6)
    anchor_norm, inc_norm = terms[5:]
    bound = anchor_norm + age * inc_norm
    if not (bound.max() <= clear and np.abs(x_new).max() <= DIVERGENCE_GUARD):
        over = np.flatnonzero(~(bound <= clear))
        y_rows = (
            anchor.reshape(runs * n, n)[over]
            + age.reshape(runs * n)[over, None] * increment.reshape(runs * n, n)[over]
        )
        y_rows[np.arange(over.size), over % n] = 0.0
        if not (
            np.abs(x_new).max() <= DIVERGENCE_GUARD
            and np.abs(y_rows).max(initial=0.0) <= DIVERGENCE_GUARD
        ):
            raise _diverged(config, state.step_index + 1)
    return anchor, age, y_hat, disagreement_sq, increment, terms


def run(scenario: Scenario, members: Sequence[Member]) -> list[RunResult]:
    """Integrate one run of the scenario per member over its horizon, all
    members in one batch.

    Each run is reproducible bit-for-bit and equals the run of its member
    alone. The members share the scenario's trigger parameters, and the
    error series are measured against ``scenario.ne_override``, which must
    be set. NumericalDivergence stops the whole batch at the first step
    where any member diverges.
    """
    x_star = scenario.ne_override
    if x_star is None:
        raise ValidationError("ne_override: unset; run measures the errors against it")
    config = scenario.engine
    n, steps, runs = scenario.n, config.steps, len(members)
    if (steps + 1) * runs * n * 8 > np.iinfo(np.intp).max:
        raise ValidationError(
            f"engine: {steps:.3g} steps of {runs} runs of {n} players exceed numpy's largest array"
        )
    batch = Batch.of(scenario, members)

    state = init(batch)
    times = np.arange(steps + 1) * config.dt
    actions = np.empty((steps + 1, runs, n))
    trig = np.zeros((steps + 1, runs, n), dtype=np.int8)
    rho = np.empty((steps, runs, n))
    actions[0] = state.x
    for k in range(steps):
        state, trig[k + 1], rho[k] = step(state, batch)
        actions[k + 1] = state.x
    err_inf = np.abs(actions - x_star).max(axis=-1)
    return [
        RunResult(
            times, actions[:, r], err_inf[:, r], trig[:, r], rho[:, r], batch.xi[:, r],
            x_star, config.dt,
        )
        for r in range(runs)
    ]
