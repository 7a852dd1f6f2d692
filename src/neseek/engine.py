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
which ``triggers.law_inputs`` turns into each member's thresholds once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import metrics
from .errors import NumericalDivergence, ValidationError, integer, number
from .games import functional_from_others, gradient_kernel, row_functional
from .graphs import DirectedGraph
from .triggers import LawKind, decide, law_inputs, triggering_function

if TYPE_CHECKING:
    from .scenario import Scenario

# State magnitudes beyond this abort the run: the step sizes are unstable.
DIVERGENCE_GUARD = 1e9
# |anchor| + age * |increment| bounds every entry of a row off the diagonal;
# a row is formed and checked when its bound passes this, the guard less a
# slack for the rounding of the norms
_CLEAR = DIVERGENCE_GUARD * (1.0 - 1e-6)

# The sparse path, with its closed-form rows and W's CSR form, runs from this
# many players on, when at most this share of the n*n weights are links; the
# dense path runs below. Both stay because each wins on its side. Measured
# on a 2-core x86-64 host with one BLAS thread: `run` of the four-member
# `spectrum_paper` batch (static, dynamic and two stochastic members, n = 5)
# took 20-22 ms on the dense path and 97-102 ms on the closed-form kernel
# (medians of 9, three rounds). On the generated ring-plus-chord graphs of
# `bench/scenarios.py` (one member, 40 steps, medians of five alternating
# rounds) the sparse/dense time of `run` under the stochastic, dynamic and
# static laws was 1.65, 2.49 and 2.30 at n = 64. Measured again once a quiet
# step's guard was O(1) and a burst formed its terms in place (three runs of
# the same script): 0.63-0.72, 0.89-0.98 and 0.91-1.03 at n = 128, and
# 0.42-0.47, 0.48-0.55 and 0.63-0.75 at n = 200, against 0.65, 1.04 and
# 1.05, and 0.43, 0.59 and 0.79 before: the paths cross at about n = 128,
# the stochastic law between n = 64 and 128. The density cap is
# older: when the sparse step formed every row, it stopped winning between
# 5% and 10% links at n = 200-1000.
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
        if bad := [k for k in ("alpha", "beta") if not 0 < getattr(self, k) < math.inf]:
            raise ValidationError(f"{bad[0]} must be positive and finite")
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
    """The trigger-decision inputs of the R ``members`` of one scenario, as
    ``triggers.law_inputs`` defines them.

    ``sigma`` is (R, n), each member's disagreement weights. ``xi``,
    ``lower`` and ``upper`` are (steps, R, n): the random thresholds, NaN
    under the deterministic laws, and the tie bounds of the right-hand side
    every law compares its margin with, both equal to it where ``xi`` is
    NaN. ``scale`` is the (steps, n) ``delta / c`` of every step and
    ``ln_kappa`` the ``math.log`` of kappa, from which ``decide`` forms a
    drawn threshold again at a tie. A law is its row of ``sigma`` and its
    thresholds, and every member's margin is
    ``triggering_function(energy, disagreement_sq, sigma)``.
    """

    scenario: Scenario
    members: tuple[Member, ...]
    sigma: np.ndarray
    xi: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    scale: np.ndarray
    ln_kappa: float

    @classmethod
    def of(cls, scenario: Scenario, members: Sequence[Member]) -> "Batch":
        """The members' inputs for every step of the scenario, formed once by
        ``law_inputs`` from its trigger parameters, grid and graph."""
        if not members:
            raise ValidationError("members: a batch needs at least one member")
        params, config = scenario.trigger, scenario.engine
        laws, seeds = [m.law for m in members], [m.seed for m in members]
        inputs = law_inputs(params, laws, seeds, config.steps, config.dt, scenario.graph)
        return cls(scenario, tuple(members), *inputs, math.log(params.kappa))


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
    config, zero on the diagonal on the sparse path. A step that forms them
    whole writes them into these arrays.

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
    gradient; and |anchor_i| and |increment_i|: the divergence guard reads
    the row's bound |anchor_i| + age_i * |increment_i| only when the largest
    norms and age, formed when a step fires, do not clear it.

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
    graph: DirectedGraph, y_hat: np.ndarray, config: EngineConfig, rows: np.ndarray | None = None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The state's ``disagreement_sq`` and ``increment`` for the (R, n, n)
    broadcasts ``y_hat``, as new arrays: the squared row norms of
    ``disagreement = din * y_hat - W @ y_hat``, and the bracket
    ``disagreement + W * (y_hat - x_hat)`` of the estimate dynamics scaled as
    ``(bracket * -beta) * dt``, where column j of the second term reads the
    broadcast action x_hat[j] = y_hat[j, j]. ``rows``, an array of row
    indices in any order, asks for those rows alone, with the bits of the
    same rows of the full form, as (R, len(rows)) and (R, len(rows), n)
    arrays on either path; ``out``, a pair of arrays, takes the full form.

    The dense path forms every row by ``_dense_coupling``, which the dense
    step loop calls as well, and takes the asked rows from them. The sparse
    path folds the members into the columns of one CSR product and forms the
    second term only at the entries of ``graph.links``, whose weights
    ``graph.csr.data`` holds in the same order; the asked rows are taken
    from the whole product, and every later pass runs over them and their
    links only; into ``out``, the full form makes no (R, n, n) array but the
    product. einsum scales the rows by din, and makes +0.0 of -0.0. With
    unit weights and at most two links per row both paths give the same
    bits, but for the diagonal of the increment: a row's own entry is the
    action, which the estimate dynamics do not move, and the sparse path
    sets it to zero, so that the row terms of the state read whole rows. The
    dense path leaves it, and a step overwrites it.
    """
    if not sparse_coupling(graph):
        coupling = _dense_coupling(graph, config, y_hat)
        terms = coupling(*(out or (np.empty(y_hat.shape[:-1]), np.empty(y_hat.shape))))
        return terms if rows is None else tuple(term[:, rows] for term in terms)
    (runs, n, _), (link_rows, cols), weights = y_hat.shape, graph.links, graph.csr.data
    # (R, n, n) -> (n, R * n): row i of the product is W[i] @ y_hat[r] for every r
    folded = y_hat.transpose(1, 0, 2).reshape(n, runs * n)
    w_y = (graph.csr @ folded).reshape(n, runs, n).transpose(1, 0, 2)
    din, own = graph.in_degrees, y_hat
    if rows is None:
        rows = np.arange(n)
    else:
        # the asked rows' links, their rows renumbered to positions in rows
        at = np.full(n, -1)
        at[rows] = np.arange(len(rows))
        link_rows = at[link_rows]
        asked = link_rows >= 0
        link_rows, cols, weights = link_rows[asked], cols[asked], weights[asked]
        din, own, w_y = din[rows], y_hat[:, rows], w_y[:, rows]
    disagreement_sq, bracket = out or (np.empty(own.shape[:-1]), np.empty(own.shape))
    disagreement = np.subtract(np.einsum("rij,i->rij", own, din, out=bracket), w_y, out=w_y)
    np.multiply(disagreement, -config.beta, out=bracket)
    bracket[:, link_rows, cols] = (
        disagreement[:, link_rows, cols]
        + weights * (own[:, link_rows, cols] - y_hat[:, cols, cols])
    ) * -config.beta
    bracket *= config.dt
    bracket[:, np.arange(len(rows)), rows] = 0.0
    return np.add.reduce(np.square(w_y, out=w_y), axis=-1, out=disagreement_sq), bracket


def _dense_coupling(graph: DirectedGraph, config: EngineConfig, y_hat: np.ndarray):
    """The dense ``broadcast_terms`` of ``y_hat`` as it stands at each call, as
    a function ``coupling(disagreement_sq, increment)`` that forms both terms
    into those arrays and returns them; din, W, -beta and dt broadcast once."""
    constants = graph.in_degrees[:, None], graph.weights, -config.beta, config.dt
    din, weights, neg_beta, dt = (np.full(y_hat.shape, v) for v in constants)
    x_hat, work = y_hat.diagonal(0, 1, 2)[:, None, :], np.empty(y_hat.shape)

    def coupling(disagreement_sq, increment):
        w_y = np.matmul(graph.weights, y_hat, out=increment)
        disagreement = np.subtract(np.multiply(din, y_hat, out=work), w_y, out=work)
        # ((disagreement + W * (y_hat - x_hat)) * -beta) * dt
        np.subtract(y_hat, x_hat, out=increment)
        increment *= weights
        increment += disagreement
        increment *= neg_beta
        increment *= dt
        np.add.reduce(np.square(disagreement, out=work), axis=-1, out=disagreement_sq)
        return disagreement_sq, increment

    return coupling


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


def _dot(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.einsum("...j,...j->...", a, b, out=out)


def _row_terms(
    game, y_hat: np.ndarray, anchor: np.ndarray, increment: np.ndarray, players: np.ndarray, out
):
    """Form into ``out`` the (7, ..., K) ``EngineState.row_terms`` of K estimate
    rows, row k being player ``players[k]``'s: its broadcast row, its anchor,
    whose own entry it zeroes, and its increment, zero there already."""
    d_sq, d_inc, inc_sq, f_anchor, f_inc, anchor_norm, inc_norm = out
    own = ..., np.arange(len(players)), players
    anchor[own] = 0.0
    d = y_hat - anchor
    d[own] = 0.0
    _dot(d, d, d_sq)
    _dot(d, increment, d_inc)
    _dot(increment, increment, inc_sq)
    row_functional(game, anchor, players, out=f_anchor)
    row_functional(game, increment, players, out=f_inc)
    np.sqrt(_dot(anchor, anchor, anchor_norm), out=anchor_norm)
    np.sqrt(inc_sq, out=inc_norm)


def init(batch: Batch) -> EngineState:
    """The initial state of the batch's members: broadcasts equal the state,
    so event errors start at zero, and their terms are formed under the
    scenario's engine config. Every row is anchored at step 0. The
    scenario's start is repeated along the member axis, and its terms are
    formed for all members at once, each with the bits of a member alone.

    The diagonal of y0 is overwritten with x0 to keep own-estimates exact.
    The scenario validated its start when it was built.
    """
    scenario, runs = batch.scenario, len(batch.sigma)
    n, players = scenario.n, np.arange(scenario.n)
    x, anchor = (np.repeat(a[None], runs, axis=0) for a in (scenario.x0, scenario.y0))
    anchor[:, players, players] = x
    y_hat = anchor.copy()
    disagreement_sq, increment = broadcast_terms(scenario.graph, y_hat, scenario.engine)
    row_terms = None
    if sparse_coupling(scenario.graph):
        row_terms = np.empty((7, runs, n))
        _row_terms(scenario.game, y_hat, anchor.copy(), increment, players, row_terms)
    return EngineState(
        0, x, anchor, np.zeros((runs, n)), y_hat, disagreement_sq, increment, row_terms
    )


def step(state: EngineState, batch: Batch) -> tuple[EngineState, np.ndarray, np.ndarray]:
    """Advance one grid step of the batch's scenario and members, by ``run``'s
    loop. Returns the new state, the boolean fire mask and ``rho``, the
    triggering function of the step, both (R, n) like ``state.x``. The new
    state owns the input state's arrays and updated them in place, so a
    state must not be stepped twice; step a copy instead. Its arrays must be
    C-contiguous, as ``init`` makes them, and its step index one of the
    batch's steps."""
    # the step writes these through reshape, which of an array that is not
    # C-contiguous returns a copy, so the writes would be lost
    for name in ("anchor", "age", "y_hat", "row_terms"):
        if (array := getattr(state, name)) is not None and not array.flags.c_contiguous:
            raise ValidationError(f"state: {name}: must be C-contiguous, as init makes it")
    # a step reads its thresholds at the step index, and numpy would read a
    # negative one from the end
    k, steps = state.step_index, len(batch.lower)
    if not 0 <= k < steps:
        raise ValidationError(f"state: step_index: {k} is not in the batch's steps 0..{steps - 1}")
    x_new, rho = np.empty((2, 1, *state.x.shape))
    fired = np.empty(rho.shape, dtype=bool)
    return _integrate(state, batch, x_new, fired, rho), fired[0], rho[0]


def _diverged(batch: Batch, k: int, bad: np.ndarray) -> NumericalDivergence:
    """The error of the step to t_k, naming the first player ``bad``, (R, n), marks."""
    r, player = np.unravel_index(np.argmax(bad), bad.shape)
    member, bound = batch.members[r], batch.scenario.graph.sigma_bound
    # the continuous law fires at every step, whatever its sigma
    admitted = member.law is LawKind.CONTINUOUS or (batch.sigma[r] <= bound).all()
    cause = "" if admitted else f"its sigma exceeds sigma_bound {bound:.6g}; "
    return NumericalDivergence(
        f"state magnitude exceeded {DIVERGENCE_GUARD:.0e} or became non-finite at t="
        f"{k * batch.scenario.engine.dt:.6g}; member {r} ({member.law.value}, seed {member.seed}), "
        f"player {player}; {cause}reduce alpha, beta, or dt"
    )


def _integrate(state: EngineState, batch: Batch, x_rows, fired_rows, rho_rows) -> EngineState:
    """Advance ``state`` over the steps [k0, k0 + len(rho_rows)), k0 its step
    index: step k0 + j writes its rho, fire mask and new actions into row j
    of ``rho_rows``, ``fired_rows`` and ``x_rows``, where the next step reads
    its ``x``. Returns the last state, which owns the input state's arrays.

    Trigger decisions precede the derivatives, so the broadcasts entering
    the estimate dynamics are the latest ones. The coupling terms are formed
    again only when some player fired: a quiet step keeps them and their
    bits. Below the sparse crossover the constants are broadcast and the
    work arrays allocated once per call, every array is written in place, a
    step that fires forms both terms whole and every row takes the
    increment. On the sparse path a quiet step reads each row through its
    ``row_terms`` in O(n) per member, and one that fires forms again only
    the rows ``touched_rows`` names (all of a member's past
    ``REANCHOR_SHARE``), so a member's run has the same bits in any batch.
    """
    game, graph, config = batch.scenario.game, batch.scenario.graph, batch.scenario.engine
    state = replace(state)
    x, anchor, age, y_hat, terms = state.x, state.anchor, state.age, state.y_hat, state.row_terms
    lo, hi, alpha, dt = (np.full(x.shape, v) for v in (*game.bounds, config.alpha, config.dt))
    gradient = gradient_kernel(game, x.shape)
    lower, upper, xi, scale = batch.lower, batch.upper, batch.xi, batch.scale
    # views that stay valid: every step updates y_hat, anchor and the row
    # terms in place
    x_hat, pinned = y_hat.diagonal(0, 1, 2), anchor.reshape(len(x), -1)[:, :: x.shape[1] + 1]
    err, functional, grad = np.empty((3, *x.shape))
    if terms is None:
        # the sparse path's quiet steps form no (R, n, n) array
        work, coupling = np.empty(anchor.shape), _dense_coupling(graph, config, y_hat)
    else:
        d_sq, d_inc, inc_sq, f_anchor, f_inc = terms[:5]
        top = _top(terms, age)
    for j in range(len(rho_rows)):
        k, rho, x_new = state.step_index, rho_rows[j], x_rows[j]
        action_err_sq = np.square(np.subtract(x_hat, x, out=err), out=err)
        if terms is None:
            # every row is at its anchor, which is the estimate matrix
            e_y = np.subtract(y_hat, anchor, out=work)
            np.add.reduce(np.square(e_y, out=work), axis=-1, out=rho)
            # the own entry of a row is the action, pinned to x
            gradient(x, row_functional(game, anchor, out=functional), grad)
        else:
            # the own entry of e_y is e_x; off it, |d - age * increment|^2
            # expanded, d_sq - age * (2 * d_inc - age * inc_sq), which
            # rounding can take below zero; rho and functional hold the terms
            off = np.multiply(d_inc, 2.0, out=rho)
            off -= np.multiply(age, inc_sq, out=functional)
            np.subtract(d_sq, np.multiply(age, off, out=off), out=off)
            np.add(action_err_sq, np.maximum(off, 0.0, out=off), out=rho)
            total = np.add(f_anchor, np.multiply(age, f_inc, out=functional), out=functional)
            gradient(x, functional_from_others(game, x, total), grad)
        # energy: the action's event error and the estimate row's
        np.add(action_err_sq, rho, out=rho)
        triggering_function(rho, state.disagreement_sq, batch.sigma, out=rho)
        fired_rows[j] = fired = decide(rho, lower[k], upper[k], xi[k], scale[k], batch.ln_kappa)

        # x + dt * (min(max(x - alpha * grad, lo), hi) - x); np.minimum and
        # np.maximum skip np.clip's Python wrapper, with the same bits
        np.subtract(x, np.multiply(grad, alpha, out=grad), out=grad)
        np.minimum(np.maximum(grad, lo, out=grad), hi, out=grad)
        np.multiply(np.subtract(grad, x, out=grad), dt, out=grad)
        np.add(x, grad, out=x_new)
        # count_nonzero skips the Python-level dispatch of fired.any()
        if terms is None:
            if np.count_nonzero(fired):
                np.copyto(y_hat, anchor, where=fired[:, :, None])
                coupling(state.disagreement_sq, state.increment)
            anchor += state.increment
            pinned[...] = x_new
            # anchor carries x_new on its diagonal, so it bounds the whole
            # state; a NaN fails the comparison as well
            if not np.maximum.reduce(np.abs(anchor, out=work), axis=None) <= DIVERGENCE_GUARD:
                raise _diverged(batch, k + 1, (~(work <= DIVERGENCE_GUARD)).any(axis=-1))
        else:
            age += 1.0
            top[1] += 1.0
            if np.count_nonzero(fired):
                _advance_rows(state, batch, fired, x_new)
                top = _top(terms, age)
            # the largest of each factor bound every row's bound: rounding is monotone
            if not (top[0] + top[1] * top[2] <= _CLEAR and _peak(x_new, err) <= DIVERGENCE_GUARD):
                _guard_rows(state, batch, x_new)
        state.x = x = x_new
        state.step_index = k + 1
    return state


def _top(terms: np.ndarray, age: np.ndarray) -> list[float]:
    # the largest anchor norm, age and increment norm of a sparse state
    return [float(np.maximum.reduce(a, axis=None)) for a in (terms[5], age, terms[6])]


def _peak(a: np.ndarray, work: np.ndarray):
    # the largest magnitude in a, through work, or NaN if a holds one
    return np.maximum.reduce(np.abs(a, out=work), axis=None)


def _advance_rows(state: EngineState, batch: Batch, fired: np.ndarray, x_new: np.ndarray):
    """The sparse path's rest of a step that fired, its rows aged: the rows
    the events touched take new terms and are anchored at the next step."""
    game, graph, config = batch.scenario.game, batch.scenario.graph, batch.scenario.engine
    anchor, y_hat, age, terms = state.anchor, state.y_hat, state.age, state.row_terms
    runs, n = state.x.shape
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
    if np.count_nonzero(since):
        # a row scaling, faster by einsum than by a broadcast multiply
        y_rows += np.einsum("ij,i->ij", state.increment.reshape(runs * n, n)[rows], since)
    y_rows[k, players] = state.x.reshape(-1)[rows]
    fires = fired.reshape(-1)[rows]
    y_hat.reshape(runs * n, n)[flat[fires]] = y_rows[fires]

    union = np.flatnonzero(np.logical_or.reduce(touched, axis=0))
    if union.size > REANCHOR_SHARE * n:
        broadcast_terms(graph, y_hat, config, out=(state.disagreement_sq, state.increment))
    else:
        state.disagreement_sq[:, union], state.increment[:, union] = broadcast_terms(
            graph, y_hat, config, union
        )
    increments = state.increment.reshape(runs * n, n)[rows]
    y_rows += increments
    # a view in a burst, as y_rows is, and otherwise a gathered copy
    row_terms = terms.reshape(len(terms), runs * n)[:, rows]
    _row_terms(game, y_hat.reshape(runs * n, n)[rows], y_rows, increments, players, row_terms)
    y_rows[k, players] = x_new.reshape(-1)[rows]
    if isinstance(rows, np.ndarray):
        anchors[rows], terms.reshape(len(terms), runs * n)[:, rows] = y_rows, row_terms
    ages[rows] = 0.0


def _guard_rows(state: EngineState, batch: Batch, x_new: np.ndarray):
    """The sparse guard past the largest bounds: the actions and uncleared rows."""
    runs, n = x_new.shape
    over = np.flatnonzero(~(state.row_terms[5] + state.age * state.row_terms[6] <= _CLEAR))
    anchors, ages, increments = (
        a.reshape(runs * n, -1)[over] for a in (state.anchor, state.age, state.increment)
    )
    y_rows = anchors + ages * increments
    y_rows[np.arange(over.size), over % n] = 0.0
    # a NaN fails the comparisons as well
    bad = ~(np.abs(x_new) <= DIVERGENCE_GUARD)
    bad.reshape(-1)[over] |= ~(np.abs(y_rows) <= DIVERGENCE_GUARD).all(axis=-1)
    if bad.any():
        raise _diverged(batch, state.step_index + 1, bad)


def run(scenario: Scenario, members: Sequence[Member]) -> list[RunResult]:
    """Integrate one run of the scenario per member over its horizon, all
    members in one batch.

    Each run is reproducible bit-for-bit and equals the run of its member
    alone. The members share the scenario's trigger parameters, and their
    errors are measured against ``scenario.x_star``. NumericalDivergence
    stops the whole batch at the first step where any member diverges.
    """
    x_star = scenario.x_star
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
    # the loop writes the fire masks through a bool view: 0 and 1 in one byte each
    _integrate(state, batch, actions[1:], trig[1:].view(bool), rho)
    err_inf = np.abs(actions - x_star).max(axis=-1)
    return [
        RunResult(
            times, actions[:, r], err_inf[:, r], trig[:, r], rho[:, r], batch.xi[:, r],
            x_star, config.dt,
        )
        for r in range(runs)
    ]
