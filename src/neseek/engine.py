"""Fixed-step integration of the coupled action/estimate dynamics.

Each step: (1) all players evaluate their communication law at once on the
current event errors, and those that fire re-broadcast their action and
estimate row;
(2) actions follow the projected own-gradient flow evaluated at each
player's local estimate row; (3) estimate rows relax toward the broadcast
field (neighbor estimates plus each neighbor's broadcast action); (4) a
forward Euler update advances the state, and the own-estimate diagonal is
pinned back to the actions.

The broadcasts are piecewise constant between events, and so is
everything the estimate coupling derives from them. The state carries those
terms, and a step forms them again only when a player fired: whole below
the sparse crossover, and only at the rows its broadcasts touch above it.

The state may carry a leading member axis: R runs of one scenario then
advance together, as (R, n) actions and (R, n, n) estimates. A member is a
law and a seed; the members of a batch share the scenario's trigger
parameters, and ``Batch.of`` turns them into each member's thresholds once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import metrics
from .bounds import sigma_bound
from .errors import DegenerateWindow, NumericalDivergence, ValidationError, integer, number
from .games import gradient_at_estimates
from .graphs import DirectedGraph
from .triggers import LawKind, decide, threshold_term, triggering_function, xi_from_uniform

if TYPE_CHECKING:
    from .scenario import Scenario

# State magnitudes beyond this abort the run: the step sizes are unstable.
DIVERGENCE_GUARD = 1e9

# The estimate coupling goes through W's CSR form from this many players on,
# when at most this share of the n*n weights are links. Measured on one core
# with two links a row: the sparse step is 1.2-1.6x slower up to n = 50, ties
# the dense one near n = 100 and is 1.8x faster at n = 500 and 2.5x at
# n = 1000; at n = 200-1000 it stops winning between 5% and 10% links.
SPARSE_MIN_N = 128
SPARSE_MAX_DENSITY = 0.05


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

    ``sigma`` is (R, n), each member's disagreement weights. ``xi`` and
    ``threshold`` are (steps, R, n): the random thresholds, NaN under the
    deterministic laws, and the right-hand side every law compares its
    margin with. ``static`` and ``continuous`` are (R, 1) law masks.
    """

    scenario: Scenario
    sigma: np.ndarray
    xi: np.ndarray
    threshold: np.ndarray
    static: np.ndarray
    continuous: np.ndarray

    @classmethod
    def of(cls, scenario: Scenario, members: Sequence[Member]) -> "Batch":
        """The members' inputs for every step of the scenario.

        A DYNAMIC member runs with its weights capped at
        ``sigma_bound(graph)``; every other member keeps the scenario's.
        Each stochastic member's player i draws from its own generator, the
        i-th child of ``SeedSequence(seed).spawn(n)``, so per-player streams
        are independent of one another. A stream is drawn whole up front:
        ``random(steps)`` yields the same doubles as ``steps`` scalar draws.
        The threshold at step k is ``(delta0 * exp(-eta * (k * dt)) / c) *
        threshold_term(params, xi[k])``, formed here for every step, so no
        step takes a log or an exponential.
        """
        if not members:
            raise ValueError("a batch needs at least one member")
        params, dt, steps = scenario.trigger, scenario.engine.dt, scenario.engine.steps
        xi = np.full((steps, len(members), params.n), math.nan)
        for r, m in enumerate(members):
            if m.law is LawKind.STOCHASTIC:
                streams = [
                    np.random.Generator(np.random.PCG64(ss)).random(steps)
                    for ss in np.random.SeedSequence(m.seed).spawn(params.n)
                ]
                xi[:, r] = xi_from_uniform(params, np.array(streams).T)
        dynamic = [m.law is LawKind.DYNAMIC for m in members]
        cap = sigma_bound(scenario.graph) if any(dynamic) else math.inf
        decay = params.delta0 * np.exp(-params.eta * (np.arange(steps) * dt))[:, None]
        threshold = threshold_term(params, xi)
        threshold *= (decay / params.c)[:, None]
        return cls(
            scenario,
            np.minimum(params.sigma, [[cap if d else math.inf] for d in dynamic]),
            xi,
            threshold,
            np.array([[m.law is LawKind.STATIC] for m in members]),
            np.array([[m.law is LawKind.CONTINUOUS] for m in members]),
        )


@dataclass
class EngineState:
    """Simulation state at one grid instant.

    The estimate matrix keeps row i as player i's view of everyone; its
    diagonal always equals the actions. Broadcast copies hold the most
    recently transmitted values. Two terms of the estimate coupling are
    carried with them, both functions of the broadcasts alone (see
    ``broadcast_terms``): ``disagreement_sq``, the squared norm of each row
    of ``din * y_hat - W @ y_hat``, which the triggering function reads, and
    ``increment``, the estimate update ``dt * (-beta * bracket)``, under the
    step sizes of the scenario's engine config. The arrays may share
    a leading member axis. The instant is ``step_index * dt``.
    """

    step_index: int
    x: np.ndarray
    y: np.ndarray
    x_hat: np.ndarray
    y_hat: np.ndarray
    disagreement_sq: np.ndarray
    increment: np.ndarray


@dataclass
class RunResult:
    """One run on the grid t_k = k*dt, k = 0..steps, with its statistics.

    ``trig`` is the (steps + 1, n) fire matrix, with an all-zero row 0 so its
    rows align with ``times``: ``trig[k + 1]`` holds the decisions made at
    t_k. ``rho`` and ``xi`` are the (steps, n) triggering-function values and
    random thresholds of those evaluations; ``xi`` is NaN under the
    deterministic laws. The statistics are derived from ``trig`` and
    ``err_inf`` on first use and then cached.
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
        try:
            return metrics.rate_fit(self.times, self.err_inf)
        except DegenerateWindow:
            return math.nan


def sparse_coupling(graph: DirectedGraph) -> bool:
    """True when ``coupling`` applies W through its CSR form, not densely."""
    n = graph.n
    return n >= SPARSE_MIN_N and len(graph.links[0]) <= SPARSE_MAX_DENSITY * n * n


def coupling(
    graph: DirectedGraph, x_hat: np.ndarray, y_hat: np.ndarray, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The estimate coupling of the broadcasts: ``disagreement = din * y_hat -
    W @ y_hat`` and the bracket ``disagreement + W * (y_hat - x_hat)`` of the
    estimate dynamics, where column j of the second term reads x_hat[j].

    Takes (n,) and (n, n) broadcasts or a leading member axis on both, and
    returns new arrays; with ``rows``, an array of row indices, only those
    rows of both terms. On the sparse path the members fold into the columns
    of one CSR product, and the second term is formed only at the links; a
    CSR row slice keeps each row's summation order, so a row comes out the
    same whichever rows are asked for. With unit weights and at most two
    links per row both paths give the same bits.
    """
    din, own = graph.in_degrees[:, None], y_hat
    if rows is not None:
        din, own = din[rows], y_hat[..., rows, :]
    if not sparse_coupling(graph):
        weights = graph.weights if rows is None else graph.weights[rows]
        disagreement = din * own - weights @ y_hat
        return disagreement, disagreement + weights * (own - x_hat[..., None, :])
    w = graph.csr if rows is None else graph.csr[rows]
    n, m = graph.n, w.shape[0]
    # (..., n, n) -> (n, ... * n): row i of the product is W[i] @ y_hat[..., :, :]
    folded = np.moveaxis(y_hat, -2, 0).reshape(n, -1)
    w_y = np.moveaxis((w @ folded).reshape(m, *y_hat.shape[:-2], n), 0, -2)
    disagreement = np.subtract(din * own, w_y, out=w_y)
    # the links of the rows asked for, in w's own row numbering
    link_rows, cols = np.repeat(np.arange(m), np.diff(w.indptr)), w.indices
    bracket = disagreement.copy()
    bracket[..., link_rows, cols] += w.data * (own[..., link_rows, cols] - x_hat[..., cols])
    return disagreement, bracket


def broadcast_terms(
    graph: DirectedGraph,
    x_hat: np.ndarray,
    y_hat: np.ndarray,
    config: EngineConfig,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The state's ``disagreement_sq`` and ``increment`` for these broadcasts,
    at ``rows`` when given (see ``coupling``): the squared row norms of the
    disagreement, and the bracket scaled as ``(bracket * -beta) * dt``."""
    disagreement, bracket = coupling(graph, x_hat, y_hat, rows)
    bracket *= -config.beta
    bracket *= config.dt
    return (disagreement * disagreement).sum(axis=-1), bracket


def touched_rows(graph: DirectedGraph, fired: np.ndarray) -> np.ndarray:
    """The rows whose coupling terms change when the players that fired for
    any member re-broadcast: those players and every player hearing one of
    them, as increasing indices. Read from the links, not the weights."""
    hit = fired.reshape(-1, graph.n).any(axis=0)
    rows, cols = graph.links
    hit[rows[hit[cols]]] = True
    return np.flatnonzero(hit)


def with_members(state: EngineState, runs: int) -> EngineState:
    """The state repeated along a new leading member axis of length ``runs``."""
    arrays = [f.name for f in fields(state) if f.name != "step_index"]
    return replace(state, **{k: np.stack([getattr(state, k)] * runs) for k in arrays})


def init(scenario: Scenario) -> EngineState:
    """The scenario's initial state: broadcasts equal the state, so event
    errors start at zero, and their terms are formed under the scenario's
    engine config.

    The diagonal of y0 is overwritten with x0 to keep own-estimates exact.
    The scenario validated its start when it was built.
    """
    n = scenario.n
    x0, y0 = scenario.x0.copy(), scenario.y0.copy()
    y0[np.arange(n), np.arange(n)] = x0
    terms = broadcast_terms(scenario.graph, x0, y0, scenario.engine)
    return EngineState(0, x0, y0, x0.copy(), y0.copy(), *terms)


def step(state: EngineState, batch: Batch) -> tuple[EngineState, np.ndarray, np.ndarray]:
    """Advance one grid step of the batch's scenario and members.

    Returns the new state, the boolean fire mask and the triggering-function
    values of this step's evaluations, both shaped like ``state.x`` with the
    batch's member axis. Trigger decisions are made before derivatives are
    computed, so the broadcast values entering the estimate dynamics are the
    latest ones.

    The step takes ownership of the input state's ``x_hat``, ``y_hat``,
    ``disagreement_sq`` and ``increment``: it writes the fired players' rows
    into them in place and hands them on in the new state, so a state must
    not be stepped twice; step a copy instead. A state without the member
    axis under a batch with one takes the axis on first.

    The coupling terms are formed again only when some player fired: a
    quiet step has the same broadcasts, so it keeps the carried terms and
    their bits. Below the sparse crossover a step that fires recomputes
    both terms whole. On the sparse path only the rows ``touched_rows``
    names are, through one CSR slice for every member. Every other row
    depends only on broadcasts that did not change, and a row is the same
    sum in the same order whichever rows are recomputed, so the bits equal
    a full recompute.
    """
    game, graph, config = batch.scenario.game, batch.scenario.graph, batch.scenario.engine
    if state.x.ndim < batch.sigma.ndim:
        state = with_members(state, len(batch.sigma))
    x, y, x_hat, y_hat = state.x, state.y, state.x_hat, state.y_hat
    e_x = x_hat - x
    e_y = y_hat - y
    action_err_sq = e_x * e_x
    # e_y's buffer is reused for its square and, below, for the guard
    estimate_err_sq = np.multiply(e_y, e_y, out=e_y).sum(axis=-1)
    energy = action_err_sq + estimate_err_sq

    rho = triggering_function(energy, state.disagreement_sq, batch.sigma)
    fired = decide(
        rho, energy, batch.threshold[state.step_index], batch.static, batch.continuous
    )

    lo, hi = game.bounds
    grad = gradient_at_estimates(game, y)
    # np.minimum/np.maximum skip np.clip's Python wrapper, with the same bits
    xdot = np.minimum(np.maximum(x - config.alpha * grad, lo), hi) - x
    disagreement_sq, increment = state.disagreement_sq, state.increment
    if fired.any():
        if not sparse_coupling(graph):
            # A dense step that fires recomputes both terms whole. On a
            # 2-core x86-64 host, `run` of the paper_ensemble batch (4
            # members, 800 steps, median of 8 alternating best-of-5) took
            # 27.4 ms that way against 38.3 ms with the row-level update of
            # the sparse path. Nor would rows keep the bits: dense
            # W[rows] @ Y is not always (W @ Y)[rows]; 112 of 600 random
            # small cases differed.
            np.copyto(x_hat, x, where=fired)
            np.copyto(y_hat, y, where=fired[..., None])
            disagreement_sq, increment = broadcast_terms(graph, x_hat, y_hat, config)
        else:
            who = np.nonzero(fired)
            x_hat[who] = x[who]
            y_hat[who] = y[who]
            rows = touched_rows(graph, fired)
            disagreement_sq[..., rows], increment[..., rows, :] = broadcast_terms(
                graph, x_hat, y_hat, config, rows
            )

    k_new = state.step_index + 1
    x_new = x + config.dt * xdot
    y_new = y + increment
    # the diagonal of the fresh, contiguous y_new as a flat strided view
    n = graph.n
    y_new.reshape(*x_new.shape[:-1], n * n)[..., :: n + 1] = x_new

    # y_new carries x_new on its diagonal, so it bounds the whole state; a
    # NaN fails the comparison as well
    if not np.abs(y_new, out=e_y).max() <= DIVERGENCE_GUARD:
        raise NumericalDivergence(
            f"state magnitude exceeded {DIVERGENCE_GUARD:.0e} or became non-finite "
            f"at t={k_new * config.dt:.6g}; reduce alpha, beta, or dt"
        )

    new = EngineState(k_new, x_new, y_new, x_hat, y_hat, disagreement_sq, increment)
    return new, fired, rho


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
        raise ValueError("run needs scenario.ne_override: the errors are measured against it")
    config = scenario.engine
    n, steps, runs = scenario.n, config.steps, len(members)
    batch = Batch.of(scenario, members)

    state = with_members(init(scenario), runs)
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
