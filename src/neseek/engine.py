"""Fixed-step integration of the coupled action/estimate dynamics.

Each step: (1) all players evaluate their communication law at once on the
current event errors, and those that fire re-broadcast their action and
estimate row;
(2) actions follow the projected own-gradient flow evaluated at each
player's local estimate row; (3) estimate rows relax toward the broadcast
field (neighbor estimates plus each neighbor's broadcast action); (4) a
forward Euler update advances the state, and the own-estimate diagonal is
pinned back to the actions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics as metrics_mod
from . import oracle
from .errors import InfeasibleStart, NumericalDivergence
from .games import GameDefinition, gradient_at_estimates
from .graphs import DirectedGraph
from .triggers import LawKind, TriggerParams, decide, triggering_function, xi_from_uniform

# State magnitudes beyond this abort the run: the step sizes are unstable.
DIVERGENCE_GUARD = 1e9


@dataclass(frozen=True)
class EngineConfig:
    alpha: float
    beta: float
    horizon: float
    seed: int
    law: LawKind
    dt: float = 0.025

    def __post_init__(self):
        # written so that NaN fails every check
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("alpha and beta must be positive")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not math.isfinite(self.horizon):
            raise ValueError("horizon must be finite")
        if self.dt > self.horizon:
            raise ValueError("dt must not exceed the horizon")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")

    @property
    def steps(self) -> int:
        return max(1, int(math.ceil(self.horizon / self.dt - 1e-9)))


@dataclass
class EngineState:
    """Simulation state at one grid instant.

    The estimate matrix keeps row i as player i's view of everyone; its
    diagonal always equals the actions. Broadcast copies hold the most
    recently transmitted values.
    """

    t: float
    step_index: int
    x: np.ndarray
    y: np.ndarray
    x_hat: np.ndarray
    y_hat: np.ndarray
    delta: np.ndarray


@dataclass
class RunResult:
    """One run on the grid t_k = k*dt, k = 0..steps.

    ``trig`` is the (steps + 1, n) fire matrix, with an all-zero row 0 so its
    rows align with ``times``: ``trig[k + 1]`` holds the decisions made at
    t_k. ``rho`` and ``xi`` are the (steps, n) triggering-function values and
    random thresholds of those evaluations; ``xi`` is NaN under the
    deterministic laws.
    """

    times: np.ndarray
    actions: np.ndarray
    err_inf: np.ndarray
    trig: np.ndarray
    rho: np.ndarray
    xi: np.ndarray
    metrics: "metrics_mod.RunMetrics"
    x_star: np.ndarray

    @property
    def gamma(self) -> np.ndarray:
        return self.metrics.gamma_series


def check_start(game: GameDefinition, x0: np.ndarray, error: type[Exception]) -> None:
    """Raise ``error`` naming the first entry of x0 outside its action interval.

    Written so that a NaN entry counts as outside.
    """
    lo, hi = game.bounds
    bad = np.flatnonzero(~((x0 >= lo) & (x0 <= hi)))
    if bad.size:
        i = int(bad[0])
        raise error(f"x0[{i}]={x0[i]} outside [{lo[i]}, {hi[i]}]")


def init(
    game: GameDefinition,
    graph: DirectedGraph,
    trigger_params: TriggerParams,
    config: EngineConfig,
    x0: np.ndarray,
    y0: np.ndarray,
) -> EngineState:
    """Initial state: broadcasts equal the state, so event errors start at zero.

    The diagonal of y0 is overwritten with x0 to keep own-estimates exact.
    """
    n = graph.n
    x0 = np.array(x0, dtype=float)
    y0 = np.array(y0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have length {n}")
    if y0.shape != (n, n):
        raise ValueError(f"y0 must be {n}x{n}")
    if trigger_params.n != n:
        raise ValueError("trigger parameters and graph disagree on player count")
    check_start(game, x0, InfeasibleStart)
    y0[np.arange(n), np.arange(n)] = x0
    return EngineState(
        t=0.0,
        step_index=0,
        x=x0,
        y=y0,
        x_hat=x0.copy(),
        y_hat=y0.copy(),
        delta=np.array(trigger_params.delta0, dtype=float),
    )


def step(
    state: EngineState,
    game: GameDefinition,
    graph: DirectedGraph,
    trigger_params: TriggerParams,
    config: EngineConfig,
    u: np.ndarray,
) -> tuple[EngineState, np.ndarray, np.ndarray]:
    """Advance one grid step, given each player's uniform draw ``u``.

    Returns the new state, the boolean fire mask and the triggering-function
    values of this step's evaluations. Trigger decisions are made before
    derivatives are computed, so the broadcast values entering the estimate
    dynamics are the latest ones.
    """
    n = graph.n
    weights = graph.weights
    din = graph.in_degrees

    x = state.x
    y = state.y
    e_x = state.x_hat - x
    e_y = state.y_hat - y
    action_err_sq = e_x * e_x
    estimate_err_sq = (e_y * e_y).sum(axis=1)
    disagreement = din[:, None] * state.y_hat - weights @ state.y_hat
    disagreement_sq = (disagreement * disagreement).sum(axis=1)

    rho = triggering_function(action_err_sq, estimate_err_sq, disagreement_sq, trigger_params.sigma)
    fired = decide(
        config.law, trigger_params, rho, action_err_sq + estimate_err_sq, state.delta, u
    )
    x_hat = np.where(fired, x, state.x_hat)
    y_hat = np.where(fired[:, None], y, state.y_hat)

    lo, hi = game.bounds
    grad = gradient_at_estimates(game, y)
    xdot = np.clip(x - config.alpha * grad, lo, hi) - x
    ydot = -config.beta * (
        din[:, None] * y_hat - weights @ y_hat + weights * (y_hat - x_hat[None, :])
    )

    k_new = state.step_index + 1
    t_new = k_new * config.dt
    x_new = x + config.dt * xdot
    y_new = y + config.dt * ydot
    y_new[np.arange(n), np.arange(n)] = x_new

    # y_new carries x_new on its diagonal, so it bounds the whole state; a
    # NaN fails the comparison as well
    if not np.abs(y_new).max() <= DIVERGENCE_GUARD:
        raise NumericalDivergence(
            f"state magnitude exceeded {DIVERGENCE_GUARD:.0e} or became non-finite "
            f"at t={t_new:.6g}; reduce alpha, beta, or dt"
        )

    delta_new = trigger_params.delta0 * np.exp(-trigger_params.eta * t_new)
    return (
        EngineState(
            t=t_new,
            step_index=k_new,
            x=x_new,
            y=y_new,
            x_hat=x_hat,
            y_hat=y_hat,
            delta=delta_new,
        ),
        fired,
        rho,
    )


def run(
    game: GameDefinition,
    graph: DirectedGraph,
    trigger_params: TriggerParams,
    config: EngineConfig,
    x0: np.ndarray,
    y0: np.ndarray,
    x_star: np.ndarray | None = None,
    rate_window: tuple[float, float] = (0.0, 10.0),
) -> RunResult:
    """Integrate over the horizon; reproducible bit-for-bit for a fixed seed.

    ``x_star`` defaults to the centralized solver's equilibrium and anchors
    the error series. Each player draws from its own generator, spawned from
    the seed, so per-player streams are independent of one another. A stream
    is drawn whole up front: ``random(steps)`` yields the same doubles as
    ``steps`` scalar draws.
    """
    if x_star is None:
        x_star = oracle.solve_ne(game).x_star
    x_star = np.asarray(x_star, dtype=float)

    n = graph.n
    steps = config.steps
    uniforms = np.column_stack(
        [
            np.random.Generator(np.random.PCG64(ss)).random(steps)
            for ss in np.random.SeedSequence(int(config.seed)).spawn(n)
        ]
    )

    state = init(game, graph, trigger_params, config, x0, y0)
    times = np.arange(steps + 1) * config.dt
    actions = np.empty((steps + 1, n))
    err_inf = np.empty(steps + 1)
    trig = np.zeros((steps + 1, n), dtype=np.int8)
    rho = np.empty((steps, n))

    actions[0] = state.x
    err_inf[0] = np.abs(state.x - x_star).max()
    for k in range(steps):
        state, trig[k + 1], rho[k] = step(
            state, game, graph, trigger_params, config, uniforms[k]
        )
        actions[k + 1] = state.x
        err_inf[k + 1] = np.abs(state.x - x_star).max()

    if config.law is LawKind.STOCHASTIC:
        xi = xi_from_uniform(trigger_params, uniforms)
    else:
        xi = np.full((steps, n), math.nan)
    return RunResult(
        times=times,
        actions=actions,
        err_inf=err_inf,
        trig=trig,
        rho=rho,
        xi=xi,
        metrics=metrics_mod.run_metrics(
            fired=trig[1:],
            times=times,
            err_series=err_inf,
            dt=config.dt,
            horizon=config.horizon,
            window=rate_window,
        ),
        x_star=x_star,
    )
