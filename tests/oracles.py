"""Scalar reference implementations the tests compare the package against.

Each is the textbook per-player form of something the package computes in
batched array code: a player's cost and own-action gradient, the projection
onto an action interval, the decaying trigger scale, the randomized law's
fire probability, the dense coupling matrix whose diagonal blocks
``coupling_blocks`` returns, and scipy's Lyapunov solve of each block.
"""

import math

import numpy as np

from neseek.errors import DomainError
from neseek.games import GameDefinition, SpectrumGame
from neseek.graphs import DirectedGraph, coupling_blocks, laplacian
from neseek.triggers import TriggerParams


def project(lo: float, hi: float, v: float) -> float:
    """Clamp v into the interval [lo, hi] (idempotent, non-expansive)."""
    return min(max(v, lo), hi)


def _total_power(game: SpectrumGame, total: float, power: float) -> float:
    if game.tau > 1 and total < 0:
        raise DomainError("negative total demand with fractional pricing exponent")
    return total ** power


def cost(game: GameDefinition, i: int, x: np.ndarray) -> float:
    """Cost of player i at the full action profile x."""
    x = np.asarray(x, dtype=float)
    if isinstance(game, SpectrumGame):
        price = game.m_c[i] + game.q[i] * _total_power(game, float(x.sum()), game.tau)
        return float(x[i] * price - game.r[i] * game.efficiencies[i] * x[i])
    others = float(game.cross[i] @ x)
    return float(0.5 * game.diag_a[i] * x[i] ** 2 + x[i] * others + game.offset[i] * x[i])


def partial_gradient(game: GameDefinition, i: int, y_i: np.ndarray) -> float:
    """Derivative of player i's cost w.r.t. its own action, evaluated at the
    profile estimate ``y_i`` (the i-th entry plays the role of the own action)."""
    y_i = np.asarray(y_i, dtype=float)
    if isinstance(game, SpectrumGame):
        total = float(y_i.sum())
        price = game.m_c[i] + game.q[i] * _total_power(game, total, game.tau)
        marginal = y_i[i] * game.q[i] * game.tau * _total_power(game, total, game.tau - 1.0)
        return float(price + marginal - game.r[i] * game.efficiencies[i])
    return float(game.diag_a[i] * y_i[i] + game.cross[i] @ y_i + game.offset[i])


def decay_at(params: TriggerParams, i: int, t: float) -> float:
    """Closed-form value of the decaying scale at time t."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(params.delta0[i]) * math.exp(-params.eta * t)


def trigger_probability(params: TriggerParams, i: int, rho_val: float, delta: float) -> float:
    """Probability that the randomized law fires at the given margin and scale."""
    ln_kappa = math.log(params.kappa)
    if delta <= 0:
        # fully decayed scale: the law degenerates to a sign test on rho
        return 1.0 if rho_val > 0 else 0.0
    z = float(params.c[i]) * rho_val / delta
    if z <= ln_kappa:
        return 0.0
    if z >= ln_kappa - math.log(params.a_floor):
        return 1.0
    v = params.kappa * math.exp(-z)
    return (1.0 - v) / (1.0 - params.a_floor)


def coupling_matrix(g: DirectedGraph) -> np.ndarray:
    """Dense n^2 x n^2 matrix driving the stacked estimate errors:
    ``kron(L, I_n)`` plus the adjacency entries, stacked row by row, on the diagonal.

    Nonsingular with spectrum in the open right half-plane exactly when the
    graph is strongly connected. Kept as the reference for ``coupling_blocks``.
    """
    return np.kron(laplacian(g), np.eye(g.n)) + np.diag(g.weights.ravel())


def lyapunov_blocks(g: DirectedGraph) -> np.ndarray:
    """The (n, n, n) stack of P blocks of the certificate, one
    ``scipy.linalg.solve_continuous_lyapunov`` per coupling block, each
    symmetrised: the reference for ``lyapunov_pair``'s P."""
    import scipy.linalg

    eye = np.eye(g.n)
    solved = [scipy.linalg.solve_continuous_lyapunov(m.T, eye) for m in coupling_blocks(g)]
    return np.array([0.5 * (p + p.T) for p in solved])


def dense_coupling(graph: DirectedGraph, y_hat: np.ndarray, config):
    """``engine.broadcast_terms`` of every row, written with the dense weights:
    the squared row norms of ``din * y_hat - W @ y_hat``, and the increment
    ``((disagreement + W * (y_hat - x_hat)) * -beta) * dt``."""
    disagreement = graph.in_degrees[:, None] * y_hat - graph.weights @ y_hat
    x_hat = y_hat.diagonal(0, 1, 2)
    increment = (disagreement + graph.weights * (y_hat - x_hat[:, None, :])) * -config.beta
    increment *= config.dt
    return (disagreement * disagreement).sum(axis=-1), increment


def row_terms(game: GameDefinition, y_hat: np.ndarray, anchor: np.ndarray, increment: np.ndarray):
    """The (7, R, n) ``EngineState.row_terms`` of every row of (R, n, n)
    stacks, the own entries left out of every row."""
    n = anchor.shape[-1]
    own = np.eye(n, dtype=bool)
    anchor, increment = np.where(own, 0.0, anchor), np.where(own, 0.0, increment)
    d = np.where(own, 0.0, y_hat - anchor)
    dot = lambda a, b: np.einsum("...j,...j->...", a, b)  # noqa: E731
    if isinstance(game, SpectrumGame):
        functional = lambda rows: rows.sum(axis=-1)  # noqa: E731
    else:
        functional = lambda rows: (game.cross * rows).sum(axis=-1)  # noqa: E731
    return np.stack([
        dot(d, d), dot(d, increment), dot(increment, increment),
        functional(anchor), functional(increment),
        np.sqrt(dot(anchor, anchor)), np.sqrt(dot(increment, increment)),
    ])


def closed_form_step(state, batch, coupling, share: float, fired=None):
    """One ``engine.step`` written with whole dense arrays, for both forms
    of the state. Returns the new state's fields as a dict, the fire mask and
    ``rho``.

    Without row terms (the dense path) the estimate matrix is the anchor,
    the event-error energy is summed over its rows, and every row takes the
    increment. With them, the energy and the gradient read the row terms:
    off the diagonal a row's event error is |d - age * increment|^2, that
    is ``d_sq - age * (2 * d_inc - age * inc_sq)``, and its total is
    ``f_anchor + age * f_inc``. A member's touched rows are those of the
    players that fired and of every player hearing one, or all of its rows
    once more than ``share`` of them are; they take the new increment from
    the whole estimate matrix, and their terms are formed again. ``coupling``
    forms the broadcast terms of every row; in the sparse form the own
    entries of the increment are zero. A given (R, n) ``fired`` mask
    stands in for the laws' decisions.
    """
    from neseek.games import gradient_at_estimates, gradient_from_others
    from neseek.triggers import decide, triggering_function

    scenario = batch.scenario
    game, graph, config = scenario.game, scenario.graph, scenario.engine
    n, diag = graph.n, (slice(None), np.arange(graph.n), np.arange(graph.n))
    x, y_hat, age, terms = state.x, state.y_hat.copy(), state.age.copy(), state.row_terms
    y = state.anchor + age[..., None] * state.increment
    y[diag] = x
    e_x = y_hat[diag] - x
    if terms is None:
        energy = e_x * e_x + ((y_hat - y) ** 2).sum(axis=-1)
        grad = gradient_at_estimates(game, y)
    else:
        d_sq, d_inc, inc_sq, f_anchor, f_inc = terms[:5]
        off = np.maximum(d_sq - age * (2.0 * d_inc - age * inc_sq), 0.0)
        energy = e_x * e_x + (e_x * e_x + off)
        grad = gradient_from_others(game, x, f_anchor + age * f_inc)
    rho = triggering_function(energy, state.disagreement_sq, batch.sigma)
    if fired is None:
        k = state.step_index
        fired = decide(
            rho, batch.lower[k], batch.upper[k], batch.xi[k],
            batch.scale[k], batch.ln_kappa,
        )
    lo, hi = game.bounds
    x_new = x + config.dt * (np.minimum(np.maximum(x - config.alpha * grad, lo), hi) - x)

    y_hat[fired] = y[fired]
    disagreement_sq, increment = state.disagreement_sq, state.increment
    if fired.any():
        disagreement_sq, increment = coupling(graph, y_hat, config)
        if terms is not None:
            # the sparse form keeps the own entries of the increment zero
            increment[diag] = 0.0
    hears = graph.weights != 0
    touched = fired | (fired[:, None, :] & hears[None]).any(axis=-1)
    if terms is None:
        touched[:] = True
    touched[touched.sum(axis=1) > share * n] = True
    anchor = np.where(touched[..., None], y + increment, state.anchor)
    anchor[diag] = np.where(touched, x_new, state.anchor[diag])
    age = np.where(touched, 0.0, age + 1.0)
    if terms is not None:
        terms = np.where(touched, row_terms(game, y_hat, anchor, increment), terms)
    new = dict(
        x=x_new, anchor=anchor, age=age, y_hat=y_hat, disagreement_sq=disagreement_sq,
        increment=increment, row_terms=terms,
    )
    return new, fired, rho


def iterated_run(scenario, member):
    """The (steps + 1, n) actions and (steps, n) fire masks of one member's
    run with every estimate row integrated step by step, ``y += increment``,
    and the event-error energy summed over the rows: the form the sparse
    path took before it kept the rows in closed form. The coupling is
    ``engine.broadcast_terms``."""
    from neseek.engine import Batch, broadcast_terms
    from neseek.games import gradient_at_estimates
    from neseek.triggers import decide, triggering_function

    batch = Batch.of(scenario, [member])
    game, graph, config = scenario.game, scenario.graph, scenario.engine
    n, diag = scenario.n, (slice(None), np.arange(scenario.n), np.arange(scenario.n))
    x, y = scenario.x0[None].copy(), scenario.y0[None].copy()
    y[diag] = x
    y_hat = y.copy()
    disagreement_sq, increment = broadcast_terms(graph, y_hat, config)
    lo, hi = game.bounds
    actions, trig = [x[0]], []
    for k in range(config.steps):
        e_x = y_hat[diag] - x
        energy = e_x * e_x + ((y_hat - y) ** 2).sum(axis=-1)
        rho = triggering_function(energy, disagreement_sq, batch.sigma)
        fired = decide(
            rho, batch.lower[k], batch.upper[k], batch.xi[k],
            batch.scale[k], batch.ln_kappa,
        )
        grad = gradient_at_estimates(game, y)
        x = x + config.dt * (np.minimum(np.maximum(x - config.alpha * grad, lo), hi) - x)
        if fired.any():
            y_hat[fired] = y[fired]
            disagreement_sq, increment = broadcast_terms(graph, y_hat, config)
        y = y + increment
        y[diag] = x
        actions.append(x[0])
        trig.append(fired[0])
    assert n == len(actions[0])
    return np.array(actions), np.array(trig)
