"""Scenario files: a single JSON document describing graph, game, trigger law,
engine settings, and initial conditions.

Schema (top-level keys):

    adjacency   n x n row-major weight matrix; entry [i][j] > 0 means i hears j
    game        {"kind": "spectrum" | "quadratic", ...parameters by name}
    trigger     {"law", "kappa", "a_floor", "eta", "c", "delta0",
                 "sigma" or "sigma_rule": "0.8/din"}
    engine      {"alpha", "beta", "dt", "horizon", "seed"}
    x0          initial actions, length n
    y0          initial estimate rows, n x n (diagonal is overwritten by x0)
    runs        ensemble size for comparisons (optional, default 1)
    ne_override optional equilibrium to measure errors against instead of the
                centralized solver's answer
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bounds import sigma_bound
from .engine import EngineConfig, Member, check_start
from .errors import ParseError, ValidationError
from .games import ActionInterval, GameDefinition, QuadraticGame, SpectrumGame
from .graphs import DirectedGraph, is_strongly_connected
from .triggers import LawKind, TriggerParams


class AdvisoryWarning(UserWarning):
    """Scenario loaded fine but a recommended bound is violated."""


@dataclass
class Scenario:
    graph: DirectedGraph
    game: GameDefinition
    trigger: TriggerParams
    engine: EngineConfig
    x0: np.ndarray
    y0: np.ndarray
    law: LawKind
    seed: int = 0
    runs: int = 1
    ne_override: np.ndarray | None = None
    advisories: list[str] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.graph.n


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ValidationError(f"{where}: missing required field '{key}'")
    return data[key]


def _intervals(raw, n: int, where: str) -> tuple[ActionInterval, ...]:
    if not isinstance(raw, list) or len(raw) != n:
        raise ValidationError(f"{where}: intervals must be a list of {n} [lo, hi] pairs")
    out = []
    for k, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError(f"{where}: intervals[{k}] must be a [lo, hi] pair")
        try:
            out.append(ActionInterval(float(pair[0]), float(pair[1])))
        except ValueError as exc:
            raise ValidationError(f"{where}: intervals[{k}]: {exc}") from exc
    return tuple(out)


def _integer(raw, where: str) -> int:
    """An integer field. Booleans and floats are rejected, integral ones too:
    a float seed past 2**53 no longer holds the digits that were written."""
    if isinstance(raw, bool) or not isinstance(raw, numbers.Integral):
        raise ValidationError(f"{where}: expected an integer, got {raw!r}")
    return int(raw)


def _array(raw, where: str) -> np.ndarray:
    try:
        return np.array(raw, dtype=float)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _finite_array(raw, shape: tuple[int, ...], where: str) -> np.ndarray:
    a = _array(raw, where)
    if a.shape != shape:
        raise ValidationError(f"{where}: expected shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError(f"{where}: entries must be finite")
    return a


# Each game kind's class and required vector/matrix fields, in load order.
_GAMES = {
    "spectrum": (SpectrumGame, ("m_c", "q", "r", "s_db", "ber_target")),
    "quadratic": (QuadraticGame, ("diag_a", "cross", "offset")),
}


def _game_from_dict(data: dict, n: int) -> GameDefinition:
    kind = _require(data, "kind", "game")
    if not isinstance(kind, str) or kind not in _GAMES:
        raise ValidationError(f"game: unknown kind '{kind}'")
    cls, names = _GAMES[kind]
    fields = {name: _require(data, name, "game") for name in names}
    try:
        if cls is SpectrumGame:
            fields["tau"] = float(data.get("tau", 1.0))
        return cls(**fields, intervals=_intervals(_require(data, "intervals", "game"), n, "game"))
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"game: {exc}") from exc


def scenario_from_dict(data: dict, source: str = "<dict>") -> Scenario:
    """Validate a parsed scenario document; raises ValidationError naming the
    violated invariant."""
    if not isinstance(data, dict):
        raise ValidationError(f"{source}: top level must be an object")

    adjacency = _require(data, "adjacency", source)
    try:
        graph = DirectedGraph(np.array(adjacency, dtype=float))
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"adjacency: {exc}") from exc
    n = graph.n

    game = _game_from_dict(_require(data, "game", source), n)
    if game.n != n:
        raise ValidationError(f"game: defines {game.n} players but adjacency has {n}")

    traw = _require(data, "trigger", source)
    law_name = _require(traw, "law", "trigger")
    try:
        law = LawKind(law_name)
    except ValueError:
        raise ValidationError(
            f"trigger.law: '{law_name}' is not one of "
            f"{[k.value for k in LawKind]}"
        ) from None

    if "sigma" in traw:
        sigma = _array(traw["sigma"], "trigger.sigma")
    elif traw.get("sigma_rule") == "0.8/din":
        din = graph.in_degrees
        if (din == 0).any():
            raise ValidationError("trigger.sigma_rule: a player has no in-edges")
        sigma = 0.8 / din
    else:
        raise ValidationError("trigger: provide 'sigma' or 'sigma_rule': '0.8/din'")

    def _pervec(key):
        raw = traw.get(key)
        if raw is None:
            raise ValidationError(f"trigger: missing required field '{key}'")
        if np.isscalar(raw):
            return np.full(n, float(raw))
        return np.array(raw, dtype=float)

    try:
        trigger = TriggerParams(
            kappa=float(_require(traw, "kappa", "trigger")),
            a_floor=float(_require(traw, "a_floor", "trigger")),
            eta=float(_require(traw, "eta", "trigger")),
            c=_pervec("c"),
            sigma=sigma,
            delta0=_pervec("delta0"),
        )
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"trigger: {exc}") from exc
    if trigger.n != n:
        raise ValidationError(f"trigger: vectors have length {trigger.n}, expected {n}")

    eraw = _require(data, "engine", source)
    try:
        engine = EngineConfig(
            alpha=float(_require(eraw, "alpha", "engine")),
            beta=float(_require(eraw, "beta", "engine")),
            dt=float(eraw.get("dt", 0.025)),
            horizon=float(_require(eraw, "horizon", "engine")),
        )
        seed = Member(law, _integer(eraw.get("seed", 0), "engine.seed")).seed
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValidationError(f"engine: {exc}") from exc

    x0 = _array(_require(data, "x0", source), "x0")
    if x0.shape != (n,):
        raise ValidationError(f"x0: expected length {n}, got shape {x0.shape}")
    y0 = _finite_array(_require(data, "y0", source), (n, n), "y0")
    check_start(game, x0, ValidationError)

    runs = _integer(data.get("runs", 1), "runs")
    if runs < 1:
        raise ValidationError("runs must be >= 1")

    ne_override = None
    if data.get("ne_override") is not None:
        ne_override = _finite_array(data["ne_override"], (n,), "ne_override")

    advisories = []
    if not is_strongly_connected(graph):
        advisories.append("graph is not strongly connected; consensus may fail")
    bound = sigma_bound(graph)
    if (trigger.sigma > bound).any():
        advisories.append(
            f"sigma exceeds the admissible bound {bound:.6g} for some players; "
            "the certified rate does not apply"
        )
    for msg in advisories:
        warnings.warn(msg, AdvisoryWarning, stacklevel=2)

    return Scenario(
        graph=graph,
        game=game,
        trigger=trigger,
        engine=engine,
        x0=x0,
        y0=y0,
        law=law,
        seed=seed,
        runs=runs,
        ne_override=ne_override,
        advisories=advisories,
    )


def _finite(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {literal} is not allowed")
    return value


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario JSON file.

    ``NaN``, ``Infinity`` and literals that overflow to infinity are rejected.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        data = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return scenario_from_dict(data, source=str(path))
