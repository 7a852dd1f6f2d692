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

A ``Scenario`` validates itself when built, in code, by the loader or by
``dataclasses.replace``; the loader only turns the document into its parts.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import EngineConfig, Member
from .errors import ParseError, ValidationError, integer, number, numbers
from .games import GameDefinition, QuadraticGame, SpectrumGame
from .graphs import DirectedGraph
from .triggers import LawKind, TriggerParams


class AdvisoryWarning(UserWarning):
    """Scenario loaded fine but a recommended bound is violated."""


@dataclass(frozen=True)
class Scenario:
    """One validated simulation input. The parts check their own invariants;
    construction checks those that tie them together, raising ValidationError
    that names the field, and stores the arrays as read-only float copies."""

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

    def __post_init__(self):
        n = self.n
        if self.game.n != n:
            raise ValidationError(f"game: defines {self.game.n} players but adjacency has {n}")
        if self.trigger.n != n:
            raise ValidationError(f"trigger: vectors have length {self.trigger.n}, expected {n}")
        x0 = self._store("x0", (n,))
        lo, hi = self.game.bounds
        # written so that a NaN entry counts as outside
        bad = np.flatnonzero(~((x0 >= lo) & (x0 <= hi)))
        if bad.size:
            i = int(bad[0])
            raise ValidationError(f"x0[{i}]={x0[i]} outside [{lo[i]}, {hi[i]}]")
        self._store("y0", (n, n))
        if self.ne_override is not None:
            self._store("ne_override", (n,))
        # the member reads the law name and checks the seed
        member = Member(self.law, self.seed)
        object.__setattr__(self, "law", member.law)
        object.__setattr__(self, "seed", member.seed)
        object.__setattr__(self, "runs", integer(self.runs, "runs"))
        if not self.runs >= 1:
            raise ValidationError(f"runs: must be >= 1, got {self.runs}")

    def _store(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """Replace field ``name`` by a read-only float copy of the given shape;
        entries must be finite, except in x0, whose box check names them."""
        a = numbers(getattr(self, name), name, shape)
        if name != "x0" and not np.isfinite(a).all():
            raise ValidationError(f"{name}: entries must be finite")
        a.flags.writeable = False
        object.__setattr__(self, name, a)
        return a

    @property
    def n(self) -> int:
        return self.graph.n


def _require(data: dict, key: str, where: str, section: bool = False):
    if key not in data:
        raise ValidationError(f"{where}: missing required field '{key}'")
    if section and not isinstance(data[key], dict):
        raise ValidationError(f"{key}: must be an object")
    return data[key]


def _scalars(section: dict, where: str, *keys: str) -> dict[str, float]:
    """The required number fields ``keys`` of the section named ``where``."""
    return {k: number(_require(section, k, where), f"{where}.{k}") for k in keys}


@contextmanager
def _section(where: str):
    """Prefix the ValidationError of a part built from section ``where``."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


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
    fields = {name: numbers(_require(data, name, "game"), f"game.{name}") for name in names}
    if cls is SpectrumGame:
        fields["tau"] = number(data.get("tau", 1.0), "game.tau")
    fields["intervals"] = numbers(_require(data, "intervals", "game"), "game.intervals", (n, 2))
    with _section("game"):
        return cls(**fields)


def _trigger_from_dict(traw: dict, graph: DirectedGraph) -> TriggerParams:
    if "sigma" in traw:
        sigma = numbers(traw["sigma"], "trigger.sigma")
    elif traw.get("sigma_rule") == "0.8/din":
        din = graph.in_degrees
        if (din == 0).any():
            raise ValidationError("trigger.sigma_rule: a player has no in-edges")
        sigma = 0.8 / din
    else:
        raise ValidationError("trigger: provide 'sigma' or 'sigma_rule': '0.8/din'")

    def _pervec(key):
        # a scalar stands for the same value at every player
        v = numbers(_require(traw, key, "trigger"), f"trigger.{key}")
        return np.full(graph.n, v) if v.ndim == 0 else v

    fields = _scalars(traw, "trigger", "kappa", "a_floor", "eta")
    fields.update(c=_pervec("c"), sigma=sigma, delta0=_pervec("delta0"))
    with _section("trigger"):
        return TriggerParams(**fields)


def scenario_from_dict(data: dict, source: str = "<dict>") -> Scenario:
    """Build a scenario from a parsed document; raises ValidationError naming
    the field. Once the scenario is built, it warns if ``graph.strongly_connected``
    is false or some sigma exceeds ``graph.sigma_bound``."""
    if not isinstance(data, dict):
        raise ValidationError(f"{source}: top level must be an object")

    weights = numbers(_require(data, "adjacency", source), "adjacency")
    with _section("adjacency"):
        graph = DirectedGraph(weights)
    game = _game_from_dict(_require(data, "game", source, section=True), graph.n)
    traw = _require(data, "trigger", source, section=True)
    trigger = _trigger_from_dict(traw, graph)

    eraw = _require(data, "engine", source, section=True)
    # dt is optional: EngineConfig holds its default
    keys = ["alpha", "beta", "horizon"] + (["dt"] if "dt" in eraw else [])
    fields = _scalars(eraw, "engine", *keys)
    with _section("engine"):
        engine = EngineConfig(**fields)

    advisories = []
    if not graph.strongly_connected:
        advisories.append("graph is not strongly connected; consensus may fail")
    if (trigger.sigma > graph.sigma_bound).any():
        advisories.append(
            f"sigma exceeds the admissible bound {graph.sigma_bound:.6g} for some players; "
            "the certified rate does not apply"
        )
    scenario = Scenario(
        graph=graph,
        game=game,
        trigger=trigger,
        engine=engine,
        x0=_require(data, "x0", source),
        y0=_require(data, "y0", source),
        law=_require(traw, "law", "trigger"),
        seed=integer(eraw.get("seed", 0), "engine.seed"),
        runs=data.get("runs", 1),
        ne_override=data.get("ne_override"),
    )
    for msg in advisories:
        warnings.warn(msg, AdvisoryWarning, stacklevel=2)
    return scenario


def _finite(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {literal} is not allowed")
    return value


def _all_finite(value) -> bool:
    """False when a parsed JSON value holds a non-finite float: one
    ``math.fsum`` per list, and an element at a time where that raises."""
    if isinstance(value, dict):
        value = list(value.values())
    if not isinstance(value, list):
        return not isinstance(value, float) or math.isfinite(value)
    try:
        return math.isfinite(math.fsum(value))
    except (TypeError, ValueError, OverflowError):
        return all(_all_finite(v) for v in value)


def load_scenario(path) -> Scenario:
    """Read and validate a scenario JSON file: a path, or a resource with
    ``read_text`` such as ``data.bundled_path`` returns.

    ``NaN``, ``Infinity`` and literals that overflow to infinity are rejected;
    only a document with the last is parsed again, so that the error names it.
    """
    path = Path(path) if isinstance(path, (str, os.PathLike)) else path
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        data = json.loads(text, parse_constant=_finite)
        if not _all_finite(data):
            data = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return scenario_from_dict(data, source=str(path))
