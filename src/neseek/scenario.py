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
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import EngineConfig, Member
from .errors import ParseError, ValidationError, integer, numbers
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
        for name, shape in (("x0", (n,)), ("y0", (n, n)), ("ne_override", (n,))):
            if name != "ne_override" or self.ne_override is not None:
                object.__setattr__(self, name, numbers(getattr(self, name), name, shape))
        lo, hi = self.game.bounds
        bad = np.flatnonzero((self.x0 < lo) | (self.x0 > hi))
        if bad.size:
            i = int(bad[0])
            raise ValidationError(f"x0[{i}]={self.x0[i]} outside [{lo[i]}, {hi[i]}]")
        # the member reads the law name and checks the seed
        member = Member(self.law, self.seed)
        object.__setattr__(self, "law", member.law)
        object.__setattr__(self, "seed", member.seed)
        object.__setattr__(self, "runs", integer(self.runs, "runs"))
        if not self.runs >= 1:
            raise ValidationError(f"runs: must be >= 1, got {self.runs}")

    @property
    def n(self) -> int:
        return self.graph.n


def _require(data: dict, key: str, where: str, section: bool = False):
    if key not in data:
        raise ValidationError(f"{where}: missing required field '{key}'")
    if section and not isinstance(data[key], dict):
        raise ValidationError(f"{key}: must be an object")
    return data[key]


def _fields(data: dict, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    """Section ``where``'s fields as written: the required, and the optional it has."""
    fields = {k: _require(data, k, where) for k in required}
    fields.update({k: data[k] for k in optional if k in data})
    return fields


@contextmanager
def _section(where: str):
    """Prefix the ValidationError of a part built from section ``where``."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


# Each game kind's class, and its required and optional fields.
_GAMES = {
    "spectrum": (SpectrumGame, ("m_c", "q", "r", "s_db", "ber_target", "intervals"), ("tau",)),
    "quadratic": (QuadraticGame, ("diag_a", "cross", "offset", "intervals"), ()),
}


def _game_from_dict(data: dict) -> GameDefinition:
    kind = _require(data, "kind", "game")
    if not isinstance(kind, str) or kind not in _GAMES:
        raise ValidationError(f"game: unknown kind '{kind}'")
    cls, required, optional = _GAMES[kind]
    fields = _fields(data, "game", required, optional)
    with _section("game"):
        return cls(**fields)


def _trigger_from_dict(traw: dict, graph: DirectedGraph) -> tuple[TriggerParams, LawKind]:
    fields = _fields(traw, "trigger", ("law", "kappa", "a_floor", "eta", "c", "delta0"))
    law = fields.pop("law")
    if "sigma" in traw:
        fields["sigma"] = traw["sigma"]
    elif traw.get("sigma_rule") == "0.8/din":
        din = graph.in_degrees
        if (din == 0).any():
            raise ValidationError("trigger: sigma_rule: a player has no in-edges")
        with np.errstate(over="ignore"):
            fields["sigma"] = 0.8 / din
        if not np.isfinite(fields["sigma"]).all():
            raise ValidationError(
                "trigger: sigma_rule: 0.8/din overflows: an in-degree is too small"
            )
    else:
        raise ValidationError("trigger: provide 'sigma' or 'sigma_rule': '0.8/din'")
    # a scalar c or delta0 stands for the same value at every player
    fields.update({k: [fields[k]] * graph.n for k in ("c", "delta0") if np.isscalar(fields[k])})
    with _section("trigger"):
        return TriggerParams(**fields), LawKind(law)


def scenario_from_dict(data: dict, source: str = "<dict>") -> Scenario:
    """Build a scenario from a parsed document, each section's fields handed
    as written to the type that holds them; a ValidationError names the
    field after its section, ``trigger: c: ...``, or alone at the top level,
    ``x0: ...``. Once the scenario is built, it warns if
    ``graph.strongly_connected`` is false or some sigma exceeds
    ``graph.sigma_bound``."""
    if not isinstance(data, dict):
        raise ValidationError(f"{source}: top level must be an object")

    weights = _require(data, "adjacency", source)
    with _section("adjacency"):
        graph = DirectedGraph(weights)
    game = _game_from_dict(_require(data, "game", source, section=True))
    trigger, law = _trigger_from_dict(_require(data, "trigger", source, section=True), graph)
    eraw = _require(data, "engine", source, section=True)
    fields = _fields(eraw, "engine", ("alpha", "beta", "horizon"), ("dt",))
    with _section("engine"):
        engine = EngineConfig(**fields)
        seed = Member(law, eraw.get("seed", 0)).seed

    advisories = []
    if not graph.strongly_connected:
        advisories.append("graph is not strongly connected; consensus may fail")
    with _section("adjacency"):
        sigma_bound = graph.sigma_bound
    if (trigger.sigma > sigma_bound).any():
        advisories.append(
            f"sigma exceeds the admissible bound {sigma_bound:.6g} for some players; "
            "the certified rate does not apply"
        )
    scenario = Scenario(
        graph=graph,
        game=game,
        trigger=trigger,
        engine=engine,
        x0=_require(data, "x0", source),
        y0=_require(data, "y0", source),
        law=law,
        seed=seed,
        runs=data.get("runs", 1),
        ne_override=data.get("ne_override"),
    )
    for msg in advisories:
        warnings.warn(msg, AdvisoryWarning, stacklevel=2)
    return scenario


def load_scenario(path) -> Scenario:
    """Read and validate a scenario JSON file: a path, or a resource with
    ``read_text`` such as ``data.bundled_path`` returns. It is only parsed, as
    UTF-8 JSON; the type that reads a field refuses a NaN or infinity there."""
    path = Path(path) if isinstance(path, (str, os.PathLike)) else path
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: text that is not UTF-8, or an integer literal beyond
        # Python's digit limit
        raise ParseError(f"{path}: {exc}") from exc
    return scenario_from_dict(data, source=str(path))
