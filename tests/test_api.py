import ast
import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import neseek
from neseek import (
    Batch,
    DirectedGraph,
    EngineConfig,
    LawKind,
    Member,
    QuadraticGame,
    SpectrumGame,
    TriggerParams,
    beta_min,
    compare_laws,
    projected_ne,
    run,
    single_run,
    verify_ne,
)
from neseek.data import bundled_path
from neseek.engine import integer
from neseek.errors import NeseekError, ValidationError
from neseek.scenario import scenario_from_dict

# Removed from the package: the per-run metrics record and the second
# ensemble entry point (a RunResult carries its own statistics and
# compare_laws is the one ensemble call), the scalar reference
# implementations, which live in tests/oracles.py, and the per-law trigger
# parameters (Batch.of caps the dynamic law's sigma; a Member is a law and a
# seed), the graph facts, which are properties of DirectedGraph, and the
# per-player interval type (a game's action box is one (n, 2) array).
REMOVED = (
    "RunMetrics",
    "run_ensemble",
    "aggregate",
    "trigger_probability",
    "decay_at",
    "cost",
    "partial_gradient",
    "project",
    "coupling_matrix",
    "law_trigger_params",
    "sigma_bound",
    "is_strongly_connected",
    "ActionInterval",
)


def test_every_exported_name_resolves():
    assert len(set(neseek.__all__)) == len(neseek.__all__)
    for name in neseek.__all__:
        assert getattr(neseek, name) is not None, name


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in neseek.__all__, name
        assert not hasattr(neseek, name), name


def test_the_simulator_does_not_import_the_certificate():
    # the graph holds the facts the loader and the batch read, so only the
    # CLI imports the certificate module
    for module in (neseek.engine, neseek.scenario):
        imported = set()
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.ImportFrom):
                imported |= {node.module, *(alias.name for alias in node.names)}
        assert "bounds" not in imported, module.__name__


def test_loading_a_scenario_imports_no_numpy_random():
    # numpy.random loads on the first batch that draws, not on import: a
    # module-level import of it would slow every command's start
    code = "\n".join([
        "import sys, warnings",
        "warnings.simplefilter('ignore')",
        "import neseek",
        "from neseek.data import bundled_path",
        "neseek.load_scenario(bundled_path('spectrum_paper'))",
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))",
    ])
    src = str(Path(neseek.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]


def test_runs_take_their_inputs_from_the_scenario():
    # ne_override is the one way to anchor the error series
    # and the integration step: a caller replaces the scenario's engine
    for fn in (neseek.single_run, neseek.compare_laws):
        for name in ("x_star", "dt"):
            assert name not in inspect.signature(fn).parameters, (fn.__name__, name)
    assert not hasattr(neseek.harness, "law_trigger_params")


def test_engine_reads_the_scenario_whole():
    # the scenario is the one validated input: the engine takes it whole and
    # keeps no start check of its own
    assert list(inspect.signature(neseek.run).parameters) == ["scenario", "members"]
    # every state has the member axis: init starts the batch's members, and
    # W is applied in one place
    assert list(inspect.signature(neseek.init).parameters) == ["batch"]
    assert not hasattr(neseek.engine, "with_members")
    assert not hasattr(neseek.engine, "coupling")
    # a member is a law and a seed, and the batch derives the rest from the
    # scenario: the sigma cap, the decaying scale and the thresholds
    assert list(inspect.signature(neseek.Batch.of).parameters) == ["scenario", "members"]
    assert list(inspect.signature(neseek.step).parameters) == ["state", "batch"]
    # decide compares the one margin rho under every law: it reads the tie
    # band a batch forms once, and forms a drawn threshold again from xi,
    # scale and ln_kappa inside it
    assert list(inspect.signature(neseek.decide).parameters) == [
        "rho", "lower", "upper", "xi", "scale", "ln_kappa"
    ]
    # a broadcast is one row of y_hat, its diagonal entry the broadcast
    # action, and the continuous law is a -inf threshold, not a mask; the
    # estimates are anchored rows in closed form, formed whole by `y`
    assert [f.name for f in dataclasses.fields(neseek.engine.EngineState)] == [
        "step_index", "x", "anchor", "age", "y_hat", "disagreement_sq", "increment", "row_terms"
    ]
    # nor is the static law a mask: it is zero disagreement weights
    batch_fields = [f.name for f in dataclasses.fields(neseek.Batch)]
    assert "continuous" not in batch_fields and "static" not in batch_fields
    assert "x_hat" not in inspect.signature(neseek.engine.broadcast_terms).parameters
    assert [f.name for f in dataclasses.fields(Member)] == ["law", "seed"]
    assert not hasattr(neseek.engine, "check_start")
    assert not hasattr(neseek.errors, "InfeasibleStart")


ONE_PLAYER = [[0.0, 1.0]]
TRIGGER = dict(kappa=1.5, a_floor=0.05, eta=1.0, c=[1.0], sigma=[0.1], delta0=[1.0])


def quadratic_doc(edit):
    """The bundled quadratic_demo document after ``edit(doc)``."""
    doc = json.loads(bundled_path("quadratic_demo").read_text())
    edit(doc)
    return doc


def spectrum_game(**changes):
    return SpectrumGame(**{
        **dict(m_c=[1.0], q=[1.0], r=[1.0], s_db=[10.0], ber_target=[0.01], intervals=ONE_PLAYER),
        **changes,
    })


# (the constructor call, the start of its message)
CONSTRUCTOR_CASES = [
    pytest.param(lambda: DirectedGraph(np.zeros((1, 1))), "at least two players", id="graph"),
    pytest.param(
        lambda: QuadraticGame(diag_a=[1.0], cross=[[0.0]], offset=[0.0], intervals=[[1.0, 0.0]]),
        "interval must satisfy lo <= hi", id="interval",
    ),
    pytest.param(
        lambda: QuadraticGame(
            diag_a=[1.0], cross=[[0.0]], offset=[0.0], intervals=[[0.0, math.inf]]
        ),
        "intervals: entries must be finite", id="interval-inf",
    ),
    pytest.param(
        lambda: QuadraticGame(diag_a=[], cross=[], offset=[], intervals=[]),
        "at least one player is required", id="no-players",
    ),
    pytest.param(
        lambda: QuadraticGame(diag_a=[1.0], cross=[[0.0]], offset=[0.0], intervals=[0.0, 1.0]),
        r"intervals: expected shape \(n, 2\), got \(2,\)", id="interval-shape",
    ),
    pytest.param(
        lambda: SpectrumGame(
            m_c=[1.0], q=[-1.0], r=[1.0], s_db=[10.0], ber_target=[0.01], intervals=ONE_PLAYER
        ),
        "price slopes", id="spectrum-game",
    ),
    pytest.param(
        lambda: QuadraticGame(diag_a=[0.0], cross=[[0.0]], offset=[0.0], intervals=ONE_PLAYER),
        "diag_a must be positive", id="quadratic-game",
    ),
    pytest.param(lambda: TriggerParams(**{**TRIGGER, "kappa": math.inf}), "kappa", id="kappa-inf"),
    pytest.param(lambda: TriggerParams(**{**TRIGGER, "eta": math.inf}), "eta", id="eta-inf"),
    pytest.param(lambda: TriggerParams(**{**TRIGGER, "c": [0.0]}), "c entries", id="trigger-c"),
    pytest.param(
        lambda: EngineConfig(alpha=math.inf, beta=1.0, horizon=1.0), "alpha must", id="alpha-inf"
    ),
    pytest.param(
        lambda: EngineConfig(alpha=0.1, beta=math.inf, horizon=1.0), "beta must", id="beta-inf"
    ),
    pytest.param(
        lambda: EngineConfig(alpha=0.1, beta=1.0, horizon=1.0, dt=0.0), "dt must", id="dt-zero"
    ),
    pytest.param(
        lambda: Member(LawKind.STOCHASTIC, 2 ** 64),
        "seed: 18446744073709551616 does not fit in 64 unsigned bits", id="member-seed",
    ),
    pytest.param(lambda: integer(1.0, "runs"), "runs: expected an integer", id="integer"),
    pytest.param(lambda: LawKind("sometimes"), "law: 'sometimes' is not one of", id="law"),
    # every number field is read by errors.numbers, which names the field
    pytest.param(lambda: DirectedGraph("ab"), "weights: could not convert", id="graph-string"),
    pytest.param(
        lambda: DirectedGraph([[0, True], [1, 0]]), "weights: expected a number", id="graph-bool"
    ),
    pytest.param(
        lambda: SpectrumGame(
            m_c=[1.0], q=[1.0], r=[1.0], s_db=[10.0], ber_target=[0.01], intervals=[["a", 1.0]]
        ),
        "intervals: ", id="interval-string",
    ),
    pytest.param(
        lambda: QuadraticGame(diag_a=["1"], cross=[[0.0]], offset=[0.0], intervals=ONE_PLAYER),
        "diag_a: expected a number", id="quadratic-game-string",
    ),
    pytest.param(lambda: TriggerParams(**{**TRIGGER, "c": ["x"]}), "c: ", id="trigger-c-string"),
    pytest.param(
        lambda: EngineConfig(alpha="0.1", beta=1.0, horizon=1.0), "alpha: expected a number",
        id="alpha-string",
    ),
    pytest.param(lambda: spectrum_game(r=[-1.0]), "revenue rates r must be nonnegative", id="r"),
    pytest.param(
        lambda: spectrum_game(ber_target=[0.3]), r"ber_target must lie in \(0, 0.2\)",
        id="ber_target",
    ),
    pytest.param(
        lambda: QuadraticGame(diag_a=[1.0], cross=[[1.0]], offset=[0.0], intervals=ONE_PLAYER),
        "cross must have zero diagonal", id="cross-diagonal",
    ),
    pytest.param(
        lambda: TriggerParams(**{**TRIGGER, "c": [[1.0]]}), "c must be a vector",
        id="trigger-c-matrix",
    ),
    pytest.param(
        lambda: TriggerParams(**{**TRIGGER, "sigma": [0.1, 0.1]}),
        "c, sigma, delta0 must share one length", id="trigger-lengths",
    ),
    # the loader's own refusals: the document's shape, not a value's
    pytest.param(
        lambda: scenario_from_dict(quadratic_doc(lambda d: d["game"].update(kind=math.nan))),
        "game: unknown kind 'nan'", id="loader-kind",
    ),
    pytest.param(
        lambda: scenario_from_dict(quadratic_doc(lambda d: d.update(adjacency=[[0, 1], [0, 0]]))),
        "trigger: sigma_rule: a player has no in-edges", id="loader-sigma-rule-in-edges",
    ),
    pytest.param(
        lambda: scenario_from_dict(quadratic_doc(lambda d: d["trigger"].pop("sigma_rule"))),
        "trigger: provide 'sigma' or 'sigma_rule'", id="loader-no-sigma",
    ),
    pytest.param(
        lambda: scenario_from_dict([1.0], source="list.json"),
        "list.json: top level must be an object", id="loader-top-level",
    ),
    pytest.param(
        lambda: verify_ne(spectrum_game(), [0.5], 0.0), "step must be positive", id="verify-step"
    ),
    pytest.param(
        lambda: projected_ne(spectrum_game(), tol=0.0), "tol must be positive", id="projected-tol"
    ),
    pytest.param(
        lambda: projected_ne(spectrum_game(), step=-1.0), "step must be positive",
        id="projected-step",
    ),
    pytest.param(lambda: beta_min(0.0, 1.0, 1.0, 1.0), "mu must be positive", id="beta_min-mu"),
]


@pytest.mark.parametrize("build, message", CONSTRUCTOR_CASES)
def test_the_type_that_holds_a_value_refuses_it(build, message):
    # one error type for every invariant, and a ValueError to code that
    # catches those
    with pytest.raises(ValidationError, match=f"^{message}") as err:
        build()
    assert isinstance(err.value, ValueError) and isinstance(err.value, NeseekError)


def test_the_engine_names_the_field_it_refuses(quadratic_scenario):
    # both were bare ValueErrors, where every other refused input is a
    # ValidationError that names its field
    s, member = quadratic_scenario, Member(LawKind.STOCHASTIC, 0)
    anchored = dataclasses.replace(s, ne_override=s.x0)
    cases = [
        (lambda: Batch.of(s, []), "members: "),
        (lambda: run(anchored, members=[]), "members: "),
        (lambda: run(s, members=[member]), "ne_override: "),
    ]
    for build, message in cases:
        with pytest.raises(ValidationError, match=f"^{message}"):
            build()


def test_one_bad_value_reads_the_same_from_every_caller(quadratic_scenario):
    # the law, seed and run count were checked in four places, each wording
    # its own message
    s = quadratic_scenario
    data = json.loads(bundled_path("quadratic_demo").read_text())
    data["trigger"]["law"] = "sometimes"
    law = "law: 'sometimes' is not one of ['continuous', 'static', 'dynamic', 'stochastic']"
    seed = "seed: 18446744073709551616 does not fit in 64 unsigned bits"
    calls = {
        law: [
            lambda: Member("sometimes", 0),
            lambda: dataclasses.replace(s, law="sometimes"),
            lambda: single_run(s, law="sometimes"),
            lambda: compare_laws(s, ["static", "sometimes"], 2, 0),
        ],
        # the loader names the section that holds the law
        f"trigger: {law}": [lambda: scenario_from_dict(data)],
        seed: [
            lambda: dataclasses.replace(s, seed=2 ** 64),
            lambda: single_run(s, seed=2 ** 64),
            # the base seed fits, the second run's does not
            lambda: compare_laws(s, [LawKind.STOCHASTIC], 2, 2 ** 64 - 1),
        ],
        "runs: must be >= 1, got 0": [
            lambda: dataclasses.replace(s, runs=0),
            lambda: compare_laws(s, [LawKind.STOCHASTIC], 0, 0),
        ],
    }
    for message, builds in calls.items():
        for build in builds:
            with pytest.raises(ValidationError) as err:
                build()
            assert str(err.value) == message
