import dataclasses
import inspect
import json
import math

import numpy as np
import pytest

import neseek
from neseek import (
    ActionInterval,
    DirectedGraph,
    EngineConfig,
    LawKind,
    Member,
    QuadraticGame,
    SpectrumGame,
    TriggerParams,
    compare_laws,
    single_run,
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
# seed).
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
)


def test_every_exported_name_resolves():
    assert len(set(neseek.__all__)) == len(neseek.__all__)
    for name in neseek.__all__:
        assert getattr(neseek, name) is not None, name


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in neseek.__all__, name
        assert not hasattr(neseek, name), name


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
    assert list(inspect.signature(neseek.init).parameters) == ["scenario"]
    # a member is a law and a seed, and the batch derives the rest from the
    # scenario: the sigma cap, the decaying scale and the thresholds
    assert list(inspect.signature(neseek.Batch.of).parameters) == ["scenario", "members"]
    assert list(inspect.signature(neseek.step).parameters) == ["state", "batch"]
    assert list(inspect.signature(neseek.decide).parameters) == [
        "rho", "energy", "threshold", "static", "continuous"
    ]
    assert [f.name for f in dataclasses.fields(Member)] == ["law", "seed"]
    assert not hasattr(neseek.engine, "check_start")
    assert not hasattr(neseek.errors, "InfeasibleStart")


ONE_PLAYER = (ActionInterval(0.0, 1.0),)
TRIGGER = dict(kappa=1.5, a_floor=0.05, eta=1.0, c=[1.0], sigma=[0.1], delta0=[1.0])

# (the constructor call, the start of its message)
CONSTRUCTOR_CASES = [
    pytest.param(lambda: DirectedGraph(np.zeros((1, 1))), "at least two players", id="graph"),
    pytest.param(lambda: ActionInterval(1.0, 0.0), "interval must satisfy", id="interval"),
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
        lambda: EngineConfig(alpha=math.inf, beta=1.0, horizon=1.0), "alpha and beta", id="alpha-inf"
    ),
    pytest.param(
        lambda: EngineConfig(alpha=0.1, beta=math.inf, horizon=1.0), "alpha and beta", id="beta-inf"
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
    pytest.param(lambda: ActionInterval("a", 1.0), "lo: ", id="interval-string"),
    pytest.param(
        lambda: QuadraticGame(diag_a=["1"], cross=[[0.0]], offset=[0.0], intervals=ONE_PLAYER),
        "diag_a: expected a number", id="quadratic-game-string",
    ),
    pytest.param(lambda: TriggerParams(**{**TRIGGER, "c": ["x"]}), "c: ", id="trigger-c-string"),
    pytest.param(
        lambda: EngineConfig(alpha="0.1", beta=1.0, horizon=1.0), "alpha: expected a number",
        id="alpha-string",
    ),
]


@pytest.mark.parametrize("build, message", CONSTRUCTOR_CASES)
def test_the_type_that_holds_a_value_refuses_it(build, message):
    # one error type for every invariant, and a ValueError to code that
    # catches those
    with pytest.raises(ValidationError, match=f"^{message}") as err:
        build()
    assert isinstance(err.value, ValueError) and isinstance(err.value, NeseekError)


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
            lambda: scenario_from_dict(data),
            lambda: single_run(s, law="sometimes"),
            lambda: compare_laws(s, ["static", "sometimes"], 2, 0),
        ],
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
