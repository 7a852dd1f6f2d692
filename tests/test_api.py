import inspect

import neseek

# Removed from the package: the per-run metrics record and the second
# ensemble entry point (a RunResult carries its own statistics and
# compare_laws is the one ensemble call), the scalar reference
# implementations, which live in tests/oracles.py, and the per-law trigger
# parameters (a Member carries its law's sigma cap).
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
    for fn in (neseek.single_run, neseek.compare_laws):
        assert "x_star" not in inspect.signature(fn).parameters, fn.__name__
    assert not hasattr(neseek.harness, "law_trigger_params")


def test_engine_reads_the_scenario_whole():
    # the scenario is the one validated input: the engine takes it whole and
    # keeps no start check of its own
    assert list(inspect.signature(neseek.run).parameters) == ["scenario", "members"]
    assert list(inspect.signature(neseek.init).parameters) == ["scenario"]
    assert not hasattr(neseek.engine, "check_start")
    assert not hasattr(neseek.errors, "InfeasibleStart")
