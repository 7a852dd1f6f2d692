import dataclasses
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest

from neseek import (
    DirectedGraph,
    EngineConfig,
    LawKind,
    Member,
    QuadraticGame,
    Scenario,
    TriggerParams,
    compare_laws,
    engine,
    errors,
    harness,
    load_scenario,
    oracle,
    run,
    single_run,
    solve_ne,
)
from neseek.cli import main
from neseek.data import bundled_path
from neseek.errors import ParseError, ValidationError
from neseek.scenario import AdvisoryWarning, scenario_from_dict


def spectrum_dict():
    return json.loads(bundled_path("spectrum_paper").read_text())


def quadratic_dict():
    return json.loads(bundled_path("quadratic_demo").read_text())


def test_bundled_spectrum_loads_with_published_parameters():
    with pytest.warns(AdvisoryWarning):
        s = load_scenario(bundled_path("spectrum_paper"))
    assert s.n == 5
    assert s.engine.alpha == 0.14
    assert s.engine.beta == 1.5
    assert s.engine.dt == 0.025
    assert s.engine.horizon == 20.0
    assert s.law is LawKind.STOCHASTIC
    assert s.trigger.kappa == 1.075
    assert s.trigger.a_floor == 0.05
    assert s.trigger.eta == 10.0
    assert np.array_equal(s.trigger.c, np.ones(5))
    assert np.array_equal(s.trigger.sigma, 0.8 / s.graph.in_degrees)
    assert s.runs == 100


def test_sigma_above_bound_warns_but_loads():
    with pytest.warns(AdvisoryWarning, match="sigma exceeds"):
        scenario_from_dict(quadratic_dict())


def test_explicit_sigma_list():
    data = quadratic_dict()
    data["trigger"].pop("sigma_rule")
    data["trigger"]["sigma"] = [0.01, 0.02]
    s = scenario_from_dict(data)
    assert np.array_equal(s.trigger.sigma, [0.01, 0.02])


def test_wrong_x0_length():
    data = spectrum_dict()
    data["x0"] = [14, 12, 10, 4]
    with pytest.raises(ValidationError, match="x0"):
        scenario_from_dict(data)


def test_wrong_y0_shape():
    data = spectrum_dict()
    data["y0"] = [[0.0] * 5] * 4
    with pytest.raises(ValidationError, match="y0"):
        scenario_from_dict(data)


def test_infeasible_x0():
    data = spectrum_dict()
    data["x0"][0] = 99.0
    with pytest.raises(ValidationError, match="outside"):
        scenario_from_dict(data)


def test_unknown_law():
    data = spectrum_dict()
    data["trigger"]["law"] = "telepathy"
    with pytest.raises(ValidationError, match="telepathy"):
        scenario_from_dict(data)


def test_bad_kappa_named():
    data = spectrum_dict()
    data["trigger"]["kappa"] = 0.9
    with pytest.raises(ValidationError, match="kappa"):
        scenario_from_dict(data)


def test_missing_field_named():
    data = spectrum_dict()
    del data["engine"]["alpha"]
    with pytest.raises(ValidationError, match="alpha"):
        scenario_from_dict(data)


def test_ne_override_roundtrip():
    data = spectrum_dict()
    data["ne_override"] = [2.0, 3.987, 6.011, 8.018, 9.99]
    with pytest.warns(AdvisoryWarning):
        s = scenario_from_dict(data)
    assert np.allclose(s.ne_override, data["ne_override"])


def test_parse_error_has_location(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"adjacency": [[0, 1], [1, 0]],\n  "game": }')
    with pytest.raises(ParseError, match="broken.json:2"):
        load_scenario(bad)


def test_a_number_under_an_ignored_key_is_not_read(tmp_path):
    # no type reads these keys, so no non-finite literal there is refused
    data = quadratic_dict()
    data["engine"]["record_every"] = "HOLE"
    data["notes"] = {"scale": [1.0, "HOLE"]}
    path = tmp_path / "ignored.json"
    path.write_text(json.dumps(data).replace('"HOLE"', "1e999"))
    with pytest.warns(AdvisoryWarning):
        s = load_scenario(path)
    with pytest.warns(AdvisoryWarning):
        assert s.engine == scenario_from_dict(quadratic_dict()).engine


def test_finite_floats_whose_sum_overflows_load(tmp_path):
    # the exact sum of the list overflows, while each float is finite
    data = quadratic_dict()
    data["notes"] = [1e308, 1e308]
    path = tmp_path / "large.json"
    path.write_text(json.dumps(data))
    with pytest.warns(AdvisoryWarning):
        assert load_scenario(path).n == len(data["x0"])


def test_long_overflowing_literal_is_named(tmp_path):
    literal = "1" + "0" * 309 + ".0"
    data = quadratic_dict()
    data["x0"][0] = "HOLE"
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data).replace('"HOLE"', literal))
    with pytest.raises(ValidationError, match="^x0: entries must be finite$"):
        load_scenario(path)


def test_nan_x0_from_api_is_outside():
    data = quadratic_dict()
    data["x0"][0] = math.nan
    with pytest.raises(ValidationError, match="^x0: entries must be finite$"):
        scenario_from_dict(data)


# (scenario, path to the entry, value); a trailing index addresses a list entry
NON_FINITE_DICT_CASES = [
    ("quadratic", ("y0", 0, 1), math.nan),
    ("quadratic", ("ne_override",), [math.nan, 1.0]),
    ("quadratic", ("trigger", "c"), math.nan),
    ("quadratic", ("trigger", "delta0"), math.nan),
    ("quadratic", ("trigger", "sigma"), [math.nan, 0.5]),
    ("quadratic", ("trigger", "sigma"), [math.inf, 0.5]),
    ("quadratic", ("engine", "dt"), math.nan),
    ("quadratic", ("engine", "horizon"), math.nan),
    ("quadratic", ("engine", "horizon"), math.inf),
    ("quadratic", ("engine", "alpha"), math.nan),
    ("quadratic", ("engine", "beta"), math.nan),
    ("quadratic", ("engine", "seed"), math.inf),
    ("quadratic", ("runs",), math.nan),
    ("quadratic", ("runs",), math.inf),
    ("quadratic", ("game", "diag_a", 0), math.nan),
    ("quadratic", ("game", "offset", 1), math.inf),
    ("quadratic", ("game", "cross", 0, 1), math.nan),
    ("spectrum", ("game", "m_c", 2), math.nan),
    ("spectrum", ("game", "tau"), math.nan),
    # these ran without complaint: a run with kappa = inf never broadcasts
    ("quadratic", ("trigger", "kappa"), math.inf),
    ("quadratic", ("trigger", "eta"), math.inf),
    ("quadratic", ("engine", "alpha"), math.inf),
    ("quadratic", ("engine", "beta"), math.inf),
    ("quadratic", ("x0", 0), math.nan),
    # the diagonal of y0 is overwritten by x0, and refused all the same
    ("quadratic", ("y0", 1, 1), math.nan),
    ("quadratic", ("adjacency", 0, 1), math.nan),
    ("quadratic", ("game", "intervals", 0, 1), math.nan),
    ("quadratic", ("trigger", "a_floor"), math.nan),
    ("quadratic", ("trigger", "law"), math.nan),
    ("quadratic", ("trigger", "c"), [1.0, math.nan]),
    ("quadratic", ("trigger", "delta0"), [math.nan, 1.0]),
    ("quadratic", ("engine", "seed"), math.nan),
    ("quadratic", ("ne_override",), [1.0, math.inf]),
    ("spectrum", ("game", "q", 0), math.nan),
    ("spectrum", ("game", "r", 1), math.nan),
    ("spectrum", ("game", "s_db", 2), math.nan),
    ("spectrum", ("game", "ber_target", 3), math.nan),
]


def with_entry(kind, where, value):
    """The bundled document of ``kind`` with ``value`` at ``where``, a path of
    keys whose trailing indices address a list entry."""
    data = quadratic_dict() if kind == "quadratic" else spectrum_dict()
    if where == ("trigger", "sigma"):
        data["trigger"].pop("sigma_rule")
    target = data
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    return data


@pytest.mark.parametrize("kind, where, value", NON_FINITE_DICT_CASES)
def test_non_finite_dict_input_is_validation_error(kind, where, value):
    data = with_entry(kind, where, value)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdvisoryWarning)
        with pytest.raises(ValidationError):
            scenario_from_dict(data)


def marked(value):
    """``value`` with each non-finite float replaced by a mark that a JSON
    literal takes the place of."""
    if isinstance(value, list):
        return [marked(v) for v in value]
    return "HOLE" if isinstance(value, float) and not math.isfinite(value) else value


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("kind, where, value", [
    pytest.param(*case, id=f"{case[0]}-{'.'.join(map(str, case[1]))}")
    # entries that differ only in the value write the same file
    for case in {json.dumps(marked(list(case))): case for case in NON_FINITE_DICT_CASES}.values()
])
def test_non_finite_number_in_file_is_refused_by_its_field(tmp_path, kind, where, value, literal):
    # the loader parses the literal as any other number, and the type that
    # reads the field refuses it, naming the field as the dict API does
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(with_entry(kind, where, marked(value))).replace('"HOLE"', literal))
    field = ": ".join(key for key in where if isinstance(key, str))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdvisoryWarning)
        with pytest.raises(ValidationError, match=f"^{re.escape(field)}[: ]"):
            load_scenario(path)


@pytest.mark.parametrize(
    "field", ["x0", "y0", "ne_override", "trigger.sigma", "trigger.c", "game.diag_a"]
)
@pytest.mark.parametrize(
    "bad", ["non-numeric", "ragged", "boolean", "numeric-string", "huge-integer"]
)
def test_unconvertible_array_is_validation_error(field, bad):
    # quadratic_demo has two players; numpy would read true as 1.0 and "0.5"
    # as 0.5, and raises OverflowError for an integer beyond the float range
    if bad == "ragged":
        value = [[1.0, 2.0], [3.0]]
    else:
        leaf = {"non-numeric": "a", "boolean": True, "numeric-string": "0.5",
                "huge-integer": 10 ** 400}[bad]
        value = [[leaf, 1.0], [1.0, 2.0]] if field == "y0" else [leaf, 1.0]
    data = quadratic_dict()
    if field == "trigger.sigma":
        data["trigger"].pop("sigma_rule")
    target = data
    *parents, key = field.split(".")
    for parent in parents:
        target = target[parent]
    target[key] = value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdvisoryWarning)
        with pytest.raises(ValidationError, match=f"^{field.replace('.', ': ')}: "):
            scenario_from_dict(data)


# (changed fields, the message's start): quadratic_demo has two players, each
# acting in [-10, 10]
API_CASES = [
    pytest.param(
        {"ne_override": [math.nan, 1.0]}, "ne_override: entries must be finite",
        id="nan-ne_override",
    ),
    pytest.param({"ne_override": [1.0]}, "ne_override: expected shape", id="short-ne_override"),
    pytest.param({"y0": [[3.0, math.nan], [0.0, -1.0]]}, "y0: entries must be finite", id="nan-y0"),
    pytest.param({"x0": [3.0]}, "x0: expected shape", id="short-x0"),
    pytest.param({"x0": [20.0, -1.0]}, r"x0\[0\]=20.0 outside \[-10.0, 10.0\]", id="infeasible-x0"),
    pytest.param({"x0": [3.0, math.nan]}, "x0: entries must be finite", id="nan-x0"),
    pytest.param({"runs": 0}, "runs: must be >= 1", id="runs-zero"),
    pytest.param({"seed": -1}, "seed: ", id="seed-negative"),
    pytest.param({"seed": 1.7}, "seed: expected an integer", id="seed-fractional"),
    pytest.param({"seed": True}, "seed: expected an integer", id="seed-bool"),
    pytest.param({"runs": 2.5}, "runs: expected an integer", id="runs-fractional"),
    pytest.param({"runs": True}, "runs: expected an integer", id="runs-bool"),
    pytest.param({"law": "telepathy"}, "law: 'telepathy' is not one of", id="unknown-law"),
    pytest.param(
        {"trigger": lambda s: dataclasses.replace(
            s.trigger, c=np.ones(3), sigma=np.full(3, 0.1), delta0=np.ones(3)
        )},
        "trigger: vectors have length 3, expected 2", id="trigger-players",
    ),
]


@pytest.mark.parametrize("changes, message", API_CASES)
def test_api_built_scenario_is_refused(quadratic_scenario, changes, message):
    # replace builds a new Scenario, so it validates as construction does: a
    # scenario made in code cannot start a run that turns into NaN or
    # measures against a broadcast equilibrium
    s = quadratic_scenario
    changes = {k: v(s) if callable(v) else v for k, v in changes.items()}
    with pytest.raises(ValidationError, match=f"^{message}"):
        dataclasses.replace(s, **changes)


@pytest.mark.parametrize(
    "section, value", [("trigger", []), ("engine", 5), ("game", 5), ("game", "kind"),
                       ("trigger", "sigma")],
)
def test_section_that_is_not_an_object_is_refused(section, value):
    data = quadratic_dict()
    data[section] = value
    with pytest.raises(ValidationError, match=f"^{section}: must be an object$"):
        scenario_from_dict(data)


@pytest.mark.parametrize("box, message", [
    ([[1.0, -1.0], [-10.0, 10.0]], "game: intervals must satisfy lo <= hi"),
    ([[-10.0, math.inf], [-10.0, 10.0]], "game: intervals: entries must be finite"),
])
def test_box_errors_through_the_loader_name_the_game(box, message):
    data = quadratic_dict()
    data["game"]["intervals"] = box
    with pytest.raises(ValidationError, match=f"^{message}$"):
        scenario_from_dict(data)


@pytest.mark.parametrize("doc, field, short", [
    (spectrum_dict, "m_c", "box"), (spectrum_dict, "m_c", "vector"),
    (quadratic_dict, "diag_a", "box"), (quadratic_dict, "diag_a", "vector"),
])
def test_length_mismatch_names_the_box(doc, field, short):
    # a vector that disagrees with the box is refused naming the box and its
    # rows, whichever of the two is short
    data = doc()
    game = data["game"]
    n = len(game["intervals"])
    if short == "box":
        game["intervals"] = game["intervals"][:-1]
    else:
        game[field] = game[field][:-1]
    rows, entries = (n - 1, n) if short == "box" else (n, n - 1)
    message = (
        f"game: {field}: expected shape ({rows},) for intervals of shape ({rows}, 2), "
        f"got ({entries},)"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdvisoryWarning)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            scenario_from_dict(data)


def test_loaded_box_is_the_document_array():
    with pytest.warns(AdvisoryWarning):
        s = scenario_from_dict(quadratic_dict())
    assert s.game.intervals.tolist() == quadratic_dict()["game"]["intervals"]
    assert not s.game.intervals.flags.writeable


def test_run_refuses_arrays_beyond_numpys_largest(quadratic_scenario, monkeypatch):
    # a horizon / dt that is finite but too large for any array is refused
    # before the batch is formed
    monkeypatch.setattr(engine.Batch, "of", lambda *a: pytest.fail("the batch was formed"))
    s = dataclasses.replace(
        quadratic_scenario, engine=dataclasses.replace(quadratic_scenario.engine, horizon=1e300),
        ne_override=[1.0, 2.0],
    )
    with pytest.raises(ValidationError, match="exceed numpy's largest array"):
        run(s, members=[Member(LawKind.STOCHASTIC, 0)])


def test_api_built_scenario_reads_names_and_numpy_integers(quadratic_scenario):
    s = dataclasses.replace(quadratic_scenario, law="static", seed=np.uint64(7), runs=np.int64(3))
    assert s.law is LawKind.STATIC
    assert (s.seed, s.runs) == (7, 3)
    assert type(s.seed) is int and type(s.runs) is int


def test_run_measures_against_the_solved_equilibrium(quadratic_scenario):
    # a scenario without ne_override runs as if it held the solver's answer
    s = quadratic_scenario
    assert s.ne_override is None
    members = [Member(LawKind.STOCHASTIC, 0), Member(LawKind.DYNAMIC, 0)]
    anchored = dataclasses.replace(s, ne_override=solve_ne(s.game).x_star)
    for got, want in zip(run(s, members), run(anchored, members), strict=True):
        for name, value in vars(want).items():
            if isinstance(value, np.ndarray):
                assert value.dtype == getattr(got, name).dtype, name
                assert np.array_equal(getattr(got, name), value, equal_nan=True), name


def test_x_star_is_the_override_or_the_solution(quadratic_scenario):
    s = dataclasses.replace(quadratic_scenario)
    assert np.array_equal(s.x_star, solve_ne(s.game).x_star)
    assert s.x_star is s.x_star
    v = np.array([0.5, -0.5])
    anchored = dataclasses.replace(s, ne_override=v)
    assert np.array_equal(anchored.x_star, v) and anchored.x_star is anchored.ne_override
    for x_star in (s.x_star, anchored.x_star):
        assert not x_star.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x_star[0] = 1.0


def solve_ne_calls(monkeypatch):
    """The games ``oracle.solve_ne`` is called with from now on."""
    calls, solve = [], oracle.solve_ne

    def spy(game):
        calls.append(game)
        return solve(game)

    monkeypatch.setattr(oracle, "solve_ne", spy)
    return calls


def test_a_scenario_solves_its_equilibrium_once(quadratic_scenario, monkeypatch):
    # a fresh object, so that no earlier test's solve is cached on it
    s = dataclasses.replace(quadratic_scenario)
    calls = solve_ne_calls(monkeypatch)
    results = [single_run(s, seed=seed) for seed in range(3)]
    assert len(calls) == 1
    assert all(result.x_star is s.x_star for result in results)


def test_comparisons_on_one_scenario_solve_its_equilibrium_once(quadratic_scenario, monkeypatch):
    # the run count and base seed are the scenario's: no comparison rebuilds
    # the scenario, and with it the cached equilibrium
    s = dataclasses.replace(quadratic_scenario, runs=2)
    calls = solve_ne_calls(monkeypatch)
    for _ in range(3):
        compare_laws(s, [LawKind.STATIC])
    assert len(calls) == 1


def test_every_chunk_of_a_comparison_reads_one_equilibrium(monkeypatch):
    # from n = 57 each member is a chunk of its own
    n = 57
    s = Scenario(
        DirectedGraph(np.roll(np.eye(n), 1, axis=1)),
        QuadraticGame(diag_a=np.ones(n), cross=np.zeros((n, n)), offset=np.linspace(-1, 1, n),
                      intervals=[[-3.0, 3.0]] * n),
        TriggerParams(kappa=1.075, a_floor=0.05, eta=1.0, c=np.ones(n), sigma=np.full(n, 0.1),
                      delta0=np.ones(n)),
        EngineConfig(alpha=0.1, beta=0.5, horizon=0.05),
        x0=np.zeros(n), y0=np.zeros((n, n)), law=LawKind.STOCHASTIC, runs=2,
    )
    calls, chunks = solve_ne_calls(monkeypatch), []

    def spy(scenario, members):
        chunks.append(members)
        return run(scenario, members)

    monkeypatch.setattr(harness, "run", spy)
    ensemble = compare_laws(s, [LawKind.STATIC, LawKind.STOCHASTIC])
    assert len(chunks) == 3 and len(calls) == 1
    assert ensemble[LawKind.STOCHASTIC].runs == 2


def test_a_set_override_solves_nothing(quadratic_scenario, monkeypatch):
    s = dataclasses.replace(quadratic_scenario, ne_override=[1.0, 2.0], runs=2)
    calls = solve_ne_calls(monkeypatch)
    single_run(s)
    compare_laws(s, list(LawKind))
    assert calls == []


def test_scenario_arrays_are_read_only_copies(quadratic_scenario):
    x0 = np.array([1.0, 2.0])
    s = dataclasses.replace(quadratic_scenario, x0=x0, ne_override=[1, 2])
    x0[0] = 5.0
    assert s.x0.tolist() == [1.0, 2.0]
    assert s.ne_override.dtype == float
    for a in (s.x0, s.y0, s.ne_override):
        assert not a.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.runs = 2


def test_unread_keys_are_ignored():
    # retired keys such as engine.record_every still load
    data = quadratic_dict()
    data["engine"]["record_every"] = 3
    data["notes"] = "anything"
    with pytest.warns(AdvisoryWarning):
        s = scenario_from_dict(data)
    with pytest.warns(AdvisoryWarning):
        plain = scenario_from_dict(quadratic_dict())
    assert s.engine == plain.engine


def test_engine_dt_defaults_to_the_engine_config():
    # both bundled documents set dt, so only a document without it reads the default
    data = quadratic_dict()
    del data["engine"]["dt"]
    with pytest.warns(AdvisoryWarning):
        s = scenario_from_dict(data)
    e = data["engine"]
    assert s.engine == EngineConfig(alpha=e["alpha"], beta=e["beta"], horizon=e["horizon"])


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_scenario(tmp_path / "nope.json")


def test_mismatched_game_size():
    data = spectrum_dict()
    data["adjacency"] = [[0, 1], [1, 0]]
    with pytest.raises(ValidationError):
        scenario_from_dict(data)


def test_not_strongly_connected_is_advisory():
    data = quadratic_dict()
    data["adjacency"] = [[0, 1], [0, 0]]
    data["trigger"]["sigma"] = [0.01, 0.01]
    data["trigger"].pop("sigma_rule", None)
    with pytest.warns(AdvisoryWarning, match="strongly connected"):
        scenario_from_dict(data)


def subnormal_links_dict():
    """``spectrum_paper`` with every link at 1e-320 and sigma by the rule:
    0.8 / din overflows to inf at every player."""
    data = spectrum_dict()
    data["adjacency"] = (1e-320 * (np.array(data["adjacency"]) != 0)).tolist()
    data["trigger"]["sigma_rule"] = "0.8/din"
    return data


def test_sigma_rule_that_overflows_names_the_rule():
    with pytest.raises(ValidationError, match=r"^trigger: sigma_rule: 0.8/din overflows"):
        scenario_from_dict(subnormal_links_dict())


def test_sigma_rule_that_overflows_is_one_bounds_error_line(tmp_path, capsys):
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps(subnormal_links_dict()))
    assert main(["bounds", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: trigger: sigma_rule: 0.8/din overflows: an in-degree is too small"
    ]


@pytest.mark.parametrize("s_db", [4000.0, 3082.0], ids=["overflows", "infinite"])
def test_snr_with_non_finite_efficiency_is_refused(s_db):
    # 10 ** 400 overflows a float; 10 ** 308.2 does not, but the
    # efficiency it gives is infinite
    data = spectrum_dict()
    data["game"]["s_db"][0] = s_db
    with pytest.raises(ValidationError, match=r"^game: s_db: "):
        scenario_from_dict(data)


def test_scalar_and_list_trigger_vectors_agree():
    data = quadratic_dict()
    data["trigger"]["c"] = [1.0, 1.0]
    data["trigger"]["delta0"] = [1.0, 1.0]
    with pytest.warns(AdvisoryWarning):
        from_list = scenario_from_dict(data)
    with pytest.warns(AdvisoryWarning):
        from_scalar = scenario_from_dict(quadratic_dict())
    assert np.array_equal(from_list.trigger.c, from_scalar.trigger.c)
    assert np.array_equal(from_list.trigger.delta0, from_scalar.trigger.delta0)


def test_runs_must_be_positive():
    data = quadratic_dict()
    data["runs"] = 0
    with pytest.raises(ValidationError, match="runs"):
        scenario_from_dict(data)


@pytest.mark.parametrize(
    "where, value, expected",
    [
        pytest.param(("engine", "seed"), 1.7, "an integer", id="seed-fractional"),
        pytest.param(("engine", "seed"), True, "an integer", id="seed-bool"),
        pytest.param(("runs",), 2.9, "an integer", id="runs-fractional"),
        pytest.param(("runs",), False, "an integer", id="runs-bool"),
        # an integral float is refused too: past 2**53 it no longer holds the
        # digits that were written
        pytest.param(("engine", "seed"), 3.0, "an integer", id="seed-integral-float"),
        pytest.param(("runs",), 2.0, "an integer", id="runs-integral-float"),
        # a number field refuses booleans and strings, which numpy would convert
        pytest.param(("engine", "dt"), True, "a number", id="dt-bool"),
        pytest.param(("engine", "alpha"), "0.1", "a number", id="alpha-string"),
        pytest.param(("trigger", "c"), True, "a number", id="c-bool"),
    ],
)
def test_integer_fields_reject_bools_and_floats(where, value, expected):
    data = quadratic_dict()
    target = data
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdvisoryWarning)
        with pytest.raises(ValidationError, match=rf"^{': '.join(where)}: expected {expected}"):
            scenario_from_dict(data)


def test_integer_fields_accept_numpy_integers():
    data = quadratic_dict()
    data["engine"]["seed"], data["runs"] = np.uint64(2 ** 64 - 1), np.int64(3)
    with pytest.warns(AdvisoryWarning):
        s = scenario_from_dict(data)
    assert (s.seed, s.runs) == (2 ** 64 - 1, 3)
    assert type(s.seed) is int and type(s.runs) is int


def number_fields(name):
    """(document, section, field) of every number field of a bundled
    document; the section is None for a top-level field."""
    doc = json.loads(bundled_path(name).read_text())
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from ((name, key, f) for f, v in value.items() if not isinstance(v, str))
        elif not isinstance(value, str):
            yield name, None, key


NUMBER_FIELDS = [
    pytest.param(*case, id=f"{case[0]}-{case[1] or 'top'}-{case[2]}")
    for name in ("spectrum_paper", "quadratic_demo") for case in number_fields(name)
]


@pytest.mark.parametrize("name, section, field", NUMBER_FIELDS)
def test_a_non_number_is_named_after_its_section(tmp_path, capsys, name, section, field):
    # true in place of the field's first number: one error that names the
    # section and the field, from the loader and from the command line alike
    data = json.loads(bundled_path(name).read_text())
    target, key = data if section is None else data[section], field
    while isinstance(target[key], list):
        target, key = target[key], 0
    target[key] = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdvisoryWarning)
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(data)
    message = str(err.value)
    assert message.startswith(f"{field}: " if section is None else f"{section}: {field}: ")
    assert message.endswith(", got True")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["bounds", "--config", str(path)]) == 1
    lines = [line for line in capsys.readouterr().err.splitlines()
             if not line.startswith("warning:")]
    assert lines == [f"error: {message}"]


def test_loading_converts_each_array_field_once(monkeypatch):
    # errors.numbers is the one reader of an input array: neither the loader
    # nor a second constructor converts a field again
    read, real = [], errors.numbers

    def spy(raw, name, shape=None):
        read.append(name)
        return real(raw, name, shape)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "neseek" and getattr(module, "numbers", None) is real:
            monkeypatch.setattr(module, "numbers", spy)
    with pytest.warns(AdvisoryWarning):
        load_scenario(bundled_path("spectrum_paper"))
    assert sorted(read) == sorted([
        "weights", "m_c", "q", "r", "s_db", "ber_target", "intervals",
        "c", "sigma", "delta0", "x0", "y0",
    ])
