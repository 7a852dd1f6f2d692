import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from neseek import cli, engine, harness, single_run
from neseek.cli import main
from neseek.data import bundled_path

QUAD = str(bundled_path("quadratic_demo"))
SPECTRUM = str(bundled_path("spectrum_paper"))


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_solve_ne_spectrum(capsys):
    assert main(["solve-ne", "--config", SPECTRUM]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert np.abs(np.array(doc["x_star"]) - [2.000, 3.987, 6.011, 8.018, 9.990]).max() < 1e-2
    assert doc["residual"] <= 1e-8
    assert doc["iterations"] >= 1
    # the aggregative root-find certifies its distance to the equilibrium
    assert doc["method"] == "aggregative"
    assert 0 <= doc["distance_bound"] < math.inf


def test_solve_ne_quadratic_closed_form(capsys):
    assert main(["solve-ne", "--config", QUAD]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert np.allclose(doc["x_star"], [1.0, 2.0], atol=1e-6)
    # analytic constants: the projected iteration's error bound is finite
    assert doc["method"] == "projected"
    assert 0 <= doc["distance_bound"] < math.inf


def test_solve_ne_superlinear_pricing_needs_no_sampled_step(tmp_path, capsys):
    config = json.loads(bundled_path("spectrum_paper").read_text())
    config["game"]["tau"] = 1.5
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(config))
    assert main(["solve-ne", "--config", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    # the root-find needs no step, so tau > 1 still gets a finite bound
    assert doc["method"] == "aggregative"
    assert 0 <= doc["distance_bound"] < math.inf
    assert doc["residual"] <= 1e-8


def test_bounds_reports_full_certificate(capsys):
    assert main(["bounds", "--config", SPECTRUM]) == 0
    doc = json.loads(capsys.readouterr().out)
    for key in (
        "mu", "lbar", "c1", "c2", "c3", "c4", "c5", "lambda_max_p",
        "phi1", "phi2", "omega1", "omega2", "theta_star", "k_v",
        "alpha_max", "beta_min", "sigma_max", "feasible",
    ):
        assert key in doc
    # Q = I, so lambda_min(Q) = 1 is not reported
    assert "lambda_min_q" not in doc
    assert isinstance(doc["feasible"], bool)


def test_bundled_name_resolution(capsys):
    assert main(["solve-ne", "--config", "quadratic_demo"]) == 0
    json.loads(capsys.readouterr().out)


def test_simulate_outputs(tmp_path, capsys):
    import xml.dom.minidom

    out = tmp_path / "out"
    assert main(["simulate", "--config", QUAD, "--seed", "3", "--out", str(out)]) == 0
    for name in ("trajectory.csv", "events.csv", "metrics.json",
                 "actions.svg", "gamma.svg", "error.svg"):
        assert (out / name).exists(), name
    for name in ("actions.svg", "gamma.svg", "error.svg"):
        xml.dom.minidom.parseString((out / name).read_text())

    header, rows = read_csv(out / "trajectory.csv")
    assert header == ["t", "x_1", "x_2", "err_inf", "gamma", "trig_1", "trig_2"]
    assert len(rows) == 201  # horizon 5.0 at dt 0.025, plus the initial row
    eheader, _ = read_csv(out / "events.csv")
    assert eheader == ["t", "player", "rho", "xi"]
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["seed"] == 3
    assert metrics["law"] == "stochastic"


def test_simulate_rejects_non_finite_scenario(tmp_path, capsys):
    doc = json.loads(bundled_path("quadratic_demo").read_text())
    doc["y0"][0][1] = float("nan")
    config = tmp_path / "nan.json"
    config.write_text(json.dumps(doc))  # writes the bare NaN literal
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: y0: entries must be finite"]
    assert not out.exists()


def test_simulate_byte_identical_for_same_seed(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", QUAD, "--seed", "9", "--out", str(out1)]) == 0
    assert main(["simulate", "--config", QUAD, "--seed", "9", "--out", str(out2)]) == 0
    for name in ("trajectory.csv", "events.csv", "metrics.json",
                 "actions.svg", "gamma.svg", "error.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_trajectory_csv_roundtrips_exactly(tmp_path):
    from neseek import single_run
    from conftest import load_bundled

    out = tmp_path / "out"
    assert main(["simulate", "--config", QUAD, "--seed", "4", "--out", str(out)]) == 0
    result = single_run(load_bundled("quadratic_demo"), seed=4)
    _, rows = read_csv(out / "trajectory.csv")
    got_t = np.array([float(r[0]) for r in rows])
    got_x = np.array([[float(r[1]), float(r[2])] for r in rows])
    got_err = np.array([float(r[3]) for r in rows])
    assert np.array_equal(got_t, result.times)
    assert np.array_equal(got_x, result.actions)
    assert np.array_equal(got_err, result.err_inf)


def test_simulate_one_step_horizon(tmp_path):
    config = json.loads(bundled_path("quadratic_demo").read_text())
    config["engine"]["horizon"] = config["engine"]["dt"]
    path = tmp_path / "one_step.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    _, rows = read_csv(out / "trajectory.csv")
    assert len(rows) == 2


def test_simulate_dt_override(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", QUAD, "--dt", "0.05", "--out", str(out)]) == 0
    _, rows = read_csv(out / "trajectory.csv")
    assert len(rows) == 101


def test_compare_continuous_counts_every_step(tmp_path):
    out = tmp_path / "cmp"
    assert main([
        "compare", "--config", QUAD, "--laws", "continuous", "--runs", "1",
        "--seed", "0", "--out", str(out),
    ]) == 0
    header, rows = read_csv(out / "summary.csv")
    assert header == ["player", "law", "count_mean",
                      "max_interval", "mean_interval", "min_interval"]
    assert len(rows) == 2
    for row in rows:
        assert row[1] == "continuous"
        assert float(row[2]) == 200.0
        assert float(row[4]) == pytest.approx(0.025)  # fires every step
    doc = json.loads((out / "compare.json").read_text())
    assert doc["laws"]["continuous"]["mean_gamma_final"] == 1.0
    assert (out / "gamma_compare.svg").exists()
    assert (out / "error_compare.svg").exists()


def test_compare_single_run_matches_simulate(tmp_path):
    sim_out = tmp_path / "sim"
    cmp_out = tmp_path / "cmp"
    assert main(["simulate", "--config", QUAD, "--seed", "21", "--out", str(sim_out)]) == 0
    assert main([
        "compare", "--config", QUAD, "--laws", "stochastic", "--runs", "1",
        "--seed", "21", "--out", str(cmp_out),
    ]) == 0
    metrics = json.loads((sim_out / "metrics.json").read_text())
    doc = json.loads((cmp_out / "compare.json").read_text())
    assert doc["laws"]["stochastic"]["mean_counts"] == metrics["trigger_counts"]
    assert doc["laws"]["stochastic"]["mean_gamma_final"] == pytest.approx(
        metrics["final_gamma"], rel=1e-12
    )


def test_loading_keeps_the_callers_warning_filters(monkeypatch, capsys):
    # an advisory prints as a warning line on every call, while any other
    # warning raised in loading meets the caller's filters
    for _ in range(2):
        assert main(["solve-ne", "--config", SPECTRUM]) == 0
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("warning: sigma exceeds") for line in err)
    load = cli.load_scenario

    def overflowing(path):
        warnings.warn("overflow encountered in loading", RuntimeWarning)
        return load(path)

    monkeypatch.setattr(cli, "load_scenario", overflowing)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow encountered in loading"):
            main(["solve-ne", "--config", SPECTRUM])


def test_unknown_law_rejected(tmp_path, capsys):
    # compare_laws checks the list, as for any caller: one error line, exit code 1
    out = tmp_path / "x"
    code = main([
        "compare", "--config", QUAD, "--laws", "sometimes", "--runs", "1", "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == (
        "error: law: 'sometimes' is not one of ['continuous', 'static', 'dynamic', 'stochastic']"
    )
    assert not out.exists()


@pytest.mark.parametrize("laws, message", [
    pytest.param(
        "stochastic,static,stochastic",
        "laws: ['stochastic', 'static', 'stochastic'] names a law twice",
        id="stochastic,static,stochastic",
    ),
    pytest.param(",", "laws: name at least one law", id=","),
])
def test_duplicate_or_missing_law_rejected(tmp_path, capsys, laws, message):
    out = tmp_path / "x"
    code = main(["compare", "--config", QUAD, "--laws", laws, "--runs", "1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--runs", "0"],
        ["simulate", "--seed", "-1"],
        ["compare", "--seed", "-1"],
        ["simulate", "--dt", "0"],
        ["compare", "--dt", "0"],
        # the base seed fits in 64 bits, the second run's seed does not
        ["compare", "--seed", "18446744073709551615", "--runs", "2"],
    ],
    ids=["runs-0", "simulate-seed-neg", "compare-seed-neg", "simulate-dt-0",
         "compare-dt-0", "seed-range-overflows"],
)
def test_bad_override_is_one_error_line(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--config", QUAD, "--out", str(out)]) == 1
    err = [line for line in capsys.readouterr().err.splitlines()
           if not line.startswith("warning:")]
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def edited(name, edit, mark=None):
    """The bundled document ``name`` after ``edit(doc)``, as UTF-8 bytes,
    with the string ``"HOLE"`` replaced by ``mark``, a raw JSON literal."""
    doc = json.loads(bundled_path(name).read_text())
    edit(doc)
    text = json.dumps(doc)
    return (text if mark is None else text.replace('"HOLE"', mark)).encode()


def negative_demand(doc):
    # a superlinear price of a negative total demand: the row's sum is
    # negative from the first step
    doc["game"]["tau"], doc["y0"][0][1] = 2.0, -1000.0


def negative_box(doc):
    # a superlinear price over a box that reaches below zero
    doc["game"]["tau"], doc["game"]["intervals"][0] = 2.0, [-1.0, 16.0]


@pytest.mark.parametrize("command, content, start", [
    pytest.param(
        "solve-ne", lambda: edited("quadratic_demo", lambda d: d.update(x0=["a", 1])),
        "error: x0: ", id="non-numeric",
    ),
    pytest.param("simulate", lambda: b"\xff\xfe\x00garbage", "error: ", id="not-utf-8"),
    pytest.param(
        "simulate", lambda: b"[" * 200_000 + b"]" * 200_000, "error: ", id="nested-200000-deep"
    ),
    # json reads it as an int, whose digits exceed Python's conversion limit
    pytest.param(
        "simulate", lambda: edited("quadratic_demo", lambda d: d.update(x0=["HOLE", 1]), "1" * 5000),
        "error: ", id="5000-digit-integer",
    ),
    pytest.param(
        "simulate", lambda: edited("spectrum_paper", negative_demand),
        "error: negative total demand with fractional pricing exponent", id="negative-demand",
    ),
    pytest.param(
        "bounds", lambda: edited("spectrum_paper", negative_box),
        "error: game: intervals: ", id="negative-box",
    ),
    # superlinear pricing over a box from zero: no positive monotonicity bound
    pytest.param(
        "bounds", lambda: edited("spectrum_paper", lambda d: d["game"].update(tau=2.0)),
        "error: game: tau: ", id="superlinear-from-zero",
    ),
    # the game's sign checks start with the field, as every other error does
    pytest.param(
        "bounds", lambda: edited("spectrum_paper", lambda d: d["game"]["q"].__setitem__(0, 0)),
        "error: game: q must be positive", id="zero-price-slope",
    ),
])
def test_non_numeric_start_is_one_error_line(tmp_path, capsys, command, content, start):
    path = tmp_path / "bad.json"
    path.write_bytes(content())
    out = ["--out", str(tmp_path / "out")] if command == "simulate" else []
    assert main([command, "--config", str(path), *out]) == 1
    err = [line for line in capsys.readouterr().err.splitlines()
           if not line.startswith("warning:")]
    assert len(err) == 1 and err[0].startswith(start)


def test_huge_integer_is_one_error_line(tmp_path, capsys):
    # json reads the literal as an int that does not fit in a float
    config = json.loads(bundled_path("quadratic_demo").read_text())
    config["engine"]["alpha"] = 10 ** 400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(config))
    assert main(["solve-ne", "--config", str(path)]) == 1
    err = [line for line in capsys.readouterr().err.splitlines()
           if not line.startswith("warning:")]
    assert len(err) == 1 and err[0].startswith("error: engine: alpha: ")


def test_events_csv_of_a_deterministic_law(tmp_path, quadratic_scenario):
    # a deterministic law draws no threshold, so every xi cell is empty
    config = json.loads(bundled_path("quadratic_demo").read_text())
    config["trigger"]["law"] = "static"
    path = tmp_path / "static.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--seed", "5", "--out", str(out)]) == 0
    result = single_run(dataclasses.replace(quadratic_scenario, law="static"), seed=5)
    steps, players = np.nonzero(result.trig[1:])
    header, rows = read_csv(out / "events.csv")
    assert header == ["t", "player", "rho", "xi"]
    assert len(rows) == len(steps) > 0
    for (t, player, rho, xi), k, i in zip(rows, steps, players):
        assert xi == ""
        assert int(player) == i + 1
        assert float(t) == result.times[k]
        assert float(rho) == result.rho[k, i]


def test_compare_divergence_is_one_error_line(tmp_path, capsys):
    # the actions are projected onto their box, so it is a huge estimate
    # step that blows the state up; every law's members diverge together
    config = json.loads(bundled_path("spectrum_paper").read_text())
    config["engine"]["beta"] = 1e6
    path = tmp_path / "diverging.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = ["compare", "--config", str(path), "--runs", "2", "--out", str(out),
            "--laws", "continuous,static,dynamic,stochastic"]
    assert main(argv) == 1
    err = [line for line in capsys.readouterr().err.splitlines()
           if not line.startswith("warning:")]
    assert err == ["error: state magnitude exceeded 1e+09 or became non-finite at t=0.05; "
                   "member 0 (continuous, seed 0), player 0; reduce alpha, beta, or dt"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_out_naming_a_file_fails_before_the_run(tmp_path, capsys, monkeypatch, command):
    # the output directory is made before the integration, so an --out that
    # cannot be a directory costs no run and is one error line
    out = tmp_path / "taken"
    out.write_text("a file")

    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(harness, "single_run", no_run)
    monkeypatch.setattr(harness, "compare_laws", no_run)
    assert main([command, "--config", QUAD, "--out", str(out)]) == 1
    err = [line for line in capsys.readouterr().err.splitlines()
           if not line.startswith("warning:")]
    assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0]
    assert out.read_text() == "a file"


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_failed_run_removes_the_directories_it_made(tmp_path, capsys, command):
    config = json.loads(bundled_path("spectrum_paper").read_text())
    config["engine"]["beta"] = 1e6
    path = tmp_path / "diverging.json"
    path.write_text(json.dumps(config))
    # the run diverges after --out and a parent of it were made
    argv = [command, "--config", str(path), "--out", str(tmp_path / "new" / "out")]
    assert main(argv + (["--runs", "1"] if command == "compare" else [])) == 1
    assert "error: state magnitude exceeded" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["diverging.json"]


@pytest.mark.parametrize(
    "raised", [RuntimeError("boom"), KeyboardInterrupt()], ids=["RuntimeError", "KeyboardInterrupt"]
)
def test_any_exception_removes_the_directories_it_made(tmp_path, monkeypatch, raised):
    # not only a NeseekError: an unexpected failure or a Ctrl-C during the
    # run leaves no directory either, and reaches the caller unchanged
    def failing_run(*args, **kwargs):
        raise raised

    monkeypatch.setattr(harness, "single_run", failing_run)
    with pytest.raises(type(raised)) as caught:
        main(["simulate", "--config", QUAD, "--out", str(tmp_path / "new" / "out")])
    assert caught.value is raised
    assert list(tmp_path.iterdir()) == []


def error_lines(capsys):
    return [line for line in capsys.readouterr().err.splitlines()
            if not line.startswith("warning:")]


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("dt", ["5e-324", "1e-300"])
def test_grid_too_fine_to_integrate_is_one_error_line(tmp_path, capsys, command, dt):
    # horizon / dt overflows to inf at 5e-324; at 1e-300 the step count is
    # finite but the run's (steps, R, n) arrays exceed numpy's largest array:
    # both are refused before anything is allocated
    out = tmp_path / "out"
    assert main([command, "--config", QUAD, "--dt", dt, "--out", str(out)]) == 1
    err = error_lines(capsys)
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not out.exists()


def test_horizon_too_long_to_integrate_is_one_error_line(tmp_path, capsys):
    config = json.loads(bundled_path("quadratic_demo").read_text())
    config["engine"]["horizon"] = 1e300
    path = tmp_path / "long.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    err = error_lines(capsys)
    assert len(err) == 1 and "exceed numpy's largest array" in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("raised, line", [
    (MemoryError("Unable to allocate 71.1 PiB for an array"),
     "error: Unable to allocate 71.1 PiB for an array"),
    (MemoryError(), "error: MemoryError"),
], ids=["numpy", "bare"])
def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, command, raised, line):
    # numpy's error for a grid that fits its largest array but not the
    # machine, such as --dt 1e-15 (71.1 PiB), and a bare one, which has no
    # message; faked, so nothing is allocated
    def no_memory(*args, **kwargs):
        raise raised

    monkeypatch.setattr(engine.Batch, "of", no_memory)
    out = tmp_path / "new" / "out"
    assert main([command, "--config", QUAD, "--out", str(out)]) == 1
    assert error_lines(capsys) == [line]
    assert list(tmp_path.iterdir()) == []


def fail_writing(monkeypatch, command):
    """Make the second artifact write of ``command`` raise OSError, after the
    first artifact is on disk."""
    def disk_full(*args, **kwargs):
        raise OSError("No space left on device")

    name = "write_events_csv" if command == "simulate" else "line_chart_svg"
    monkeypatch.setattr(cli.outputs, name, disk_full)


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_failed_write_into_a_new_out_leaves_nothing(tmp_path, capsys, monkeypatch, command):
    fail_writing(monkeypatch, command)
    out = tmp_path / "out_w" / "a" / "b"
    argv = [command, "--config", QUAD, "--out", str(out)]
    assert main(argv + (["--runs", "1"] if command == "compare" else [])) == 1
    assert error_lines(capsys) == ["error: No space left on device"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_failed_write_into_an_old_out_keeps_what_was_there(
    tmp_path, capsys, monkeypatch, command
):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    (out / "old").mkdir()
    fail_writing(monkeypatch, command)
    argv = [command, "--config", QUAD, "--out", str(out)]
    assert main(argv + (["--runs", "1"] if command == "compare" else [])) == 1
    assert error_lines(capsys) == ["error: No space left on device"]
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "old"]
    assert (out / "notes.txt").read_text() == "kept"


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_failed_write_into_a_used_out_keeps_the_earlier_run(
    tmp_path, capsys, monkeypatch, command
):
    # a run's files move into --out only once all of them are written, so a
    # failed run leaves the earlier run's set as it was, not a mix of both;
    # on spectrum_paper seeds 0 and 1 give different stochastic runs
    def argv(seed, out):
        runs = ["--runs", "1"] if command == "compare" else []
        return [command, "--config", SPECTRUM, "--seed", str(seed), "--out", str(out), *runs]

    def digests(directory):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}

    out, other = tmp_path / "mix", tmp_path / "other"
    assert main(argv(0, out)) == main(argv(1, other)) == 0
    first = digests(out)
    # the write that succeeds before the failing one gives other bytes
    written = "trajectory.csv" if command == "simulate" else "summary.csv"
    assert digests(other)[written] != first[written]
    fail_writing(monkeypatch, command)
    capsys.readouterr()
    assert main(argv(1, out)) == 1
    assert error_lines(capsys) == ["error: No space left on device"]
    assert digests(out) == first


@pytest.mark.parametrize("section", ["game", "trigger", "engine"])
@pytest.mark.parametrize("value", [[], 5, "kind"], ids=["list", "int", "str"])
def test_section_that_is_not_an_object_is_one_error_line(tmp_path, capsys, section, value):
    config = json.loads(bundled_path("quadratic_demo").read_text())
    config[section] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert error_lines(capsys) == [f"error: {section}: must be an object"]
    assert not out.exists()


def test_package_runs_as_a_module():
    import neseek

    src = str(Path(neseek.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    done = subprocess.run(
        [sys.executable, "-m", "neseek", "solve-ne", "--config", "quadratic_demo"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert np.allclose(json.loads(done.stdout)["x_star"], [1.0, 2.0], atol=1e-6)


def test_huge_snr_is_one_error_line(tmp_path, capsys):
    config = json.loads(bundled_path("spectrum_paper").read_text())
    config["game"]["s_db"][0] = 4000
    path = tmp_path / "snr.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    err = [line for line in capsys.readouterr().err.splitlines()
           if not line.startswith("warning:")]
    assert len(err) == 1 and err[0].startswith("error: game: s_db: ")
    assert not out.exists()


def test_bundled_names_resolve_when_imported_from_a_zip(tmp_path):
    import zipfile

    import neseek

    package = Path(neseek.__file__).parent
    archive = tmp_path / "neseek.zip"
    with zipfile.ZipFile(archive, "w") as z:
        for f in package.rglob("*"):
            if f.is_file() and "__pycache__" not in f.parts:
                z.write(f, f.relative_to(package.parent))
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(archive)!r})",
        "import neseek",
        "assert neseek.__file__.startswith(sys.path[0]), neseek.__file__",
        "from neseek.cli import main",
        "sys.exit(main(['solve-ne', '--config', 'quadratic_demo']))",
    ])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert np.allclose(json.loads(done.stdout)["x_star"], [1.0, 2.0], atol=1e-6)


def test_missing_config_fails_cleanly(capsys):
    assert main(["solve-ne", "--config", "/nonexistent/nope.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_compare_byte_identical_for_same_base_seed(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["compare", "--config", QUAD, "--laws", "static,stochastic", "--runs", "3",
            "--seed", "11"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("summary.csv", "compare.json", "gamma_compare.svg", "error_compare.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_commands_in_one_process_give_what_they_give_alone(tmp_path, capsys):
    # the parser is built once per process: no command reads what an
    # earlier one parsed, such as the --seed of a simulate before a compare
    commands = [
        ["solve-ne", "--config", SPECTRUM],
        ["simulate", "--config", QUAD, "--seed", "4", "--out"],
        ["compare", "--config", QUAD, "--runs", "2", "--laws", "static,stochastic", "--out"],
        ["bounds", "--config", QUAD],
    ]

    def give(argv, out):
        assert main(argv + [str(out)] if argv[-1] == "--out" else argv) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        printed = capsys.readouterr()
        return printed.out.replace(str(out), "<out>"), printed.err, files

    alone = []
    for k, argv in enumerate(commands):
        cli.build_parser.cache_clear()
        alone.append(give(argv, tmp_path / f"alone-{k}"))
    assert cli.build_parser() is cli.build_parser()
    together = [give(argv, tmp_path / f"together-{k}") for k, argv in enumerate(commands)]
    assert together == alone


@pytest.mark.parametrize("command", ["bounds", "simulate", "compare"])
@pytest.mark.parametrize("weight, message", [
    (1e200, "the bound (n-1)/(2n*||L||^2) is out of the float range"),
    (1e-200, "the bound (n-1)/(2n*||L||^2) is out of the float range"),
    (1e308, "an in-degree sum overflows"),
])
def test_weights_out_of_range_are_one_error_line(tmp_path, capsys, command, weight, message):
    # every link of spectrum_paper at the weight, with an explicit sigma
    config = json.loads(bundled_path("spectrum_paper").read_text())
    n = len(config["adjacency"])
    config["adjacency"] = (weight * (1 - np.eye(n))).tolist()
    del config["trigger"]["sigma_rule"]
    config["trigger"]["sigma"] = [0.01] * n
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = [command, "--config", str(path)] + (["--out", str(out)] if command != "bounds" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: adjacency: weights: {message}"]
    assert not out.exists()
