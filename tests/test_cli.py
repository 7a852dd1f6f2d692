import json

import numpy as np
import pytest

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


def test_solve_ne_quadratic_closed_form(capsys):
    assert main(["solve-ne", "--config", QUAD]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert np.allclose(doc["x_star"], [1.0, 2.0], atol=1e-6)


def test_bounds_reports_full_certificate(capsys):
    assert main(["bounds", "--config", SPECTRUM]) == 0
    doc = json.loads(capsys.readouterr().out)
    for key in (
        "mu", "lbar", "c1", "c2", "c3", "c4", "c5", "lambda_min_q", "lambda_max_p",
        "phi1", "phi2", "omega1", "omega2", "theta_star", "k_v",
        "alpha_max", "beta_min", "sigma_max", "feasible",
    ):
        assert key in doc
    assert doc["lambda_min_q"] == pytest.approx(1.0)
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
    assert "non-finite number NaN" in capsys.readouterr().err
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


def test_unknown_law_rejected(tmp_path):
    code = main([
        "compare", "--config", QUAD, "--laws", "sometimes", "--runs", "1",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 2


@pytest.mark.parametrize("laws", ["stochastic,static,stochastic", ","])
def test_duplicate_or_missing_law_rejected(tmp_path, capsys, laws):
    out = tmp_path / "x"
    code = main(["compare", "--config", QUAD, "--laws", laws, "--runs", "1", "--out", str(out)])
    assert code == 2
    assert "none twice" in capsys.readouterr().err
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
