import hashlib

import numpy as np
import pytest

from neseek.outputs import line_chart_svg, write_summary_csv


def test_chart_handles_empty_and_nonpositive_series(tmp_path):
    path = tmp_path / "chart.svg"
    t = np.linspace(0, 1, 5)
    line_chart_svg(
        path,
        [("dead", t, np.zeros(5)), ("live", t, np.array([1.0, 0.5, 0.25, 0.125, 0.0625]))],
        title="log view",
        xlabel="t",
        ylabel="v",
        ylog=True,
    )
    text = path.read_text()
    assert text.count("<polyline") == 1  # the all-zero series drops out on a log axis
    assert "log10(v)" in text


def test_chart_with_reference_lines(tmp_path):
    path = tmp_path / "chart.svg"
    t = np.linspace(0, 2, 9)
    line_chart_svg(
        path,
        [("a", t, np.sin(t) + 2.0)],
        title="actions",
        xlabel="t",
        ylabel="x",
        hlines=[2.0, 2.5],
    )
    assert path.read_text().count("stroke-dasharray") == 2


def test_summary_csv_empty_interval_cells(tmp_path):
    path = tmp_path / "summary.csv"
    write_summary_csv(
        path,
        [
            {"player": 1, "law": "stochastic", "count_mean": 1.0,
             "max_interval": None, "mean_interval": None, "min_interval": None},
        ],
    )
    lines = path.read_text().strip().split("\n")
    assert lines[1] == "1,stochastic,1.0,,,"


def test_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    t = np.linspace(0, 1, 50)
    series = [("x", t, np.cos(t))]
    line_chart_svg(a, series, "t", "x", "y")
    line_chart_svg(b, series, "t", "x", "y")
    assert a.read_bytes() == b.read_bytes()


NAN = float("nan")
T5 = np.linspace(0.0, 2.0, 5)

# The edge cases of the axis and point logic, each pinned by the SHA-256 of
# the file it writes. The digests were recorded before the point scaling
# moved from per-point closures to whole arrays, and must not move with it.
CHART_EDGE_CASES = {
    "empty-series-list": (
        dict(series=[]),
        "e98185015fc7ceef9c192f7a5e4adedc2b8c7e1c1656cdac9db2844cd1b1258f",
    ),
    "all-nan-series": (
        dict(series=[("nan", T5, np.full(5, NAN)), ("nan-x", np.full(5, NAN), T5)]),
        "b145ba85e0b50b02d6e8bde08bae230acf256a26ee6c942da573dc3dae4d4343",
    ),
    "log-axis-nonpositive": (
        dict(
            series=[
                ("mixed", T5, np.array([1.0, 0.0, -1.0, 0.1, 1e-3])),
                ("dead", T5, np.array([0.0, -2.0, 0.0, -0.0, -1e-9])),
                ("tiny", T5, np.array([1e-300, 5e-324, 2.0, NAN, 1e300])),
            ],
            ylog=True,
            hlines=[0.0, -1.0, 1e-2],
        ),
        "df71ff2c2a3cc55f4e40fd7c15327a46c576541a49bfa07b853ead6c75911611",
    ),
    "hline-only": (
        dict(series=[], hlines=[2.0, 2.5, -1.25]),
        "b4cc05bfba48cc5d001f2f7031b45cfa9311604094c05ad59c8e104d9ab027d6",
    ),
    "constant-series": (
        dict(series=[("flat", T5, np.full(5, 3.0))]),
        "28e16d8bc043462504120e4a2ea5585a6a263b50a3f86bb3caf96aaf48c4c845",
    ),
    "single-point": (
        dict(series=[("dot", np.array([4.0]), np.array([-7.5]))], hlines=[-7.5]),
        "0455c274e007ab52f0404fecdaefa764b33062679f59dc3ffc7d5e382c749c3a",
    ),
    "mixed-signs-and-scales": (
        dict(
            series=[
                ("wave", np.linspace(-3.0, 5.0, 41), np.sin(np.linspace(-3.0, 5.0, 41)) * 1e-4),
                ("ramp", np.array([-1e-12, 0.0, 1e-12, 7.0]), np.array([-0.0, 0.0, -3.0, 1e6])),
            ],
            hlines=[0.0],
        ),
        "571dfb7c6575a65bc13faf22eda125b51b6bd45af22e2548f4c40bb875977efa",
    ),
}


@pytest.mark.parametrize("case", sorted(CHART_EDGE_CASES))
def test_chart_bytes_on_edge_cases(tmp_path, case):
    kwargs, digest = CHART_EDGE_CASES[case]
    path = tmp_path / "chart.svg"
    line_chart_svg(path, title=case, xlabel="t", ylabel="v", **kwargs)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
