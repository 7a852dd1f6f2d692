"""CSV and SVG emission.

Floats are written with ``repr`` so re-parsing a CSV reproduces the
in-memory values exactly, and all output is a pure function of its inputs,
which keeps artifacts byte-identical across repeated runs.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .engine import RunResult

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """One line per row under ``header``. A float cell is written with
    ``repr``, so it parses back exactly; NaN is an empty cell, and any
    other cell is written with ``str``."""
    lines = [",".join(header)]
    # str of a float is its repr, and NaN is the one value unequal to itself;
    # a comprehension per row saves a function call per cell
    lines += [",".join(["" if v != v else str(v) for v in row]) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_trajectory_csv(path: Path, result: RunResult) -> None:
    """Columns: t, x_1..x_n, err_inf, gamma, trig_1..trig_n."""
    players = range(1, result.actions.shape[1] + 1)
    header = ["t", *(f"x_{i}" for i in players), "err_inf", "gamma"]
    header += [f"trig_{i}" for i in players]
    floats = np.column_stack([result.times, result.actions, result.err_inf, result.gamma])
    rows = zip(floats.tolist(), result.trig.astype(int).tolist())
    write_csv(path, header, (cells + trig for cells, trig in rows))


def write_events_csv(path: Path, result: RunResult) -> None:
    """One row per broadcast, in step order and then player order.

    Columns: t, player, rho, xi (player indices are 1-based, xi empty for
    deterministic laws); rho is the margin the law compared, the raw event
    energy under the static law."""
    k, i = np.nonzero(result.trig[1:])
    columns = (result.times[k], i + 1, result.rho[k, i], result.xi[k, i])
    write_csv(path, ["t", "player", "rho", "xi"], zip(*(c.tolist() for c in columns)))


def write_summary_csv(path: Path, rows: Sequence[dict]) -> None:
    """Comparison table: player, law, count_mean, max_interval, mean_interval, min_interval."""
    header = ["player", "law", "count_mean", "max_interval", "mean_interval", "min_interval"]
    write_csv(path, header, ([row[key] for key in header] for row in rows))


# the stroke of the grid lines and of the dashed reference lines at x*
_GRID = 'stroke="#dddddd" stroke-width="1"'
_REFERENCE = 'stroke="#555555" stroke-width="1" stroke-dasharray="6 4"'


def _line(x1: str, y1: str, x2: str, y2: str, style: str) -> str:
    """One ``<line>`` from formatted coordinates and its stroke attributes."""
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {style}/>'


def _text(x: str, y: str, size: int, body: str, anchor: str | None = "middle", extra="") -> str:
    """One sans-serif ``<text>``; an ``anchor`` of None writes no text-anchor."""
    anchored = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{x}" y="{y}"{anchored} font-family="sans-serif" '
        f'font-size="{size}"{extra}>{body}</text>'
    )


def line_chart_svg(
    path: Path,
    series: Sequence[tuple[str, np.ndarray, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
    ylog: bool = False,
    hlines: Sequence[float] = (),
) -> None:
    """Minimal static line chart. ``ylog`` plots log10 of the values and
    drops nonpositive points."""
    width, height = 720.0, 440.0
    ml, mr, mt, mb = 64.0, 16.0, 36.0, 48.0
    pw, ph = width - ml - mr, height - mt - mb

    cleaned = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if ylog:
            keep = ys > 0
            xs, ys = xs[keep], np.log10(ys[keep])
        keep = np.isfinite(xs) & np.isfinite(ys)
        cleaned.append((label, xs[keep], ys[keep]))

    href = [math.log10(h) if ylog else h for h in hlines if not ylog or h > 0]
    all_x = np.concatenate([xs for _, xs, _ in cleaned] + [[]])
    all_y = np.concatenate([ys for _, _, ys in cleaned] + [href])
    x0, x1 = (float(all_x.min()), float(all_x.max())) if all_x.size else (0.0, 1.0)
    y0, y1 = (float(all_y.min()), float(all_y.max())) if all_y.size else (0.0, 1.0)
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(v):
        return ml + (v - x0) / (x1 - x0) * pw

    def sy(v):
        return mt + (y1 - v) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        _text(f"{width / 2:.1f}", "20", 14, title),
    ]
    # axes and grid
    for tv in np.linspace(x0, x1, 5):
        x = f"{sx(tv):.2f}"
        parts.append(_line(x, f"{mt:.2f}", x, f"{mt + ph:.2f}", _GRID))
        parts.append(_text(x, f"{mt + ph + 16:.2f}", 11, f"{tv:.4g}"))
    for tv in np.linspace(y0, y1, 5):
        y = f"{sy(tv):.2f}"
        parts.append(_line(f"{ml:.2f}", y, f"{ml + pw:.2f}", y, _GRID))
        parts.append(_text(f"{ml - 6:.2f}", f"{sy(tv) + 4:.2f}", 11, f"{tv:.4g}", "end"))
    parts.append(
        f'<rect x="{ml:.2f}" y="{mt:.2f}" width="{pw:.2f}" height="{ph:.2f}" '
        f'fill="none" stroke="#333333"/>'
    )
    parts.append(_text(f"{ml + pw / 2:.1f}", f"{height - 10:.1f}", 12, xlabel))
    ylab, mid = f"log10({ylabel})" if ylog else ylabel, f"{mt + ph / 2:.1f}"
    parts.append(_text("16", mid, 12, ylab, extra=f' transform="rotate(-90 16 {mid})"'))
    for hv in href:
        y = f"{sy(hv):.2f}"
        parts.append(_line(f"{ml:.2f}", y, f"{ml + pw:.2f}", y, _REFERENCE))
    for idx, (label, xs, ys) in enumerate(cleaned):
        if not xs.size:
            continue
        stroke = f'stroke="{PALETTE[idx % len(PALETTE)]}"'
        # sx and sy scale whole arrays with the same IEEE operations as one
        # point; the points are then formatted as Python floats
        points = " ".join(map("{:.3f},{:.3f}".format, sx(xs).tolist(), sy(ys).tolist()))
        parts.append(
            f'<polyline points="{points}" fill="none" {stroke} stroke-width="1.5"/>'
        )
        lx, ly = ml + pw - 150, mt + 16 + 16 * idx
        key = f"{ly - 4:.1f}"
        parts.append(_line(f"{lx:.1f}", key, f"{lx + 22:.1f}", key, f'{stroke} stroke-width="2"'))
        parts.append(_text(f"{lx + 28:.1f}", f"{ly:.1f}", 11, label, anchor=None))
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
