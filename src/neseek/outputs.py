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
    ``repr``, so it parses back exactly; None and NaN are empty cells, and
    any other cell is written with ``str``."""
    lines = [",".join(header)]
    # str of a float is its repr, and NaN is the one value unequal to itself;
    # a comprehension per row saves a function call per cell
    lines += [",".join(["" if v is None or v != v else str(v) for v in row]) for row in rows]
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


def _ticks(lo: float, hi: float) -> list[float]:
    return list(np.linspace(lo, hi, 5))


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
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14">{title}</text>',
    ]
    # axes and grid
    for tv in _ticks(x0, x1):
        parts.append(
            f'<line x1="{sx(tv):.2f}" y1="{mt:.2f}" x2="{sx(tv):.2f}" y2="{mt + ph:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{sx(tv):.2f}" y="{mt + ph + 16:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tv:.4g}</text>'
        )
    for tv in _ticks(y0, y1):
        parts.append(
            f'<line x1="{ml:.2f}" y1="{sy(tv):.2f}" x2="{ml + pw:.2f}" y2="{sy(tv):.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ml - 6:.2f}" y="{sy(tv) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tv:.4g}</text>'
        )
    parts.append(
        f'<rect x="{ml:.2f}" y="{mt:.2f}" width="{pw:.2f}" height="{ph:.2f}" '
        f'fill="none" stroke="#333333"/>'
    )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 10:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    ylab = f"log10({ylabel})" if ylog else ylabel
    parts.append(
        f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 16 {mt + ph / 2:.1f})">{ylab}</text>'
    )
    for hv in href:
        parts.append(
            f'<line x1="{ml:.2f}" y1="{sy(hv):.2f}" x2="{ml + pw:.2f}" y2="{sy(hv):.2f}" '
            f'stroke="#555555" stroke-width="1" stroke-dasharray="6 4"/>'
        )
    for idx, (label, xs, ys) in enumerate(cleaned):
        if not xs.size:
            continue
        color = PALETTE[idx % len(PALETTE)]
        # sx and sy scale whole arrays with the same IEEE operations as one
        # point; the points are then formatted as Python floats
        points = " ".join(map("{:.3f},{:.3f}".format, sx(xs).tolist(), sy(ys).tolist()))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        lx, ly = ml + pw - 150, mt + 16 + 16 * idx
        parts.append(
            f'<line x1="{lx:.1f}" y1="{ly - 4:.1f}" x2="{lx + 22:.1f}" y2="{ly - 4:.1f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28:.1f}" y="{ly:.1f}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
