"""Command-line interface.

Subcommands:

    solve-ne   print the centralized equilibrium as JSON
    bounds     print the step-size/rate certificate as JSON
    simulate   one seeded run; writes trajectory.csv, events.csv,
               metrics.json, and three SVG charts into --out
    compare    Monte-Carlo comparison across laws; writes summary.csv,
               compare.json, and overlaid rate/error charts into --out
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import harness, outputs
from .data import bundled_path
from .errors import NeseekError
from .metrics import interval_stats
from .oracle import solve_ne
from .scenario import Scenario, load_scenario
from .triggers import LawKind


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return None if math.isnan(v) or math.isinf(v) else v
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _json_text(data: dict) -> str:
    return json.dumps(_jsonable(data), indent=2, sort_keys=True) + "\n"


def _load(args) -> Scenario:
    """The scenario ``--config`` names, its advisories printed as warnings,
    with the ``--seed``, ``--runs`` and ``--dt`` the command line gives."""
    path = Path(args.config)
    if not path.exists() and (bundled := bundled_path(args.config)).is_file():
        path = bundled
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scenario = load_scenario(path)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    given = {k: v for k in ("seed", "runs", "dt") if (v := getattr(args, k, None)) is not None}
    if "dt" in given:
        given["engine"] = dataclasses.replace(scenario.engine, dt=given.pop("dt"))
    return dataclasses.replace(scenario, **given)


def cmd_solve_ne(args) -> int:
    scenario = _load(args)
    sys.stdout.write(_json_text(dataclasses.asdict(solve_ne(scenario.game))))
    return 0


def cmd_bounds(args) -> int:
    scenario = _load(args)
    report = bounds_mod.compute_report(
        game=scenario.game,
        graph=scenario.graph,
        alpha=scenario.engine.alpha,
        beta=scenario.engine.beta,
        eta=scenario.trigger.eta,
    )
    sys.stdout.write(_json_text(dataclasses.asdict(report)))
    return 0


def _interval_rows(law: LawKind, counts, stats) -> list[dict]:
    """One row per player: its mean broadcast count under ``law`` and the
    (max, mean, min) of its gaps between broadcasts, NaN when it has none."""
    return [
        {"player": player, "law": law.value, "count_mean": float(count),
         "max_interval": mx, "mean_interval": mean, "min_interval": mn}
        for player, (count, (mx, mean, mn)) in enumerate(zip(counts, stats), start=1)
    ]


@contextlib.contextmanager
def _output_dir(path: str):
    """A staging directory inside ``--out`` for the files of a run, which
    move into ``--out`` with ``os.replace`` once every write has succeeded.
    ``--out`` is made before the run, so that a path that cannot be a
    directory fails before any work is done. A run or a write that fails,
    by any exception (a Ctrl-C too), removes the staging directory and the
    directories made here, and re-raises it: a failed command leaves
    ``--out`` as it was, never a mix of two runs' files."""
    out = Path(path)
    made = [p for p in (out, *out.parents) if not p.exists()]
    out.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
    try:
        yield stage
        for p in stage.iterdir():
            os.replace(p, out / p.name)
    except BaseException:
        # the outermost directory made here holds the staging directory
        shutil.rmtree(made[-1] if made else stage)
        raise
    stage.rmdir()


def _chart_pair(out_dir: Path, gamma: list, err: list, runs: int | None = None) -> None:
    """The communication-rate chart of the ``gamma`` series and the log-scale
    convergence chart of the ``err`` series; a comparison over ``runs`` runs
    notes them in the titles and the file names."""
    note, suffix = ("", "") if runs is None else (f" ({runs} runs)", "_compare")
    for name, series, title, ylabel, ylog in (
        ("gamma", gamma, "Average communication rate", "rate", False),
        ("error", err, "Convergence", "max |x - x*|", True),
    ):
        outputs.line_chart_svg(
            out_dir / f"{name}{suffix}.svg",
            series,
            title=title + note,
            xlabel="t (s)",
            ylabel=ylabel,
            ylog=ylog,
        )


def cmd_simulate(args) -> int:
    scenario = _load(args)
    with _output_dir(args.out) as stage:
        result = harness.single_run(scenario)

        outputs.write_trajectory_csv(stage / "trajectory.csv", result)
        outputs.write_events_csv(stage / "events.csv", result)

        metrics_doc = {
            "law": scenario.law.value,
            "seed": scenario.seed,
            "dt": result.dt,
            "horizon": scenario.engine.horizon,
            "x_star": result.x_star,
            "final_err_inf": result.err_inf[-1],
            "final_gamma": result.gamma[-1],
            "rate_fit": result.rate_fit,
            "trigger_counts": result.trigger_counts,
            "interval_stats": _interval_rows(
                scenario.law, result.trigger_counts, map(interval_stats, result.intervals)
            ),
        }
        (stage / "metrics.json").write_text(_json_text(metrics_doc))

        action_series = [
            (f"player {i + 1}", result.times, result.actions[:, i]) for i in range(scenario.n)
        ]
        outputs.line_chart_svg(
            stage / "actions.svg",
            action_series,
            title="Actions",
            xlabel="t (s)",
            ylabel="action",
            hlines=[float(v) for v in result.x_star],
        )
        _chart_pair(
            stage,
            [("communication rate", result.times, result.gamma)],
            [("distance to equilibrium", result.times, result.err_inf)],
        )

    print(
        f"simulate: law={scenario.law.value} seed={scenario.seed} "
        f"final_err={result.err_inf[-1]:.6g} gamma={result.gamma[-1]:.4f} "
        f"-> {Path(args.out)}"
    )
    return 0


def cmd_compare(args) -> int:
    scenario = _load(args)
    # compare_laws checks the names, as it does any caller's
    laws = [name.strip() for name in args.laws.split(",") if name.strip()]
    with _output_dir(args.out) as stage:
        ensembles = harness.compare_laws(scenario, laws, scenario.runs, scenario.seed)

        rows = [row for law, ens in ensembles.items()
                for row in _interval_rows(law, ens.mean_counts, ens.interval_stats)]
        outputs.write_summary_csv(stage / "summary.csv", rows)

        doc = {
            "runs": scenario.runs,
            "base_seed": scenario.seed,
            "laws": {
                law.value: {
                    "mean_gamma_final": ens.mean_gamma_series[-1],
                    "mean_final_err": ens.mean_err_series[-1],
                    "mean_counts": ens.mean_counts,
                }
                for law, ens in ensembles.items()
            },
        }
        (stage / "compare.json").write_text(_json_text(doc))

        _chart_pair(
            stage,
            [(law.value, ens.times, ens.mean_gamma_series) for law, ens in ensembles.items()],
            [(law.value, ens.times, ens.mean_err_series) for law, ens in ensembles.items()],
            scenario.runs,
        )

    for law, ens in ensembles.items():
        print(
            f"compare: law={law.value:11s} mean_gamma={ens.mean_gamma_series[-1]:.4f} "
            f"mean_final_err={ens.mean_err_series[-1]:.6g}"
        )
    print(f"compare: wrote {Path(args.out)}/summary.csv")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it is, and each subcommand's ``func`` default is bound here."""
    parser = argparse.ArgumentParser(
        prog="neseek",
        description="Distributed equilibrium seeking with event-triggered communication",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="scenario JSON path or bundled name")
        p.set_defaults(func=func)
        return p

    def add_run(p, seed_help: str) -> None:
        p.add_argument("--seed", type=int, default=None, help=seed_help)
        p.add_argument("--dt", type=float, default=None, help="override the integration step")
        p.add_argument("--out", required=True, help="output directory")

    command("solve-ne", cmd_solve_ne, "print the centralized equilibrium")
    command("bounds", cmd_bounds, "print the step-size/rate certificate")
    p = command("simulate", cmd_simulate, "one seeded run with CSV/SVG outputs")
    add_run(p, "override the scenario seed")
    p = command("compare", cmd_compare, "Monte-Carlo comparison across laws")
    add_run(p, "base seed (runs use seed, seed+1, ...)")
    p.add_argument("--runs", type=int, default=None, help="runs per law (default: scenario)")
    p.add_argument(
        "--laws",
        default="static,dynamic,stochastic",
        help="comma-separated subset of continuous,static,dynamic,stochastic",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NeseekError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
