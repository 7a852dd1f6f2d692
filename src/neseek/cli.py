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
import dataclasses
import json
import math
import sys
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


def _load(args, dt: float | None = None) -> Scenario:
    """The scenario ``--config`` names, its advisories printed as warnings,
    with the integration step ``dt`` when one is given."""
    path = Path(args.config)
    if not path.exists():
        candidate = bundled_path(args.config)
        if candidate.exists():
            path = candidate
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scenario = load_scenario(path)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if dt is None:
        return scenario
    return dataclasses.replace(scenario, engine=dataclasses.replace(scenario.engine, dt=dt))


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


def _interval_row(player: int, law: str, count_mean: float, stats) -> dict:
    mx, mean, mn = stats if stats is not None else (None, None, None)
    return {
        "player": player,
        "law": law,
        "count_mean": count_mean,
        "max_interval": mx,
        "mean_interval": mean,
        "min_interval": mn,
    }


def cmd_simulate(args) -> int:
    scenario = _load(args, args.dt)
    result = harness.single_run(scenario, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    outputs.write_trajectory_csv(out_dir / "trajectory.csv", result)
    outputs.write_events_csv(out_dir / "events.csv", result)

    seed = scenario.seed if args.seed is None else args.seed
    metrics_doc = {
        "law": scenario.law.value,
        "seed": int(seed),
        "dt": result.dt,
        "horizon": scenario.engine.horizon,
        "x_star": result.x_star,
        "final_err_inf": result.err_inf[-1],
        "final_gamma": result.gamma[-1],
        "rate_fit": result.rate_fit,
        "trigger_counts": result.trigger_counts,
        "interval_stats": [
            _interval_row(i + 1, scenario.law.value, float(count), interval_stats(gaps))
            for i, (count, gaps) in enumerate(zip(result.trigger_counts, result.intervals))
        ],
    }
    (out_dir / "metrics.json").write_text(_json_text(metrics_doc))

    n = scenario.n
    action_series = [
        (f"player {i + 1}", result.times, result.actions[:, i]) for i in range(n)
    ]
    outputs.line_chart_svg(
        out_dir / "actions.svg",
        action_series,
        title="Actions",
        xlabel="t (s)",
        ylabel="action",
        hlines=[float(v) for v in result.x_star],
    )
    outputs.line_chart_svg(
        out_dir / "gamma.svg",
        [("communication rate", result.times, result.gamma)],
        title="Average communication rate",
        xlabel="t (s)",
        ylabel="rate",
    )
    outputs.line_chart_svg(
        out_dir / "error.svg",
        [("distance to equilibrium", result.times, result.err_inf)],
        title="Convergence",
        xlabel="t (s)",
        ylabel="max |x - x*|",
        ylog=True,
    )
    print(
        f"simulate: law={scenario.law.value} seed={seed} "
        f"final_err={result.err_inf[-1]:.6g} gamma={result.gamma[-1]:.4f} "
        f"-> {out_dir}"
    )
    return 0


def cmd_compare(args) -> int:
    scenario = _load(args, args.dt)
    try:
        laws = [LawKind(name.strip()) for name in args.laws.split(",") if name.strip()]
        if not laws or len(set(laws)) < len(laws):
            raise ValueError(f"--laws must name one or more laws, none twice: {args.laws!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runs = args.runs if args.runs is not None else scenario.runs
    base_seed = scenario.seed if args.seed is None else args.seed

    ensembles = harness.compare_laws(scenario, laws, runs, base_seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for law in laws:
        ens = ensembles[law]
        for i in range(scenario.n):
            rows.append(
                _interval_row(i + 1, law.value, float(ens.mean_counts[i]), ens.interval_stats[i])
            )
    outputs.write_summary_csv(out_dir / "summary.csv", rows)

    doc = {
        "runs": runs,
        "base_seed": int(base_seed),
        "laws": {
            law.value: {
                "mean_gamma_final": ensembles[law].mean_gamma_series[-1],
                "mean_final_err": ensembles[law].mean_err_series[-1],
                "mean_counts": ensembles[law].mean_counts,
            }
            for law in laws
        },
    }
    (out_dir / "compare.json").write_text(_json_text(doc))

    gamma_series = [
        (law.value, ensembles[law].times, ensembles[law].mean_gamma_series) for law in laws
    ]
    outputs.line_chart_svg(
        out_dir / "gamma_compare.svg",
        gamma_series,
        title=f"Average communication rate ({runs} runs)",
        xlabel="t (s)",
        ylabel="rate",
    )
    err_series = [
        (law.value, ensembles[law].times, ensembles[law].mean_err_series) for law in laws
    ]
    outputs.line_chart_svg(
        out_dir / "error_compare.svg",
        err_series,
        title=f"Convergence ({runs} runs)",
        xlabel="t (s)",
        ylabel="max |x - x*|",
        ylog=True,
    )
    for law in laws:
        print(
            f"compare: law={law.value:11s} mean_gamma={ensembles[law].mean_gamma_series[-1]:.4f} "
            f"mean_final_err={ensembles[law].mean_err_series[-1]:.6g}"
        )
    print(f"compare: wrote {out_dir}/summary.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neseek",
        description="Distributed equilibrium seeking with event-triggered communication",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="scenario JSON path or bundled name")

    p = sub.add_parser("solve-ne", help="print the centralized equilibrium")
    add_common(p)
    p.set_defaults(func=cmd_solve_ne)

    p = sub.add_parser("bounds", help="print the step-size/rate certificate")
    add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="one seeded run with CSV/SVG outputs")
    add_common(p)
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--dt", type=float, default=None, help="override the integration step")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="Monte-Carlo comparison across laws")
    add_common(p)
    p.add_argument("--seed", type=int, default=None, help="base seed (runs use seed, seed+1, ...)")
    p.add_argument("--runs", type=int, default=None, help="runs per law (default: scenario)")
    p.add_argument(
        "--laws",
        default="static,dynamic,stochastic",
        help="comma-separated subset of continuous,static,dynamic,stochastic",
    )
    p.add_argument("--dt", type=float, default=None, help="override the integration step")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NeseekError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
