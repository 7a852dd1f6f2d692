"""The four benchmark workloads: inputs, the timed call, and the output check.

Every workload is a closed loop with one caller: operation ``j`` starts only
after operation ``j - 1`` has returned and been checked. Operation inputs
cycle through a small pool derived from the run's seed, so later operations
repeat earlier inputs and their artifact digests can be compared byte for
byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import scenarios
from neseek import cli, harness
from neseek import scenario as scenario_mod
from neseek.data import bundled_path

# Equilibrium of the bundled scenario as published (three decimals).
PUBLISHED_X_STAR = (2.000, 3.987, 6.011, 8.018, 9.990)
X_STAR_TOL = 1e-3
ENSEMBLE_RUNS = 2  # seeded runs per law in one paper_ensemble operation
ENSEMBLE_LAWS = ("static", "dynamic", "stochastic")
SCALE_N, SCALE_HORIZON = 200, 2.5
CERT_N, CERT_BETA = 20, 1e6
GENERATED_POOL = 4  # generated scenarios per run
SEED_POOL = 8  # distinct simulation seeds per run (paper_cli uses 8x more)


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class Context:
    """Inputs a workload prepared once per run."""

    n: int
    steps: int  # integration steps per seeded simulation
    scenarios: list  # loaded Scenario objects
    paths: list[Path]  # scenario files the CLI reads (generated workloads)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digests(directory: Path) -> dict[str, str]:
    return {p.name: sha256(p.read_bytes()) for p in sorted(directory.iterdir()) if p.is_file()}


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Workload:
    name = ""  # as in BENCHMARK.json

    def prepare(self, seed: int, work: Path) -> Context:
        raise NotImplementedError

    def key(self, seed: int, j: int) -> str:
        """Names operation j's input; equal keys must give equal artifact bytes."""
        raise NotImplementedError

    def call(self, ctx: Context, seed: int, j: int, out_dir: Path):
        """The timed operation."""
        raise NotImplementedError

    def check(self, ctx: Context, result, out_dir: Path) -> dict[str, str]:
        """Raise CheckFailed on a wrong output; return the artifact digests."""
        raise NotImplementedError

    def player_steps(self, ctx: Context) -> int:
        return ctx.n * ctx.steps


def _bundled_context() -> Context:
    sc = scenario_mod.load_scenario(bundled_path("spectrum_paper"))
    return Context(n=sc.n, steps=sc.engine.steps, scenarios=[sc], paths=[])


def _generated_context(n: int, seed: int, horizon: float, beta: float, work: Path) -> Context:
    loaded, paths = [], []
    for k in range(GENERATED_POOL):
        doc = scenarios.generate(n, seed * GENERATED_POOL + k, horizon, beta)
        if not scenarios.strongly_connected(np.array(doc["adjacency"])):
            raise CheckFailed(f"generated graph {k} is not strongly connected")
        path = work / f"scenario-n{n}-{k}.json"
        path.write_text(json.dumps(doc))
        sc = scenario_mod.load_scenario(path)  # validates through scenario_from_dict
        if sc.n != n:
            raise CheckFailed(f"generated scenario {k} loaded with n={sc.n}, expected {n}")
        loaded.append(sc)
        paths.append(path)
    return Context(n=n, steps=loaded[0].engine.steps, scenarios=loaded, paths=paths)


class PaperEnsemble(Workload):
    name = "paper_ensemble"

    def prepare(self, seed, work):
        return _bundled_context()

    def _base(self, seed, j):
        return seed * 1000 + ENSEMBLE_RUNS * (j % SEED_POOL)

    def key(self, seed, j):
        return f"base_seed={self._base(seed, j)}"

    def call(self, ctx, seed, j, out_dir):
        return _quiet_cli([
            "compare", "--config", "spectrum_paper", "--laws", ",".join(ENSEMBLE_LAWS),
            "--runs", str(ENSEMBLE_RUNS), "--seed", str(self._base(seed, j)),
            "--out", str(out_dir),
        ])

    def check(self, ctx, result, out_dir):
        code, _ = result
        _require(code == 0, f"compare exited with {code}")
        doc = json.loads((out_dir / "compare.json").read_text())
        _require(doc["runs"] == ENSEMBLE_RUNS, "compare.json reports the wrong run count")
        gamma = {law: doc["laws"][law]["mean_gamma_final"] for law in ENSEMBLE_LAWS}
        _require(
            all(isinstance(g, float) and math.isfinite(g) for g in gamma.values()),
            f"non-finite mean final gamma {gamma}",
        )
        _require(
            gamma["stochastic"] < gamma["dynamic"] < gamma["static"],
            f"mean final gamma not ordered stochastic < dynamic < static: {gamma}",
        )
        return file_digests(out_dir)

    def player_steps(self, ctx):
        return ctx.n * ctx.steps * ENSEMBLE_RUNS * len(ENSEMBLE_LAWS)


class PaperCli(Workload):
    name = "paper_cli"

    def prepare(self, seed, work):
        return _bundled_context()

    def _seed(self, seed, j):
        return seed * 1000 + j % (8 * SEED_POOL)

    def key(self, seed, j):
        return f"seed={self._seed(seed, j)}"

    def call(self, ctx, seed, j, out_dir):
        return _quiet_cli([
            "simulate", "--config", "spectrum_paper", "--seed", str(self._seed(seed, j)),
            "--out", str(out_dir),
        ])

    def check(self, ctx, result, out_dir):
        code, _ = result
        _require(code == 0, f"simulate exited with {code}")
        doc = json.loads((out_dir / "metrics.json").read_text())
        x_star = doc["x_star"]
        _require(
            len(x_star) == len(PUBLISHED_X_STAR)
            and all(abs(a - b) <= X_STAR_TOL for a, b in zip(x_star, PUBLISHED_X_STAR)),
            f"x_star {x_star} differs from the published equilibrium",
        )
        lines = (out_dir / "trajectory.csv").read_text().splitlines()
        column = lines[0].split(",").index("err_inf")
        initial = float(lines[1].split(",")[column])
        final = doc["final_err_inf"]
        _require(
            isinstance(final, float) and math.isfinite(final) and final <= initial,
            f"final error {final} is not finite or exceeds the initial error {initial}",
        )
        return file_digests(out_dir)


class ScaleN200(Workload):
    name = "scale_n200"

    def prepare(self, seed, work):
        return _generated_context(SCALE_N, seed, SCALE_HORIZON, 1.5, work)

    def _input(self, seed, j):
        return j % GENERATED_POOL, seed * 1000 + j % SEED_POOL

    def key(self, seed, j):
        k, s = self._input(seed, j)
        return f"scenario={k},seed={s}"

    def call(self, ctx, seed, j, out_dir):
        k, s = self._input(seed, j)
        return harness.single_run(ctx.scenarios[k], seed=s)

    def check(self, ctx, result, out_dir):
        arrays = {
            "actions": result.actions,
            "err_inf": result.err_inf,
            "gamma": result.gamma,
            "trig": result.trig,
        }
        for label in ("actions", "err_inf", "gamma"):
            _require(bool(np.isfinite(arrays[label]).all()), f"{label} has non-finite entries")
        gamma = float(result.gamma[-1])
        _require(0.0 < gamma <= 1.0, f"final gamma {gamma} outside (0, 1]")
        return {label: sha256(np.ascontiguousarray(a).tobytes()) for label, a in arrays.items()}


class CertificateN20(Workload):
    name = "certificate_n20"

    def prepare(self, seed, work):
        return _generated_context(CERT_N, seed, 1.0, CERT_BETA, work)

    def key(self, seed, j):
        return f"scenario={j % GENERATED_POOL}"

    def call(self, ctx, seed, j, out_dir):
        return _quiet_cli(["bounds", "--config", str(ctx.paths[j % GENERATED_POOL])])

    def check(self, ctx, result, out_dir):
        code, text = result
        _require(code == 0, f"bounds exited with {code}")
        report = json.loads(text)
        bad = [
            name for name, value in report.items()
            if not isinstance(value, (bool, str))
            and not (isinstance(value, (int, float)) and math.isfinite(value))
        ]
        _require(not bad, f"non-finite report fields: {bad}")
        return {"bounds.json": sha256(text.encode())}

    def player_steps(self, ctx):
        return 0


WORKLOADS = {w.name: w for w in (PaperEnsemble(), PaperCli(), ScaleN200(), CertificateN20())}
