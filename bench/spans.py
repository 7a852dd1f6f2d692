"""Span tracing around the package's public functions, from outside the package.

Each traced name is patched on the module where its caller resolves it
(``neseek.engine.decide`` is what ``engine.step`` calls), so no code under
``src/`` changes. A span records its duration and the time covered by its
child spans; self time is the difference. Spans are aggregated per operation
by name (calls, total seconds, self seconds) and kept in memory; the caller
writes them out when the run ends.

A target that a later version of the package no longer has is recorded as
absent and simply produces no spans.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from pathlib import Path

LAYERS = (
    "scenario",
    "oracle",
    "games",
    "graphs",
    "bounds",
    "triggers",
    "engine",
    "metrics",
    "harness",
    "outputs",
    "cli",
)


def _iterations(tracer: "Tracer", out, args) -> None:
    tracer.count("oracle.iterations", getattr(out, "iterations", 0))


def _run_counts(tracer: "Tracer", out, args) -> None:
    trig = getattr(out, "trig", None)
    if trig is None or len(trig) < 2:
        return
    tracer.count("engine.steps", len(trig) - 1)
    tracer.count("triggers.evaluations", int(trig[1:].size))
    tracer.count("triggers.fires", int(trig[1:].sum()))


def _written_bytes(tracer: "Tracer", out, args) -> None:
    if args:
        path = Path(args[0])
        if path.is_file():
            tracer.count("outputs.bytes", path.stat().st_size)


# (module, attribute, span name, post-call hook). Span names start with the
# layer (module) that owns the function.
TARGETS = (
    ("neseek.cli", "main", "cli.main", None),
    ("neseek.cli", "load_scenario", "scenario.load_scenario", None),
    ("neseek.scenario", "load_scenario", "scenario.load_scenario", None),
    ("neseek.cli", "solve_ne", "oracle.solve_ne", _iterations),
    ("neseek.harness", "solve_ne", "oracle.solve_ne", _iterations),
    ("neseek.oracle", "solve_ne", "oracle.solve_ne", _iterations),
    ("neseek.oracle", "estimate_constants", "games.estimate_constants", None),
    ("neseek.bounds", "estimate_constants", "games.estimate_constants", None),
    ("neseek.engine", "gradient_at_estimates", "games.gradient", None),
    ("neseek.bounds", "lyapunov_pair", "graphs.lyapunov_pair", None),
    ("neseek.bounds", "coupling_matrix", "graphs.coupling_matrix", None),
    ("neseek.scenario", "is_strongly_connected", "graphs.is_strongly_connected", None),
    ("neseek.bounds", "compute_report", "bounds.compute_report", None),
    ("neseek.bounds", "sigma_bound", "bounds.sigma_bound", None),
    ("neseek.harness", "sigma_bound", "bounds.sigma_bound", None),
    ("neseek.scenario", "sigma_bound", "bounds.sigma_bound", None),
    ("neseek.engine", "decide", "triggers.decide", None),
    ("neseek.engine", "step", "engine.step", None),
    ("neseek.harness", "run", "engine.run", _run_counts),
    ("neseek.metrics", "run_metrics", "metrics.run_metrics", None),
    ("neseek.metrics", "aggregate", "metrics.aggregate", None),
    ("neseek.harness", "single_run", "harness.single_run", None),
    ("neseek.harness", "run_ensemble", "harness.run_ensemble", None),
    ("neseek.harness", "compare_laws", "harness.compare_laws", None),
    ("neseek.outputs", "write_trajectory_csv", "outputs.csv", _written_bytes),
    ("neseek.outputs", "write_events_csv", "outputs.csv", _written_bytes),
    ("neseek.outputs", "write_summary_csv", "outputs.csv", _written_bytes),
    ("neseek.outputs", "line_chart_svg", "outputs.svg", _written_bytes),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class OpTrace:
    """Aggregated spans and counts of one root span (an operation)."""

    wall_s: float = 0.0
    spans: dict[str, SpanStats] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "spans": {k: vars(v) for k, v in sorted(self.spans.items())},
            "counts": dict(sorted(self.counts.items())),
        }


class Tracer:
    """Installs span wrappers on the package and aggregates them per root span."""

    def __init__(self):
        self._stack: list[list[float]] = []  # child seconds of each open span
        self._current: OpTrace | None = None
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def install(self) -> None:
        for module_name, attr, span, post in TARGETS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original, post))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def count(self, name: str, value: int) -> None:
        if self._current is not None:
            self._current.counts[name] = self._current.counts.get(name, 0) + int(value)

    def root(self, name: str, fn, *args, **kwargs) -> tuple[object, OpTrace]:
        """Call ``fn`` as the root span ``name`` of a fresh OpTrace; return both.

        The root's self time is whatever no package span covers: the
        benchmark's own code plus package code outside the traced names.
        """
        trace = OpTrace()
        self._current = trace
        try:
            out, trace.wall_s = self._timed(name, fn, args, kwargs)
        finally:
            self._current = None
        return out, trace

    def _timed(self, span: str, fn, args, kwargs):
        children = [0.0]
        self._stack.append(children)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += duration
            if self._current is not None:
                stats = self._current.spans.setdefault(span, SpanStats())
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - children[0]
        return out, duration

    def _wrap(self, span: str, original, post):
        def traced(*args, **kwargs):
            out, _ = self._timed(span, original, args, kwargs)
            if post is not None:
                post(self, out, args)
            return out

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", span)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced


def layer_of(span: str) -> str:
    return span.split(".", 1)[0]
