"""neseek benchmark: one workload, one closed-loop run, metrics as JSON.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py`` and described, with every metric
and its unit, in ``README.md``. With ``--trace 0`` the run measures the
end-to-end metrics with tracing off; operation times are reported in
multiples of a reference kernel timed between operations
(``reference.py``), and in seconds on the printed lines. With
``--trace 1`` it runs every operation twice, first with span wrappers
installed (``spans.py``), then without, and reports the per-layer metrics
and the tracing overhead.

The package is imported from ``src/`` next to this directory and from
nowhere else. Human-readable lines go to stdout first; the last stdout line
is one JSON object with the keys correct, attempted, failed and metrics. A
fuller record (machine, per-operation times, artifact digests, spans) is
written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1  # the closed loop then needs one free core, not two
ACCOUNTING_TOL_S = 1e-6
TAIL_SAMPLES = 10  # a reported tail percentile should have this many samples beyond it


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------- machine


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads(numpy) -> int | None:
    """Thread count numpy's bundled OpenBLAS reports, when it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*.so*"))
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": available_cores(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(numpy),
    }


# ---------------------------------------------------------------- operations


@dataclass
class OpRecord:
    key: str
    seconds: float | None  # None when the call raised
    error: str | None = None
    ref_s: float | None = None  # reference kernel time around the operation
    trace: object = None


@dataclass
class Runner:
    """Runs and checks operations of one workload; keeps artifact digests."""

    workload: object
    ctx: object
    seed: int
    work: Path
    digests: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def op(self, j: int, tracer=None) -> OpRecord:
        from workloads import CheckFailed

        key = self.workload.key(self.seed, j)
        out_dir = self.work / f"op-{j}"
        out_dir.mkdir()
        record = OpRecord(key=key, seconds=None)
        args = (self.ctx, self.seed, j, out_dir)
        try:
            if tracer is None:
                start = time.perf_counter()
                result = self.workload.call(*args)
                record.seconds = time.perf_counter() - start
            else:
                result, record.trace = tracer.root("bench.op", self.workload.call, *args)
                record.seconds = record.trace.wall_s
            digests = self.workload.check(self.ctx, result, out_dir)
            if self.digests.setdefault(key, digests) != digests:
                raise CheckFailed(f"{key}: artifacts differ from an earlier run of the same input")
        except CheckFailed as exc:
            record.error = str(exc)
        except Exception:  # an operation that raises is a failed operation; keep going
            record.error = traceback.format_exc(limit=4)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if record.error is not None:
            self.failures.append(f"op {j} ({key}): {record.error}")
        return record

    def loop(self, seconds: float) -> list[OpRecord]:
        """Closed loop: next operation only after the previous one is checked.

        The reference kernel runs before the first operation and after each
        one; an operation's reference time is the mean of the passes on
        either side of it, so both see the same spell of machine speed.
        """
        from reference import reference_s

        records = []
        reference_s()  # warm-up
        before = reference_s()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            record = self.op(len(records))
            after = reference_s()
            record.ref_s = (before + after) / 2
            before = after
            records.append(record)
        return records

    def paired_loop(self, seconds: float, tracer) -> tuple[list[OpRecord], list[OpRecord]]:
        """Each input once traced, then at once untraced, so both halves of a
        pair see the same machine state and their difference is the overhead."""
        traced, plain = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            j = len(traced)
            tracer.install()
            try:
                traced.append(self.op(j, tracer))
            finally:
                tracer.uninstall()
            plain.append(self.op(j))
        return traced, plain


# ---------------------------------------------------------------- set-up


def probe_setup(name: str, seed: int, work: Path) -> list[float]:
    """Seconds a fresh interpreter takes to import neseek and prepare inputs."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = work / f"probe-{i}"
        probe_dir.mkdir()
        done = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), name, str(seed), str(probe_dir)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def prepare(workload, seed: int, work: Path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return workload.prepare(seed, work)


# ---------------------------------------------------------------- metrics


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def tail_note(times: list[float]) -> str:
    n = len(times)
    p90 = quantile(times, 0.9)
    beyond = sum(t > p90 for t in times)
    note = f"op_s.p90 and op_ref.p90 from {n} ops, {beyond} beyond it"
    if n >= 10 * TAIL_SAMPLES:
        return note
    if n >= 2 * TAIL_SAMPLES:
        q = int(100 * (n - TAIL_SAMPLES) / n)
        return note + f"; highest percentile with {TAIL_SAMPLES} beyond: op_s.p{q} = {quantile(times, q / 100):.6g} s"
    return note + f"; fewer than {2 * TAIL_SAMPLES} ops, so no percentile has {TAIL_SAMPLES} samples beyond it"


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(records: list[OpRecord], setup_times: list[float], steps_per_op: int) -> tuple[dict, dict]:
    done = [r for r in records if r.seconds is not None]
    if not done:
        raise RuntimeError("no operation completed")
    times = [r.seconds for r in done]
    refs = [r.ref_s for r in done]
    ratios = [t / ref for t, ref in zip(times, refs)]
    busy = sum(times)
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "op_ref.mean": metric(busy / sum(refs), "ref"),
        "op_ref.p50": metric(statistics.median(ratios), "ref"),
        "op_ref.p90": metric(quantile(ratios, 0.9), "ref"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    failed = sum(r.error is not None for r in records)
    extra = {
        "ops_per_s": metric(len(times) / busy, "1/s"),
        "op_s.p50": metric(statistics.median(times), "s"),
        "op_s.p90": metric(quantile(times, 0.9), "s"),
        "ref_s.p50": metric(statistics.median(refs), "s"),
        "error_rate": metric(failed / len(records), "ratio"),
        "tail": tail_note(times),
    }
    if steps_per_op:
        extra["player_steps_per_s"] = metric(steps_per_op * len(times) / busy, "1/s")
    return metrics, extra


def per_layer(traced: list[OpRecord], untraced: list[OpRecord], setup_trace, n: int) -> tuple[dict, dict]:
    from spans import LAYERS, layer_of

    ops = [r.trace for r in traced if r.trace is not None]
    plain = [r.seconds for r in untraced if r.seconds is not None]
    if not ops or not plain:
        raise RuntimeError("no operation completed")
    k = len(ops)

    def spans(name):
        return [t.spans[name] for t in ops if name in t.spans]

    def total(name):
        return sum(s.total_s for s in spans(name)) / k

    def self_time(name):
        return sum(s.self_s for s in spans(name)) / k

    def calls(name):
        return sum(s.calls for s in spans(name)) / k

    def count(name):
        return sum(t.counts.get(name, 0) for t in ops) / k

    def layer_self(layer):
        return sum(s.self_s for t in ops for name, s in t.spans.items() if layer_of(name) == layer) / k

    steps = count("engine.steps")
    evaluations = count("triggers.evaluations")
    loads = [s for t in ops + [setup_trace] for name, s in t.spans.items() if name == "scenario.load_scenario"]
    load_calls = sum(s.calls for s in loads)
    wall = sum(t.wall_s for t in ops) / k
    plain_wall = sum(plain) / len(plain)  # the same operations, tracing off
    unattributed = self_time("bench.op")

    m = {
        "triggers.decide_s": metric(total("triggers.decide"), "s/op"),
        "triggers.evaluations": metric(evaluations, "count/op"),
        "triggers.fires": metric(count("triggers.fires"), "count/op"),
        "triggers.fire_ratio": metric(count("triggers.fires") / evaluations if evaluations else 0.0, "ratio"),
        "engine.step_self_s": metric(self_time("engine.step"), "s/op"),
        "engine.run_self_s": metric(self_time("engine.run"), "s/op"),
        "engine.steps": metric(steps, "count/op"),
        "engine.us_per_step": metric(1e6 * total("engine.run") / steps if steps else 0.0, "us"),
        # computed, not measured: the two dense n x n products W @ y_hat per step
        "engine.flops_per_step": metric(4.0 * n ** 3 if steps else 0.0, "flop"),
        "engine.bytes_per_step": metric(2 * 3 * 8.0 * n ** 2 if steps else 0.0, "B"),
        "games.gradient_s": metric(total("games.gradient"), "s/op"),
        "games.gradient_calls": metric(calls("games.gradient"), "count/op"),
        "games.estimate_constants_s": metric(total("games.estimate_constants"), "s/op"),
        "oracle.solve_ne_s": metric(total("oracle.solve_ne"), "s/op"),
        "oracle.iterations": metric(count("oracle.iterations"), "count/op"),
        "graphs.lyapunov_pair_s": metric(total("graphs.lyapunov_pair"), "s/op"),
        "bounds.self_s": metric(layer_self("bounds"), "s/op"),
        "outputs.csv_s": metric(total("outputs.csv"), "s/op"),
        "outputs.svg_s": metric(total("outputs.svg"), "s/op"),
        "outputs.bytes": metric(count("outputs.bytes"), "B/op"),
        "metrics.run_metrics_s": metric(total("metrics.run_metrics"), "s/op"),
        "metrics.aggregate_s": metric(total("metrics.aggregate"), "s/op"),
        "harness.runs": metric(calls("harness.single_run"), "count/op"),
        "harness.self_s": metric(layer_self("harness"), "s/op"),
        "scenario.load_s": metric(
            sum(s.total_s for s in loads) / load_calls if load_calls else 0.0, "s/load"
        ),
        "cli.self_s": metric(layer_self("cli"), "s/op"),
    }
    for layer in LAYERS:
        m[f"self_s.{layer}"] = metric(layer_self(layer), "s/op")
    m["trace.unattributed_s"] = metric(unattributed, "s/op")
    m["trace.op_wall_s"] = metric(wall, "s/op")
    m["trace.untraced_op_wall_s"] = metric(plain_wall, "s/op")
    m["trace.overhead_s"] = metric(wall - plain_wall, "s/op")
    accounted = sum(layer_self(layer) for layer in LAYERS) + unattributed
    extra = {"traced_ops": k, "accounting_gap_s": wall - accounted}
    return m, extra


# ---------------------------------------------------------------- main


def run(args, workload) -> dict:
    from spans import Tracer

    work = OUT / f"work-{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
        record["machine"] = machine_info()
        if args.trace == 0:
            setup_times = probe_setup(workload.name, args.seed, work)
            ctx = prepare(workload, args.seed, work)
            runner = Runner(workload, ctx, args.seed, work)
            runner.op(0)  # warm-up: lazy imports and caches fill before timing
            records = runner.loop(args.seconds)
            metrics, extra = end_to_end(records, setup_times, workload.player_steps(ctx))
            record["setup_s"] = setup_times
        else:
            tracer = Tracer()
            tracer.install()
            try:
                ctx, setup_trace = tracer.root("bench.setup", prepare, workload, args.seed, work)
            finally:
                tracer.uninstall()
            runner = Runner(workload, ctx, args.seed, work)
            runner.op(0)
            records, plain = runner.paired_loop(args.seconds, tracer)
            metrics, extra = per_layer(records, plain, setup_trace, ctx.n)
            extra["absent_targets"] = tracer.absent
            record["spans"] = [r.trace.to_json() for r in records if r.trace is not None]
            record["setup_spans"] = setup_trace.to_json()
            record["untraced_op_s"] = [r.seconds for r in plain]
            records = records + plain
        record["op_s"] = [r.seconds for r in records]
        record["ref_s"] = [r.ref_s for r in records]
        record["metrics"] = metrics
        record["extra"] = extra
        record["digests"] = runner.digests
        record["failures"] = runner.failures
        record["attempted"] = len(records)
        record["failed"] = sum(r.error is not None for r in records)
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(record: dict) -> None:
    m = record["machine"]
    print(f"workload {record['workload']} seed {record['seed']} seconds {record['seconds']} trace {record['trace']}")
    print(
        f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} numpy={m['numpy']} "
        f"scipy={m['scipy']} blas={m['blas']} threads={m['blas_threads_set']} "
        f"(reported {m['blas_threads_reported']})"
    )
    for name, v in record["metrics"].items():
        print(f"{name} = {v['value']:.6g} {v['unit']}")
    for name, v in record["extra"].items():
        if isinstance(v, dict):
            print(f"{name} = {v['value']:.6g} {v['unit']}")
        else:
            print(f"{name}: {v}")
    print(f"ops attempted {record['attempted']}, failed {record['failed']}")
    for failure in record["failures"][:5]:
        print(f"FAILED {failure}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "neseek" / "__init__.py").is_file():
        print(f"error: the neseek package is not at {SRC / 'neseek'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads; probes inherit them
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import neseek

    if Path(neseek.__file__).resolve().parent != (SRC / "neseek").resolve():
        print(f"error: imported neseek from {neseek.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    record = run(args, WORKLOADS[args.workload])
    report(record)
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    # failures include the warm-up; traced self times must add up to the op wall time
    gap = record["extra"].get("accounting_gap_s", 0.0)
    correct = not record["failures"] and abs(gap) <= ACCOUNTING_TOL_S
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
