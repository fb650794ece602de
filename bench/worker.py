"""One benchmark process: set up, warm up, run operations back to back, check them.

``run.py`` starts this script in a fresh interpreter for every workload run
and for every extra set-up sample. It prints ``ready`` once `beds` is
imported, the workload's scenario is loaded and validated and the warm-up
calls are done; that is the end of set-up. Unless ``--setup-only`` is given
it then runs operations and prints one JSON record as its last line.

Every time it reports is read from a ``Speedometer`` (see speedometer.py),
which starts before anything else so that set-up is calibrated too. The
``ready`` line carries the ratio of calibrated to raw set-up time, which
``run.py`` applies to the set-up time it measures from outside.

Operations are in-process calls of ``beds.cli.main``. An operation fails
when it raises, exits non-zero, or its outputs fail ``checks.check_outputs``.
With ``--trace 1`` the first half of the time runs untraced; the same
operations then run again under the tracer, which gives per-layer figures,
the tracing overhead, and a check that tracing leaves the outputs
byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import checks
import tracer as tracing
import workloads
from speedometer import Speedometer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True, help="scratch directory for operation outputs")
    parser.add_argument("--spans-path", help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


class Runner:
    """Runs and checks numbered operations of one workload."""

    def __init__(self, cli, args: argparse.Namespace, speedometer: Speedometer):
        self.cli = cli
        self.args = args
        self.speedometer = speedometer
        self.pins = checks.load_pins()
        self.run_counter = None
        if args.workload == "verify_suite":
            # beds verify writes no event counts; count them at the engine.run boundary.
            self.run_counter = tracing.RunCounter()
            self.run_counter.install()

    def run_op(self, index: int, tracer: tracing.Tracer | None = None) -> dict:
        args = self.args
        seed = workloads.program_seed(ROOT, args.workload, args.seed, index)
        out_dir = os.path.join(args.work_dir, f"op{index}")
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = workloads.op_argv(ROOT, args.workload, args.size, seed, out_dir)
        if tracer is not None:
            tracer.op = index
        counter = self.run_counter
        runs_before, events_before = (counter.runs, counter.events) if counter else (0, 0)
        gc.collect()
        start, cal_start = time.perf_counter(), self.speedometer.now()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        except Exception:  # a crash is a failed operation, not a failed benchmark
            traceback.print_exc()
            code = None
        cal, raw = self.speedometer.now() - cal_start, time.perf_counter() - start
        result = checks.check_outputs(args.workload, args.size, seed, out_dir, code, self.pins)
        shutil.rmtree(out_dir, ignore_errors=True)
        if counter is not None:
            result.runs = counter.runs - runs_before
            result.events = counter.events - events_before
        for failure in result.failures:
            sys.stderr.write(f"{args.workload} op {index} (seed {seed}): {failure}\n")
        return {
            "index": index,
            "seed": seed,
            "wall_s": cal,
            "raw_s": raw,
            "failures": result.failures,
            "hashes": result.hashes,
            "events": result.events,
            "runs": result.runs,
        }

    def run_for(self, seconds: float) -> list[dict]:
        """Run operations 0, 1, ... until the next one would overrun ``seconds`` of real time."""

        ops: list[dict] = []
        start = time.perf_counter()
        while True:
            ops.append(self.run_op(len(ops)))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(op["raw_s"] for op in ops) > seconds:
                return ops


def _nearest_rank(values: list[float], percent: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * percent // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer: tracing.Tracer, untraced: list[dict], traced: list[dict]) -> dict:
    """Per-operation layer figures from a traced pass over the same operations."""

    n = len(traced)
    self_times = tracer.self_times()
    inclusive = tracer.inclusive_times()
    counts = tracer.all_counts()
    metrics = {metric: self_times[metric] / n for _, _, metric in tracing.SPANS}
    for check in tracing.VERIFY_CHECKS:
        metric = tracing.verify_metric(check)
        metrics[metric] = inclusive[metric] / n
    for _, _, metric in tracing.COUNTS:
        metrics[metric] = counts[metric] / n
    for metric in (
        "fluxgen.obs_generated",
        "engine.runs",
        "engine.events_applied",
        "engine.samples_emitted",
        "io.bytes_written",
    ):
        metrics[metric] = counts[metric] / n
    generated = counts["fluxgen.obs_generated"]
    events = counts["engine.events_applied"]
    metrics["fluxgen.us_per_obs"] = 1e6 * self_times["fluxgen.generate_s"] / generated if generated else 0.0
    metrics["fluxgen.obs_used_ratio"] = events / generated if generated else 0.0
    metrics["engine.us_per_event"] = 1e6 * self_times["engine.run_self_s"] / events if events else 0.0
    run_ms = [1e3 * d for d in tracer.durations("engine.run_self_s")]
    metrics["engine.run_p50_ms"] = _nearest_rank(run_ms, 50)
    metrics["engine.run_p90_ms"] = _nearest_rank(run_ms, 90)
    metrics["trace.overhead_s"] = statistics.median(
        t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced)
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    speedometer = Speedometer()
    speedometer.start()
    raw_start = time.perf_counter()
    args = _parse_args(argv)
    protocol = sys.stdout
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy

    import beds.cli as cli
    from beds.core import scenario_from_json, validate_scenario

    imported = speedometer.now()
    with open(workloads.scenario_path(ROOT, args.workload), encoding="utf-8") as handle:
        validate_scenario(scenario_from_json(handle.read()))
    loaded = speedometer.now()
    warm_dir = os.path.join(args.work_dir, "warmup")
    for warm_argv in workloads.warmup_argvs(ROOT, warm_dir):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(warm_argv)
        if code != 0:
            sys.stderr.write(f"warm-up {warm_argv[0]} exited {code}\n")
            return 1
    shutil.rmtree(warm_dir, ignore_errors=True)
    warmed = speedometer.now()
    protocol.write(f"ready {warmed / (time.perf_counter() - raw_start)!r}\n")
    protocol.flush()
    if args.setup_only:
        speedometer.stop()
        return 0

    runner = Runner(cli, args, speedometer)
    record = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "setup": {
            "import_s": imported,
            "load_s": loaded - imported,
            "warmup_s": warmed - loaded,
        },
    }
    if args.trace == 0:
        ops = runner.run_for(args.seconds)
        record["ops"] = ops
        record["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        untraced = runner.run_for(args.seconds / 2)
        tracer = tracing.Tracer(speedometer.now)
        tracer.install()
        try:
            traced = [runner.run_op(op["index"], tracer) for op in untraced]
        finally:
            tracer.uninstall()
        for before, after in zip(untraced, traced):
            if before["hashes"] != after["hashes"]:
                after["failures"].append("outputs differ with tracing on")
        record["ops"] = untraced + traced
        record["layers"] = layer_metrics(tracer, untraced, traced)
        record["layers"]["setup.import_s"] = record["setup"]["import_s"]
        record["layers"]["setup.warmup_s"] = record["setup"]["warmup_s"]
        record["missing_patch_targets"] = tracer.missing
        if args.spans_path:
            with open(args.spans_path, "w", encoding="utf-8") as handle:
                json.dump({"spans": tracer.spans, "counts": tracer.all_counts()}, handle)
    speedometer.stop()
    record["mean_kernel_us"] = speedometer.mean_kernel_us()
    protocol.write(json.dumps(record) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
