"""Benchmark of the `beds` CLI and library: one workload, one seed, one run.

Usage, from the repository root:

    python3 bench/run.py --workload simulate_long --seed 1 --seconds 30 --trace 0

The run is a closed loop in one worker process: each operation starts when
the previous one has finished and been checked. ``--trace 0`` prints every
end-to-end metric of BENCHMARK.json, ``--trace 1`` every per-layer metric.
Times are calibrated against the host's speed (speedometer.py). The last
line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it records the environment. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")

SETUP_PROBES = 6  # extra fresh processes timed to set-up, besides the worker
DEADLINE_S = 170.0  # the whole run, set-up probes included
THREAD_LIMITS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0, help="workload seed; 0 runs the pinned inputs")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=workloads.SIZES, default="full", help="tiny is for the harness self-test"
    )
    return parser.parse_args(argv)


def _git_sha() -> str:
    """HEAD's commit from .git, read without running git; 'unknown' outside a clone."""

    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _spawn(cmd: list[str], env: dict, deadline: float) -> tuple[str, float]:
    """Run one worker; return its output after 'ready' and the calibrated seconds to get there."""

    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(remaining, proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        killer.cancel()
    word, _, factor = first.partition(" ")
    if word != "ready":
        raise BenchError(f"worker did not finish set-up (exit {proc.returncode})")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return rest, ready * float(factor)


def _metric_table() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer


def end_to_end_metrics(record: dict, setup_samples: list[float]) -> dict:
    ops = record["ops"]
    walls = [op["wall_s"] for op in ops]
    busy = sum(walls)
    failed = sum(1 for op in ops if op["failures"])
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(walls),
        "events_per_s": sum(op["events"] or 0 for op in ops) / busy,
        "runs_per_s": sum(op["runs"] or 0 for op in ops) / busy,
        "peak_rss_mb": record["peak_rss_kib"] * 1024 / 1e6,
        "success_rate": (len(ops) - failed) / len(ops),
    }


def _with_units(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise BenchError(f"metrics out of step with BENCHMARK.json: missing {missing}, extra {extra}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    for needed in ("src/beds/cli.py", "scenarios", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.stderr.write(f"error: {needed} not found under {ROOT}; run from a beds checkout\n")
            return 2
    end_to_end_units, per_layer_units = _metric_table()

    work_root = os.path.join(BENCH_DIR, ".work")
    work_dir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    env = dict(os.environ, **THREAD_LIMITS)
    base_cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--size", args.size,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work_dir,
    ]
    spans_path = os.path.join(work_root, f"spans-{args.workload}-seed{args.seed}.json")
    try:
        setup_samples = []
        if args.trace == 0:
            for _ in range(SETUP_PROBES):
                setup_samples.append(_spawn(base_cmd + ["--setup-only"], env, deadline)[1])
        output, ready = _spawn(base_cmd + ["--spans-path", spans_path], env, deadline)
        setup_samples.append(ready)
        record = json.loads(output.strip().splitlines()[-1])
        if args.trace == 0:
            metrics = _with_units(end_to_end_metrics(record, setup_samples), end_to_end_units)
        else:
            metrics = _with_units(record["layers"], per_layer_units)
    except (BenchError, OSError, ValueError, KeyError, IndexError) as exc:
        sys.stderr.write(f"error: {args.workload} seed {args.seed}: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ops = record["ops"]
    failed = sum(1 for op in ops if op["failures"])
    env_record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": record["python"],
        "numpy": record["numpy"],
        "git_sha": _git_sha(),
        "thread_limits": THREAD_LIMITS,
        "setup_samples_s": setup_samples,
        "worker_setup": record["setup"],
        "op_walls_s": [op["wall_s"] for op in ops],
        "op_raw_walls_s": [op["raw_s"] for op in ops],
        "mean_kernel_us": record["mean_kernel_us"],
        "op0_hashes": ops[0]["hashes"],
        "op0_seed": ops[0]["seed"],
    }
    if args.trace == 1:
        env_record["spans_path"] = os.path.relpath(spans_path, ROOT)
        env_record["missing_patch_targets"] = record["missing_patch_targets"]
    print(json.dumps({"env": env_record}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
