"""Correctness checks on one operation's output files.

These read the files with the standard library only, never through `beds`,
so a fault in the program cannot also hide itself from the check. Files are
streamed line by line to keep the checking process's memory flat.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

from workloads import SIMULATE_HORIZON, SIMULATE_TAU_STAR, SWEEP_GRID, SWEEP_REPLICATES

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

OUTPUT_FILES = {
    "simulate_long": ("trace.csv", "ledger.csv", "summary.json"),
    "sweep_many": ("sweep.csv",),
    "verify_suite": ("verify_report.json", "sweep.csv"),
}

SUMMARY_FIELDS = (
    "mean_precision_after_t0",
    "max_kl_after_t0",
    "mean_windowed_power_after_t0",
    "observation_count",
    "total_energy",
    "total_info",
)
PRECISION_TOLERANCE = 0.05  # time-averaged precision within 5% of tau*
ENERGY_REL_TOLERANCE = 1e-12  # summary total_energy against the ledger's sum


@dataclass
class OpResult:
    """What the checks found in one operation's outputs."""

    failures: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    events: int | None = None  # observations applied, when the outputs say
    runs: int | None = None  # engine runs, when the outputs say


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _csv_rows(path: str):
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
        for line in handle:
            yield dict(zip(header, line.rstrip("\n").split(",")))


def _check_simulate(out_dir: str, size: str, result: OpResult) -> None:
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as handle:
        summary = json.load(handle)
    precision = summary["mean_precision_after_t0"]
    if not abs(precision - SIMULATE_TAU_STAR) <= PRECISION_TOLERANCE * SIMULATE_TAU_STAR:
        result.failures.append(f"mean_precision_after_t0 {precision!r} is not within 5% of tau* = 100")
    ledger_sum = 0.0
    ledger_rows = 0
    for row in _csv_rows(os.path.join(out_dir, "ledger.csv")):
        ledger_sum += float(row["energy"])
        ledger_rows += 1
    total = summary["total_energy"]
    if not math.isclose(total, ledger_sum, rel_tol=ENERGY_REL_TOLERANCE, abs_tol=0.0):
        result.failures.append(f"total_energy {total!r} differs from the ledger sum {ledger_sum!r}")
    if summary["observation_count"] != ledger_rows:
        result.failures.append(
            f"observation_count {summary['observation_count']!r} but the ledger has {ledger_rows} rows"
        )
    samples = sum(1 for _ in _csv_rows(os.path.join(out_dir, "trace.csv")))
    expected_samples = SIMULATE_HORIZON[size] + 1  # sample_dt = 1, no crystallization
    if samples != expected_samples:
        result.failures.append(f"trace.csv has {samples} samples, expected {expected_samples}")
    result.events = ledger_rows
    result.runs = 1


def _check_sweep(out_dir: str, size: str, result: OpResult) -> None:
    rows = 0
    events = 0
    for row in _csv_rows(os.path.join(out_dir, "sweep.csv")):
        rows += 1
        for name in SUMMARY_FIELDS:
            if not math.isfinite(float(row.get(name, "nan"))):
                result.failures.append(f"sweep.csv row {rows}: {name} = {row.get(name)!r} is not finite")
        events += int(row["observation_count"])
    cells = math.prod(len(values) for _, values in SWEEP_GRID)
    expected = cells * SWEEP_REPLICATES[size]
    if rows != expected:
        result.failures.append(f"sweep.csv has {rows} rows, expected {cells} cells x {SWEEP_REPLICATES[size]}")
    result.events = events
    result.runs = rows


def _check_verify(out_dir: str, size: str, result: OpResult) -> None:
    with open(os.path.join(out_dir, "verify_report.json"), encoding="utf-8") as handle:
        report = json.load(handle)
    failed = [c["name"] for c in report["checks"] if not c["exploratory"] and not c["passed"]]
    if failed or report["all_passed"] is not True:
        result.failures.append(f"verify checks failed: {failed} (all_passed={report['all_passed']!r})")


_CHECKS = {
    "simulate_long": _check_simulate,
    "sweep_many": _check_sweep,
    "verify_suite": _check_verify,
}


def check_outputs(
    workload: str, size: str, seed: str, out_dir: str, exit_code: int | None, pins: dict
) -> OpResult:
    """Check one operation: exit code, pinned hashes, then the workload's invariants."""

    result = OpResult()
    if exit_code != 0:
        result.failures.append(f"exit code {exit_code!r}")
        return result
    for name in OUTPUT_FILES[workload]:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            result.failures.append(f"missing output {name}")
            return result
        result.hashes[name] = sha256_file(path)
    pinned = pins.get(workload, {}).get(f"{size}/{seed}")
    if pinned is not None and pinned != result.hashes:
        differing = sorted(name for name in result.hashes if pinned.get(name) != result.hashes[name])
        result.failures.append(f"outputs differ from the pinned hashes: {differing}")
    try:
        _CHECKS[workload](out_dir, size, result)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        result.failures.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return result
