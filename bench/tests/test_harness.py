"""Self-test of the benchmark harness.

Run from the repository root with ``python3 -m pytest bench/tests``. Each
workload runs at its tiny size, traced and untraced, and must emit exactly
the metrics BENCHMARK.json names, with their units. Corrupted copies of real
outputs must fail the correctness checks and so raise the error rate.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=175,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "0", "--seconds", "0.5", "--size", "tiny", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _spec()["end_to_end" if trace == 0 else "per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    env = json.loads(done.stdout.splitlines()[-2])["env"]
    if trace == 1:
        assert env["missing_patch_targets"] == []
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def _simulate(out_dir: str, seed: str) -> None:
    argv = workloads.op_argv(ROOT, "simulate_long", "tiny", seed, out_dir)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-m", "beds.cli", *argv], cwd=ROOT, env=env, check=True, capture_output=True)


def _error_rate(results: list[checks.OpResult]) -> float:
    record = {
        "ops": [{"wall_s": 1.0, "events": r.events, "runs": r.runs, "failures": r.failures} for r in results],
        "peak_rss_kib": 1,
    }
    return 1.0 - run.end_to_end_metrics(record, [1.0])["success_rate"]


def _corrupt_ledger_energy(out_dir: str) -> None:
    path = os.path.join(out_dir, "ledger.csv")
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    fields = lines[1].split(",")
    fields[1] = repr(float(fields[1]) * 2.0)
    lines[1] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


def _touch_summary(out_dir: str) -> None:
    with open(os.path.join(out_dir, "summary.json"), "a", encoding="utf-8") as handle:
        handle.write(" ")


@pytest.mark.parametrize(
    "index, corrupt",
    [(0, _touch_summary), (1, _corrupt_ledger_energy)],
    ids=["pinned-hash", "ledger-sum"],
)
def test_corrupted_simulate_output_raises_error_rate(tmp_path, index, corrupt):
    seed = workloads.program_seed(ROOT, "simulate_long", 0, index)
    clean_dir = str(tmp_path / "clean")
    _simulate(clean_dir, seed)
    pins = checks.load_pins()
    clean = checks.check_outputs("simulate_long", "tiny", seed, clean_dir, 0, pins)
    assert clean.failures == []
    assert _error_rate([clean]) == 0.0

    corrupt_dir = str(tmp_path / "corrupt")
    shutil.copytree(clean_dir, corrupt_dir)
    corrupt(corrupt_dir)
    broken = checks.check_outputs("simulate_long", "tiny", seed, corrupt_dir, 0, pins)
    assert broken.failures
    assert _error_rate([clean, broken]) > 0.0


def test_failed_verify_report_and_short_sweep_fail(tmp_path):
    report = {
        "all_passed": False,
        "checks": [{"name": "dynamics_oracles", "passed": False, "exploratory": False, "measured": {}}],
    }
    (tmp_path / "verify_report.json").write_text(json.dumps(report))
    header = ["replicate", "seed", *checks.SUMMARY_FIELDS]
    row = ["0", "1", "100.0", "0.5", "0.1", "40", "2.0", "2.0"]
    (tmp_path / "sweep.csv").write_text(",".join(header) + "\n" + ",".join(row) + "\n")
    verify = checks.check_outputs("verify_suite", "tiny", "unpinned", str(tmp_path), 0, {})
    assert any("verify checks failed" in f for f in verify.failures)
    sweep = checks.check_outputs("sweep_many", "tiny", "unpinned", str(tmp_path), 0, {})
    assert any("rows, expected" in f for f in sweep.failures)
    exited = checks.check_outputs("sweep_many", "tiny", "unpinned", str(tmp_path), 2, {})
    assert exited.failures == ["exit code 2"]


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = _bench("--workload", "simulate_long", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
