"""Command-line front end.

Subcommands: predict (closed-form maintenance costs), simulate (one run to
trace/summary/ledger files), sweep (parameter grid to one CSV), classify
(problem-class verdict for a scenario), verify (the self-verification
suite). Exit codes are a stable contract: 0 success, 1 runtime or check
failure, 2 usage or configuration error, 130 (128 + SIGINT) interrupted,
with one ``error: interrupted`` line. Scenario files are JSON in the
schema of :mod:`beds.core`; the BEDS_SEED environment variable, when set,
overrides the scenario seed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import asdict
from typing import BinaryIO

from .analysis import classify_run, optimal_obs_precision, steady_state_prediction
from .core import (
    BedsError,
    Scenario,
    UnknownParameterPath,
    ValidationError,
    scenario_from_dict,
    set_path,
    validate_scenario,
)
from .engine import run, summary_to_dict, sweep, trace_to_csv
from .io import _CSV_BLOCK_ROWS, beside, json_dumps
from . import verify as verify_mod

__all__ = ["main"]


class _CliError(Exception):
    def __init__(self, exit_code: int, message: str):
        self.exit_code = exit_code
        super().__init__(message)


def _parse_override(pair: str) -> tuple[str, object]:
    if "=" not in pair:
        raise _CliError(2, f"override {pair!r} is not of the form path=value")
    path, raw = pair.split("=", 1)
    try:
        value = json.loads(raw)
    except ValueError:
        value = raw
    return path, value


def _violations_error(exc: ValidationError) -> _CliError:
    # One line per violation; main() prefixes each line with "error: ".
    return _CliError(2, "\n".join(f"{v.field}: {v.message}" for v in exc.violations))


def _load_scenario(args: argparse.Namespace) -> Scenario:
    path = args.scenario_path
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _CliError(1, f"cannot read scenario file {path}: {exc.strerror}") from exc
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise _CliError(2, f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise _CliError(2, f"scenario file {path} must hold a JSON object, got {raw!r}")
    for pair in args.override:
        try:
            set_path(raw, *_parse_override(pair))
        except UnknownParameterPath as exc:
            raise _CliError(2, str(exc)) from exc
    env_seed = os.environ.get("BEDS_SEED")
    if env_seed is not None:
        try:
            raw["seed"] = int(env_seed)
        except ValueError as exc:
            raise _CliError(2, f"BEDS_SEED: must be an integer, got {env_seed!r}") from exc
    try:
        return validate_scenario(scenario_from_dict(raw))
    except ValidationError as exc:
        raise _violations_error(exc) from exc
    except (BedsError, ValueError) as exc:
        raise _CliError(2, str(exc)) from exc


@contextlib.contextmanager
def _output_file(output_dir: str, name: str) -> Iterator[BinaryIO]:
    """``name`` in ``output_dir``, opened for binary writing.

    Any OSError, from creating the directory to the last write or the
    close, becomes exit 1 with one line naming the file.
    """

    try:
        os.makedirs(output_dir, exist_ok=True)
        with open(os.path.join(output_dir, name), "wb") as handle:
            yield handle
    except OSError as exc:
        raise _CliError(1, f"cannot write {name} in {output_dir}: {exc.strerror}") from exc


def _write_text(output_dir: str, name: str, text: str) -> str:
    with _output_file(output_dir, name) as handle:
        handle.write(text.encode("utf-8"))
    return handle.name


def _cmd_predict(args: argparse.Namespace) -> int:
    for flag in ("gamma", "tau_star", "tau_d", "kbt", "lambda_max"):
        value = getattr(args, flag)
        if value is not None and not (math.isfinite(value) and value > 0):
            raise _CliError(2, f"--{flag.replace('_', '-')}: must be finite and > 0, got {value!r}")
    prediction = steady_state_prediction(args.gamma, args.tau_star, args.tau_d, args.kbt)
    payload = asdict(prediction)
    if args.lambda_max is not None:
        payload["tau_d_opt"] = optimal_obs_precision(args.gamma, args.tau_star, args.lambda_max)
    for key, value in payload.items():
        if not math.isfinite(value):
            raise _CliError(2, f"{key}: is {value!r} for these flags, not a finite number")
    sys.stdout.write(json_dumps(payload))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    trace = run(scenario)
    summary = summary_to_dict(trace)

    def write_ledger() -> str | None:
        # Returns its error's line, not the error: a forked child sends it back.
        try:
            with _output_file(args.output_dir, "ledger.csv") as handle:
                trace.ledger.to_csv(handle)
        except _CliError as exc:
            return str(exc)

    # A ledger of one CSV block is written here, after the trace: a fork would cost more.
    with beside(write_ledger, fork=len(trace.ledger) > _CSV_BLOCK_ROWS) as ledger_written:
        with _output_file(args.output_dir, "trace.csv") as handle:
            trace_to_csv(trace, handle)
        _write_text(args.output_dir, "summary.json", json_dumps(summary))
        try:
            error = ledger_written()
        except ChildProcessError as exc:
            error = f"cannot write ledger.csv in {args.output_dir}: {exc}"
    if error is not None:
        raise _CliError(1, error)
    sys.stdout.write(json_dumps(summary))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    grid: list[tuple[str, list[float]]] = []
    for spec in args.grid:
        if "=" not in spec:
            raise _CliError(2, f"grid {spec!r} is not of the form path=v1,v2,...")
        path, raw_values = spec.split("=", 1)
        try:
            values = [float(v) for v in raw_values.split(",") if v != ""]
        except ValueError as exc:
            raise _CliError(2, f"grid {spec!r} has a non-numeric value: {exc}") from exc
        if not values:
            raise _CliError(2, f"grid {spec!r} lists no values")
        grid.append((path, values))
    try:
        table = sweep(scenario, grid, replicates=args.replicates)
    except ValidationError as exc:
        raise _violations_error(exc) from exc
    except (UnknownParameterPath, ValueError) as exc:
        raise _CliError(2, str(exc)) from exc
    target = _write_text(args.output_dir, "sweep.csv", table.to_csv())
    sys.stdout.write(f"wrote {len(table.rows)} rows to {target}\n")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    trace = run(scenario)
    verdict = classify_run(trace, scenario.problem)
    payload = asdict(verdict)
    _write_text(args.output_dir, "verdict.json", json_dumps(payload))
    sys.stdout.write(json_dumps(payload))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if not 0 <= args.seed_base <= verify_mod.MAX_SEED_BASE:
        raise _CliError(2, f"--seed-base: must be in [0, {verify_mod.MAX_SEED_BASE}], got {args.seed_base}")
    report = verify_mod.run_all(args.seed_base)
    _write_text(args.output_dir, "verify_report.json", json_dumps(report.to_dict()))
    if report.tracking_table is not None:
        _write_text(args.output_dir, "sweep.csv", report.tracking_table.to_csv())
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        kind = " (exploratory)" if check.exploratory else ""
        sys.stdout.write(f"{status} {check.name}{kind}\n")
    sys.stdout.write(f"all non-exploratory checks passed: {report.all_passed}\n")
    return 0 if report.all_passed else 1


_COMMANDS = {
    "predict": _cmd_predict,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
}


# Built once per process: parsing leaves the parser as it was, and in-process
# callers of main (the tests, bench/) would otherwise rebuild it every call.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beds",
        description="Simulate and analyze belief maintenance under dissipation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    predict = sub.add_parser("predict", help="closed-form maintenance predictions")
    predict.add_argument("--gamma", type=float, required=True, help="dissipation rate (1/time)")
    predict.add_argument("--tau-star", type=float, required=True, help="precision to maintain")
    predict.add_argument("--tau-d", type=float, required=True, help="precision per observation")
    predict.add_argument("--kbt", type=float, default=1.0, help="thermal energy scale (default 1)")
    predict.add_argument(
        "--lambda-max", type=float, default=None, help="rate budget; adds tau_d_opt to the output"
    )

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario-path", required=True, help="scenario JSON file")
        p.add_argument("--output-dir", required=True, help="directory for output files")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="PATH=VALUE",
            help="dotted-path scenario override applied before validation (repeatable)",
        )

    simulate = sub.add_parser("simulate", help="run one scenario to trace/summary/ledger files")
    add_io(simulate)

    sweep_p = sub.add_parser("sweep", help="run a parameter grid to sweep.csv")
    add_io(sweep_p)
    sweep_p.add_argument(
        "--grid",
        action="append",
        default=[],
        required=True,
        metavar="PATH=V1,V2,...",
        help="numeric scenario path with comma-separated values (repeatable, ordered)",
    )
    sweep_p.add_argument("--replicates", type=int, default=1, help="seeded replicates per cell")

    classify = sub.add_parser("classify", help="problem-class verdict for a scenario")
    add_io(classify)

    verify_p = sub.add_parser("verify", help="run the self-verification suite")
    verify_p.add_argument(
        "--seed-base", type=int, default=verify_mod.DEFAULT_SEED_BASE, help="base seed for all checks"
    )
    verify_p.add_argument("--output-dir", required=True, help="directory for the report files")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.subcommand](args)
    except _CliError as exc:
        sys.stderr.writelines(f"error: {line}\n" for line in str(exc).splitlines())
        return exc.exit_code
    except KeyboardInterrupt:
        sys.stderr.write("error: interrupted\n")
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
