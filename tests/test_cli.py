import json
import math
import multiprocessing
import os
import shutil
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beds import cli, verify
from beds.cli import main
from beds.core import scenario_to_json, set_path
from beds.energy import EnergyLedger
from beds.engine import run, trace_to_csv
from beds.io import _CSV_BLOCK_ROWS
from beds.scenarios import (
    dissipation_only,
    drifting_tracking,
    static_crystallizing,
    steady_state,
)


@pytest.fixture
def scenario_file(tmp_path):
    def write(builder, name="scenario.json"):
        path = tmp_path / name
        path.write_text(scenario_to_json(builder()))
        return str(path)

    return write


# --- predict ------------------------------------------------------------------------


def test_predict_outputs_closed_forms(capsys):
    code = main(
        ["predict", "--gamma", "1", "--tau-star", "100", "--tau-d", "1", "--kbt", "1"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p_min_exact"] == pytest.approx(0.497517, rel=1e-5)
    assert payload["p_min_linear"] == 0.5
    assert payload["lambda_required"] == pytest.approx(100.0)
    assert "tau_d_opt" not in payload


def test_predict_required_rate_example(capsys):
    code = main(["predict", "--gamma", "0.1", "--tau-star", "100", "--tau-d", "10"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda_required"] == pytest.approx(1.0, rel=1e-12)


def test_predict_with_rate_budget(capsys):
    code = main(
        ["predict", "--gamma", "0.1", "--tau-star", "100", "--tau-d", "10", "--lambda-max", "10"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tau_d_opt"] == pytest.approx(1.0, rel=1e-12)


def test_predict_rejects_non_positive_flag(capsys):
    code = main(["predict", "--gamma", "0", "--tau-star", "100", "--tau-d", "1"])
    assert code == 2
    assert "--gamma" in capsys.readouterr().err
    # A non-finite flag, or a closed form that comes out non-finite, exits 2
    # with one error line naming the flag or the output key.
    for flags, named in [
        (["--gamma", "inf", "--tau-star", "100", "--tau-d", "1"], "--gamma"),
        (["--gamma", "nan", "--tau-star", "100", "--tau-d", "1"], "--gamma"),
        (["--gamma", "1", "--tau-star", "100", "--tau-d", "1", "--kbt", "inf"], "--kbt"),
        (["--gamma", "1", "--tau-star", "100", "--tau-d", "1", "--lambda-max", "inf"], "--lambda-max"),
        (["--gamma", "1e308", "--tau-star", "1e308", "--tau-d", "1"], "lambda_required"),
        (["--gamma", "1", "--tau-star", "1e-320", "--tau-d", "1e300"], "p_min_exact"),
        (["--gamma", "1", "--tau-star", "1", "--tau-d", "1", "--lambda-max", "1e-320"], "tau_d_opt"),
    ]:
        assert main(["predict", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {named}: "), (flags, lines)


def test_unparseable_flags_exit_2(capsys):
    assert main(["predict", "--gamma", "one", "--tau-star", "1", "--tau-d", "1"]) == 2


# --- simulate -----------------------------------------------------------------------


def test_simulate_writes_outputs(tmp_path, scenario_file, capsys):
    out = tmp_path / "out"
    code = main(
        ["simulate", "--scenario-path", scenario_file(dissipation_only), "--output-dir", str(out)]
    )
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["outcome"]["crystallized"] is False
    trace_lines = (out / "trace.csv").read_text().strip().split("\n")
    final_precision = float(trace_lines[-1].split(",")[2])
    assert final_precision == pytest.approx(math.exp(-1.0), rel=1e-12)
    summary = json.loads((out / "summary.json").read_text())
    assert summary == printed
    assert (out / "ledger.csv").read_text().startswith("time,energy,")


def test_simulate_crystallizing_summary(tmp_path, scenario_file):
    out = tmp_path / "out"
    code = main(
        ["simulate", "--scenario-path", scenario_file(static_crystallizing), "--output-dir", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["outcome"]["crystallized"] is True
    assert summary["outcome"]["accurate"] is True


def test_simulate_missing_file_exits_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code = main(["simulate", "--scenario-path", missing, "--output-dir", str(tmp_path / "o")])
    assert code == 1
    assert missing in capsys.readouterr().err


def test_simulate_invalid_config_exits_2_with_violation_list(tmp_path, scenario_file, capsys):
    # One "error: <field>: <problem>" line per violation, and nothing else.
    path = scenario_file(dissipation_only)
    for overrides, fields in [
        (["beds.gamma=0"], ["beds.gamma"]),
        (["beds.gamma=0", "beds.epsilon=-1"], ["beds.gamma", "beds.epsilon"]),
    ]:
        argv = ["simulate", "--scenario-path", path, "--output-dir", str(tmp_path / "o")]
        for pair in overrides:
            argv += ["--override", pair]
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines(keepends=True)
        assert len(lines) == len(fields)
        for line, field in zip(lines, fields):
            assert line.startswith(f"error: {field}: ")
            assert line.endswith("\n")


def test_simulate_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["simulate", "--scenario-path", str(bad), "--output-dir", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize(
    "override, named",
    [
        ("flux_spec.arrival=[]", "flux_spec.arrival"),
        ("flux_spec.arrival={}", "flux_spec.arrival"),
        ("beds.nope=1", "beds.nope"),
        ("flux_spec.arrival=[1]", "flux_spec.arrival"),
        ("beds=[1]", "beds"),
        ("problem.target=null", "problem.target"),
        ('flux_spec.arrival={"kind":"schedule","times":5}', "flux_spec.arrival.times"),
        ('flux_spec.arrival={"kind":"schedule","times":[true]}', "flux_spec.arrival.times[0]"),
    ],
)
def test_simulate_bad_override_exits_2_with_one_line_error(
    tmp_path, scenario_file, capsys, override, named
):
    code = main(
        [
            "simulate",
            "--scenario-path", scenario_file(dissipation_only),
            "--output-dir", str(tmp_path / "o"),
            "--override", override,
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert named in err


def test_simulate_fixed_cost_that_overflows_the_energy_exits_2_without_warnings(
    tmp_path, scenario_file, capsys
):
    argv = [
        "simulate",
        "--scenario-path", scenario_file(steady_state),
        "--output-dir", str(tmp_path / "o"),
        "--override", 'energy_model.kind="fixed_cost"',
        "--override", "energy_model.fixed_cost_value=1e308",
        "--override", "horizon=3000",
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: energy_model.fixed_cost_value: must keep the energy of 2e+06 charges finite, got 1e+308"
    ]
    assert caught == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "overrides, error",
    [
        (
            ["energy_model.kBT=1e308"],
            "error: energy_model.kBT: must keep the minimum energy of 2e+06 charges finite, got 1e+308",
        ),
        (
            ["beds.gamma=2000", "flux_spec.obs_precision=1e308"],
            "error: flux_spec.obs_precision: must keep the information of one charge finite, got 1e+308",
        ),
    ],
    ids=["kBT", "obs_precision"],
)
def test_simulate_landauer_energy_that_overflows_exits_2_without_warnings(
    tmp_path, scenario_file, capsys, overrides, error
):
    argv = ["simulate", "--scenario-path", scenario_file(steady_state), "--output-dir", str(tmp_path / "o")]
    for override in [*overrides, "horizon=3000"]:
        argv += ["--override", override]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [error]
    assert caught == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "overrides",
    [
        # kl_gaussian's precision_p / precision_q on a belief dissipated to the floor.
        ["beds.gamma=2000", "problem.target.target_variance=1e-300"],
        # Its precision_q / precision_p once one observation lifts the precision above about 1.8.
        ["problem.target.target_variance=1e308"],
    ],
    ids=["tiny", "huge"],
)
def test_simulate_target_variance_that_overflows_the_divergence_exits_2_without_warnings(
    tmp_path, scenario_file, capsys, overrides
):
    argv = ["simulate", "--scenario-path", scenario_file(steady_state), "--output-dir", str(tmp_path / "o")]
    for override in ["horizon=30", *overrides]:
        argv += ["--override", override]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code == 2
    value = float(overrides[-1].partition("=")[2])
    assert capsys.readouterr().err.splitlines() == [
        "error: problem.target.target_variance: must keep the divergence of a belief at the lowest "
        f"and highest precision finite, got {value!r}"
    ]
    assert caught == []
    assert not (tmp_path / "o").exists()


def test_simulate_initial_precision_whose_variance_overflows_exits_2_without_warnings(
    tmp_path, scenario_file, capsys
):
    argv = ["simulate", "--scenario-path", scenario_file(steady_state), "--output-dir", str(tmp_path / "o")]
    overrides = [
        "horizon=30",
        "beds.initial_belief.precision=1e-310",
        "flux_spec.obs_precision=1e-3",
        "problem.target.target_variance=100",
    ]
    for override in overrides:
        argv += ["--override", override]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: beds.initial_belief.precision: must keep the initial variance finite, got 1e-310"
    ]
    assert caught == []
    assert not (tmp_path / "o").exists()


def test_an_initial_precision_past_its_own_bounds_is_reported_alone(tmp_path, capsys):
    # The obs_precision and target_variance budgets are derived from the
    # initial precision, and are not derived from one that breaks its own.
    path = Path(__file__).resolve().parents[1] / "scenarios" / "tracking_sweep_base.json"
    argv = ["simulate", "--scenario-path", str(path), "--output-dir", str(tmp_path / "o")]
    assert main(argv + ["--override", "beds.initial_belief.precision=1e-310"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: beds.initial_belief.precision: must keep the initial variance finite, got 1e-310"
    ]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "scenario, overrides, field",
    [
        # Each value breaks its own rule, and no budget is derived from it.
        ("steady_state", ["energy_model.kBT=-1e300"], "energy_model.kBT"),
        (
            "steady_state",
            ['energy_model.kind="fixed_cost"', "energy_model.fixed_cost_value=-1e303"],
            "energy_model.fixed_cost_value",
        ),
        ("steady_state", ["problem.target.velocity=1e300"], "problem.target.velocity"),
        ("tracking_sweep_base", ["horizon=-1e300"], "horizon"),
        # One input, one budget: the target's reach is bounded only past its variance's own.
        ("tracking_sweep_base", ["problem.target.target_variance=5e-324"], "problem.target.target_variance"),
        # -ln(2**-53) / rate, the largest inter-arrival time, overflows.
        ("steady_state", ["flux_spec.arrival.rate=5e-324"], "flux_spec.arrival.rate"),
        ("steady_state", ["flux_spec.arrival.rate=1e-310"], "flux_spec.arrival.rate"),
        # A huge horizon overflows every count budget, and bounds no reach.
        ("steady_state", ["horizon=1e300"], "horizon"),
        ("static_crystallizing", ["horizon=1.7e308"], "horizon"),
        ("drifting_tracking", ["horizon=1e300"], "horizon"),
        ("tracking_sweep_base", ["horizon=1e300"], "horizon"),
        ("tracking_sweep_base", ["horizon=1.7e308"], "horizon"),
        # Without arrivals to count, the samples' budget is the one overflowed.
        ("dissipation_only", ["horizon=1.7e308"], "sample_dt"),
        # bayes_update's precision_before * mean overflows, which would write
        # an infinite output_mean into summary.json.
        *(
            (scenario, ["beds.initial_belief.precision=1e300", "beds.initial_belief.mean=1e10"],
             "beds.initial_belief.precision")
            for scenario in ("drifting_tracking", "static_crystallizing", "steady_state", "tracking_sweep_base")
        ),
    ],
)
def test_one_bad_value_gives_one_error_line(tmp_path, capsys, scenario, overrides, field):
    path = Path(__file__).resolve().parents[1] / "scenarios" / f"{scenario}.json"
    argv = ["simulate", "--scenario-path", str(path), "--output-dir", str(tmp_path / "o")]
    for override in ["horizon=3", *overrides]:
        argv += ["--override", override]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {field}: ")
    if field == "flux_spec.arrival.rate":
        value = overrides[-1].partition("=")[2]
        assert line == f"error: {field}: must keep the largest inter-arrival time finite, got {value}"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scenario", ["drifting_tracking", "tracking_sweep_base"])
@pytest.mark.parametrize("override", ["sample_dt=1e300", "flux_spec.arrival.period=-1e300"])
def test_a_horizon_over_one_count_budget_bounds_no_reach(tmp_path, capsys, scenario, override):
    # Each of the two values breaks a rule; the horizon, over a count budget,
    # feeds no bound on the target's reach.
    path = Path(__file__).resolve().parents[1] / "scenarios" / f"{scenario}.json"
    argv = ["simulate", "--scenario-path", str(path), "--output-dir", str(tmp_path / "o")]
    for pair in ["horizon=1e300", override]:
        argv += ["--override", pair]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert sorted(line.split(": ")[1] for line in lines) == ["flux_spec.arrival.period", "sample_dt"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "scenario, overrides, fields",
    [
        # Each count is over budget within one time unit: its field explains it.
        ("steady_state", ["flux_spec.arrival.rate=1e9", "sample_dt=1e-9"], ["flux_spec.arrival.rate", "sample_dt"]),
        # The horizon explains no count, so the target's reach is bounded on it.
        (
            "dissipation_only",
            ["horizon=3", "sample_dt=5e-324", "beds.initial_belief.mean=1e300"],
            ["problem.target", "sample_dt"],
        ),
        # The horizon alone explains both counts.
        ("steady_state", ["horizon=1e12"], ["horizon"]),
    ],
)
def test_the_horizon_is_named_only_when_it_alone_explains_the_counts(tmp_path, capsys, scenario, overrides, fields):
    path = Path(__file__).resolve().parents[1] / "scenarios" / f"{scenario}.json"
    argv = ["simulate", "--scenario-path", str(path), "--output-dir", str(tmp_path / "o")]
    for override in overrides:
        argv += ["--override", override]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert sorted(line.split(": ")[1] for line in lines) == fields, lines
    assert not (tmp_path / "o").exists()


def test_simulate_override_changes_result(tmp_path, scenario_file):
    path = scenario_file(dissipation_only)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--scenario-path", path, "--output-dir", str(out_a)])
    main(
        [
            "simulate",
            "--scenario-path", path,
            "--output-dir", str(out_b),
            "--override", "beds.gamma=0.2",
        ]
    )
    final = lambda p: float((p / "trace.csv").read_text().strip().split("\n")[-1].split(",")[2])
    assert final(out_a) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert final(out_b) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_simulate_outputs_are_byte_reproducible(tmp_path, scenario_file):
    path = scenario_file(static_crystallizing)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--scenario-path", path, "--output-dir", str(out_a)]) == 0
    assert main(["simulate", "--scenario-path", path, "--output-dir", str(out_b)]) == 0
    for name in ("trace.csv", "summary.json", "ledger.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize(
    "builder, horizon",
    # No observations, so the ledger is its header; samples that stop at
    # the crystallization; and samples over several write blocks.
    [(dissipation_only, None), (static_crystallizing, None), (steady_state, 5000.0)],
)
def test_simulate_streams_csv_files_equal_to_their_text(tmp_path, scenario_file, builder, horizon):
    scenario = builder() if horizon is None else replace(builder(), horizon=horizon)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario-path", scenario_file(lambda: scenario), "--output-dir", str(out)]) == 0
    trace = run(scenario)
    assert (out / "trace.csv").read_bytes() == trace_to_csv(trace).encode()
    assert (out / "ledger.csv").read_bytes() == trace.ledger.to_csv().encode()
    if builder is dissipation_only:
        assert (out / "ledger.csv").read_bytes() == b"time,energy,info_gain,cumulative_energy,sub_landauer\n"
    if builder is static_crystallizing:
        assert trace.outcome.crystallized and trace.samples["t"][-1] < scenario.horizon


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("name", ["trace.csv", "ledger.csv"])
def test_simulate_write_that_fails_mid_stream_exits_1_with_one_line(tmp_path, scenario_file, capsys, name):
    out = tmp_path / "out"
    out.mkdir()
    (out / name).symlink_to("/dev/full")
    path = scenario_file(lambda: replace(steady_state(), horizon=5000.0))
    assert main(["simulate", "--scenario-path", path, "--output-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {name} in {out}: "), lines


# --- simulate: the ledger written in a forked child ------------------------------

on_linux = pytest.mark.skipif(sys.platform != "linux", reason="forks only on Linux")
OUTPUTS = ("trace.csv", "ledger.csv", "summary.json")


@pytest.fixture
def started_children(monkeypatch):
    """The child processes started while the test runs."""

    started = []

    def recording(process):
        started.append(process)
        start(process)

    start = multiprocessing.process.BaseProcess.start
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording)
    return started


@on_linux
def test_simulate_writes_the_same_bytes_with_the_ledger_forked_or_in_process(
    tmp_path, scenario_file, capsys, monkeypatch, started_children
):
    path = scenario_file(steady_state)
    assert len(run(steady_state()).ledger) > _CSV_BLOCK_ROWS
    outputs = {}
    for way in ("forked", "in_process"):
        if way == "in_process":
            monkeypatch.setattr(sys, "platform", "darwin")
        out = tmp_path / way
        assert main(["simulate", "--scenario-path", path, "--output-dir", str(out)]) == 0
        captured = capsys.readouterr()
        outputs[way] = [captured.out, captured.err, *((out / name).read_bytes() for name in OUTPUTS)]
        assert len(started_children) == 1  # by the forked run alone
        assert multiprocessing.active_children() == []
    assert outputs["forked"] == outputs["in_process"]
    assert outputs["forked"][0].encode() == outputs["forked"][-1]


@on_linux
def test_a_ledger_that_cannot_be_written_gives_the_same_line_forked_or_in_process(
    tmp_path, scenario_file, capsys, monkeypatch, started_children
):
    path = scenario_file(steady_state)
    out = tmp_path / "out"
    (out / "ledger.csv").mkdir(parents=True)
    lines = {}
    for way in ("forked", "in_process"):
        if way == "in_process":
            monkeypatch.setattr(sys, "platform", "darwin")
        assert main(["simulate", "--scenario-path", path, "--output-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines[way] = captured.err.splitlines()
        assert len(started_children) == 1
        assert multiprocessing.active_children() == []
    assert lines["forked"] == lines["in_process"]
    assert len(lines["forked"]) == 1 and lines["forked"][0].startswith(f"error: cannot write ledger.csv in {out}: ")


@on_linux
def test_a_ledger_writer_that_dies_exits_1_with_one_line_naming_its_exit_code(
    tmp_path, scenario_file, capsys, monkeypatch
):
    parent = os.getpid()

    def die(ledger, handle=None):
        assert os.getpid() != parent, "the ledger was written in this process"
        os._exit(3)

    monkeypatch.setattr(EnergyLedger, "to_csv", die)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario-path", scenario_file(steady_state), "--output-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write ledger.csv in {out}: "), lines
    assert "exited with code 3" in lines[0]
    assert multiprocessing.active_children() == []


@on_linux
@pytest.mark.parametrize("horizon, rows, children", [(2078.2, 2048, 0), (2078.5, 2049, 1)])
def test_only_a_ledger_of_more_than_one_csv_block_is_written_in_a_child(
    tmp_path, scenario_file, started_children, horizon, rows, children
):
    scenario = replace(steady_state(), horizon=horizon)
    assert _CSV_BLOCK_ROWS == 2048 and len(run(scenario).ledger) == rows
    out = tmp_path / "out"
    assert main(["simulate", "--scenario-path", scenario_file(lambda: scenario), "--output-dir", str(out)]) == 0
    assert len(started_children) == children
    assert (out / "ledger.csv").read_bytes() == run(scenario).ledger.to_csv().encode()
    assert multiprocessing.active_children() == []


def test_beds_seed_env_overrides_scenario_seed(tmp_path, scenario_file, monkeypatch):
    path = scenario_file(static_crystallizing)
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    main(["simulate", "--scenario-path", path, "--output-dir", str(out_a)])
    monkeypatch.setenv("BEDS_SEED", "424242")
    main(["simulate", "--scenario-path", path, "--output-dir", str(out_b)])
    main(["simulate", "--scenario-path", path, "--output-dir", str(out_c)])
    assert (out_b / "trace.csv").read_bytes() == (out_c / "trace.csv").read_bytes()
    assert (out_a / "trace.csv").read_bytes() != (out_b / "trace.csv").read_bytes()


def test_beds_seed_must_be_integer(tmp_path, scenario_file, monkeypatch, capsys):
    # Not an integer, or outside the unsigned 64-bit range: exit 2, one error line.
    path = scenario_file(dissipation_only)
    for value in ["", "abc", "1.5", "-1", str(2**64), "7" * 5000]:
        monkeypatch.setenv("BEDS_SEED", value)
        code = main(["simulate", "--scenario-path", path, "--output-dir", str(tmp_path / "o")])
        assert code == 2, value
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith(("error: BEDS_SEED: ", "error: seed: ")), err
        assert not (tmp_path / "o").exists()


def test_an_interrupted_command_exits_130_with_one_line(capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._COMMANDS, "predict", interrupted)
    assert main(["predict", "--gamma", "1", "--tau-star", "1", "--tau-d", "1"]) == 130
    assert capsys.readouterr() == ("", "error: interrupted\n")


@on_linux
def test_an_interrupt_beside_the_ledger_child_exits_130_with_one_line(
    tmp_path, scenario_file, capsys, monkeypatch, started_children
):
    def interrupted(trace, handle=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "trace_to_csv", interrupted)
    argv = ["simulate", "--scenario-path", scenario_file(steady_state), "--output-dir", str(tmp_path / "o")]
    assert main(argv) == 130
    assert capsys.readouterr() == ("", "error: interrupted\n")
    assert len(started_children) == 1
    assert multiprocessing.active_children() == []


# --- classify -----------------------------------------------------------------------


def test_classify_drifting_scenario(tmp_path, scenario_file, capsys):
    out = tmp_path / "out"
    code = main(
        ["classify", "--scenario-path", scenario_file(drifting_tracking), "--output-dir", str(out)]
    )
    assert code == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["maintainable"] is True
    assert verdict["crystallizable"] is False
    assert "final_kl" in verdict["evidence"]


def test_classify_exits_zero_on_all_false_verdict(tmp_path, scenario_file):
    out = tmp_path / "out"
    code = main(
        [
            "classify",
            "--scenario-path", scenario_file(dissipation_only),
            "--output-dir", str(out),
            "--override", "problem.delta=0.001",
            "--override", "problem.target.target_variance=0.01",
        ]
    )
    assert code == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["attainable"] is False
    assert verdict["maintainable"] is False
    assert verdict["crystallizable"] is False


def test_classify_grades_a_run_that_crystallizes_before_its_first_sample(tmp_path, scenario_file):
    out = tmp_path / "out"
    code = main(
        [
            "classify",
            "--scenario-path", scenario_file(dissipation_only),
            "--output-dir", str(out),
            "--override", "flux_spec.arrival.times=[0.0]",
            "--override", "flux_spec.obs_precision=1e6",
            "--override", "beds.epsilon=1e-3",
        ]
    )
    assert code == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert (verdict["crystallizable"], verdict["attainable"], verdict["maintainable"]) == (True, True, False)
    evidence = verdict["evidence"]
    assert evidence["crystallization_time"] == 0.0
    for name in ("final_kl", "final_windowed_power", "max_kl_after_t0", "max_windowed_power_after_t0"):
        assert evidence[name] is None, name


# --- sweep --------------------------------------------------------------------------


def test_sweep_writes_csv(tmp_path, scenario_file):
    out = tmp_path / "out"
    code = main(
        [
            "sweep",
            "--scenario-path", scenario_file(dissipation_only),
            "--output-dir", str(out),
            "--grid", "beds.gamma=0.1,0.2",
            "--replicates", "5",
        ]
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert lines[0].startswith("beds.gamma,replicate,seed,")
    assert len(lines) == 1 + 10


def test_sweep_unknown_path_exits_2(tmp_path, scenario_file, capsys):
    code = main(
        [
            "sweep",
            "--scenario-path", scenario_file(dissipation_only),
            "--output-dir", str(tmp_path / "o"),
            "--grid", "beds.nope=1,2",
        ]
    )
    assert code == 2
    assert "beds.nope" in capsys.readouterr().err


def test_sweep_bad_grid_value_exits_2(tmp_path, scenario_file, capsys):
    for grid, named in [
        ("beds.gamma=a,b", "beds.gamma"),
        ("horizon=inf", "horizon"),
        ("seed=5,6", "error: seed: "),  # replicate i runs at base.seed + i
    ]:
        code = main(
            [
                "sweep",
                "--scenario-path", scenario_file(dissipation_only),
                "--output-dir", str(tmp_path / "o"),
                "--grid", grid,
            ]
        )
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]


def test_sweep_repeated_grid_path_exits_2_before_building_a_cell(tmp_path, capsys, monkeypatch):
    # A second entry for one path would otherwise overwrite the first in every cell.
    def refuse(*args, **kwargs):
        raise AssertionError("a cell was built")

    monkeypatch.setattr("beds.engine.scenario_from_dict", refuse)
    path = Path(__file__).resolve().parents[1] / "scenarios" / "tracking_sweep_base.json"
    out = tmp_path / "out"
    code = main(
        [
            "sweep",
            "--scenario-path", str(path),
            "--output-dir", str(out),
            "--grid", "beds.gamma=1,2",
            "--grid", "beds.gamma=3",
            "--override", "horizon=2",
        ]
    )
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: beds.gamma: ")
    assert not (out / "sweep.csv").exists()


def test_sweep_over_budget_exits_2_before_running(tmp_path, scenario_file, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("beds.engine.run", refuse)
    code = main(
        [
            "sweep",
            "--scenario-path", scenario_file(drifting_tracking),
            "--output-dir", str(tmp_path / "o"),
            "--grid", "beds.gamma=2",
            "--replicates", "100000000",
        ]
    )
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: replicates: ")


def test_sweep_replicates_below_one_exits_2_with_one_line(tmp_path, scenario_file, capsys):
    for replicates in ("0", "-1"):
        code = main(
            [
                "sweep",
                "--scenario-path", scenario_file(dissipation_only),
                "--output-dir", str(tmp_path / "o"),
                "--grid", "beds.gamma=0.1",
                "--replicates", replicates,
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: replicates: must be >= 1, got {replicates}"]


def test_sweep_seed_column_keeps_integers_past_float_precision(tmp_path, scenario_file):
    # Replicate i runs at base.seed + i, modulo 2**64; a float format would
    # print these seeds as 1.8446744073709552e+19.
    out = tmp_path / "out"
    code = main(
        [
            "sweep",
            "--scenario-path", scenario_file(dissipation_only),
            "--output-dir", str(out),
            "--override", "seed=18446744073709551614",
            "--grid", "horizon=2",
            "--replicates", "3",
        ]
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    seed = lines[0].split(",").index("seed")
    assert [line.split(",")[seed] for line in lines[1:]] == [
        "18446744073709551614",
        "18446744073709551615",
        "0",
    ]


# --- verify -------------------------------------------------------------------------


def test_verify_cli_passes_on_this_build(tmp_path, capsys, monkeypatch, verify_report):
    # The suite runs once per session (the verify_report fixture); the CLI
    # writes and prints that report here.
    seed_bases = []

    def run_all(seed_base):
        seed_bases.append(seed_base)
        return verify_report

    monkeypatch.setattr("beds.cli.verify_mod.run_all", run_all)
    out = tmp_path / "verify"
    code = main(["verify", "--output-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert seed_bases == [verify.DEFAULT_SEED_BASE]
    report = json.loads((out / "verify_report.json").read_text())
    assert report["all_passed"] is True
    names = [check["name"] for check in report["checks"]]
    assert "steady_state_precision_balance" in names
    assert "tracking_rate_sweep" in names
    balance = next(c for c in report["checks"] if c["name"] == "steady_state_precision_balance")
    assert "per_seed_mean_precision" in balance["measured"]
    assert balance["measured"]["per_seed_tolerance"] == 0.05
    sweep_lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert len(sweep_lines) == 1 + 200  # 4 velocities x 5 rates x 10 replicates
    assert captured.out.count("PASS") == len(names)


@pytest.mark.parametrize("seed_base", [-1, 2**64 - 1, verify.MAX_SEED_BASE + 1])
def test_verify_seed_base_out_of_range_exits_2_before_running(tmp_path, capsys, monkeypatch, seed_base):
    def refuse(seed_base):
        raise AssertionError("the suite ran")

    monkeypatch.setattr("beds.cli.verify_mod.run_all", refuse)
    code = main(["verify", "--seed-base", str(seed_base), "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: --seed-base: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# --- argv fuzz ----------------------------------------------------------------------

SHIPPED = sorted(str(p) for p in (Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))
# Numbers stay small, or large enough that the run budget rejects the scenario
# before it runs, so every generated run is short.
NUMBERS = [
    "0.5", "1", "2", "3", "10", "-1", "0", "1e-300", "1e308", "nan", "inf", "-inf",
    "5e-324", "-5e-324", "1e-310", "1.7e308", "1e300", "-1e300",
]
JUNK = ["", "abc", "true", "null", "[1]", "{}", '"x"', "1e999", '"poisson"', '"schedule"', "[0.5,1]"]
PATHS = [
    "horizon", "sample_dt", "seed", "beds.gamma", "beds.epsilon", "beds.initial_belief.precision",
    "flux_spec.arrival.kind", "flux_spec.arrival.rate", "flux_spec.arrival.period",
    "flux_spec.arrival.times", "flux_spec.noise", "flux_spec.obs_precision",
    "energy_model.kind", "energy_model.fixed_cost_value", "problem.t0", "problem.target.kind",
    "problem.target.velocity", "problem.target.target_variance", "problem.target.theta0", "problem.delta",
    "problem.p_max", "energy_model.kBT", "beds.initial_belief.mean", "beds", "beds.nope", "",
]
VALUES = st.sampled_from(NUMBERS * 3 + JUNK)
SEED_BASES = ["-1", "0", "1000", str(verify.MAX_SEED_BASE), str(verify.MAX_SEED_BASE + 1), str(2**64), "x", "1e3"]


@st.composite
def argvs(draw, workdir: Path):
    subcommand = draw(st.sampled_from(["predict", "simulate", "sweep", "classify", "verify"] * 3 + ["nope"]))
    argv = [subcommand]
    if subcommand == "predict":
        for flag in ("--gamma", "--tau-star", "--tau-d", "--kbt", "--lambda-max"):
            if draw(st.integers(0, 9)):
                argv += [flag, draw(VALUES)]
        return argv
    if subcommand != "verify" and draw(st.integers(0, 9)):
        argv += ["--scenario-path", draw(st.sampled_from([*SHIPPED, str(workdir / "missing.json")]))]
    if draw(st.integers(0, 9)):
        # "afile" is a regular file, so writing under it fails.
        argv += ["--output-dir", str(workdir / draw(st.sampled_from(["out", "afile"])))]
    if subcommand == "verify":
        if draw(st.integers(0, 9)):
            argv += ["--seed-base", draw(st.sampled_from(SEED_BASES))]
        return argv
    argv += ["--override", f"horizon={draw(st.sampled_from(['1', '3']))}"]
    for path, value in draw(st.lists(st.tuples(st.sampled_from(PATHS), VALUES), max_size=2)):
        argv += ["--override", f"{path}={value}" if draw(st.integers(0, 9)) else path]
    if subcommand == "sweep":
        for _ in range(draw(st.integers(0, 2))):
            path = draw(st.sampled_from(PATHS))
            values = draw(st.lists(VALUES, min_size=1, max_size=3))
            argv += ["--grid", f"{path}={','.join(values)}" if draw(st.integers(0, 9)) else path]
        if draw(st.booleans()):
            argv += ["--replicates", draw(st.sampled_from(["-1", "0", "1", "2", "x", "100000000"]))]
    return argv


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_cli_argv_exits_0_1_or_2_without_traceback(tmp_path, capsys, monkeypatch, data):
    # verify runs a stub suite: the real one is exercised by test_verify_cli_passes_on_this_build.
    seed_bases = []

    def run_all(seed_base):
        seed_bases.append(seed_base)
        return verify.VerifyReport(checks=[verify.CheckResult("stub", True, False, {})])

    monkeypatch.setattr("beds.cli.verify_mod.run_all", run_all)
    (tmp_path / "afile").write_text("")
    argv = data.draw(argvs(tmp_path), label="argv")
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert all(0 <= seed_base <= verify.MAX_SEED_BASE for seed_base in seed_bases)


# --- extreme values -----------------------------------------------------------------

EXTREMES = ["5e-324", "1e-310", "1e-300", "1e300", "1.7e308", "-1e300", "-5e-324", "0"]
NUMERIC_PATHS = [
    "beds.epsilon", "beds.gamma", "beds.initial_belief.mean", "beds.initial_belief.precision",
    "energy_model.fixed_cost_value", "energy_model.kBT", "flux_spec.arrival.period", "flux_spec.arrival.rate",
    "flux_spec.obs_precision", "horizon", "problem.delta", "problem.p_max", "problem.t0",
    "problem.target.target_variance", "problem.target.theta0", "problem.target.velocity", "sample_dt",
]


def _simulate_at_horizon_3(out: Path, capsys, scenario: str, overrides: list[str]) -> list[str]:
    """The error lines of ``beds simulate`` at horizon 3 with ``overrides``, run with warnings as errors.

    A run that exits 0 has no error lines, and must write only finite trace
    and ledger cells and a summary whose after-burn-in fields are null
    exactly when no sample is past t0.
    """

    shutil.rmtree(out, ignore_errors=True)
    argv = ["simulate", "--scenario-path", scenario, "--output-dir", str(out)]
    for override in ["horizon=3", *overrides]:
        argv += ["--override", override]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    lines = capsys.readouterr().err.splitlines()
    if code == 2:
        assert lines and all(line.startswith("error: ") for line in lines), (argv, lines)
        assert not out.exists(), argv
        return lines
    assert (code, lines) == (0, []), argv
    trace = [line.split(",") for line in (out / "trace.csv").read_text().splitlines()[1:]]
    ledger = [line.split(",") for line in (out / "ledger.csv").read_text().splitlines()[1:]]
    assert all(math.isfinite(float(cell)) for row in trace for cell in row), argv
    assert all(math.isfinite(float(cell)) for row in ledger for cell in row[:-1]), argv
    raw = json.loads(Path(scenario).read_text())
    for override in overrides:
        set_path(raw, *override.split("="))
    past_t0 = any(float(row[0]) > float(raw["problem"]["t0"]) for row in trace)
    summary = json.loads((out / "summary.json").read_text())
    outcome = summary.pop("outcome")
    for name, value in summary.items():
        if name.endswith("_after_t0") and not past_t0:
            assert value is None, (argv, name)
        else:
            assert math.isfinite(value), (argv, name, value)
    crystallized = outcome.pop("crystallized")
    assert all((value is not None) == crystallized for value in outcome.values()), argv
    assert all(math.isfinite(value) for value in outcome.values() if value is not None), argv
    return lines


def test_every_extreme_value_of_a_numeric_field_gives_one_error_line_or_a_finite_run(tmp_path, capsys):
    for scenario in SHIPPED:
        for path in NUMERIC_PATHS:
            for value in EXTREMES:
                lines = _simulate_at_horizon_3(tmp_path / "o", capsys, scenario, [f"{path}={value}"])
                assert len(lines) <= 1, (scenario, path, value, lines)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    scenario=st.sampled_from(SHIPPED),
    paths=st.lists(st.sampled_from(NUMERIC_PATHS), min_size=2, max_size=2, unique=True),
    values=st.lists(st.sampled_from(EXTREMES), min_size=2, max_size=2),
)
def test_two_extreme_values_give_at_most_two_error_lines_or_a_finite_run(
    tmp_path, capsys, scenario, paths, values
):
    overrides = [f"{path}={value}" for path, value in zip(paths, values)]
    assert len(_simulate_at_horizon_3(tmp_path / "o", capsys, scenario, overrides)) <= 2
