import json
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beds import verify
from beds.cli import main
from beds.core import scenario_to_json
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
NUMBERS = ["0.5", "1", "2", "3", "10", "-1", "0", "1e-300", "1e308", "nan", "inf", "-inf"]
JUNK = ["", "abc", "true", "null", "[1]", "{}", '"x"', "1e999", '"poisson"', '"schedule"', "[0.5,1]"]
PATHS = [
    "horizon", "sample_dt", "seed", "beds.gamma", "beds.epsilon", "beds.initial_belief.precision",
    "flux_spec.arrival.kind", "flux_spec.arrival.rate", "flux_spec.arrival.period",
    "flux_spec.arrival.times", "flux_spec.noise", "flux_spec.obs_precision",
    "energy_model.kind", "energy_model.fixed_cost_value", "problem.t0", "problem.target.kind",
    "problem.target.velocity", "beds", "beds.nope", "",
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
