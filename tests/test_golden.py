"""Golden outputs: SHA-256 pins of what the CLI writes for the shipped scenarios.

A change that means to keep behaviour must leave these hashes untouched. A
deliberate change to the numbers or the file formats re-pins them and says
why in the same change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from beds.cli import main
from beds.core import scenario_from_json
from beds.fluxgen import flux_to_csv, generate_flux
from beds.io import json_dumps

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "dissipation_only": {
        "trace.csv": "8050aba507649ab85131ee3bc333dbb076d2b0083fad6c195f23f012beb233d2",
        "ledger.csv": "4d1a7d7069fb156419a455d3e41c3d55c9e719fd2813649d97b3131fe9410cf1",
        "summary.json": "801c3bc62739b625013047e73ecba0659844dfd094978091002f24574a11d880",
        "verdict.json": "7956c7dff2f90f87c6695d7f236f06865680020ef578ee08aa57a82318640336",
    },
    "drifting_tracking": {
        "trace.csv": "f1cff8185e459ceada3cb59e94e655deb2e3391b5a4134ff050e872fc511d09e",
        "ledger.csv": "e306e5712d73ac3332f6b340f885d02cd72ed266a2cac67eb2445b65e54304e1",
        "summary.json": "258ed4e017821da1b1a92a5dec48409316103179b75d934f356d7b3b418dbce8",
        "verdict.json": "7b6dd641835e6778c495fb79c401d870d47e2966c24bbe8c5211cb8fbb9845d5",
    },
    "static_crystallizing": {
        "trace.csv": "745481efd688e385d2f0528930307d9f8aac63f3c4195d05d57737d2a158641b",
        "ledger.csv": "e19afa8c06ec2ad5af72cb3332452db728b8be716947d61e67c5c9d8af5f3546",
        "summary.json": "eb57e73fdf3c6e6f1ab78f39f77b7f64d2d2026a4d21c6e9b692fc3f4207ee4c",
        "verdict.json": "173310cb430b47ed22d8855b91838698ad368bb92a9df723c01a4ad6b4a1b756",
    },
    "steady_state": {
        "trace.csv": "888598af50026ae35370df18922688e41171ac338e5f11ecd867cf14c9ebf579",
        "ledger.csv": "9c5e12d435e0fb39b1ad90e19306fc97f19ced8e71041248cb4036a7663895db",
        "summary.json": "472f6021a60ff4110368d56160abc579f2227198561b2e8c69b24f04639799ec",
        "verdict.json": "c26bf9015566edd2accf7bcb18442c0905225e6254c64ef978bee507e5613f40",
    },
    "tracking_sweep_base": {
        "trace.csv": "2de190e06bbaa3525137cde7b927159ac175b2434d52e82ba8823b82a66bfe20",
        "ledger.csv": "5a463226eb1b68ede7bc5f60c9850fb70b7631c0c9ce845cb17e4e3069c1cb94",
        "summary.json": "94f2b01006bc18692d11f47a11a05f29437cd7a25f9007f0d39a3aff41694feb",
        "verdict.json": "93483faa7a8aa568a7c38ef52dd6b73e006005e94a0d4f9755cf7153f72a90d5",
    },
}
GOLDEN_SWEEP = "6565bbe394dcb713cf15a3779085315fbb481a779c7cec1094c430e0b4b3ab95"
# One `beds sweep` per arrival kind and noise kind, each over two
# obs_precision values with three replicates.
GOLDEN_MIXED_SWEEPS = {
    "periodic-exact": "c6ed4572d108c726740809a980a13c12dfcf0a390f1fc13e1817d7109e742c1d",
    "periodic-noisy": "d97d8b5bb4a1fa50400af4f0976aafc3f96278cad8186f720657beadd6ba20af",
    "poisson-exact": "254b972e69318c3f93fb8952915c33f7129d77f9591195e7d7132929af87fbf1",
    "poisson-noisy": "04ec635883088896418a7cb557a064d39262eccbace46c89239683717206698d",
    "schedule-exact": "e00963e62953958f8359c633cadd7af4ae5ed04bfad55c966800bfb6d32b5abd",
    "schedule-noisy": "3228071eba6089b4f28a29a456254bb076d03d2b8fac1a0b565d761c4f25aa9f",
}
GOLDEN_FLUX = "5dcf7e9bec5589aa7c4cc6317cc0ec7c9015333db39f83a4de913451330dc539"
# What `beds verify` writes at the default seed base: verify_report.json and
# the tracking sweep's sweep.csv.
GOLDEN_VERIFY_REPORT = "ae0c6bf8222508b919c53e12c33d0b4e192c89eba8b9124065107e412b43d391"
GOLDEN_VERIFY_SWEEP = "00b4dc32d05cb9c9a4eb6caaf78fda55f9ca51b92f961d0b26cf96c8f93e35db"
# The same two files at two more seed bases.
GOLDEN_VERIFY_AT_SEED_BASE = {
    0: {
        "verify_report.json": "0f976d84f65367edde0cf3c6dfdd92f5bc409e5bd4dcd86d5de34b84395425df",
        "sweep.csv": "c5a24f01f3e423a772f377df2448b7217639d0f51409e2788233a9e64045ff9f",
    },
    77777: {
        "verify_report.json": "f7f7f9b94a9c9469366139bb76ab0d803febd3ba7eb314e0866b4081f4df6ab4",
        "sweep.csv": "045db461d3baca330e5009e1f8d220e022d2e4f256b5bb96ecaeb76a75a65bf8",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(autouse=True)
def _shipped_seeds_only(monkeypatch):
    monkeypatch.delenv("BEDS_SEED", raising=False)


def test_golden_set_covers_every_shipped_scenario():
    assert sorted(GOLDEN) == sorted(p.stem for p in SCENARIOS.glob("*.json"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_and_classify_outputs_match_golden(name, tmp_path, capsys):
    scenario = str(SCENARIOS / f"{name}.json")
    assert main(["simulate", "--scenario-path", scenario, "--output-dir", str(tmp_path)]) == 0
    assert main(["classify", "--scenario-path", scenario, "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    actual = {file: _sha256((tmp_path / file).read_bytes()) for file in GOLDEN[name]}
    assert actual == GOLDEN[name]


def test_sweep_output_matches_golden(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--scenario-path", str(SCENARIOS / "tracking_sweep_base.json"),
            "--output-dir", str(tmp_path),
            "--grid", "problem.target.velocity=0,1",
            "--grid", "flux_spec.arrival.period=0.5,0.25",
            "--replicates", "2",
            "--override", "horizon=10",
        ]
    )
    capsys.readouterr()
    assert code == 0
    assert _sha256((tmp_path / "sweep.csv").read_bytes()) == GOLDEN_SWEEP


MIXED_ARRIVALS = {
    "periodic": ('{"kind": "periodic", "period": 0.25}', ["--grid", "flux_spec.arrival.period=0.5,0.25"]),
    "schedule": (
        '{"kind": "schedule", "times": [0.5, 1.0, 1.0, 2.25, 3.5, 4.75, 6.0]}',
        ["--grid", "problem.target.velocity=0,1"],
    ),
    "poisson": ('{"kind": "poisson", "rate": 8.0}', ["--grid", "flux_spec.arrival.rate=4,8"]),
}


@pytest.mark.parametrize("arrival", sorted(MIXED_ARRIVALS))
@pytest.mark.parametrize("noise", ["exact", "noisy"])
def test_sweep_of_each_arrival_and_noise_kind_matches_golden(arrival, noise, tmp_path, capsys):
    spec, grid = MIXED_ARRIVALS[arrival]
    code = main(
        [
            "sweep",
            "--scenario-path", str(SCENARIOS / "tracking_sweep_base.json"),
            "--output-dir", str(tmp_path),
            *grid,
            "--grid", "flux_spec.obs_precision=4,16",
            "--replicates", "3",
            "--override", "horizon=5",
            "--override", "problem.t0=1",
            "--override", f"flux_spec.arrival={spec}",
            "--override", f"flux_spec.noise={noise}",
        ]
    )
    capsys.readouterr()
    assert code == 0
    assert _sha256((tmp_path / "sweep.csv").read_bytes()) == GOLDEN_MIXED_SWEEPS[f"{arrival}-{noise}"]


def test_flux_csv_matches_golden():
    scenario = scenario_from_json((SCENARIOS / "static_crystallizing.json").read_text())
    flux = generate_flux(scenario.flux_spec, scenario.problem.target, scenario.horizon, scenario.seed)
    assert _sha256(flux_to_csv(flux).encode("utf-8")) == GOLDEN_FLUX


def test_verify_outputs_match_golden(verify_report):
    assert _sha256(json_dumps(verify_report.to_dict()).encode("utf-8")) == GOLDEN_VERIFY_REPORT
    assert _sha256(verify_report.tracking_table.to_csv().encode("utf-8")) == GOLDEN_VERIFY_SWEEP


def test_verify_pins_equal_the_benchmarks_verify_suite_pins():
    # Both pin the default-seed `beds verify`, so a re-pin moves both.
    pins = json.loads((SCENARIOS.parent / "bench" / "pins.json").read_text())["verify_suite"]
    for size in ("full/default", "tiny/default"):
        assert pins[size] == {"verify_report.json": GOLDEN_VERIFY_REPORT, "sweep.csv": GOLDEN_VERIFY_SWEEP}, size


@pytest.mark.parametrize("seed_base", sorted(GOLDEN_VERIFY_AT_SEED_BASE))
def test_verify_outputs_at_other_seed_bases_match_golden(tmp_path, capsys, seed_base):
    assert main(["verify", "--seed-base", str(seed_base), "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    golden = GOLDEN_VERIFY_AT_SEED_BASE[seed_base]
    assert {name: _sha256((tmp_path / name).read_bytes()) for name in golden} == golden
