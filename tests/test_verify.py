"""How run_all assembles the report from the checks, and the merge-order oracle against its scalar draws."""

import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from beds import engine, verify
from beds.scenarios import steady_state

CHECK_NAMES = [
    "steady_state_precision_balance",
    "linear_regime_constant",
    "power_bound_factorization",
    "quadrupling_law",
    "class_hierarchy",
    "landauer_ledger_consistency",
    "dynamics_oracles",
    "optimal_observation_precision",
    "tracking_rate_sweep",
]
ORACLE_NAMES = [
    "linear_regime_constant",
    "power_bound_factorization",
    "dynamics_oracles",
    "optimal_observation_precision",
]


def test_run_all_runs_module_bindings_and_reports_a_raising_check_as_failed(monkeypatch):
    for name in dir(verify):
        if name.startswith("check_"):
            monkeypatch.setattr(verify, name, lambda *args: (True, {"stub": True}))
    monkeypatch.setattr(verify, "check_tracking_sweep", lambda seed_base: (False, {}, "table"))

    def boom(seed_base):
        raise RuntimeError("boom")

    # One simulating check, and one that runs in the forked child on Linux.
    monkeypatch.setattr(verify, "check_quadrupling_law", boom)
    monkeypatch.setattr(verify, "check_dynamics_oracles", boom)
    report = verify.run_all()
    assert [(c.name, c.passed, c.exploratory) for c in report.checks] == [
        ("steady_state_precision_balance", True, False),
        ("linear_regime_constant", True, False),
        ("power_bound_factorization", True, False),
        ("quadrupling_law", False, False),
        ("class_hierarchy", True, False),
        ("landauer_ledger_consistency", True, False),
        ("dynamics_oracles", False, False),
        ("optimal_observation_precision", True, False),
        ("tracking_rate_sweep", False, True),
    ]
    assert report.checks[3].measured == report.checks[6].measured == {"error": "RuntimeError: boom"}
    assert report.checks[0].measured == report.checks[7].measured == {"stub": True}
    assert report.tracking_table == "table"
    assert not report.all_passed
    assert multiprocessing.active_children() == []


def _stub_checks(monkeypatch, calls=None, **stubs):
    """Replace every check on the module; a check not named in ``stubs`` passes and records its name."""

    def stub(name):
        def check(*args):
            if calls is not None:
                calls.append(name)
            return (True, {"stub": True}, None) if name == "check_tracking_sweep" else (True, {"stub": True})

        return check

    for name in dir(verify):
        if name.startswith("check_"):
            monkeypatch.setattr(verify, name, stubs.get(name, stub(name)))


def _boom(*args):
    raise RuntimeError("boom")


def test_a_child_that_dies_before_sending_fails_every_oracle_check_with_its_exit_code(monkeypatch):
    _stub_checks(monkeypatch, check_linear_regime=lambda: os._exit(3))
    report = verify.run_all()
    assert [c.name for c in report.checks] == CHECK_NAMES
    for check in report.checks:
        if check.name in ORACLE_NAMES:
            assert not check.passed
            assert "exited with code 3" in check.measured["error"]
        else:
            assert check.passed and check.measured == {"stub": True}
    assert multiprocessing.active_children() == []


def test_an_interrupt_kills_and_joins_a_child_that_is_still_running(monkeypatch):
    def interrupt(seed_base):
        raise KeyboardInterrupt

    _stub_checks(
        monkeypatch,
        check_linear_regime=lambda: time.sleep(60),
        check_steady_state_balance=interrupt,
    )
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        verify.run_all()
    assert multiprocessing.active_children() == []
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize("fork_unsafe_because", ["not_linux", "another_thread_runs"])
def test_where_fork_is_unsafe_the_oracle_checks_run_in_process_after_the_simulating_ones(
    monkeypatch, fork_unsafe_because
):
    calls = []
    _stub_checks(monkeypatch, calls, check_dynamics_oracles=_boom)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    if fork_unsafe_because == "not_linux":
        monkeypatch.setattr(sys, "platform", "darwin")
    else:
        waiter.start()
    try:
        report = verify.run_all()
    finally:
        release.set()
        if waiter.ident is not None:
            waiter.join(timeout=10)
    assert calls == [
        "check_steady_state_balance",
        "check_quadrupling_law",
        "check_class_hierarchy",
        "check_landauer_ledger",
        "check_tracking_sweep",
        "check_linear_regime",
        "check_power_bound_factorization",
        "check_optimal_obs_precision",
    ]
    assert [c.name for c in report.checks] == CHECK_NAMES
    assert report.checks[6].measured == {"error": "RuntimeError: boom"}
    assert [c.passed for c in report.checks] == [name != "dynamics_oracles" for name in CHECK_NAMES]


def test_only_the_checks_marked_as_simulating_call_run_or_sweep(monkeypatch):
    # On Linux the unmarked checks run in a forked child, where a run they
    # made would escape every count kept by wrapping engine.run.
    def refuse(*args, **kwargs):
        raise AssertionError("the engine was called")

    for module in (engine, verify):
        monkeypatch.setattr(module, "run", refuse)
        monkeypatch.setattr(module, "sweep", refuse)
    rows = verify._checks(verify.DEFAULT_SEED_BASE, verify.VerifyReport())
    assert [name for name, *_ in rows] == CHECK_NAMES
    assert [name for name, _, simulates, _ in rows if not simulates] == ORACLE_NAMES
    for name, _, simulates, call in rows:
        if simulates:
            with pytest.raises(AssertionError, match="the engine was called"):
                call()
        else:
            passed, measured = call()
            assert passed, (name, measured)


def _premise_scenarios():
    # The scenarios, or draws like them, of the three checks that run with exact observations.
    yield from (steady_state(gamma=0.1, tau_star=100.0, tau_d=10.0, seed=seed) for seed in (0, 1000, 77777))
    yield from (verify._fixed_cost_balance_scenario(tau_star, 1100) for tau_star in (25.0, 100.0))
    # check_landauer_ledger's stream at the default seed base.
    rng = np.random.Generator(np.random.PCG64(verify.DEFAULT_SEED_BASE + 500))
    yield from (verify._random_scenario(rng, force_landauer=True) for _ in range(20))


def test_exact_observations_leave_every_value_the_precision_only_checks_read():
    noisy_count = 0
    for scenario in _premise_scenarios():
        noisy, exact = engine.run(scenario), engine.run(verify._exact(scenario))
        if scenario.flux_spec.noise == "noisy" and len(noisy.events):
            # The noise was drawn, and moved the means.
            noisy_count += 1
            assert noisy.events["mean_after"].tolist() != exact.events["mean_after"].tolist()
        for name in ("times", "energies", "infos", "cumulative"):
            assert getattr(noisy.ledger, name).tolist() == getattr(exact.ledger, name).tolist(), (scenario, name)
        for name in ("precision_before", "precision_after"):
            assert noisy.events[name].tolist() == exact.events[name].tolist(), (scenario, name)
        for name in (
            "mean_precision_after_t0",
            "mean_windowed_power_after_t0",
            "observation_count",
            "total_energy",
            "total_info",
        ):
            assert getattr(noisy.summary, name) == getattr(exact.summary, name), (scenario, name)
    # The steady-state and fixed-cost scenarios are noisy, and so are most random draws.
    assert noisy_count >= 5 + 10, noisy_count


def _scalar_merge_order(rng, trials):
    # The merge-order sub-check one trial and one bayes_update at a time.
    from beds.dynamics import bayes_update

    worst = 0.0
    log_lo, log_hi = np.log(1e-2), np.log(1e2)
    for _ in range(trials):
        mean = float(rng.uniform(-5, 5))
        precision = float(np.exp(rng.uniform(log_lo, log_hi)))
        k = int(rng.integers(2, 7))
        taus = np.exp(rng.uniform(log_lo, log_hi, size=k))
        values = rng.uniform(-5, 5, size=k)
        order = rng.permutation(k)
        forward = shuffled = (mean, precision)
        for i in range(k):
            forward = bayes_update(*forward, float(values[i]), float(taus[i]))
        for i in order:
            shuffled = bayes_update(*shuffled, float(values[i]), float(taus[i]))
        expected = precision + float(taus.sum())
        worst = max(worst, abs(forward[1] - expected) / expected, abs(shuffled[1] - expected) / expected)
    return worst


@pytest.mark.parametrize(
    ("bit_generator", "seed"),
    [
        # PCG64, the stream verify draws from, keeps the bare seed as its id.
        pytest.param(bit_generator, seed, id=f"{prefix}{seed}")
        for bit_generator, prefix in ((np.random.PCG64, ""), (np.random.Philox, "Philox-"))
        for seed in (0, 600, 2**63 + 1)
    ],
)
def test_merge_order_columns_equal_the_scalar_folds(bit_generator, seed):
    for buffered in (False, True):
        columns, scalar = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        if buffered:
            # A 32-bit draw leaves the high half of its word buffered for the next one.
            for rng in (columns, scalar):
                rng.integers(0, 3)
            assert columns.bit_generator.state["has_uint32"] == 1
        assert verify._max_rel_merge_order(columns, 2_000) == _scalar_merge_order(scalar, 2_000)
        # Both leave the stream at the same place, buffered half included.
        np.testing.assert_equal(columns.bit_generator.state, scalar.bit_generator.state)


def test_merge_order_at_the_default_seed_base_keeps_its_pinned_value():
    bitgen = np.random.PCG64(verify.DEFAULT_SEED_BASE + 600)
    # check_dynamics_oracles' draws before it: 200 RK4 and 80 grid-Bayes
    # uniforms and 10,000 x 5 semigroup ones, one word each.
    bitgen.advance(200 + 80 + 50_000)
    assert verify._max_rel_merge_order(np.random.Generator(bitgen), 10_000) == 4.863209252068563e-16


def test_verify_makes_432_runs_of_331344_events(verify_run_counts):
    # Each sweep row is one run too. A benchmark that divides verify's wall
    # time into runs and events per second reads these counts.
    assert verify_run_counts == {"runs": 432, "events": 331_344}
