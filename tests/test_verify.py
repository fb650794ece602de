"""How run_all assembles the report from the checks, and the merge-order oracle against its scalar draws."""

import numpy as np
import pytest

from beds import verify


def test_run_all_runs_module_bindings_and_reports_a_raising_check_as_failed(monkeypatch):
    for name in dir(verify):
        if name.startswith("check_"):
            monkeypatch.setattr(verify, name, lambda *args: (True, {"stub": True}))
    monkeypatch.setattr(verify, "check_tracking_sweep", lambda seed_base: (False, {}, "table"))

    def boom(seed_base):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "check_quadrupling_law", boom)
    report = verify.run_all()
    assert [(c.name, c.passed, c.exploratory) for c in report.checks] == [
        ("steady_state_precision_balance", True, False),
        ("linear_regime_constant", True, False),
        ("power_bound_factorization", True, False),
        ("quadrupling_law", False, False),
        ("class_hierarchy", True, False),
        ("landauer_ledger_consistency", True, False),
        ("dynamics_oracles", True, False),
        ("optimal_observation_precision", True, False),
        ("tracking_rate_sweep", False, True),
    ]
    assert report.checks[3].measured == {"error": "RuntimeError: boom"}
    assert report.checks[0].measured == {"stub": True}
    assert report.tracking_table == "table"
    assert not report.all_passed


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


@pytest.mark.parametrize("seed", [0, 600, 2**63 + 1])
def test_merge_order_columns_equal_the_scalar_folds(seed):
    for buffered in (False, True):
        columns, scalar = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
        if buffered:
            # A 32-bit draw leaves the high half of its word buffered for the next one.
            for rng in (columns, scalar):
                rng.integers(0, 3)
            assert columns.bit_generator.state["has_uint32"] == 1
        assert verify._max_rel_merge_order(columns, 2_000) == _scalar_merge_order(scalar, 2_000)
        # Both leave the stream at the same place, buffered half included.
        assert columns.bit_generator.state == scalar.bit_generator.state


def test_merge_order_at_the_default_seed_base_keeps_its_pinned_value():
    bitgen = np.random.PCG64(verify.DEFAULT_SEED_BASE + 600)
    # check_dynamics_oracles' draws before it: 200 RK4 and 80 grid-Bayes
    # uniforms and 10,000 x 5 semigroup ones, one word each.
    bitgen.advance(200 + 80 + 50_000)
    assert verify._max_rel_merge_order(np.random.Generator(bitgen), 10_000) == 4.863209252068563e-16


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM, np.random.Philox])
def test_merge_order_needs_a_pcg64_stream(bit_generator):
    with pytest.raises(TypeError, match="PCG64"):
        verify._max_rel_merge_order(np.random.Generator(bit_generator(0)), 10)


def test_verify_makes_432_runs_of_331344_events(verify_run_counts):
    # Each sweep row is one run too. A benchmark that divides verify's wall
    # time into runs and events per second reads these counts.
    assert verify_run_counts == {"runs": 432, "events": 331_344}
