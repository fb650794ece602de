"""How run_all assembles the report from the checks, with every check stubbed out."""

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
