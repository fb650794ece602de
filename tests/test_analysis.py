import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beds
from beds.analysis import (
    classify_run,
    kl_gaussian,
    optimal_obs_precision,
    p_min_exact,
    p_min_linear,
    required_rate,
    steady_state_prediction,
)
from beds.core import EmptyTrace, GaussianBelief, NonPositiveParameter
from beds.dynamics import CrystallizationOutcome
from beds.energy import EnergyLedger, info_gain, landauer_min_energy
from beds.engine import RunTrace, _SAMPLE_DTYPE
from beds.scenarios import dissipation_only, drifting_tracking, static_crystallizing, steady_state

positive = st.floats(min_value=1e-3, max_value=1e3)


def balance_rate_by_bisection(gamma: float, tau_star: float, tau_d: float) -> float:
    """Oracle: root of the precision flow balance, rate * tau_d - gamma * tau_star."""

    lo, hi = 0.0, 1.0
    while hi * tau_d - gamma * tau_star < 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * tau_d - gamma * tau_star < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- closed forms ---------------------------------------------------------------


@pytest.mark.parametrize(
    "gamma, tau_star, tau_d, expected",
    [(0.1, 100.0, 10.0, 1.0), (1.0, 1.0, 1.0, 1.0), (2.0, 50.0, 5.0, 20.0)],
)
def test_required_rate_values(gamma, tau_star, tau_d, expected):
    got = required_rate(gamma, tau_star, tau_d)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(balance_rate_by_bisection(gamma, tau_star, tau_d), rel=1e-9)


def test_required_rate_rejects_non_positive():
    with pytest.raises(NonPositiveParameter):
        required_rate(0.0, 1.0, 1.0)
    with pytest.raises(NonPositiveParameter):
        required_rate(1.0, -1.0, 1.0)


def test_p_min_exact_values():
    assert p_min_exact(1.0, 100.0, 1.0, 1.0) == pytest.approx(100.0 * 0.5 * math.log(1.01), rel=1e-12)
    assert p_min_exact(1.0, 100.0, 1.0, 1.0) == pytest.approx(0.497517, rel=1e-5)
    assert p_min_exact(1.0, 1.0, 1.0, 1.0) == pytest.approx(0.5 * math.log(2.0), rel=1e-12)


@given(gamma=positive, tau_star=positive, tau_d=positive, kbt=positive)
@settings(max_examples=300)
def test_p_min_exact_is_linear_in_gamma(gamma, tau_star, tau_d, kbt):
    assert p_min_exact(2.0 * gamma, tau_star, tau_d, kbt) == pytest.approx(
        2.0 * p_min_exact(gamma, tau_star, tau_d, kbt), rel=1e-12
    )


def test_p_min_linear_values():
    assert p_min_linear(1.0, 1.0) == 0.5
    assert p_min_linear(0.2, 1.0) == pytest.approx(0.1, rel=1e-12)


def test_p_min_exact_approaches_linear_constant():
    ratio = p_min_exact(1.0, 1e6, 1.0, 1.0) / p_min_linear(1.0, 1.0)
    assert 1.0 - 1e-6 <= ratio <= 1.0


@given(gamma=positive, tau_star=positive, tau_d=positive, kbt=positive)
@settings(max_examples=500)
def test_factorization_identity(gamma, tau_star, tau_d, kbt):
    composed = required_rate(gamma, tau_star, tau_d) * landauer_min_energy(
        info_gain(tau_star, tau_d), kbt
    )
    assert p_min_exact(gamma, tau_star, tau_d, kbt) == pytest.approx(composed, rel=1e-12)


@given(gamma=positive, tau_star=positive, tau_d=positive, kbt=positive)
def test_exact_power_never_exceeds_linear_constant(gamma, tau_star, tau_d, kbt):
    assert p_min_exact(gamma, tau_star, tau_d, kbt) <= p_min_linear(gamma, kbt)


def test_exact_to_linear_ratio_tight_for_small_observations():
    # ln(1+x)/x >= 1 - x/2 keeps the ratio above 0.999 once x <= 2e-3.
    for tau_ratio in (2e-3, 1e-3, 1e-4):
        ratio = p_min_exact(1.0, 1.0 / tau_ratio, 1.0, 1.0) / p_min_linear(1.0, 1.0)
        assert ratio >= 0.999


def test_optimal_obs_precision_values():
    assert optimal_obs_precision(0.1, 100.0, 10.0) == pytest.approx(1.0, rel=1e-12)
    assert optimal_obs_precision(1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_optimal_obs_precision_grid_search_oracle():
    # Cheapest feasible observation precision at the budget rate, found by
    # brute force over a tau_d grid at resolution 1e-4.
    gamma, tau_star, lambda_max = 0.1, 100.0, 10.0
    grid = np.arange(1e-4, 5.0, 1e-4)
    feasible = grid[gamma * tau_star / grid <= lambda_max]
    per_obs_energy = 0.5 * np.log1p(feasible / tau_star)
    best = feasible[np.argmin(lambda_max * per_obs_energy)]
    claimed = optimal_obs_precision(gamma, tau_star, lambda_max)
    assert abs(best - claimed) <= 1e-4
    assert claimed == pytest.approx(1.0, rel=1e-12)


@given(gamma=positive, tau_star=positive, lambda_max=positive)
def test_optimal_obs_precision_round_trips_with_required_rate(gamma, tau_star, lambda_max):
    tau_d = optimal_obs_precision(gamma, tau_star, lambda_max)
    assert required_rate(gamma, tau_star, tau_d) == pytest.approx(lambda_max, rel=1e-12)


def test_steady_state_prediction_bundle():
    prediction = steady_state_prediction(0.1, 100.0, 10.0, 1.0)
    assert prediction.lambda_required == pytest.approx(1.0, rel=1e-12)
    assert prediction.p_min_exact == pytest.approx(
        prediction.lambda_required * prediction.e_obs_min, rel=1e-12
    )
    assert prediction.p_min_exact <= prediction.p_min_linear


def test_fixed_cost_power_scales_linearly_with_precision():
    # With a flat per-observation cost, predicted power is rate times cost:
    # doubling the held precision doubles it, quartering the held variance
    # quadruples it.
    gamma, tau_d, cost = 0.3, 2.0, 1.7
    power = {tau: required_rate(gamma, tau, tau_d) * cost for tau in (25.0, 50.0, 100.0)}
    assert power[50.0] / power[25.0] == pytest.approx(2.0, rel=1e-12)
    assert power[100.0] / power[25.0] == pytest.approx(4.0, rel=1e-12)


# --- KL divergence ----------------------------------------------------------------


def kl_by_monte_carlo(q: GaussianBelief, p: GaussianBelief, n: int = 10_000_000) -> float:
    rng = np.random.Generator(np.random.PCG64(20260808))
    x = rng.normal(q.mean, math.sqrt(1.0 / q.precision), size=n)
    log_q = -0.5 * np.log(2 * np.pi / q.precision) - 0.5 * q.precision * (x - q.mean) ** 2
    log_p = -0.5 * np.log(2 * np.pi / p.precision) - 0.5 * p.precision * (x - p.mean) ** 2
    return float(np.mean(log_q - log_p))


def test_kl_identical_beliefs_is_zero():
    assert kl_gaussian(1.2, 3.4, 1.2, 3.4) == 0.0


def test_kl_mean_shift_case():
    q, p = GaussianBelief(1.0, 1.0), GaussianBelief(0.0, 1.0)
    assert kl_gaussian(q.mean, q.precision, p.mean, p.precision) == pytest.approx(0.5, rel=1e-12)
    assert kl_gaussian(q.mean, q.precision, p.mean, p.precision) == pytest.approx(
        kl_by_monte_carlo(q, p), abs=1e-3
    )


def test_kl_variance_mismatch_case():
    q, p = GaussianBelief(0.0, 1.0), GaussianBelief(0.0, 0.25)
    expected = math.log(2.0) + 0.125 - 0.5
    value = kl_gaussian(q.mean, q.precision, p.mean, p.precision)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(0.318147, rel=1e-5)
    assert value == pytest.approx(kl_by_monte_carlo(q, p), abs=1e-3)


@given(
    mq=st.floats(min_value=-50, max_value=50), tq=positive,
    mp=st.floats(min_value=-50, max_value=50), tp=positive,
)
@settings(max_examples=500)
def test_kl_non_negative_with_equality_only_at_identity(mq, tq, mp, tp):
    value = kl_gaussian(mq, tq, mp, tp)
    assert value >= -1e-12  # rounding can dip a hair below zero for near-equal pairs
    clearly_distinct = abs(mq - mp) > 1e-6 or abs(tq - tp) / max(tq, tp) > 1e-6
    if clearly_distinct:
        assert value > 0.0


# --- classifier --------------------------------------------------------------------


def test_classifier_static_crystallizing_scenario():
    scenario = static_crystallizing()
    verdict = classify_run(beds.run(scenario), scenario.problem)
    assert verdict.crystallizable
    assert verdict.attainable


def test_classifier_drifting_scenario_is_maintainable_only():
    scenario = drifting_tracking()
    verdict = classify_run(beds.run(scenario), scenario.problem)
    assert verdict.maintainable
    assert not verdict.crystallizable
    assert verdict.evidence.max_kl_after_t0 < scenario.problem.delta


def test_classifier_with_no_sample_after_t0_is_not_maintainable():
    # steady_state burns in until t0 = 1000, past this horizon.
    scenario = replace(steady_state(), horizon=200.0)
    verdict = classify_run(beds.run(scenario), scenario.problem)
    assert not verdict.maintainable
    assert math.isnan(verdict.evidence.max_kl_after_t0)
    assert math.isnan(verdict.evidence.max_windowed_power_after_t0)


def test_classifier_starved_flux_fails_everything():
    scenario = dissipation_only()
    # Tight accuracy: the belief drifts wide while the target stays sharp.
    problem = beds.core.ProblemSpec(
        target=beds.core.TargetSpec(kind="static", theta0=0.0, velocity=0.0, target_variance=0.01),
        delta=0.01,
        p_max=1.0,
        t0=1.0,
    )
    trace = beds.run(scenario)
    # Rebuild the sample KL against the tighter target by reclassifying a
    # rerun with the tight problem embedded in the scenario.
    tight = beds.scenario_from_dict(
        {**beds.scenario_to_dict(scenario), "problem": {
            "target": {"kind": "static", "theta0": 0.0, "velocity": 0.0, "target_variance": 0.01},
            "delta": 0.01, "p_max": 1.0, "t0": 1.0}}
    )
    verdict = classify_run(beds.run(tight), tight.problem)
    assert not verdict.attainable
    assert not verdict.maintainable
    assert not verdict.crystallizable


def test_classifier_never_emits_crystallizable_without_attainable():
    # Structural: attainable is defined as crystallizable or a terminal condition.
    scenario = static_crystallizing()
    verdict = classify_run(beds.run(scenario), scenario.problem)
    assert not (verdict.crystallizable and not verdict.attainable)


def test_classifier_rejects_empty_trace():
    trace = RunTrace(
        samples=np.zeros(0, dtype=_SAMPLE_DTYPE),
        events=[],
        outcome=CrystallizationOutcome(crystallized=False),
        ledger=EnergyLedger(),
        summary=beds.engine.Summary(math.nan, math.nan, math.nan, 0, 0.0, 0.0),
        power_window=0.1,
    )
    problem = dissipation_only().problem
    with pytest.raises(EmptyTrace):
        classify_run(trace, problem)


def test_verdict_serializes_to_plain_dict():
    scenario = drifting_tracking()
    verdict = classify_run(beds.run(scenario), scenario.problem)
    payload = asdict(verdict)
    assert set(payload) == {"attainable", "maintainable", "crystallizable", "evidence"}
    assert isinstance(payload["evidence"], dict)
    assert isinstance(payload["evidence"]["final_kl"], float)
