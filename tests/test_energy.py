import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from beds.core import (
    EnergyModel,
    NonMonotonicTime,
    NonPositivePrecision,
    PoissonArrival,
    FluxSpec,
    TargetSpec,
)
from beds.energy import (
    EnergyLedger,
    gaussian_entropy,
    info_gain,
    landauer_min_energy,
    observation_cost,
    observation_costs,
)
from beds.fluxgen import generate_flux
from ledger_oracles import windowed_power

precisions = st.floats(min_value=1e-6, max_value=1e6)


def entropy_by_quadrature(precision: float, mean: float = 0.0) -> float:
    """Independent oracle: -integral of q ln q over [mean - 8 sigma, mean + 8 sigma]."""

    sigma = 1.0 / math.sqrt(precision)

    def integrand(x: float) -> float:
        density = math.exp(-0.5 * ((x - mean) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        return -density * math.log(density) if density > 0 else 0.0

    value, _ = quad(integrand, mean - 8.0 * sigma, mean + 8.0 * sigma, limit=200)
    return value


# --- entropy and information ---------------------------------------------------


@pytest.mark.parametrize(
    "precision, expected",
    [
        (1.0, 1.4189385332046727),  # (1/2) ln(2 pi e)
        (2.0 * math.pi * math.e, 0.0),
        (math.e * 2.0 * math.pi * math.e, -0.5),
    ],
)
def test_gaussian_entropy_values(precision, expected):
    got = gaussian_entropy(precision)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(entropy_by_quadrature(precision), abs=1e-9)


def test_entropy_is_mean_invariant():
    # gaussian_entropy takes no mean: the entropy of a shifted density is the same.
    for mean in (123.0, -9.0):
        assert gaussian_entropy(2.0) == pytest.approx(entropy_by_quadrature(2.0, mean), abs=1e-9)


@pytest.mark.parametrize(
    "tau, tau_d, expected",
    [
        (1.0, 1.0, 0.5 * math.log(2.0)),
        (100.0, 1.0, 0.5 * math.log(1.01)),
    ],
)
def test_info_gain_values(tau, tau_d, expected):
    got = info_gain(tau, tau_d)
    assert got == pytest.approx(expected, rel=1e-12)
    # Oracle: the entropy actually removed by the conjugate update.
    oracle = entropy_by_quadrature(tau) - entropy_by_quadrature(tau + tau_d)
    assert got == pytest.approx(oracle, abs=1e-9)


def test_info_gain_vanishes_with_uninformative_observations():
    assert info_gain(1.0, 1e-15) == pytest.approx(0.0, abs=1e-15)


def test_info_gain_rejects_non_positive():
    with pytest.raises(NonPositivePrecision):
        info_gain(0.0, 1.0)
    with pytest.raises(NonPositivePrecision):
        info_gain(1.0, 0.0)


@given(tau=precisions, tau_d=precisions)
@settings(max_examples=300)
def test_info_gain_equals_entropy_difference(tau, tau_d):
    before = gaussian_entropy(tau)
    after = gaussian_entropy(tau + tau_d)
    assert info_gain(tau, tau_d) == pytest.approx(before - after, rel=1e-12, abs=1e-12)


@given(tau=precisions, tau_d=precisions)
def test_info_gain_is_positive(tau, tau_d):
    assert info_gain(tau, tau_d) > 0


def test_landauer_min_energy_values():
    assert landauer_min_energy(0.0, 1.0) == 0.0
    assert landauer_min_energy(0.5 * math.log(2.0), 1.0) == pytest.approx(0.34657359027997264, rel=1e-12)
    kbt_room = 1.380649e-23 * 298.0
    assert landauer_min_energy(1.0, kbt_room) == pytest.approx(4.114334e-21, rel=1e-6)


# --- observation cost ------------------------------------------------------------


def test_observation_cost_landauer():
    model = EnergyModel(kind="landauer_min", kBT=1.0)
    energy, info = observation_cost(model, 1.0, 1.0)
    assert info == pytest.approx(0.5 * math.log(2.0), rel=1e-12)
    assert energy == pytest.approx(info, rel=1e-12)


def test_observation_cost_fixed():
    model = EnergyModel(kind="fixed_cost", fixed_cost_value=2.0, kBT=1.0)
    for tau, tau_d in [(1.0, 1.0), (100.0, 3.0), (0.5, 7.0)]:
        energy, info = observation_cost(model, tau, tau_d)
        assert energy == 2.0
        assert info == pytest.approx(info_gain(tau, tau_d), rel=1e-12)


def test_fixed_cost_above_bound_is_not_flagged():
    ledger = EnergyLedger(kBT=1.0)
    energy, info = observation_cost(EnergyModel(kind="fixed_cost", fixed_cost_value=0.1), 100.0, 1.0)
    flagged = ledger.charge(1.0, energy, info).sub_landauer.tolist()[-1]
    assert info == pytest.approx(0.0049751654, rel=1e-6)
    assert flagged is False  # 0.1 clears the 0.0049752 bound


def test_sub_landauer_pricing_is_flagged_not_rejected():
    ledger = EnergyLedger(kBT=1.0)
    energy, info = observation_cost(EnergyModel(kind="fixed_cost", fixed_cost_value=0.01), 1.0, 1.0)
    flagged = ledger.charge(1.0, energy, info).sub_landauer.tolist()[-1]
    assert flagged is True  # 0.01 < half a nat
    assert ledger.cumulative_energy == pytest.approx(0.01)


def test_landauer_pricing_never_flags():
    ledger = EnergyLedger(kBT=1.7)
    model = EnergyModel(kind="landauer_min", kBT=1.7)
    for i, (tau, tau_d) in enumerate([(1.0, 1.0), (5.0, 0.1), (0.2, 30.0)]):
        energy, info = observation_cost(model, tau, tau_d)
        ledger.charge(float(i), energy, info)
    assert not any(ledger.sub_landauer)


def test_fixed_cost_above_every_bound_dominates_cumulative_floor():
    # A flat price that clears each per-observation bound keeps the total
    # energy at or above kBT times the total information.
    kbt = 1.3
    ledger = EnergyLedger(kBT=kbt)
    model = EnergyModel(kind="fixed_cost", fixed_cost_value=1.0, kBT=kbt)
    for i, (tau, tau_d) in enumerate([(1.0, 1.0), (5.0, 0.1), (2.0, 1.0), (10.0, 10.0)]):
        energy, info = observation_cost(model, tau, tau_d)
        assert energy >= kbt * info
        ledger.charge(float(i), energy, info)
    assert ledger.cumulative_energy >= kbt * ledger.cumulative_info
    assert not any(ledger.sub_landauer)


positive = st.floats(min_value=1e-300, max_value=1e300)
models = st.sampled_from(
    [
        EnergyModel(kind="landauer_min", kBT=1.0),
        EnergyModel(kind="landauer_min", kBT=0.37),
        EnergyModel(kind="fixed_cost", fixed_cost_value=0.2, kBT=1.3),
        EnergyModel(kind="fixed_cost", fixed_cost_value=0.0, kBT=1.0),
    ]
)


@given(model=models, pairs=st.lists(st.tuples(positive, positive), max_size=20))
def test_observation_costs_column_equals_scalar_cost(model, pairs):
    energies, infos = observation_costs(model, [tau for tau, _ in pairs], [od for _, od in pairs])
    expected = [observation_cost(model, tau, od) for tau, od in pairs]
    assert list(zip(energies.tolist(), infos.tolist())) == expected


# --- ledger ----------------------------------------------------------------------


def test_charge_single_entry():
    ledger = EnergyLedger()
    ledger.charge(1.0, 2.0, 1.0)
    assert ledger.cumulative_energy == 2.0
    assert ledger.cumulative_info == 1.0
    assert len(ledger) == 1
    columns = (ledger.times, ledger.energies, ledger.infos, ledger.cumulative)
    assert [column.tolist() for column in columns] == [[1.0], [2.0], [1.0], [2.0]]


def test_charge_accumulates():
    ledger = EnergyLedger()
    ledger.charge(1.0, 2.0, 0.5).charge(2.0, 3.0, 0.25)
    assert ledger.cumulative_energy == 5.0
    assert ledger.cumulative_info == 0.75


def test_charge_rejects_time_reversal():
    ledger = EnergyLedger()
    ledger.charge(1.0, 2.0, 1.0)
    with pytest.raises(NonMonotonicTime):
        ledger.charge(0.5, 1.0, 1.0)


@given(
    model=models,
    rows=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1e3), positive, positive), max_size=30
    ),
)
def test_ledger_from_columns_equals_charging_row_by_row(model, rows):
    rows = sorted(rows)
    charged = EnergyLedger(kBT=model.kBT)
    for t, tau, od in rows:
        charged.charge(t, *observation_cost(model, tau, od))
    energies, infos = observation_costs(model, [tau for _, tau, _ in rows], [od for _, _, od in rows])
    built = EnergyLedger.from_columns(np.array([t for t, _, _ in rows]), energies, infos, model.kBT)
    for name in ("times", "energies", "infos", "cumulative", "sub_landauer"):
        assert getattr(built, name).tolist() == getattr(charged, name).tolist()
    assert (built.cumulative_energy, built.cumulative_info) == (
        charged.cumulative_energy,
        charged.cumulative_info,
    )


def test_ledger_from_columns_rejects_time_reversal():
    with pytest.raises(NonMonotonicTime, match="t=0.5 precedes last entry at t=1.0"):
        EnergyLedger.from_columns(np.array([1.0, 0.5]), np.ones(2), np.ones(2))


def test_charge_allows_equal_times():
    ledger = EnergyLedger()
    ledger.charge(1.0, 1.0, 0.1).charge(1.0, 1.0, 0.1)
    assert len(ledger) == 2


@given(
    charges=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100),
            st.floats(min_value=0, max_value=10),
            st.floats(min_value=0, max_value=5),
        ),
        max_size=50,
    )
)
@settings(max_examples=200)
def test_ledger_conservation(charges):
    ledger = EnergyLedger()
    charges = sorted(charges, key=lambda c: c[0])
    for t, energy, info in charges:
        ledger.charge(t, energy, info)
    assert ledger.cumulative_energy == pytest.approx(sum(c[1] for c in charges), rel=1e-12, abs=1e-12)
    assert ledger.cumulative_info == pytest.approx(sum(c[2] for c in charges), rel=1e-12, abs=1e-12)


# --- windowed power ---------------------------------------------------------------


def test_windowed_power_mean():
    ledger = EnergyLedger()
    for t in (1.0, 3.0, 5.0, 7.0, 9.0):
        ledger.charge(t, 2.0, 0.1)
    assert windowed_power(ledger, 10.0, 10.0) == pytest.approx(1.0)


def test_windowed_power_empty_window_is_zero():
    ledger = EnergyLedger()
    assert windowed_power(ledger, 10.0, 5.0) == 0.0
    ledger.charge(1.0, 2.0, 0.1)
    assert windowed_power(ledger, 10.0, 5.0) == 0.0


def test_windowed_power_window_is_half_open():
    ledger = EnergyLedger()
    ledger.charge(0.0, 2.0, 0.1)
    ledger.charge(5.0, 3.0, 0.1)
    # (0, 5]: the entry at exactly t_end - window is excluded, at t_end included.
    assert windowed_power(ledger, 5.0, 5.0) == pytest.approx(3.0 / 5.0)


def test_windowed_power_matches_rate_times_cost_for_poisson_flux():
    # Long Poisson run at rate 1 with flat cost 2 averages to power 2.
    spec = FluxSpec(arrival=PoissonArrival(rate=1.0), obs_precision=1.0, noise="exact")
    target = TargetSpec(kind="static", theta0=0.0, velocity=0.0, target_variance=1.0)
    estimates = []
    for seed in range(20):
        ledger = EnergyLedger()
        for t in generate_flux(spec, target, 1000.0, seed)["time"].tolist():
            ledger.charge(t, 2.0, 0.1)
        estimates.append(windowed_power(ledger, 1000.0, 1000.0))
    assert np.mean(estimates) == pytest.approx(2.0, rel=0.1)


def test_ledger_csv_format():
    ledger = EnergyLedger(kBT=1.0)
    ledger.charge(1.0, 0.25, 0.5)
    text = ledger.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "time,energy,info_gain,cumulative_energy,sub_landauer"
    assert lines[1] == "1,0.25,0.5,0.25,true"
