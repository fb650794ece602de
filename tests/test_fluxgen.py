import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from beds.core import (
    EmptySpec,
    FluxSpec,
    NonPositiveHorizon,
    PeriodicArrival,
    PoissonArrival,
    ScheduleArrival,
    TargetSpec,
)
from beds.fluxgen import FLUX_FIELDS, flux_from_csv, flux_to_csv, generate_flux, target_mean_at

STATIC_3 = TargetSpec(kind="static", theta0=3.0, velocity=0.0, target_variance=1.0)
DRIFT_1 = TargetSpec(kind="drifting", theta0=0.0, velocity=1.0, target_variance=1.0)


# --- target path -----------------------------------------------------------------


def test_target_mean_static_is_constant():
    target = TargetSpec(kind="static", theta0=5.0, velocity=0.0, target_variance=1.0)
    assert target_mean_at(target, 100.0) == 5.0


def test_target_mean_drifts_linearly():
    assert target_mean_at(DRIFT_1, 7.0) == 7.0
    target = TargetSpec(kind="drifting", theta0=2.0, velocity=-0.5, target_variance=1.0)
    assert target_mean_at(target, 4.0) == 0.0


# --- generation -------------------------------------------------------------------


def test_periodic_exact_static_flux():
    spec = FluxSpec(arrival=PeriodicArrival(period=1.0), obs_precision=2.0, noise="exact")
    flux = generate_flux(spec, STATIC_3, 5.0, seed=0)
    assert flux.dtype.names == FLUX_FIELDS
    assert flux["time"].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert np.all(flux["value"] == 3.0)
    assert np.all(flux["obs_precision"] == 2.0)


def test_periodic_exact_drifting_values_follow_target():
    spec = FluxSpec(arrival=PeriodicArrival(period=1.0), obs_precision=2.0, noise="exact")
    flux = generate_flux(spec, DRIFT_1, 5.0, seed=0)
    assert flux["value"].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_periodic_count_handles_inexact_division():
    spec = FluxSpec(arrival=PeriodicArrival(period=0.1), obs_precision=1.0, noise="exact")
    flux = generate_flux(spec, STATIC_3, 1.0, seed=0)
    assert len(flux) == 10


def test_schedule_is_clipped_to_horizon():
    spec = FluxSpec(
        arrival=ScheduleArrival(times=(0.0, 0.5, 2.0, 9.0)), obs_precision=1.0, noise="exact"
    )
    flux = generate_flux(spec, STATIC_3, 5.0, seed=0)
    assert flux["time"].tolist() == [0.0, 0.5, 2.0]


def test_empty_schedule_yields_empty_flux():
    spec = FluxSpec(arrival=ScheduleArrival(times=()), obs_precision=1.0, noise="exact")
    flux = generate_flux(spec, STATIC_3, 5.0, seed=0)
    assert len(flux) == 0
    assert flux.dtype.names == FLUX_FIELDS


# --- block draws against the one-uniform-at-a-time reference ----------------------


def _reference_uniform_nonzero(rng):
    # 1 - U maps [0, 1) onto (0, 1], keeping log() finite.
    return 1.0 - rng.random()


def _reference_standard_normal(rng):
    u1 = _reference_uniform_nonzero(rng)
    u2 = rng.random()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _reference_arrival_times(arrival, horizon, rng):
    if isinstance(arrival, PoissonArrival):
        times = []
        t = 0.0
        while True:
            t += -math.log(_reference_uniform_nonzero(rng)) / arrival.rate
            if t > horizon:
                break
            times.append(t)
        return times
    if isinstance(arrival, PeriodicArrival):
        count = int(math.floor(horizon / arrival.period * (1.0 + 1e-12)))
        return [k * arrival.period for k in range(1, count + 1)]
    return [t for t in arrival.times if 0.0 <= t <= horizon]


def _reference_flux(spec, target, horizon, seed):
    """The flux drawn one uniform at a time, in stream order: arrivals, then noise."""

    rng = np.random.Generator(np.random.PCG64(seed))
    times = _reference_arrival_times(spec.arrival, horizon, rng)
    flux = np.empty(len(times), dtype=[(name, np.float64) for name in FLUX_FIELDS])
    flux["time"] = times
    flux["value"] = target_mean_at(target, flux["time"])
    flux["obs_precision"] = spec.obs_precision
    if spec.noise == "noisy":
        noise_scale = 1.0 / math.sqrt(spec.obs_precision)
        flux["value"] += [noise_scale * _reference_standard_normal(rng) for _ in times]
    return flux


REFERENCE_ARRIVALS = {
    "poisson": PoissonArrival(rate=3.0),
    "poisson-sparse": PoissonArrival(rate=0.05),
    "periodic": PeriodicArrival(period=0.3),
    "schedule": ScheduleArrival(times=(0.0, 0.0, 1.5, 7.25, 40.0, 41.0)),
}


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 5])
@pytest.mark.parametrize("noise", ["exact", "noisy"])
@pytest.mark.parametrize("arrival", REFERENCE_ARRIVALS.values(), ids=REFERENCE_ARRIVALS.keys())
def test_flux_equals_one_uniform_at_a_time_reference(arrival, noise, seed):
    spec = FluxSpec(arrival=arrival, obs_precision=4.0, noise=noise)
    got = generate_flux(spec, DRIFT_1, 40.0, seed)
    assert got.tobytes() == _reference_flux(spec, DRIFT_1, 40.0, seed).tobytes()


@pytest.mark.parametrize("block", [1, 2, 7])
@pytest.mark.parametrize("noise", ["exact", "noisy"])
def test_flux_refills_a_short_block_without_changing_the_stream(monkeypatch, block, noise):
    # Blocks far smaller than the ~120 arrivals force a refill after every block.
    monkeypatch.setattr("beds.fluxgen._block_size", lambda expected: block)
    spec = FluxSpec(arrival=PoissonArrival(rate=3.0), obs_precision=4.0, noise=noise)
    got = generate_flux(spec, DRIFT_1, 40.0, seed=9)
    assert len(got) > 10 * block
    assert got.tobytes() == _reference_flux(spec, DRIFT_1, 40.0, seed=9).tobytes()


@given(
    rate=st.floats(min_value=1e-3, max_value=50.0),
    horizon=st.floats(min_value=1e-3, max_value=50.0),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    noise=st.sampled_from(["exact", "noisy"]),
)
def test_poisson_flux_equals_reference_for_any_rate_and_horizon(rate, horizon, seed, noise):
    spec = FluxSpec(arrival=PoissonArrival(rate=rate), obs_precision=0.7, noise=noise)
    got = generate_flux(spec, STATIC_3, horizon, seed)
    assert got.tobytes() == _reference_flux(spec, STATIC_3, horizon, seed).tobytes()


def test_missing_arrival_raises_empty_spec():
    spec = FluxSpec(arrival=None, obs_precision=1.0, noise="exact")
    with pytest.raises(EmptySpec):
        generate_flux(spec, STATIC_3, 5.0, seed=0)


def test_non_positive_horizon_rejected():
    spec = FluxSpec(arrival=PeriodicArrival(period=1.0), obs_precision=1.0, noise="exact")
    with pytest.raises(NonPositiveHorizon):
        generate_flux(spec, STATIC_3, 0.0, seed=0)


def test_same_seed_is_bit_identical_and_seeds_differ():
    spec = FluxSpec(arrival=PoissonArrival(rate=3.0), obs_precision=1.0, noise="noisy")
    a = generate_flux(spec, DRIFT_1, 50.0, seed=11)
    b = generate_flux(spec, DRIFT_1, 50.0, seed=11)
    c = generate_flux(spec, DRIFT_1, 50.0, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_poisson_times_strictly_inside_horizon_and_increasing():
    spec = FluxSpec(arrival=PoissonArrival(rate=5.0), obs_precision=1.0, noise="exact")
    flux = generate_flux(spec, STATIC_3, 100.0, seed=3)
    times = flux["time"].tolist()
    assert all(0.0 < t <= 100.0 for t in times)
    assert all(a < b for a, b in zip(times, times[1:]))


def test_poisson_counts_match_rate():
    # Count over [0, 1e4] at rate 2 is Poisson(2e4): every seeded draw should
    # land within about four standard deviations of the mean.
    spec = FluxSpec(arrival=PoissonArrival(rate=2.0), obs_precision=1.0, noise="exact")
    expected = 2.0 * 1e4
    band = 4.0 * math.sqrt(expected)
    counts = [len(generate_flux(spec, STATIC_3, 1e4, seed=seed)) for seed in range(100)]
    assert all(abs(count - expected) <= band for count in counts)
    assert abs(np.mean(counts) - expected) <= band / math.sqrt(100)


def test_poisson_inter_arrival_mean():
    spec = FluxSpec(arrival=PoissonArrival(rate=2.0), obs_precision=1.0, noise="exact")
    flux = generate_flux(spec, STATIC_3, 6e4, seed=17)
    times = flux["time"]
    assert len(times) >= 1e5
    gaps = np.diff(times)
    assert np.mean(gaps) == pytest.approx(0.5, rel=0.05)


def test_noisy_values_center_on_target_with_likelihood_variance():
    # Many observations at one instant: the empirical mean approaches the
    # target with standard error 1 / sqrt(obs_precision * n).
    n, tau_d, t = 4000, 4.0, 3.0
    spec = FluxSpec(arrival=ScheduleArrival(times=(t,) * n), obs_precision=tau_d, noise="noisy")
    flux = generate_flux(spec, DRIFT_1, 10.0, seed=5)
    values = flux["value"]
    se = 1.0 / math.sqrt(tau_d * n)
    assert abs(values.mean() - t) < 5.0 * se
    assert values.std() == pytest.approx(1.0 / math.sqrt(tau_d), rel=0.1)


def test_exact_flux_draws_nothing_from_the_generator():
    spec = FluxSpec(arrival=PeriodicArrival(period=0.5), obs_precision=1.0, noise="exact")
    assert np.array_equal(
        generate_flux(spec, STATIC_3, 5.0, seed=1), generate_flux(spec, STATIC_3, 5.0, seed=2)
    )


# --- CSV replay -------------------------------------------------------------------


def test_flux_csv_round_trip_is_exact():
    spec = FluxSpec(arrival=PoissonArrival(rate=4.0), obs_precision=0.7, noise="noisy")
    flux = generate_flux(spec, DRIFT_1, 20.0, seed=9)
    restored = flux_from_csv(flux_to_csv(flux))
    assert restored.dtype == flux.dtype
    assert np.array_equal(restored, flux)


def test_flux_csv_header_is_required():
    with pytest.raises(ValueError):
        flux_from_csv("a,b,c\n1,2,3\n")


@pytest.mark.parametrize(
    "text",
    [
        "time,value,obs_precision\n1,2,3\n2,3\n",
        "time,value,obs_precision\n1,2,3\n\n2,x,3\n",
        "time,value,obs_precision\n1,2,3\n2,3,4,5\n",
        "time,value,obs_precision\n1,2,3\n2,nan,3\n",
        "time,value,obs_precision\n1,2,3\n\ninf,2,3\n",
        "time,value,obs_precision\n1,2,3\n2,3,1e999\n",
    ],
)
def test_flux_csv_bad_row_names_its_line(text):
    bad_line = len(text.rstrip("\n").split("\n"))
    with pytest.raises(ValueError, match=f"line {bad_line}:"):
        flux_from_csv(text)


_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(min_value=-(10**6), max_value=10**6).map(str),
    st.sampled_from(["", " ", "nan", "-inf", "Infinity", "1e999", "1_0", "--1", "0x10"]),
    st.text(alphabet="abex.+-", min_size=1, max_size=4),
)


@given(rows=st.lists(st.lists(_CELLS, min_size=2, max_size=4), max_size=6))
def test_flux_csv_rows_parse_or_name_their_line(rows):
    lines = ["time,value,obs_precision", *(",".join(cells) for cells in rows)]
    try:
        flux = flux_from_csv("\n".join(lines) + "\n")
    except ValueError as exc:
        match = re.match(r"flux CSV line (\d+): ", str(exc))
        assert match, str(exc)
        bad = int(match.group(1))
        assert 2 <= bad <= len(lines)
        flux_from_csv("\n".join(lines[: bad - 1]))  # every earlier row parses
        with pytest.raises(ValueError):
            flux_from_csv(lines[0] + "\n" + lines[bad - 1])
        return
    assert len(flux) == len(rows)
    assert all(np.isfinite(flux[name]).all() for name in FLUX_FIELDS)
