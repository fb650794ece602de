import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beds import core
from beds.core import GaussianBelief, NegativeDt, NonPositiveObsPrecision
from beds.dynamics import (
    PRECISION_FLOOR,
    bayes_update,
    check_crystallization,
    dissipate,
    evolve_mean,
    evolve_means,
    evolve_precision,
    is_crystallized,
    propagate,
)
from beds.engine import run
from beds.scenarios import dissipation_only
from beds.verify import grid_bayes_posterior, rk4_variance_growth

finite_means = st.floats(min_value=-1e6, max_value=1e6)
precisions = st.floats(min_value=1e-6, max_value=1e6)


# --- propagate ----------------------------------------------------------------


def test_propagate_zero_dt_is_identity():
    precision = 1.5
    assert propagate(precision, 0.0, 0.1) is precision


def test_propagate_matches_rk4_oracle_half_life():
    # gamma = ln 2 halves the precision in one time unit.
    got = propagate(2.0, 1.0, math.log(2.0))
    oracle_variance = rk4_variance_growth(0.5, math.log(2.0), 1.0, step=1e-4)
    assert got == pytest.approx(1.0 / oracle_variance, rel=1e-8)
    assert got == pytest.approx(1.0, rel=1e-8)


def test_propagate_matches_rk4_oracle_long_horizon():
    got = propagate(1.0, 10.0, 0.1)
    oracle_variance = rk4_variance_growth(1.0, 0.1, 10.0, step=1e-4)
    assert got == pytest.approx(1.0 / oracle_variance, rel=1e-8)
    assert got == pytest.approx(math.exp(-1.0), rel=1e-12)


@pytest.mark.parametrize("a, b", [(0.5, 1.0), (1.0, 2.5), (2.5, 5.0), (5.0, 10.0)])
def test_rk4_in_two_stages_is_bit_identical_to_one_run(a, b):
    # verify.check_dynamics_oracles advances its duration groups together,
    # one stage per duration: that needs every stage to take the same step.
    variance0 = np.array([1e-2, 0.7, 3.0, 1e3])
    gamma = np.array([1e-3, 0.05, 0.4, 2.0])
    staged = rk4_variance_growth(rk4_variance_growth(variance0, gamma, a), gamma, b - a)
    assert staged.tolist() == rk4_variance_growth(variance0, gamma, b).tolist()


def test_propagate_rejects_negative_dt():
    with pytest.raises(NegativeDt):
        propagate(1.0, -0.1, 0.5)


def test_propagate_clamps_at_floor():
    assert propagate(1.0, 1e6, 10.0) == PRECISION_FLOOR


@given(mean=finite_means, precision=precisions, gamma=st.floats(min_value=1e-3, max_value=10))
@settings(max_examples=50)
def test_propagate_never_changes_mean(mean, precision, gamma):
    # propagate() moves only the precision; the engine carries the mean
    # through dissipation, so every sample of an observation-free run keeps it.
    base = dissipation_only()
    scenario = replace(
        base, beds=replace(base.beds, gamma=gamma, initial_belief=GaussianBelief(mean, precision))
    )
    samples = run(scenario).samples
    assert np.all(samples["mean"] == mean)
    assert samples["precision"][-1] == propagate(precision, 10.0, gamma)


@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from([1e-310, 1e-300, 1e-6, 1.0, 1e6]),
            st.sampled_from([0.0, 1e-20, 0.5, 30.0, 1e6]),
        ),
        max_size=20,
    ),
    gamma=st.sampled_from([1e-3, 0.1, 10.0]),
)
def test_dissipate_equals_propagate_per_element(rows, gamma):
    got = dissipate([p for p, _ in rows], [dt for _, dt in rows], gamma)
    assert got.tolist() == [propagate(p, dt, gamma) for p, dt in rows]


@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from([1e-310, 1e-300, 1e-6, 1.0, 1e6]),
            st.sampled_from([0.0, 1e-20, 0.5, 30.0, 1e6]),
            st.floats(min_value=1e-3, max_value=10.0),
        ),
        max_size=20,
    )
)
def test_dissipate_with_a_gamma_column_equals_propagate_per_element(rows):
    gammas = np.array([gamma for _, _, gamma in rows], dtype=float)
    got = dissipate([p for p, _, _ in rows], [dt for _, dt, _ in rows], gammas)
    assert got.tolist() == [propagate(p, dt, gamma) for p, dt, gamma in rows]


def test_dissipate_past_the_float_range_of_the_exponent_clamps_as_propagate():
    # -gamma * dt overflows to -inf; like propagate, the decay is 0 and the
    # precision clamps at the floor, without an overflow warning.
    got = dissipate([1.0, 2.0], [3.0, 0.0], 1e308)
    assert got.tolist() == [propagate(1.0, 3.0, 1e308), 2.0] == [PRECISION_FLOOR, 2.0]


def test_dissipate_rejects_negative_dt_naming_the_first():
    with pytest.raises(NegativeDt, match=r"got -1\.0$"):
        dissipate([1.0, 1.0, 1.0], [0.5, -1.0, -2.0], 0.1)


@given(precision=precisions, dt=st.floats(min_value=1e-6, max_value=30),
       gamma=st.floats(min_value=1e-3, max_value=10))
def test_propagate_strictly_decreases_precision(precision, dt, gamma):
    assert propagate(precision, dt, gamma) < precision


@given(precision=precisions,
       t1=st.floats(min_value=0, max_value=30), t2=st.floats(min_value=0, max_value=30),
       gamma=st.floats(min_value=1e-3, max_value=10))
@settings(max_examples=300)
def test_propagate_semigroup_law(precision, t1, t2, gamma):
    two_step = propagate(propagate(precision, t1, gamma), t2, gamma)
    one_step = propagate(precision, t1 + t2, gamma)
    assert two_step == pytest.approx(one_step, rel=1e-12)


@given(precision=precisions, epsilon=st.floats(min_value=1e-6, max_value=10),
       dt=st.floats(min_value=0, max_value=30), gamma=st.floats(min_value=1e-3, max_value=10))
def test_dissipation_never_creates_crystallization(precision, epsilon, dt, gamma):
    # Variance is non-decreasing under dissipation, so a belief at or above
    # the threshold stays there; crystallization can only follow an update.
    if not is_crystallized(precision, epsilon):
        assert not is_crystallized(propagate(precision, dt, gamma), epsilon)


# --- bayes_update ---------------------------------------------------------------


def test_update_matches_grid_oracle():
    mean, precision = bayes_update(0.0, 1.0, 2.0, 1.0)
    oracle_mean, oracle_precision = grid_bayes_posterior(0.0, 1.0, 2.0, 1.0)
    assert mean == pytest.approx(oracle_mean, rel=1e-4)
    assert precision == pytest.approx(oracle_precision, rel=1e-4)
    assert mean == pytest.approx(1.0, rel=1e-12)
    assert precision == pytest.approx(2.0, rel=1e-12)


@given(mean=st.floats(min_value=-100, max_value=100), prior=precisions, tau_d=precisions)
def test_update_at_prior_mean_never_moves_mean(mean, prior, tau_d):
    got_mean, got_precision = bayes_update(mean, prior, mean, tau_d)
    assert got_mean == pytest.approx(mean, rel=1e-12, abs=1e-12)
    assert got_precision == pytest.approx(prior + tau_d, rel=1e-12)


def test_update_zero_information_limit():
    mean, _ = bayes_update(0.0, 1.0, 1.0, 1e-12)
    assert abs(mean) < 1e-11


def test_update_rejects_non_positive_obs_precision():
    with pytest.raises(NonPositiveObsPrecision):
        bayes_update(0.0, 1.0, 1.0, 0.0)


@given(prior=precisions, tau_d=precisions)
def test_update_strictly_increases_precision(prior, tau_d):
    _, precision = bayes_update(0.0, prior, 0.5, tau_d)
    assert precision > prior


@given(
    mean=st.floats(min_value=-10, max_value=10),
    prior=st.floats(min_value=1e-2, max_value=1e2),
    taus=st.lists(st.floats(min_value=1e-2, max_value=1e2), min_size=2, max_size=6),
    values=st.lists(st.floats(min_value=-10, max_value=10), min_size=6, max_size=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200)
def test_simultaneous_updates_commute_and_precisions_add(mean, prior, taus, values, seed):
    import random

    pairs = list(zip(values, taus))
    forward = (mean, prior)
    for value, tau_d in pairs:
        forward = bayes_update(*forward, value, tau_d)
    shuffled_pairs = pairs[:]
    random.Random(seed).shuffle(shuffled_pairs)
    shuffled = (mean, prior)
    for value, tau_d in shuffled_pairs:
        shuffled = bayes_update(*shuffled, value, tau_d)
    expected_precision = prior + sum(taus)
    assert forward[1] == pytest.approx(expected_precision, rel=1e-12)
    assert shuffled[1] == pytest.approx(expected_precision, rel=1e-12)
    assert shuffled[0] == pytest.approx(forward[0], rel=1e-9, abs=1e-9)


# --- column recurrences -------------------------------------------------------------


@st.composite
def _streams(draw):
    """A time-ordered observation stream, as columns, with repeated times (dt == 0)."""

    n = draw(st.integers(min_value=0, max_value=12))
    gaps = draw(st.lists(st.sampled_from([0.0, 1e-3, 0.5, 2.0, 7.0]), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(min_value=-10, max_value=10), min_size=n, max_size=n))
    obs_precisions = draw(st.lists(st.sampled_from([1e-3, 0.5, 4.0, 1e3]), min_size=n, max_size=n))
    return list(itertools.accumulate(gaps)), values, obs_precisions


def _bits(column: list[float]) -> bytes:
    return np.array(column, dtype=np.float64).tobytes()


def _stepped(mean, precision, stream, gamma, epsilon):
    """The stream applied one observation at a time with the per-step API."""

    before, means, after = [], [], []
    t_prev = 0.0
    for t, value, obs_precision in zip(*stream):
        precision = propagate(precision, t - t_prev, gamma)
        t_prev = t
        before.append(precision)
        mean, precision = bayes_update(mean, precision, value, obs_precision)
        means.append(mean)
        after.append(precision)
        if is_crystallized(precision, epsilon):
            return before, means, after, True
    return before, means, after, False


stream_args = dict(
    stream=_streams(),
    mean=st.floats(min_value=-10, max_value=10),
    precision=st.sampled_from([1e-310, 1e-3, 1.0, 50.0]),
    gamma=st.sampled_from([1e-6, 0.1, 3.0, 1e3]),
    epsilon=st.sampled_from([1e-9, 0.05, 0.5, 2.0]),
)


@given(**stream_args)
@settings(max_examples=200)
def test_evolve_precision_is_bit_identical_to_stepping_propagate_and_bayes_update(
    stream, mean, precision, gamma, epsilon
):
    times, _, obs_precisions = stream
    before, _, after, halted = _stepped(mean, precision, stream, gamma, epsilon)
    path_before, path_after, path_halted = evolve_precision(
        precision, np.array(times), np.array(obs_precisions), gamma, epsilon
    )
    assert (_bits(path_before), _bits(path_after), path_halted) == (_bits(before), _bits(after), halted)
    # Blocks of 3 rows carry the precision and the previous time across each boundary.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "BLOCK", 3)
        blocked = evolve_precision(precision, np.array(times), np.array(obs_precisions), gamma, epsilon)
    assert (_bits(blocked[0]), _bits(blocked[1]), blocked[2]) == (_bits(before), _bits(after), halted)


def _blocks_of_7(stream, gamma=0.3, epsilon=1e-6):
    """``stream`` through ``evolve_precision`` in blocks of 7 rows, and through ``_stepped``."""

    times, _, obs_precisions = stream
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "BLOCK", 7)
        blocked = evolve_precision(1.0, np.array(times), np.array(obs_precisions), gamma, epsilon)
    before, _, after, halted = _stepped(0.0, 1.0, stream, gamma, epsilon)
    return blocked, (before, after, halted)


def _stream_of(times, obs_precisions):
    return list(map(float, times)), [0.0] * len(times), list(map(float, obs_precisions))


# 30 rows, five blocks of 7: rows 6 and 7 arrive together across the first boundary.
_TIMES = [0.5 * i for i in range(1, 8)] + [3.5 + 0.25 * i for i in range(23)]


def test_evolve_precision_in_blocks_equals_the_scalar_reference():
    (before, after, halted), expected = _blocks_of_7(_stream_of(_TIMES, [2.0] * 30))
    assert before.dtype == after.dtype == np.float64
    assert (_bits(before), _bits(after), halted) == (_bits(expected[0]), _bits(expected[1]), expected[2])
    assert len(after) == 30 and not halted


def test_evolve_precision_halts_in_a_later_block_and_never_reads_past_it():
    # Row 17 crystallizes the belief; row 18 (same block) and row 25 (a later
    # block) would raise if they were read.
    obs_precisions = [2.0] * 30
    obs_precisions[17], obs_precisions[18] = 1e7, -1.0
    times = list(_TIMES)
    times[25] = 0.0
    (before, after, halted), expected = _blocks_of_7(_stream_of(times, obs_precisions))
    assert (_bits(before), _bits(after), halted) == (_bits(expected[0]), _bits(expected[1]), expected[2])
    assert len(after) == 18 and halted


@pytest.mark.parametrize(
    "row, column, bad, error",
    [(15, "times", 1.0, NegativeDt), (20, "obs_precisions", 0.0, NonPositiveObsPrecision)],
)
def test_evolve_precision_raises_in_a_later_block_as_the_scalar_reference(row, column, bad, error):
    columns = {"times": list(_TIMES), "obs_precisions": [2.0] * 30}
    columns[column][row] = bad
    stream = _stream_of(columns["times"], columns["obs_precisions"])
    with pytest.raises(error) as scalar:
        _stepped(0.0, 1.0, stream, 0.3, 1e-6)
    with pytest.raises(error) as blocked:
        _blocks_of_7(stream)
    assert str(blocked.value) == str(scalar.value)


def test_evolve_precision_holds_one_block_of_python_floats():
    # 20,000 rows hold 1.3 MB as two whole lists of Python floats; in blocks
    # a call holds its two float64 columns and one block's four lists of floats.
    n = 20_000
    times, obs_precisions = np.arange(1, n + 1) * 0.5, np.full(n, 1.0)
    evolve_precision(1.0, times, obs_precisions, 0.1, 1e-9)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        before, after, halted = evolve_precision(1.0, times, obs_precisions, 0.1, 1e-9)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert len(after) == n and not halted
    assert peak <= 16 * n + 4 * 48 * core.BLOCK


@given(**stream_args)
@settings(max_examples=200)
def test_evolve_mean_is_bit_identical_to_stepping_bayes_update(stream, mean, precision, gamma, epsilon):
    times, values, obs_precisions = stream
    before, means, after, _ = _stepped(mean, precision, stream, gamma, epsilon)
    # Rows past a halt are never read.
    assert _bits(evolve_mean(mean, values, obs_precisions, before)) == _bits(means)


@given(
    **stream_args,
    offsets=st.lists(
        st.tuples(st.floats(min_value=-10, max_value=10), st.sampled_from([0.0, 0.4, -2.0])), min_size=1, max_size=4
    ),
)
@settings(max_examples=200)
def test_each_column_of_evolve_means_is_evolve_mean(stream, mean, precision, gamma, epsilon, offsets):
    # The columns share one precision path, halted or not, and differ in
    # their initial mean and in their values' drift, as a sweep's rows of one key.
    times, values, obs_precisions = stream
    before, _, _ = evolve_precision(precision, np.array(times), np.array(obs_precisions), gamma, epsilon)
    starts = [mean + shift for shift, _ in offsets]
    columns = [[value + velocity * t for t, value in zip(times, values)] for _, velocity in offsets]
    block = np.array(columns, dtype=np.float64).reshape(len(offsets), len(times)).T.copy()
    means = evolve_means(np.array(starts), block, np.array(obs_precisions), np.array(before))
    assert means.shape == (len(before), len(offsets))
    for j, (start, column) in enumerate(zip(starts, columns)):
        expected = _bits(evolve_mean(start, column, obs_precisions, before))
        assert _bits(means[:, j]) == expected
        # One stream runs the scalar loop in blocks, each from the last mean, in place.
        alone = np.array(column, dtype=np.float64).reshape(len(times), 1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "BLOCK", 2)
            out = evolve_means([start], alone, np.array(obs_precisions), np.array(before))
        assert out.shape == (len(before), 1)
        assert _bits(out[:, 0]) == _bits(alone[: len(before), 0]) == expected


# --- crystallization -------------------------------------------------------------


@pytest.mark.parametrize(
    "precision, epsilon, expected",
    [
        (1e4, 1e-3, True),  # variance 1e-4 < 1e-3
        (1e3, 1e-3, False),  # variance equals threshold; strict inequality
        (1.0, 1e-3, False),
    ],
)
def test_is_crystallized_boundary(precision, epsilon, expected):
    assert is_crystallized(precision, epsilon) is expected


def test_check_crystallization_accurate():
    outcome = check_crystallization(5.0001, 1e6, 3.0, 1e-3, 5.0, 0.01)
    assert outcome.crystallized and outcome.accurate
    assert outcome.time == 3.0
    assert outcome.output_mean == 5.0001


def test_check_crystallization_inaccurate():
    outcome = check_crystallization(7.0, 1e6, 1.0, 1e-3, 5.0, 0.01)
    assert outcome.crystallized and not outcome.accurate


def test_check_crystallization_not_yet():
    outcome = check_crystallization(5.0, 1.0, 1.0, 1e-3, 5.0, 0.01)
    assert not outcome.crystallized
    assert outcome.time is None
    assert outcome.output_mean is None
    assert outcome.accurate is None
