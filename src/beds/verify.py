"""Self-verification suite: the closed-form laws checked against simulation.

Each check compares two independent routes to the same quantity, for
example closed-form dissipation against a numerical integrator of the
variance growth law, or the analytic power predictions against long
stochastic runs. Checks are deterministic given ``seed_base``. The
numerical oracles here are never used by the simulation itself.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .analysis import (
    ClassVerdict,
    classify_run,
    optimal_obs_precision,
    p_min_exact,
    p_min_linear,
    required_rate,
)
from .core import (
    MAX_SEED,
    BedsParams,
    EnergyModel,
    FluxSpec,
    GaussianBelief,
    PeriodicArrival,
    PoissonArrival,
    ProblemSpec,
    ScheduleArrival,
    Scenario,
    TargetSpec,
)
from .dynamics import bayes_update, dissipate
from .energy import gaussian_entropy, info_gain, landauer_min_energy
from .engine import SweepTable, run, sweep
from .io import beside
from .scenarios import (
    drifting_tracking,
    static_crystallizing,
    steady_state,
    tracking_sweep_base,
)

__all__ = [
    "CheckResult",
    "VerifyReport",
    "rk4_variance_growth",
    "grid_bayes_posterior",
    "check_steady_state_balance",
    "check_linear_regime",
    "check_power_bound_factorization",
    "check_quadrupling_law",
    "check_class_hierarchy",
    "check_landauer_ledger",
    "check_dynamics_oracles",
    "check_optimal_obs_precision",
    "check_tracking_sweep",
    "run_all",
    "DEFAULT_SEED_BASE",
    "MAX_SEED_BASE",
]

DEFAULT_SEED_BASE = 1000
# Scenario seeds run from seed_base to seed_base + 201 (check_class_hierarchy's
# drifting run) and must fit in an unsigned 64-bit integer.
MAX_SEED_BASE = MAX_SEED - 201


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    exploratory: bool
    measured: dict


@dataclass
class VerifyReport:
    checks: list[CheckResult] = field(default_factory=list)
    tracking_table: SweepTable | None = None

    @property
    def all_passed(self) -> bool:
        """True iff every non-exploratory check passed."""

        return all(c.passed for c in self.checks if not c.exploratory)

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [asdict(c) for c in self.checks],
        }


# --- numerical oracles -------------------------------------------------------


def rk4_variance_growth(
    variance0: np.ndarray | float,
    gamma: np.ndarray | float,
    duration: float,
    step: float = 1e-3,
) -> np.ndarray | float:
    """Integrate the variance growth law dV/dt = gamma * V with classic RK4.

    Independent of the closed-form propagation path; used only to check it.
    """

    if duration == 0:
        return variance0
    n_steps = max(1, round(duration / step))
    h = duration / n_steps
    y = np.asarray(variance0, dtype=np.float64).copy()
    g = np.asarray(gamma, dtype=np.float64)
    for _ in range(n_steps):
        k1 = g * y
        k2 = g * (y + 0.5 * h * k1)
        k3 = g * (y + 0.5 * h * k2)
        k4 = g * (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def grid_bayes_posterior(
    prior_mean: float,
    prior_precision: float,
    value: float,
    obs_precision: float,
    lo: float = -10.0,
    hi: float = 10.0,
    cells: int = 100_000,
) -> tuple[float, float]:
    """Posterior mean and precision by brute-force discretization of Bayes' rule.

    Multiplies prior density by likelihood on a uniform grid and normalizes,
    never using the conjugate shortcut.
    """

    theta = np.linspace(lo, hi, cells + 1)
    log_post = -0.5 * prior_precision * (theta - prior_mean) ** 2
    log_post -= 0.5 * obs_precision * (value - theta) ** 2
    weights = np.exp(log_post - log_post.max())
    weights /= weights.sum()
    mean = float(np.sum(weights * theta))
    var = float(np.sum(weights * (theta - mean) ** 2))
    return mean, 1.0 / var


# --- random scenario generation for bulk checks ------------------------------


def _random_scenario(rng: np.random.Generator, force_landauer: bool = False) -> Scenario:
    horizon = float(rng.uniform(10.0, 25.0))
    arrival_kind = rng.integers(0, 3)
    if arrival_kind == 0:
        arrival = PoissonArrival(rate=float(np.exp(rng.uniform(np.log(0.5), np.log(12.0)))))
    elif arrival_kind == 1:
        arrival = PeriodicArrival(period=float(rng.uniform(0.2, 2.0)))
    else:
        n = int(rng.integers(0, 40))
        arrival = ScheduleArrival(times=tuple(sorted(rng.uniform(0.0, horizon, n).tolist())))
    drifting = bool(rng.random() < 0.5)
    target = TargetSpec(
        kind="drifting" if drifting else "static",
        theta0=float(rng.uniform(-5.0, 5.0)),
        velocity=float(rng.uniform(-1.0, 1.0)) if drifting else 0.0,
        target_variance=float(np.exp(rng.uniform(np.log(1e-3), np.log(1.0)))),
    )
    if force_landauer or rng.random() < 0.5:
        model = EnergyModel(kind="landauer_min", fixed_cost_value=0.0, kBT=float(rng.uniform(0.5, 2.0)))
    else:
        model = EnergyModel(kind="fixed_cost", fixed_cost_value=float(rng.uniform(0.01, 2.0)), kBT=1.0)
    return Scenario(
        beds=BedsParams(
            gamma=float(np.exp(rng.uniform(np.log(0.02), np.log(2.0)))),
            epsilon=float(np.exp(rng.uniform(np.log(1e-5), np.log(1e-2)))),
            initial_belief=GaussianBelief(
                mean=float(rng.uniform(-2.0, 2.0)),
                precision=float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))),
            ),
        ),
        flux_spec=FluxSpec(
            arrival=arrival,
            obs_precision=float(np.exp(rng.uniform(np.log(0.1), np.log(100.0)))),
            noise="noisy" if rng.random() < 0.7 else "exact",
        ),
        problem=ProblemSpec(
            target=target,
            delta=float(np.exp(rng.uniform(np.log(0.01), np.log(2.0)))),
            p_max=float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))),
            t0=float(rng.uniform(1.0, 5.0)),
        ),
        energy_model=model,
        horizon=horizon,
        sample_dt=horizon / 150.0,
        seed=int(rng.integers(0, 2**63)),
    )


def _exact(scenario: Scenario) -> Scenario:
    """``scenario`` with exact observations, for a check that reads only the precision side.

    The precision loop, the ledger and the precision samples never read an
    observed value, and a Poisson flux draws its times before its noise, so
    the run has the same events and precision-side results without the noise.
    """

    return dataclasses.replace(scenario, flux_spec=dataclasses.replace(scenario.flux_spec, noise="exact"))


# --- checks -------------------------------------------------------------------


def check_steady_state_balance(seed_base: int = DEFAULT_SEED_BASE) -> tuple[bool, dict]:
    """Poisson flux at the balance rate holds the target precision on average.

    gamma=0.1, tau*=100, tau_d=10, so the balance rate is 1.0. Ten seeded
    runs over horizon 1e4 with burn-in 1e3: each time-averaged precision
    must sit within 5% of 100, and the ten-seed mean within 2%. The average
    precision never reads an observed value, so the runs observe exactly
    (``_exact``) and draw no noise.
    """

    tau_star = 100.0
    per_seed = []
    for i in range(10):
        trace = run(_exact(steady_state(gamma=0.1, tau_star=tau_star, tau_d=10.0, seed=seed_base + i)))
        per_seed.append(trace.summary.mean_precision_after_t0)
    per_seed_arr = np.asarray(per_seed)
    rel_dev = np.abs(per_seed_arr - tau_star) / tau_star
    mean_rel_dev = abs(per_seed_arr.mean() - tau_star) / tau_star
    passed = bool(np.all(rel_dev <= 0.05) and mean_rel_dev <= 0.02)
    return passed, {
        "target_precision": tau_star,
        "per_seed_mean_precision": [float(x) for x in per_seed_arr],
        "max_rel_deviation": float(rel_dev.max()),
        "per_seed_tolerance": 0.05,
        "mean_precision": float(per_seed_arr.mean()),
        "mean_rel_deviation": float(mean_rel_dev),
        "mean_tolerance": 0.02,
    }


def check_linear_regime() -> tuple[bool, dict]:
    """With tiny observations the exact minimum power approaches gamma * kBT / 2."""

    exact = p_min_exact(1.0, 1000.0, 1.0, 1.0)
    linear = p_min_linear(1.0, 1.0)
    ratio = exact / linear
    passed = 0.49975 <= exact <= 0.5 and ratio >= 0.9995
    return passed, {
        "p_min_exact": exact,
        "p_min_linear": linear,
        "ratio": ratio,
        "exact_bounds": [0.49975, 0.5],
        "ratio_floor": 0.9995,
    }


def check_power_bound_factorization(seed_base: int = DEFAULT_SEED_BASE) -> tuple[bool, dict]:
    """The exact minimum power factors as required rate times minimum energy per observation."""

    rng = np.random.Generator(np.random.PCG64(seed_base + 300))
    max_rel = 0.0
    for _ in range(1000):
        gamma = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
        tau_star = float(np.exp(rng.uniform(0.0, np.log(1e6))))
        tau_d = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e3))))
        direct = p_min_exact(gamma, tau_star, tau_d, 1.0)
        composed = required_rate(gamma, tau_star, tau_d) * landauer_min_energy(
            info_gain(tau_star, tau_d), 1.0
        )
        max_rel = max(max_rel, abs(direct - composed) / composed)
    return max_rel <= 1e-12, {"points": 1000, "max_rel_difference": max_rel, "tolerance": 1e-12}


def _fixed_cost_balance_scenario(tau_star: float, seed: int) -> Scenario:
    return dataclasses.replace(
        steady_state(gamma=0.1, tau_star=tau_star, tau_d=10.0, seed=seed),
        energy_model=EnergyModel("fixed_cost", 1.0, 1.0),
    )


def check_quadrupling_law(seed_base: int = DEFAULT_SEED_BASE) -> tuple[bool, dict]:
    """Holding variance at a quarter costs four times the power under fixed-cost pricing.

    The analytic prediction is rate times flat cost, so the ratio between
    tau* = 100 and tau* = 25 cells is exactly 4; ten-seed simulated mean
    windowed powers must agree within 5%. The windowed power never reads an
    observed value, so the runs observe exactly (``_exact``) and draw no
    noise.
    """

    gamma, tau_d, cost = 0.1, 10.0, 1.0
    analytic = {
        tau_star: required_rate(gamma, tau_star, tau_d) * cost for tau_star in (25.0, 100.0)
    }
    analytic_ratio = analytic[100.0] / analytic[25.0]
    simulated = {}
    for tau_star in (25.0, 100.0):
        scenarios = [_exact(_fixed_cost_balance_scenario(tau_star, seed_base + 100 + i)) for i in range(10)]
        powers = [run(scenario).summary.mean_windowed_power_after_t0 for scenario in scenarios]
        simulated[tau_star] = float(np.mean(powers))
    simulated_ratio = simulated[100.0] / simulated[25.0]
    passed = analytic_ratio == 4.0 and abs(simulated_ratio - 4.0) <= 0.2
    return passed, {
        "analytic_power": {str(k): v for k, v in analytic.items()},
        "analytic_ratio": analytic_ratio,
        "simulated_mean_power": {str(k): v for k, v in simulated.items()},
        "simulated_ratio": simulated_ratio,
        "ratio_tolerance": 0.2,
    }


def _class_flags(verdict: ClassVerdict) -> dict:
    return {name: getattr(verdict, name) for name in ("attainable", "maintainable", "crystallizable")}


def check_class_hierarchy(seed_base: int = DEFAULT_SEED_BASE) -> tuple[bool, dict]:
    """Crystallizable implies attainable; the drifting counterexample is maintainable only.

    A static, heavily observed scenario must come out crystallizable and
    attainable; the shipped drifting scenario maintainable but never
    crystallizable; and across 100 random scenarios the classifier must
    never emit crystallizable without attainable.
    """

    static_scenario = static_crystallizing(seed=seed_base + 200)
    static_verdict = classify_run(run(static_scenario), static_scenario.problem)

    drift_scenario = drifting_tracking(seed=seed_base + 201)
    drift_verdict = classify_run(run(drift_scenario), drift_scenario.problem)

    rng = np.random.Generator(np.random.PCG64(seed_base + 400))
    hierarchy_violations = 0
    for _ in range(100):
        scenario = _random_scenario(rng)
        verdict = classify_run(run(scenario), scenario.problem)
        if verdict.crystallizable and not verdict.attainable:
            hierarchy_violations += 1

    passed = (
        static_verdict.crystallizable
        and static_verdict.attainable
        and drift_verdict.maintainable
        and not drift_verdict.crystallizable
        and hierarchy_violations == 0
    )
    return passed, {
        "static_verdict": _class_flags(static_verdict),
        "drifting_verdict": {
            **_class_flags(drift_verdict),
            "max_kl_after_t0": drift_verdict.evidence.max_kl_after_t0,
            "delta": drift_scenario.problem.delta,
        },
        "random_scenarios": 100,
        "hierarchy_violations": hierarchy_violations,
    }


def check_landauer_ledger(seed_base: int = DEFAULT_SEED_BASE) -> tuple[bool, dict]:
    """Ledger energy equals kBT times the entropy the updates actually removed.

    Entropy reductions are recomputed per observation from the recorded
    before/after precisions using the Gaussian entropy formula, bypassing
    the ledger's own information-gain path. Neither reads an observed value,
    so each scenario, once drawn, observes exactly (``_exact``) and its run
    draws no noise.
    """

    rng = np.random.Generator(np.random.PCG64(seed_base + 500))
    max_rel = 0.0
    runs_with_observations = 0
    zero_mismatch = False
    for _ in range(100):
        scenario = _exact(_random_scenario(rng, force_landauer=True))
        trace = run(scenario)
        kBT = scenario.energy_model.kBT
        recomputed = 0.0
        for tau_before, tau_after in zip(
            trace.events["precision_before"].tolist(), trace.events["precision_after"].tolist()
        ):
            recomputed += kBT * (gaussian_entropy(tau_before) - gaussian_entropy(tau_after))
        ledger_energy = trace.ledger.cumulative_energy
        if recomputed == 0.0:
            zero_mismatch = zero_mismatch or ledger_energy != 0.0
            continue
        runs_with_observations += 1
        max_rel = max(max_rel, abs(ledger_energy - recomputed) / recomputed)
    passed = max_rel <= 1e-9 and not zero_mismatch and runs_with_observations > 0
    return passed, {
        "scenarios": 100,
        "runs_with_observations": runs_with_observations,
        "max_rel_deviation": max_rel,
        "tolerance": 1e-9,
    }


def check_dynamics_oracles(seed_base: int = DEFAULT_SEED_BASE) -> tuple[bool, dict]:
    """Closed-form dynamics agree with brute-force integration and discretized Bayes.

    Three sub-checks: RK4 integration of the variance growth law versus
    closed-form dissipation (rel 1e-8, 100-point grid); grid-discretized
    Bayes' rule versus the conjugate update (rel 1e-4, 20 cases); and the
    semigroup and merge-order invariances at rel 1e-12 over 1e4 trials each.
    Every sub-check takes its values from one PCG64 stream, as the scalar
    draws of their trials would: the semigroup's five uniforms per trial in
    one block, the merge order's with four numpy calls per trial that stand
    for its six scalar ones (:func:`_max_rel_merge_order`).
    """

    rng = np.random.Generator(np.random.PCG64(seed_base + 600))

    # RK4 vs closed-form dissipation on a 100-point grid, 20 points per duration.
    # Every duration's RK4 step is the same double (d / round(d / 1e-3)), so
    # the groups advance together and each leaves once its duration is reached.
    durations = (0.5, 1.0, 2.5, 5.0, 10.0)
    draws = [
        (
            np.exp(rng.uniform(np.log(1e-2), np.log(1e3), size=20)),
            np.exp(rng.uniform(np.log(1e-3), np.log(2.0), size=20)),
        )
        for _ in durations
    ]
    variance0 = np.concatenate([v for v, _ in draws])
    gamma = np.concatenate([g for _, g in draws])
    oracle_var = np.empty_like(variance0)
    y, elapsed = variance0, 0.0
    for k, duration in enumerate(durations):
        y = rk4_variance_growth(y, gamma[20 * k :], duration - elapsed)
        oracle_var[20 * k : 20 * (k + 1)], y, elapsed = y[:20], y[20:], duration
    got = dissipate(1.0 / variance0, np.repeat(durations, 20), gamma)
    expected = 1.0 / oracle_var
    max_rel_rk4 = float(np.max(np.abs(got - expected) / expected))

    # Discretized Bayes' rule vs the conjugate update.
    max_rel_mean = 0.0
    max_rel_precision = 0.0
    for _ in range(20):
        prior_mean = float(rng.uniform(0.5, 3.0))
        prior_precision = float(rng.uniform(0.5, 5.0))
        value = float(rng.uniform(0.5, 3.0))
        obs_precision = float(rng.uniform(0.5, 5.0))
        oracle_mean, oracle_precision = grid_bayes_posterior(
            prior_mean, prior_precision, value, obs_precision
        )
        mean, precision = bayes_update(prior_mean, prior_precision, value, obs_precision)
        max_rel_mean = max(max_rel_mean, abs(mean - oracle_mean) / abs(oracle_mean))
        max_rel_precision = max(
            max_rel_precision, abs(precision - oracle_precision) / oracle_precision
        )

    # Semigroup: dissipating t1 then t2 equals dissipating t1 + t2. Each row
    # is one trial's five uniforms in stream order, scaled as Generator.uniform
    # scales them; column 0 is an unused mean, drawn so the others keep their values.
    u = rng.random((10_000, 5))
    lows = np.array([-5.0, np.log(1e-3), 0.0, 0.0, np.log(1e-3)])
    highs = np.array([5.0, np.log(1e3), 50.0, 50.0, np.log(10.0)])
    _, log_precision, t1, t2, log_gamma = (lows + (highs - lows) * u).T
    precision, gamma = np.exp(log_precision), np.exp(log_gamma)
    two_step = dissipate(dissipate(precision, t1, gamma), t2, gamma)
    one_step = dissipate(precision, t1 + t2, gamma)
    max_rel_semigroup = float(np.max(np.abs(two_step - one_step) / one_step))

    # Merge order: simultaneous updates commute and precisions add.
    max_rel_merge = _max_rel_merge_order(rng, 10_000)

    passed = (
        max_rel_rk4 <= 1e-8
        and max_rel_mean <= 1e-4
        and max_rel_precision <= 1e-4
        and max_rel_semigroup <= 1e-12
        and max_rel_merge <= 1e-12
    )
    return passed, {
        "rk4_grid_points": 100,
        "max_rel_rk4": max_rel_rk4,
        "rk4_tolerance": 1e-8,
        "grid_bayes_cases": 20,
        "max_rel_posterior_mean": max_rel_mean,
        "max_rel_posterior_precision": max_rel_precision,
        "grid_bayes_tolerance": 1e-4,
        "semigroup_trials": 10_000,
        "max_rel_semigroup": max_rel_semigroup,
        "merge_order_trials": 10_000,
        "max_rel_merge_order": max_rel_merge,
        "invariance_tolerance": 1e-12,
    }


def _max_rel_merge_order(rng: np.random.Generator, trials: int) -> float:
    """Largest relative gap between a prior plus k <= 6 simultaneous precisions and both folds.

    Each trial draws a prior and 2 to 6 observations, then applies them as
    ``bayes_update`` does, in drawn and in permuted order. Its draws are the
    values of these numpy calls per trial: ``uniform`` (mean), ``uniform``
    (log prior precision), ``integers(2, 7)``, ``uniform(size=k)`` (log
    taus), ``uniform(size=k)`` (values) and ``permutation(k)``. Four calls
    use the stream exactly as those six do, and leave it where they leave
    it: ``random`` for the two scalars, ``integers(2, 7)``, ``random`` for
    the 2k after it, and ``shuffle`` of the row's identity order, which is
    what ``permutation(k)`` does to ``arange(k)``. ``uniform(a, b)`` is
    ``a + (b - a) * random()``, so the scaling waits for the columns.
    ``tests/test_verify.py`` guards this coupling against the scalar calls.
    Only precisions are compared, so the means and values are skipped.

    Each trial's observations fill a row, padded with zero precisions that
    the identity tail of its order keeps last; adding 0.0 changes no sum,
    so the folds run down the columns.
    """

    width = 6
    u = np.zeros((trials, 2 + 2 * width))
    order = np.tile(np.arange(width), (trials, 1))
    widths = []
    for row, order_row in zip(u, order):
        rng.random(out=row[:2])  # mean, log prior precision
        k = int(rng.integers(2, 7))
        rng.random(out=row[2 : 2 + 2 * k])  # k log taus, then k values
        rng.shuffle(order_row[:k])
        widths.append(k)

    log_lo, log_hi = np.log(1e-2), np.log(1e2)
    precision = np.exp(log_lo + (log_hi - log_lo) * u[:, 1])
    filled = np.arange(width) < np.array(widths)[:, None]
    taus = np.where(filled, np.exp(log_lo + (log_hi - log_lo) * u[:, 2 : 2 + width]), 0.0)
    forward, shuffled = precision, precision
    permuted = np.take_along_axis(taus, order, axis=1)
    for i in range(width):
        # bayes_update's posterior precision, one observation per trial.
        forward, shuffled = forward + taus[:, i], shuffled + permuted[:, i]
    expected = precision + taus.sum(axis=1)
    gaps = (np.max(np.abs(folded - expected) / expected) for folded in (forward, shuffled))
    return float(max(gaps))


def check_optimal_obs_precision(seed_base: int = DEFAULT_SEED_BASE) -> tuple[bool, dict]:
    """Grid search confirms the cheapest maintaining observation precision under a rate budget.

    Per-observation energy rises with observation precision, so at a capped
    rate the optimum is the smallest precision that still balances
    dissipation: gamma * tau* / lambda_max. (The headline power expression
    itself decreases monotonically with observation precision, so it is the
    per-observation cost, equivalently the power at the budget rate, that
    the search minimizes; the monotonicity is recorded alongside.)
    """

    rng = np.random.Generator(np.random.PCG64(seed_base + 700))
    resolution = 1e-4
    grid = np.arange(resolution, 20.0, resolution)
    max_abs_gap = 0.0
    p_min_exact_monotone_decreasing = True
    for _ in range(20):
        gamma = float(np.exp(rng.uniform(np.log(0.01), np.log(5.0))))
        tau_star = float(np.exp(rng.uniform(0.0, np.log(1e4))))
        expected_opt = float(np.exp(rng.uniform(np.log(0.05), np.log(15.0))))
        lambda_max = gamma * tau_star / expected_opt

        feasible = grid[gamma * tau_star / grid <= lambda_max]
        # The log term of both powers, computed once.
        nats = np.log1p(feasible / tau_star)
        budget_power = lambda_max * 0.5 * nats
        argmin_tau_d = float(feasible[np.argmin(budget_power)])
        claimed = optimal_obs_precision(gamma, tau_star, lambda_max)
        max_abs_gap = max(max_abs_gap, abs(argmin_tau_d - claimed))

        headline = (gamma * tau_star / feasible) * 0.5 * nats
        if np.any(np.diff(headline) > 0):
            p_min_exact_monotone_decreasing = False

    return max_abs_gap <= resolution, {
        "triples": 20,
        "grid_resolution": resolution,
        "max_gap_to_grid_argmin": max_abs_gap,
        "p_min_exact_monotone_decreasing_in_tau_d": p_min_exact_monotone_decreasing,
    }


TRACKING_VELOCITIES = [0.0, 0.5, 1.0, 2.0]
TRACKING_PERIODS = [0.5, 0.25, 0.125, 0.0625, 0.03125]


def check_tracking_sweep(seed_base: int = DEFAULT_SEED_BASE) -> tuple[bool, dict, SweepTable]:
    """Exploratory: faster targets need at least as high an observation rate.

    Sweeps velocity {0, 0.5, 1, 2} against an observation-rate ladder with
    ten replicate seeds per cell. For each velocity, the minimal rate whose
    seed-averaged peak divergence after burn-in stays below the scenario's
    delta must be non-decreasing in velocity (a velocity that no swept rate
    satisfies counts as infinity). No quantitative scaling law is asserted.
    """

    base = tracking_sweep_base(seed=seed_base)
    table = sweep(
        base,
        [
            ("problem.target.velocity", TRACKING_VELOCITIES),
            ("flux_spec.arrival.period", TRACKING_PERIODS),
        ],
        replicates=10,
    )
    delta = base.problem.delta
    # Rows are grid-major, replicate-minor: one row of replicates per cell.
    cells = list(itertools.product(TRACKING_VELOCITIES, TRACKING_PERIODS))
    means = np.reshape([row["max_kl_after_t0"] for row in table.rows], (len(cells), -1)).mean(axis=1)
    mean_max_kl = dict(zip(cells, means.tolist()))
    min_rates: list[float | None] = []
    for velocity in TRACKING_VELOCITIES:
        achieved = None
        for period in sorted(TRACKING_PERIODS, reverse=True):  # low rate first
            if mean_max_kl[(velocity, period)] < delta:
                achieved = 1.0 / period
                break
        min_rates.append(achieved)
    as_numbers = [math.inf if r is None else r for r in min_rates]
    non_decreasing = all(a <= b for a, b in zip(as_numbers, as_numbers[1:]))
    measured = {
        "velocities": TRACKING_VELOCITIES,
        "rates": [1.0 / p for p in TRACKING_PERIODS],
        "delta": delta,
        "mean_max_kl": {f"v={v},rate={1.0 / p:g}": kl for (v, p), kl in mean_max_kl.items()},
        "min_rate_per_velocity": min_rates,
        "non_decreasing": non_decreasing,
        "rows": len(table.rows),
    }
    return non_decreasing, measured, table


def _checks(seed_base: int, report: VerifyReport) -> tuple:
    """The list of checks, one ``(name, exploratory, simulates, call)`` row each.

    ``exploratory`` checks are reported but left out of ``all_passed``;
    ``simulates`` marks the checks that call ``run`` or ``sweep``. The rows
    are built at call time from the module's ``check_*`` bindings, so a
    check replaced on the module (as a profiler does) is the one that runs.
    """

    def tracking_rate_sweep() -> tuple[bool, dict]:
        passed, measured, report.tracking_table = check_tracking_sweep(seed_base)
        return passed, measured

    return (
        ("steady_state_precision_balance", False, True, lambda: check_steady_state_balance(seed_base)),
        ("linear_regime_constant", False, False, check_linear_regime),
        ("power_bound_factorization", False, False, lambda: check_power_bound_factorization(seed_base)),
        ("quadrupling_law", False, True, lambda: check_quadrupling_law(seed_base)),
        ("class_hierarchy", False, True, lambda: check_class_hierarchy(seed_base)),
        ("landauer_ledger_consistency", False, True, lambda: check_landauer_ledger(seed_base)),
        ("dynamics_oracles", False, False, lambda: check_dynamics_oracles(seed_base)),
        ("optimal_observation_precision", False, False, lambda: check_optimal_obs_precision(seed_base)),
        ("tracking_rate_sweep", True, True, tracking_rate_sweep),
    )


def _guarded(check) -> tuple[bool, dict]:
    """``check()``, with a raise turned into a failed result that names it."""

    try:
        passed, measured = check()
    except Exception as exc:  # noqa: BLE001
        passed, measured = False, {"error": f"{type(exc).__name__}: {exc}"}
    return passed, measured


def run_all(seed_base: int = DEFAULT_SEED_BASE) -> VerifyReport:
    """Run every check of :func:`_checks`; deterministic for a given seed base.

    A check that raises is a failed check, not a crashed report. The checks
    that do not simulate run beside the ones that do through
    :func:`beds.io.beside`: on Linux in one forked child, so every ``run``
    call is made here, and elsewhere here, after the simulating ones. If the
    child dies before sending its results, each of its checks fails with an
    error that names its exit code. Either way the report lists the checks
    in table order.
    """

    report = VerifyReport()
    checks = _checks(seed_base, report)
    simulating = [(name, call) for name, _, simulates, call in checks if simulates]
    oracles = [(name, call) for name, _, simulates, call in checks if not simulates]
    results = {}
    with beside(lambda: [_guarded(call) for _, call in oracles]) as oracle_results:
        for name, call in simulating:
            results[name] = _guarded(call)
        try:
            outcomes = oracle_results()
        except ChildProcessError as exc:
            outcomes = [(False, {"error": str(exc)}) for _ in oracles]
    results.update(zip((name for name, _ in oracles), outcomes))
    for name, exploratory, _, _ in checks:
        passed, measured = results[name]
        report.checks.append(CheckResult(name, passed, exploratory, measured))
    return report
