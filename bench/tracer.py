"""Spans and counters around the public functions of each `beds` layer.

The program is not edited. ``install`` replaces a function object wherever a
`beds` module binds it by name (the defining module and every module that
imported it), so calls made inside the program reach the wrapper;
``uninstall`` puts every original back. Spans stay in memory until the
benchmark writes them out at the end.

Spans wrap the calls into core, fluxgen, engine, analysis, io, cli and
verify. The per-event primitives of dynamics and energy only count calls:
a span per event would cost more than the event.
"""

from __future__ import annotations

import sys
from collections import Counter

# (module, attribute, metric). An attribute "Class.method" patches the class.
SPANS = (
    ("beds.core", "scenario_from_dict", "core.load_s"),
    ("beds.core", "scenario_to_dict", "core.load_s"),
    ("beds.core", "validate_scenario", "core.load_s"),
    ("beds.fluxgen", "generate_flux", "fluxgen.generate_s"),
    ("beds.engine", "run", "engine.run_self_s"),
    ("beds.engine", "sweep", "engine.sweep_self_s"),
    ("beds.engine", "trace_to_csv", "engine.trace_to_csv_s"),
    ("beds.energy", "EnergyLedger.to_csv", "energy.ledger_to_csv_s"),
    ("beds.io", "json_dumps", "io.json_dumps_s"),
    ("beds.cli", "_write_text", "cli.write_s"),
    ("beds.analysis", "classify_run", "analysis.classify_s"),
)
COUNTS = (
    ("beds.dynamics", "propagate", "dynamics.propagate_calls"),
    ("beds.dynamics", "bayes_update", "dynamics.bayes_update_calls"),
    ("beds.dynamics", "check_crystallization", "dynamics.crystallization_checks"),
    ("beds.energy", "EnergyLedger.charge", "energy.charges"),
)
# Each verify check gets a span of its own, timed inclusive of what it calls.
VERIFY_CHECKS = (
    "check_steady_state_balance",
    "check_linear_regime",
    "check_power_bound_factorization",
    "check_quadrupling_law",
    "check_class_hierarchy",
    "check_landauer_ledger",
    "check_dynamics_oracles",
    "check_optimal_obs_precision",
    "check_tracking_sweep",
)


def verify_metric(check: str) -> str:
    return f"verify.{check.removeprefix('check_')}_s"


def _owner_and_name(module: str, attribute: str):
    owner = sys.modules[module]
    if "." in attribute:
        class_name, attribute = attribute.split(".")
        owner = getattr(owner, class_name)
    return owner, attribute


def patch_everywhere(module: str, attribute: str, make_wrapper, patched: list) -> bool:
    """Replace ``module.attribute`` in every `beds` module that binds it.

    Appends ``(owner, name, original)`` to ``patched`` for each replacement and
    returns False when the attribute does not exist.
    """

    try:
        owner, name = _owner_and_name(module, attribute)
        original = vars(owner)[name]
    except (KeyError, AttributeError):
        return False
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        patched.append((owner, name, original))
        setattr(owner, name, wrapper)
        return True
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "beds" or mod_name.startswith("beds.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                patched.append((mod, key, original))
                setattr(mod, key, wrapper)
    return True


def restore(patched: list) -> None:
    for owner, name, original in reversed(patched):
        setattr(owner, name, original)
    patched.clear()


class RunCounter:
    """Counts engine runs and the observations they applied; no timing, no spans.

    Used where the outputs do not report these counts (``beds verify``).
    """

    def __init__(self) -> None:
        self.runs = 0
        self.events = 0
        self._patched: list = []

    def install(self) -> None:
        def make_wrapper(fn):
            def wrapper(*args, **kwargs):
                trace = fn(*args, **kwargs)
                self.runs += 1
                self.events += trace.summary.observation_count
                return trace

            return wrapper

        if not patch_everywhere("beds.engine", "run", make_wrapper, self._patched):
            raise RuntimeError("beds.engine.run not found; cannot count runs")

    def uninstall(self) -> None:
        restore(self._patched)


class Tracer:
    """Records spans ``[metric, op, start, end, parent]`` and named counts."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self.missing: list[str] = []
        self._cells: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, metric: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            record = [metric, self.op, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, metric: str, fn):
        # A one-element list is cheaper to bump than a Counter entry, and
        # these wrappers run several times per event.
        cell = self._cells.setdefault(metric, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_generate(self, args, observations) -> None:
        self.counts["fluxgen.obs_generated"] += len(observations)

    def _after_run(self, args, trace) -> None:
        self.counts["engine.runs"] += 1
        self.counts["engine.events_applied"] += trace.summary.observation_count
        self.counts["engine.samples_emitted"] += len(trace.samples)

    def _after_write(self, args, target) -> None:
        self.counts["io.bytes_written"] += len(args[2].encode("utf-8"))

    def _patch(self, module: str, attribute: str, make_wrapper) -> None:
        if not patch_everywhere(module, attribute, make_wrapper, self._patched):
            self.missing.append(f"{module}.{attribute}")

    def install(self) -> None:
        after = {
            "generate_flux": self._after_generate,
            "run": self._after_run,
            "_write_text": self._after_write,
        }
        for module, attribute, metric in SPANS:
            hook = after.get(attribute)
            self._patch(module, attribute, lambda fn, m=metric, h=hook: self._span(m, fn, h))
        for check in VERIFY_CHECKS:
            self._patch("beds.verify", check, lambda fn, m=verify_metric(check): self._span(m, fn))
        for module, attribute, metric in COUNTS:
            self._patch(module, attribute, lambda fn, m=metric: self._count(m, fn))

    def uninstall(self) -> None:
        restore(self._patched)

    def all_counts(self) -> Counter:
        counts = Counter(self.counts)
        for metric, cell in self._cells.items():
            counts[metric] += cell[0]
        return counts

    def self_times(self) -> Counter:
        """Sum of each metric's span durations minus the time its child spans cover."""

        totals: Counter = Counter()
        for metric, _op, start, end, parent in self.spans:
            duration = end - start
            totals[metric] += duration
            if parent >= 0:
                totals[self.spans[parent][0]] -= duration
        return totals

    def inclusive_times(self) -> Counter:
        totals: Counter = Counter()
        for metric, _op, start, end, _parent in self.spans:
            totals[metric] += end - start
        return totals

    def durations(self, metric: str) -> list[float]:
        return [end - start for name, _op, start, end, _parent in self.spans if name == metric]
