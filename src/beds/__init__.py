"""Dissipative Bayesian belief maintenance.

A library for simulating scalar Gaussian beliefs that lose precision
exponentially between observations and regain it through conjugate updates,
with thermodynamic accounting of the information each observation buys.
Closed-form steady-state laws (required observation rate, minimum power,
optimal per-observation precision) live alongside the simulator so the two
can be checked against each other.

The package namespace binds the names the demos and the README use, the
scenario I/O functions and the closed forms. Everything else is imported
from its own module (``beds.core``, ``beds.engine``, ``beds.dynamics``, ...).
"""

from .analysis import (
    classify_run,
    optimal_obs_precision,
    p_min_exact,
    p_min_linear,
    required_rate,
    steady_state_prediction,
)
from .core import (
    EnergyModel,
    scenario_from_dict,
    scenario_from_json,
    scenario_to_dict,
    scenario_to_json,
)
from .dynamics import bayes_update, is_crystallized, propagate
from .energy import EnergyLedger, gaussian_entropy, info_gain
from .engine import run, sweep
from .fluxgen import flux_from_csv

__version__ = "0.1.0"
