"""The package surface: what `import beds` binds, and the README's quick start."""

import importlib
import pkgutil
import re
import types
from pathlib import Path

import beds

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = {
    # used by the demos, the README and bench/
    "run", "sweep", "classify_run", "flux_from_csv", "steady_state_prediction", "required_rate",
    "propagate", "bayes_update", "is_crystallized", "EnergyLedger", "EnergyModel",
    "gaussian_entropy", "info_gain", "scenario_from_dict", "scenario_to_dict",
    # scenario I/O and the closed forms
    "scenario_from_json", "scenario_to_json", "p_min_exact", "p_min_linear", "optimal_obs_precision",
}
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(beds.__path__))


def test_import_beds_binds_exactly_the_public_names_and_every_all_entry_resolves():
    modules = [importlib.import_module(f"beds.{name}") for name in SUBMODULES]
    bound = {name for name in vars(beds) if not name.startswith("__")}
    submodules = {name for name in bound if isinstance(getattr(beds, name), types.ModuleType)}
    assert bound - submodules == PUBLIC
    assert submodules == set(SUBMODULES)
    assert isinstance(beds.__version__, str)
    for module in modules:
        assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})
