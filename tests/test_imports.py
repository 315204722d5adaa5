"""What the package imports: no unused names, and no module a command
does not run.

The first check is a stand-in for a linter's unused-import rule (pyflakes
F401): every module-level import in src/sivjp/*.py must bind a name that the
module reads somewhere. __init__.py re-exports by design, __future__ imports
bind nothing, and an import marked "# noqa: F401" is kept on purpose.

The import budget runs the package in a fresh interpreter and checks which
modules it loaded: the package root loads no submodule, and each command
leaves out the fixed-point atlas, the flow, the self-checks and the process
pool unless it runs them.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sivjp

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sivjp"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: dict[str, int] = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_flags_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import math\nimport os\n"
           "from .geometry import TWO_PI, wrap\n"
           "from .flow import fbar  # noqa: F401\n"
           "def f():\n    return math.pi + wrap(0.0)\n")
    assert unused_imports(src) == ["line 3: os", "line 4: TWO_PI"]


# ---------------------------------------------------------------------------
# import budget

POOL = "concurrent.futures.process"


def modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code at the root."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    return set(json.loads(done.stdout.splitlines()[-1]))


def cli_run(tmp_path, raw: dict, argv: list[str]) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    argv = ["--config", str(path), "--out", str(tmp_path / "out"), "--quiet", *argv]
    return f"from sivjp.cli import main\nassert main({argv!r}) == 0"


def test_package_root_loads_no_submodule():
    assert sorted(m for m in modules_after("import sivjp") if m.startswith("sivjp.")) == []


def test_config_load_loads_no_atlas_flow_checks_or_pool():
    loaded = modules_after("import sivjp.cli\n"
                           "from sivjp.harness import ExperimentConfig\n"
                           "ExperimentConfig.from_file('configs/localize_two_well.json')")
    assert loaded.isdisjoint({"sivjp.equilibria", "sivjp.flow", "sivjp.validate", POOL})


def test_fixed_points_loads_no_flow_or_pool(tmp_path):
    raw = {"name": "fp", "model": {"potential": "cos2", "rho": 3.0, "lambda_min": 1.0}}
    loaded = modules_after(cli_run(tmp_path, raw, ["fixed-points"]))
    assert "sivjp.equilibria" in loaded
    assert loaded.isdisjoint({"sivjp.flow", POOL})


def test_serial_localize_loads_no_atlas_or_pool(tmp_path):
    raw = json.loads((ROOT / "configs" / "localize_two_well.json").read_text())
    raw["localize"].update({"N": 2, "T": 100.0})
    loaded = modules_after(cli_run(tmp_path, raw, ["--threads", "1", "localize"]))
    assert loaded.isdisjoint({"sivjp.equilibria", POOL})


# ---------------------------------------------------------------------------
# the package root's names, imported on first access

EXPORTS = {
    "engine": ["MomentTrace", "OccupationStats", "SIVJPConfig", "advect_occupation",
               "drift_vprime", "run_sitp", "run_sitp_general", "quadratic_kernel_grids"],
    "equilibria": ["FixedPointRecord", "GridDensity", "fbar", "find_fixed_points",
                   "free_energy", "jacobian_fbar", "laplace_check", "moments", "pibar",
                   "rho_2", "rho_c", "solve_r_of_rho"],
    "errors": ["ConfigError", "DomainError", "NumericError", "RunawayRateError"],
    "flow": ["FlowTrace", "integrate_flow", "pseudotrajectory_error"],
    "geometry": ["DENSITY_GRID", "THRESHOLD_GRID", "PeriodicGrid", "dist_t",
                 "quad_periodic", "wrap"],
    "markov": ["EventLog", "TelegraphState", "TorusVJPState", "empirical_tv",
               "invariant_density", "occupation_histogram", "simulate_telegraph",
               "simulate_torus_vjp", "velocity_fraction"],
    "model": ["ModelSpec"],
    "potentials": ["FrozenPotential", "cos_potential", "cos2_potential",
                   "frozen_potential", "grid_potential", "local_minima", "make_potential",
                   "two_well_potential", "zero_potential"],
    "rng": ["SeedSpec", "derive_stream"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_root_exports_the_submodules_own_objects():
    assert len(NAMES) == 54
    assert sorted(sivjp.__all__) == sorted(NAMES)
    for module, names in EXPORTS.items():
        sub = importlib.import_module(f"sivjp.{module}")
        for name in names:
            assert getattr(sivjp, name) is getattr(sub, name), name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from sivjp import *", namespace)
    assert all(namespace[name] is getattr(sivjp, name) for name in NAMES)


def test_unknown_root_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sivjp.no_such_name
