"""What the package imports: no unused names, and no module a command
does not run.

The first check is a stand-in for a linter's unused-import rule (pyflakes
F401): every module-level import in src/sivjp/*.py must bind a name that the
module reads somewhere. __init__.py re-exports by design, __future__ imports
bind nothing, and an import marked "# noqa: F401" is kept on purpose.

The import budget runs the package in a fresh interpreter and checks which
modules it loaded: the package root loads no submodule, and each command
leaves out the engine (engine, markov), the fixed-point atlas, the flow,
the self-checks and the process pool unless it runs them. A command that
starts a pool loads the engine first, so that the workers the pool forks
inherit it. hashlib, and with it OpenSSL's _hashlib, comes only with
numpy.random, so `fixed-points`, `flow` and scan's main process, which
hash their model with CPython's built-in SHA-256, load neither.
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
# one thinning loop on the circle: only engine._drive reads the loop's draws,
# and no scope reads the local clock, which the loop inlines and engine keeps
# as the reference, so a second copy of the loop cannot come back

LOOP_PRIMITIVES = ("uniform_pairs", "local_clock")


def loop_primitive_users(source: str, module: str) -> dict[str, set[str]]:
    """{name: qualified names of the scopes that read it} for each of
    LOOP_PRIMITIVES, read as a name or an attribute, called or aliased."""
    users: dict[str, set[str]] = {name: set() for name in LOOP_PRIMITIVES}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                name = child.id
            else:
                name = child.attr if isinstance(child, ast.Attribute) else None
            if name in users:
                users[name].add(scope)
            visit(child, scope)

    visit(ast.parse(source), module)
    return users


def test_one_thinning_loop_on_the_circle():
    users: dict[str, set[str]] = {name: set() for name in LOOP_PRIMITIVES}
    for path in sorted(SRC.glob("*.py")):
        for name, scopes in loop_primitive_users(path.read_text(encoding="utf-8"),
                                                 path.stem).items():
            users[name] |= scopes
    assert users == {"uniform_pairs": {"engine._drive"}, "local_clock": set()}


def test_check_finds_an_aliased_loop_primitive():
    src = ("from .markov import local_clock\nfrom . import rng\n"
           "def loop(gen):\n    clock = local_clock\n"
           "    for pair in rng.uniform_pairs(gen):\n        clock(*pair)\n"
           "class Run:\n    def go(self):\n        return local_clock(0.5, 0.0, 1.0, 1.0, 2.0)\n")
    assert loop_primitive_users(src, "m") == {"uniform_pairs": {"m.loop"},
                                              "local_clock": {"m.loop", "m.Run.go"}}


# ---------------------------------------------------------------------------
# no import cycle: the engine runs on markov's EventLog and csv_text, so
# markov must not import the engine back, at module level or in a function

def engine_imports(source: str) -> list[int]:
    """The lines of source that import sivjp.engine, at any depth: by an
    import statement or by importlib.import_module."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "import_module":
            names = [a.value for a in node.args[:1] if isinstance(a, ast.Constant)]
        else:
            continue
        if any(str(name).split(".")[-1] == "engine" for name in names):
            lines.append(node.lineno)
    return lines


def test_markov_imports_no_engine():
    assert engine_imports((SRC / "markov.py").read_text(encoding="utf-8")) == []


def test_check_finds_an_engine_import_at_any_depth():
    src = ("import math\nfrom .geometry import wrap\nfrom . import engine\n"
           "def run():\n    from .engine import _drive\n    return _drive\n"
           "class Log:\n    def load(self):\n        import sivjp.engine\n"
           "        return importlib.import_module('.engine', __package__)\n"
           "from .engineering import engines\n")
    assert engine_imports(src) == [3, 5, 9, 10]


# ---------------------------------------------------------------------------
# import budget

POOL = "concurrent.futures.process"
ENGINE = {"sivjp.engine", "sivjp.markov"}


def run_fresh(code: str) -> list[str]:
    """The lines a fresh interpreter prints running code at the root."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    return done.stdout.splitlines()


def modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code at the root."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    return set(json.loads(run_fresh(code)[-1]))


def cli_run(tmp_path, raw: dict, argv: list[str]) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    argv = ["--config", str(path), "--out", str(tmp_path / "out"), "--quiet", *argv]
    return f"from sivjp.cli import main\nassert main({argv!r}) == 0"


def test_package_root_loads_no_submodule():
    assert sorted(m for m in modules_after("import sivjp") if m.startswith("sivjp.")) == []


def test_config_load_loads_no_engine_hashlib_atlas_flow_checks_or_pool():
    loaded = modules_after("import sivjp.cli\n"
                           "from sivjp.harness import ExperimentConfig\n"
                           "ExperimentConfig.from_file('configs/localize_two_well.json')")
    assert "sivjp.model" in loaded
    assert loaded.isdisjoint(ENGINE | {"hashlib", "sivjp.equilibria", "sivjp.flow",
                                       "sivjp.validate", POOL})


def test_flow_loads_no_engine_or_hashlib(tmp_path):
    raw = json.loads((ROOT / "configs" / "flow_demo.json").read_text())
    raw["flow"]["T_flow"] = 5.0
    loaded = modules_after(cli_run(tmp_path, raw, ["flow"]))
    assert "sivjp.flow" in loaded
    assert loaded.isdisjoint({"sivjp.engine", "hashlib"})


def test_scan_loads_the_engine_before_its_pool(tmp_path):
    # the pool records what the main process holds when it starts; the
    # workers it forks inherit that
    raw = json.loads((ROOT / "configs" / "pitchfork_scan.json").read_text())
    raw["sweep"] = {"rhos": [1.0, 3.0], "seeds": 1}
    raw["sivjp"]["T"] = 50.0
    code = ("import sys\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from sivjp import harness\n"
            "class Pool(ProcessPoolExecutor):\n"
            "    def __init__(self, *args, **kwargs):\n"
            "        print('engine at pool start:', 'sivjp.engine' in sys.modules)\n"
            "        super().__init__(*args, **kwargs)\n"
            "harness.ProcessPoolExecutor = Pool\n"
            + cli_run(tmp_path, raw, ["--threads", "2", "scan"]))
    assert run_fresh(code) == ["engine at pool start: True"]


def test_scan_holds_no_openssl_when_its_pool_starts(tmp_path):
    raw = json.loads((ROOT / "configs" / "pitchfork_scan.json").read_text())
    raw["sweep"] = {"rhos": [1.0, 3.0], "seeds": 1}
    raw["sivjp"]["T"] = 50.0
    code = ("import sys\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from sivjp import harness\n"
            "class Pool(ProcessPoolExecutor):\n"
            "    def __init__(self, *args, **kwargs):\n"
            "        print('at pool start:', sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
            "        super().__init__(*args, **kwargs)\n"
            "harness.ProcessPoolExecutor = Pool\n"
            + cli_run(tmp_path, raw, ["--threads", "2", "scan"]))
    assert run_fresh(code) == ["at pool start: []"]


@pytest.mark.parametrize("command, config", [("fixed-points", "pitchfork_scan.json"),
                                             ("flow", "flow_demo.json")])
def test_census_commands_load_no_openssl(tmp_path, command, config):
    # model_hash takes CPython's built-in SHA-256: hashlib would load
    # OpenSSL's _hashlib, 3.4 MB of resident memory
    raw = json.loads((ROOT / "configs" / config).read_text())
    if command == "flow":
        raw["flow"]["T_flow"] = 5.0
    loaded = modules_after(cli_run(tmp_path, raw, [command]))
    assert "sivjp.equilibria" in loaded
    assert loaded.isdisjoint({"hashlib", "_hashlib"})


def test_fixed_points_loads_no_engine_flow_or_pool(tmp_path):
    raw = {"name": "fp", "model": {"potential": "cos2", "rho": 3.0, "lambda_min": 1.0}}
    loaded = modules_after(cli_run(tmp_path, raw, ["fixed-points"]))
    assert "sivjp.equilibria" in loaded
    assert loaded.isdisjoint(ENGINE | {"sivjp.flow", POOL})


def test_shadow_loads_no_checks_or_pool(tmp_path):
    raw = json.loads((ROOT / "configs" / "shadow_demo.json").read_text())
    raw["sivjp"]["T"] = 100.0
    loaded = modules_after(cli_run(tmp_path, raw, ["shadow"]))
    assert "sivjp.flow" in loaded
    assert loaded.isdisjoint({"sivjp.validate", POOL})


def test_serial_localize_loads_no_atlas_or_pool(tmp_path):
    raw = json.loads((ROOT / "configs" / "localize_two_well.json").read_text())
    raw["localize"].update({"N": 2, "T": 100.0})
    loaded = modules_after(cli_run(tmp_path, raw, ["--threads", "1", "localize"]))
    assert loaded.isdisjoint({"sivjp.equilibria", POOL})


# ---------------------------------------------------------------------------
# the package root's names, imported on first access

EXPORTS = {
    "engine": ["MomentTrace", "OccupationStats", "advect_occupation", "drift_vprime",
               "run_sitp", "run_sitp_general", "quadratic_kernel_grids",
               "simulate_telegraph"],
    "equilibria": ["FixedPointRecord", "GridDensity", "fbar", "find_fixed_points",
                   "free_energy", "jacobian_fbar", "laplace_check", "moments", "pibar",
                   "rho_2", "rho_c", "solve_r_of_rho"],
    "errors": ["ConfigError", "DomainError", "NumericError", "RunawayRateError"],
    "flow": ["FlowTrace", "integrate_flow", "pseudotrajectory_error"],
    "geometry": ["DENSITY_GRID", "THRESHOLD_GRID", "PeriodicGrid", "dist_t",
                 "quad_periodic", "wrap"],
    "markov": ["EventLog", "TorusVJPState", "empirical_tv",
               "invariant_density", "occupation_histogram", "simulate_torus_vjp",
               "velocity_fraction"],
    "model": ["ModelSpec", "SIVJPConfig", "TelegraphState"],
    "potentials": ["FrozenPotential", "cos_potential", "cos2_potential",
                   "grid_potential", "local_minima", "make_potential",
                   "two_well_potential", "zero_potential"],
    "rng": ["SeedSpec", "derive_stream"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_root_exports_the_submodules_own_objects():
    assert len(NAMES) == 53
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
