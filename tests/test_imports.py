"""No module of the package imports a name it never uses.

A stand-in for a linter's unused-import rule (pyflakes F401): every
module-level import in src/sivjp/*.py must bind a name that the module reads
somewhere. __init__.py re-exports by design, __future__ imports bind
nothing, and an import marked "# noqa: F401" is kept on purpose.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sivjp"
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
