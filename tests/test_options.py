"""Every defaulted parameter of the package is passed by some caller,
every parameter of a public function is read, and no member is an alias.

A stand-in for an unused-option lint, modelled on test_imports.py: for each
function or method in src/sivjp/*.py, every parameter with a default must be
passed, positionally or by keyword, at some call site in src/ or tests/.
Call sites are matched by the function's or method's name, so a call
x.fbar(...) counts for every function named fbar. A call that unpacks
*args passes every positional parameter, and one that unpacks **kwargs
every keyword. A default that no caller overrides is a constant, not an
option. A parameter that the body of a public (non-underscore) function or
method never reads is an argument every caller must pass for nothing. A
method or property whose whole body is `return self.<attr>.<attr>` restates
a field of a field under a second name, so two spellings reach one fact.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sivjp"
CALLERS = [ROOT / "src", ROOT / "tests"]


def defaulted_params(tree: ast.Module) -> list[tuple[str, list[str], list[str]]]:
    """(name, positional parameters, defaulted parameters) of every function;
    a method's self or cls is left out of its positional parameters."""
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.FunctionDef)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        pos = [a.arg for a in args.posonlyargs + args.args]
        if id(node) in methods and pos[:1] in (["self"], ["cls"]):
            pos = pos[1:]
        defaulted = pos[len(pos) - len(args.defaults):] if args.defaults else []
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        if defaulted:
            out.append((node.name, pos, defaulted))
    return out


def passed_params(trees: list[ast.Module]) -> dict[str, tuple[int, set[str], bool, bool]]:
    """Per called name: the most positional arguments any call passes, the
    keywords passed, and whether some call unpacks *args or **kwargs."""
    seen: dict[str, tuple[int, set[str], bool, bool]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            n_pos, kws, star, dstar = seen.get(name, (0, set(), False, False))
            plain = [a for a in node.args if not isinstance(a, ast.Starred)]
            seen[name] = (max(n_pos, len(plain)),
                          kws | {k.arg for k in node.keywords if k.arg is not None},
                          star or len(plain) < len(node.args),
                          dstar or any(k.arg is None for k in node.keywords))
    return seen


def unused_options(sources: dict[str, str], callers: list[str]) -> list[str]:
    """'module.function: parameter' for every defaulted parameter of the
    modules in `sources` that no call in `callers` passes."""
    seen = passed_params([ast.parse(src) for src in callers])
    unused = []
    for module, src in sources.items():
        for name, pos, defaulted in defaulted_params(ast.parse(src)):
            n_pos, kws, star, dstar = seen.get(name, (0, set(), False, False))
            for param in defaulted:
                positional = param in pos and (star or pos.index(param) < n_pos)
                if not (positional or dstar or param in kws):
                    unused.append(f"{module}.{name}: {param}")
    return unused


def test_every_option_is_passed_somewhere():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    callers = [p.read_text(encoding="utf-8") for d in CALLERS for p in sorted(d.rglob("*.py"))]
    assert unused_options(sources, callers) == []


def test_check_flags_an_unused_option():
    module = ("class T:\n"
              "    def fbar(self, a, grid=None):\n        return a\n"
              "def f(x, n=1, m=2, *, tol=1e-9, quiet=False):\n    return x\n"
              "def g(x, scale=1.0):\n    return x\n")
    callers = ["f(0, 3)\nf(1, quiet=True)\nT().fbar(1.0, None)\n", "g(*args)\n"]
    assert unused_options({"mod": module}, callers) == ["mod.f: m", "mod.f: tol"]


def unread_params(sources: dict[str, str]) -> list[str]:
    """'module.function: parameter' for every parameter of a public function
    or method of the modules in `sources` that its body never reads; a
    method's self or cls is left out."""
    unread = []
    for module, src in sources.items():
        tree = ast.parse(src)
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body if isinstance(item, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            if id(node) in methods and params[:1] in (["self"], ["cls"]):
                params = params[1:]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{module}.{node.name}: {p}" for p in params if p not in read]
    return unread


def test_every_public_parameter_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unread_params(sources) == []


def test_check_flags_an_unread_parameter():
    module = ("class T:\n"
              "    def fbar(self, a, b):\n        return a\n"
              "    def _tables(self, grid):\n        return 0\n"
              "def f(x, *args, scale=1.0, **kw):\n    scale = 2\n    return x, args\n"
              "def _g(unused):\n    return 0\n")
    assert unread_params({"mod": module}) == ["mod.f: scale", "mod.f: kw", "mod.fbar: b"]


def alias_members(sources: dict[str, str]) -> list[str]:
    """'module.Class.member' for every method or property of the modules in
    `sources` whose whole body is `return self.<attr>.<attr>`: a second
    name for a field of a field, which callers can read where it lives."""
    aliases = []
    for module, src in sources.items():
        for cls in ast.walk(ast.parse(src)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if not isinstance(item, ast.FunctionDef) or not item.args.args:
                    continue
                this = item.args.args[0].arg
                if len(item.body) == 1 and re.fullmatch(rf"return {this}\.\w+\.\w+",
                                                        ast.unparse(item.body[0])):
                    aliases.append(f"{module}.{cls.name}.{item.name}")
    return aliases


def test_no_alias_members():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert alias_members(sources) == []


def test_check_flags_an_alias_member():
    module = ("class M:\n"
              "    @property\n    def du(self):\n        return self.potential.dv\n"
              "    def grid(me):\n        return me.tables.grid\n"
              "    def rho(self):\n        return self.rho_\n"
              "    def sup(self):\n        return self.potential.dv_sup + 1.0\n"
              "    def call(self):\n        return self.potential.dv(0.0)\n"
              "    def other(self, spec):\n        return spec.potential.dv\n"
              "    def two(self):\n        x = 1\n        return self.a.b\n")
    assert alias_members({"mod": module}) == ["mod.M.du", "mod.M.grid"]
