"""Every package import sits at a module's top, so the import graph is the
one the module headers state and a cycle fails at import time; every name a
module imports is used, and every parameter a function takes is read, so a
simplification leaves no import or parameter behind."""

import ast
from pathlib import Path

import pytest

import fracfield

MODULES = sorted(Path(fracfield.__file__).parent.glob("*.py"))


def _package_imports_in_functions(tree: ast.Module) -> list[str]:
    """'line: statement' for each import of a package module that runs
    inside a function or method body."""
    bodies = [fn for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = set()
    for node in (node for fn in bodies for node in ast.walk(fn)):
        if isinstance(node, ast.ImportFrom):
            package = node.level > 0 or (node.module or "").split(".")[0] == "fracfield"
        elif isinstance(node, ast.Import):
            package = any(alias.name.split(".")[0] == "fracfield" for alias in node.names)
        else:
            continue
        if package:  # a nested function's import is reached from each enclosing one
            found.add((node.lineno, ast.unparse(node)))
    return [f"{line}: {text}" for line, text in sorted(found)]


def _unused_imports(tree: ast.Module) -> list[str]:
    """'line: name' for each name an import binds and the module never reads.
    `from __future__` imports bind no name."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        for name in names:
            bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in sorted(bound.items(), key=lambda b: b[::-1])
            if name not in read]


def _unused_parameters(tree: ast.Module) -> list[str]:
    """'line: function(parameter)' for each parameter of a def or lambda that
    its body never reads. `self`, `cls` and names starting with `_` (a
    callback's protocol slot) are exempt."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        name = getattr(fn, "name", "lambda")
        found += [f"{fn.lineno}: {name}({p})" for p in params
                  if p not in read and p not in ("self", "cls") and not p.startswith("_")]
    return sorted(found, key=lambda f: int(f.split(":")[0]))


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"fields", "quadrature", "spectral", "verify"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_package_module_is_imported_inside_a_function(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _package_imports_in_functions(tree) == []


def test_the_guard_sees_a_local_import():
    tree = ast.parse("import math\n"
                     "def f():\n"
                     "    from concurrent.futures import ThreadPoolExecutor\n"
                     "    class C:\n"
                     "        def g(self):\n"
                     "            from .norms import lp_norm\n"
                     "            import fracfield.fields\n")
    assert _package_imports_in_functions(tree) == [
        "6: from .norms import lp_norm", "7: import fracfield.fields"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    """The package's __init__ imports to re-export, so it is left out."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\n"
                     "import numpy as np\n"
                     "from .fields import GridSpec, _inner\n"
                     "def f(x):\n"
                     "    import math\n"
                     "    return np.sum(_inner(x))\n")
    assert _unused_imports(tree) == ["2: os", "4: GridSpec", "6: math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_parameter_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_parameters(tree) == []


def test_the_guard_sees_an_unused_parameter():
    tree = ast.parse("def f(x, y, *args, _slot, **kw):\n"
                     "    def g(self, z):\n"
                     "        return x\n"
                     "    return lambda p, q: p + g(None, kw)\n"
                     "class C:\n"
                     "    def h(self, cls, w=1):\n"
                     "        pass\n")
    assert _unused_parameters(tree) == [
        "1: f(y)", "1: f(args)", "2: g(z)", "4: lambda(q)", "6: h(w)"]
