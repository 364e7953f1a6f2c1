"""Every package import sits at a module's top, so the import graph is the
one the module headers state and a cycle fails at import time."""

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
