"""The modules of the package import each other without a cycle, and
nothing outside the standard library.

Imports inside functions count too: a lazy import hides a cycle or a
runtime dependency from the interpreter, not from the design.
"""

import ast
import sys
from pathlib import Path

import uncorrsets

PACKAGE = Path(uncorrsets.__file__).parent
MODULES = {path.stem: path for path in PACKAGE.glob("*.py")}


def _imported_modules(tree: ast.AST) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.startswith("uncorrsets."):
                found.add(node.module.split(".")[1])
            elif node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("uncorrsets."):
                    found.add(alias.name.split(".")[1])
    return found & set(MODULES)


def _outside_imports(tree: ast.AST) -> set[str]:
    """Top-level names of absolute imports that are neither the standard
    library nor the package itself."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
    return found - set(sys.stdlib_module_names) - {"uncorrsets"}


def _graph() -> dict[str, set[str]]:
    return {
        name: _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        for name, path in MODULES.items()
    }


def _find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    state: dict[str, str] = {}
    stack: list[str] = []

    def visit(name):
        state[name] = "open"
        stack.append(name)
        for dep in sorted(graph[name]):
            if state.get(dep) == "open":
                return stack[stack.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep)
                if cycle:
                    return cycle
        state[name] = "done"
        stack.pop()
        return None

    for name in sorted(graph):
        if name not in state:
            cycle = visit(name)
            if cycle:
                return cycle
    return None


def test_graph_sees_the_package():
    graph = _graph()
    assert {"engine", "constructions", "slopeline", "cli"} <= set(graph)
    assert "slopeline" in graph["engine"] and "engine" in graph["constructions"]
    assert graph["slopeline"] == {"polynomials"}


def test_no_import_cycle():
    cycle = _find_cycle(_graph())
    assert cycle is None, " -> ".join(cycle)


def test_cycle_finder_catches_a_lazy_import():
    tree = ast.parse("def f():\n    from .constructions import beta0_poly\n")
    graph = {"engine": _imported_modules(tree), "constructions": {"engine"}}
    cycle = _find_cycle(graph)
    assert cycle[0] == cycle[-1] and set(cycle) == {"engine", "constructions"}


def test_only_the_standard_library_is_imported():
    outside = {
        name: found
        for name, path in MODULES.items()
        if (found := _outside_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert not outside, outside


def test_outside_import_finder_catches_a_lazy_import():
    tree = ast.parse(
        "import json, sympy.core\n"
        "def f():\n    from hypothesis import given\n    from . import engine\n"
        "    from uncorrsets.model import rescale\n    import os.path\n"
    )
    assert _outside_imports(tree) == {"sympy", "hypothesis"}
