"""The modules of the package import each other without a cycle, and
nothing outside the standard library.

Imports inside functions count too: a lazy import hides a cycle or a
runtime dependency from the interpreter, not from the design.

The package itself resolves its public names on first access, so
importing it loads no submodule.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uncorrsets
from uncorrsets import engine, numeric

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
    # det and indep-cert load no set machinery
    assert not graph["determinants"] & {"engine", "model"}


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


# ---------------------------------------------------------------------------
# the package's names resolve on first access


def test_package_names_are_their_definitions():
    star = {}
    exec("from uncorrsets import *", star)
    for name in uncorrsets.__all__:
        value = getattr(uncorrsets, name)
        assert star[name] is value
        assert getattr(sys.modules[value.__module__], name) is value
        assert value.__module__.startswith("uncorrsets.")
    assert set(uncorrsets.__all__) <= set(dir(uncorrsets))


def test_an_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        uncorrsets.no_such_name
    assert not hasattr(uncorrsets, "engine_")


def _loaded_by(statement: str) -> list[str]:
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; {statement}; "
         "print(*sorted(m for m in sys.modules if m.startswith('uncorrsets.')))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_importing_the_package_loads_no_submodule():
    assert _loaded_by("import uncorrsets") == []
    assert _loaded_by("import uncorrsets.cli") == ["uncorrsets.cli", "uncorrsets.numeric"]


def test_engine_reads_the_exponent_cap_of_numeric():
    for name in ("max_exponent", "check_order", "ExponentCapExceeded", "parse_point"):
        assert getattr(engine, name) is getattr(numeric, name)
    # the cap's constants are read from numeric only; engine re-exports none
    for name in ("DEFAULT_MAX_EXP", "ENV_MAX_EXP"):
        assert not hasattr(engine, name)
