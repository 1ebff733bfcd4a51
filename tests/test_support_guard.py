"""Whether a support is geometric is read off its points, in
``Support3.__init__`` alone: no module of the package names a union of
support types, asks whether a support is a ``BetaSupport``, or converts
one with ``to_support3`` before it reads it.  ``BetaSupport`` is only a
spelling of a ``Support3``, and every reader takes either."""

import ast
from pathlib import Path

import pytest

import uncorrsets

MODULES = sorted(Path(uncorrsets.__file__).parent.glob("*.py"))


def _name(node: ast.AST) -> str | None:
    """The name a node spells: a variable, an attribute or an import."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def type_tests(tree: ast.AST) -> list[tuple[int, str]]:
    """Each place in a module that decides by a support's type, by line."""
    found = []
    for node in ast.walk(tree):
        if _name(node) == "SupportLike":
            found.append((node.lineno, "names SupportLike"))
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "to_support3":
                found.append((node.lineno, "calls to_support3()"))
            elif (_name(func) == "isinstance" and len(node.args) == 2
                  and "BetaSupport" in map(_name, ast.walk(node.args[1]))):
                found.append((node.lineno, "tests isinstance(..., BetaSupport)"))
    return sorted(found)


def test_the_guard_sees_each_type_test():
    tree = ast.parse(
        "from .engine import SupportLike\n"
        "def f(s: model.SupportLike):\n"
        "    if isinstance(s, (int, model.BetaSupport)):\n"
        "        s = s.to_support3()\n"
    )
    assert type_tests(tree) == [
        (1, "names SupportLike"),
        (2, "names SupportLike"),
        (3, "tests isinstance(..., BetaSupport)"),
        (4, "calls to_support3()"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_decides_by_the_support_type(path):
    assert type_tests(ast.parse(path.read_text(encoding="utf-8"))) == []
