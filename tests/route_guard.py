"""What a function of a module can reach, for the tests that keep two
routes to one fact from sharing code."""

import ast


def _references(func: ast.FunctionDef) -> set[str]:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(func)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def reachable(tree: ast.Module, start: str) -> set[str]:
    """Names reached from a function, through the functions of the module."""
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    seen, todo = set(), [start]
    while todo:
        for name in _references(funcs[todo.pop()]) - seen:
            seen.add(name)
            if name in funcs:
                todo.append(name)
    return seen
