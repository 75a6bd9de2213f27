"""Checks on the package source itself.

`python -O` strips `assert` statements, so a check written as one would
vanish from optimised runs: every check in `src/mixedpages` raises instead.
No function calls itself by name, so no input runs into the recursion
limit: searches and walks keep their own stacks.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mixedpages"


def package_nodes():
    """(module path, node) for every AST node of the package."""
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 5
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.relative_to(SRC), node


def test_no_assert_statement_in_the_package():
    found = [f"{path}:{node.lineno}" for path, node in package_nodes() if isinstance(node, ast.Assert)]
    assert found == []


def calls_itself(function) -> bool:
    """Does the function's body call its own name, plainly or as a method
    of `self` or `cls`?"""
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
            if callee.value.id in ("self", "cls") and callee.attr == function.name:
                return True
        elif isinstance(callee, ast.Name) and callee.id == function.name:
            return True
    return False


def test_no_function_calls_itself():
    found = [
        f"{path}:{node.lineno} {node.name}"
        for path, node in package_nodes()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and calls_itself(node)
    ]
    assert found == []
