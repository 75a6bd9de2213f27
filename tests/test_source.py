"""Checks on the package source itself.

`python -O` strips `assert` statements, so a check written as one would
vanish from optimised runs: every check in `src/mixedpages` raises instead.
No function calls itself by name, so no input runs into the recursion
limit: searches and walks keep their own stacks.  Importing enumeration
does not load greene.
"""

import ast
import os
import subprocess
import sys
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


def test_enumeration_does_not_import_greene():
    """`mixed_page_number` imports greene inside the function, so importing
    enumeration, which reaches the solver, leaves greene unloaded and adds
    nothing to the set-up of an enumeration run."""
    code = "import sys, mixedpages.enumeration; print('mixedpages.greene' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
