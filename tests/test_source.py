"""Checks on the package source itself.

`python -O` strips `assert` statements, so a check written as one would
vanish from optimised runs: every check in `src/mixedpages` raises instead.
No function calls itself by name, so no input runs into the recursion
limit: searches and walks keep their own stacks.  Importing enumeration
does not load greene.  Twists and thick patterns are read off stabbing
points, with no clique search and no budget.  Diamond matrices come from
one builder on one LIS pass.
"""

import ast
import inspect
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


def test_twists_and_thick_patterns_run_no_clique_search():
    """No module defines the clique search `_max_clique` or its colouring
    `_color_classes`, and none of the twist and thick functions takes a
    budget: they are exact and polynomial."""
    from mixedpages import patterns

    found = [
        f"{path}:{node.lineno} {node.name}"
        for path, node in package_nodes()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in ("_max_clique", "_color_classes")
    ]
    assert found == []
    functions = (
        patterns.largest_twist,
        patterns.largest_thick_of_kind,
        patterns.largest_thick,
        patterns.largest_square_thick,
    )
    assert [f.__name__ for f in functions if "budget" in inspect.signature(f).parameters] == []


def test_diamonds_come_from_one_lis_pass():
    """greene defines no `_fill_matrix` or `_diamond_levels`: the builder
    `_level_rows` makes the one `increasing_levels` call of a diamond
    matrix, and `diamond_matrix` makes none of its own."""
    tree = ast.parse((SRC / "greene.py").read_text())
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert {"_fill_matrix", "_diamond_levels"} & functions.keys() == set()

    def level_passes(function) -> int:
        return sum(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "increasing_levels"
            for node in ast.walk(function)
        )

    assert level_passes(functions["_level_rows"]) == 1
    assert level_passes(functions["diamond_matrix"]) == 0
