"""Checks on the package source itself.

`python -O` strips `assert` statements, so a check written as one would
vanish from optimised runs: every check in `src/mixedpages` raises instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mixedpages"


def test_no_assert_statement_in_the_package():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 5
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
