"""Source-level guards on the package itself."""

import ast
from pathlib import Path

import gesselwalks

SRC = Path(gesselwalks.__file__).resolve().parent


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so every check in the library must raise
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
