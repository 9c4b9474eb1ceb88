"""Library code raises explicit exceptions: ``python -O`` strips asserts."""

import ast
from pathlib import Path

import zdgraph

SRC = Path(zdgraph.__file__).parent


def test_no_assert_statements_in_library():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in zdgraph: {found}"
