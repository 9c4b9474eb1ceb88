"""Library code raises explicit exceptions: ``python -O`` strips asserts.

A theorem is judged once, as a suite item with its witness, and an
invariant that cannot fail raises ``RuntimeError``, so no module of the
library raises ``AssertionError`` and no library exception subclasses it.
"""

import ast
from pathlib import Path

import zdgraph

SRC = Path(zdgraph.__file__).parent


def _trees():
    return [(path.name, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(SRC.rglob("*.py"))]


def _is_assertion_error(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "AssertionError"


def test_no_assert_statements_in_library():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in zdgraph: {found}"


def test_library_raises_no_assertion_error():
    subclasses = [
        f"{name}:{node.name}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(map(_is_assertion_error, node.bases))
    ]
    assert not subclasses, f"AssertionError subclasses in zdgraph: {subclasses}"
    raised = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and _is_assertion_error(getattr(node.exc, "func", node.exc))
    ]
    assert not raised, f"raise AssertionError in zdgraph: {raised}"
