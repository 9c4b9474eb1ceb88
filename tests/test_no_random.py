"""The library draws nothing: every verified check walks a bounded class.

A suite whose coverage depends on a seed says less than one that walks
every class once, so no module of the library imports ``random``.  What a
suite once drew to check a law no input can fail is a certificate: the
tests walk it against an oracle instead.
"""

import ast
from pathlib import Path

import zdgraph

SRC = Path(zdgraph.__file__).parent
ALLOWED: set[str] = set()


def _imports_random(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "random" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "random":
                return True
    return False


def test_only_the_allowed_modules_import_random():
    found = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if _imports_random(ast.parse(path.read_text(), filename=str(path)))
    )
    assert set(found) <= ALLOWED, f"modules of zdgraph that import random: {found}"


def test_the_lint_sees_an_import_of_random():
    for source in ("import random", "import random as r", "from random import Random",
                   "def f():\n    import random"):
        assert _imports_random(ast.parse(source))
    for source in ("import randomness", "from .random import x", "random = 1"):
        assert not _imports_random(ast.parse(source))
