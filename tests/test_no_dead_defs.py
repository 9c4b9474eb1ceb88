"""Every module-level def and class of the library has a use.

A function or class counts as used if code in ``src/zdgraph`` outside its
own body names it, if ``zdgraph.__all__`` exports it, or if the benchmark
times it (``perfbench/spans.py``'s ``TIMED``).  A helper that only the
tests call belongs with them, in ``tests/``.
"""

import ast
from collections import Counter

import zdgraph
from test_traced_names import ROOT, _assigned_literal

SRC = ROOT / "src" / "zdgraph"


def _names(node) -> Counter:
    """The names that ``node`` and its children read, as bare names or as
    attributes."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def dead_defs(sources: dict[str, str], used: set[str]) -> list[str]:
    """``module.name`` of each module-level def or class in ``sources``
    (module -> text) that no code outside its own body names and that is
    not in ``used``."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used:
                if everywhere[node.name] == _names(node)[node.name]:
                    dead.append(f"{module}.{node.name}")
    return dead


def test_every_def_of_the_library_is_used_exported_or_timed():
    timed = _assigned_literal(ROOT / "perfbench" / "spans.py", "TIMED")
    used = set(zdgraph.__all__) | {q.split(".")[1] for quals in timed.values() for q in quals}
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert dead_defs(sources, used) == []


def test_the_lint_sees_a_def_without_a_use():
    sources = {
        "a": "def used():\n    pass\n\ndef recursive(n):\n    return recursive(n - 1)\n\n"
             "class Unused:\n    pass\n\ndef exported():\n    pass\n",
        "b": "from .a import used\n\ndef caller():\n    return used()\n\n"
             "def method_user(x):\n    return x.caller\n",
    }
    assert dead_defs(sources, {"exported"}) == ["a.recursive", "a.Unused", "b.method_user"]
