"""Every def, class and class member of the library has a use.

A module-level function or class counts as used if code in ``src/zdgraph``
outside its own body names it, if ``zdgraph.__all__`` exports it, or if the
benchmark times it (``perfbench/spans.py``'s ``TIMED``).  A method, property
or class-level field counts as used if that code reads it as an attribute
outside its own definition, if its class is exported, or if the benchmark
times a function of its name.  Dunder methods are called by the language and
always count.  A helper or a field that only the tests read belongs with
them, in ``tests/``.
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


def _attributes(node) -> Counter:
    """The attribute names that ``node`` and its children read."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def _member_name(node):
    """The name a class-body statement defines: a method or property, or a
    field, annotated or assigned; None for anything else and for dunders."""
    if isinstance(node, ast.FunctionDef):
        name = node.name
    elif isinstance(node, (ast.AnnAssign, ast.Assign)):
        target = node.target if isinstance(node, ast.AnnAssign) else node.targets[0]
        name = getattr(target, "id", None)
    else:
        return None
    return None if name is None or name.startswith("__") and name.endswith("__") else name


def dead_defs(sources: dict[str, str], used: set[str]) -> list[str]:
    """``module.name`` of each module-level def or class in ``sources``
    (module -> text) that no code outside its own body names, and
    ``module.Class.member`` of each member of a class that no code outside
    the member's definition reads as an attribute, neither name nor class
    being in ``used``."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    attributes = sum((_attributes(tree) for tree in trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in used:
                continue
            if everywhere[node.name] == _names(node)[node.name]:
                dead.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    name = _member_name(member)
                    if name and name not in used and \
                            attributes[name] == _attributes(member)[name]:
                        dead.append(f"{module}.{node.name}.{name}")
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


def test_the_lint_sees_a_member_without_a_read():
    sources = {
        "a": "class Report:\n"
             "    read: int\n"
             "    unread: int\n"
             "    kept = 0\n"
             "    def __post_init__(self):\n        pass\n"
             "    def recursive(self):\n        return self.recursive()\n"
             "    def method(self):\n        return self.read\n"
             "    @property\n    def prop(self):\n        return 0\n\n"
             "class Exported:\n"
             "    unread: int\n\n"
             "def use(r):\n    return r.method(), Report(unread=1, read=2), r.kept\n",
    }
    assert dead_defs(sources, {"Exported", "use"}) == [
        "a.Report.unread", "a.Report.recursive", "a.Report.prop"]
