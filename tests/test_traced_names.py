"""Every function the benchmark traces is a module-level def of zdgraph.

``perfbench/spans.py`` times the ``module.function`` names in its ``TIMED``
table by rebinding them in the zdgraph module namespaces.  A name that is
no longer a module-level function there (inlined, renamed or made a
method) would silently drop out of the per-layer figures.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _assigned_literal(path, name):
    tree = ast.parse(path.read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == name]
    return ast.literal_eval(value)


def _module_defs(module):
    tree = ast.parse((ROOT / "src" / "zdgraph" / f"{module}.py").read_text())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_every_timed_name_is_a_module_level_def():
    timed = _assigned_literal(ROOT / "perfbench" / "spans.py", "TIMED")
    names = sorted({qual for quals in timed.values() for qual in quals})
    assert len(names) > 40
    missing = [q for q in names if q.split(".")[1] not in _module_defs(q.split(".")[0])]
    assert not missing
