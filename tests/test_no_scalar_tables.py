"""Operation tables are read as arrays: no cell-by-cell loops over them.

A cell read like ``S.product[a][b]`` is a scalar read of an ndarray, slower
than the tuple reads it replaced, and a tuple-of-tuples copy of a table is
the second table form that was deleted.  This parses ``src/zdgraph`` and
fails on either.

Relations are bitmask rows in the same way: a read like ``P.leq[i][j]`` or a
nested tuple passed as ``leq`` is the bool-matrix form that was deleted.

Every point set is an int mask too: closed sets, ideals, annihilators, fan
parts and the members of the symbolic cofinite lattice, where a cofinite
set is a negative int.  A ``frozenset`` anywhere in ``src/zdgraph``, as a
call, an annotation or an ``isinstance`` type, is the form that was
deleted, except in the scopes of ``FROZENSET_EXEMPT``, which hold sets of
other things.

Rows are grouped by keys: an ``np.unique(..., axis=...)`` call sorts whole
rows through a structured view of each; on the 256 kill rows of Z_256 it
takes about 11 ms, and a 1-D ``np.unique`` over their packed bytes 0.06 ms
(one x86 Xeon core).

The library asks for ``numpy>=1.24`` (pyproject.toml), so it names only
NumPy attributes of ``NUMPY_1_24``, each present in NumPy 1.24; a new name
is checked against that release before it joins the set.

A graph is its adjacency rows: ``SimpleGraph(...)`` is called only in
``graphs.py`` (elsewhere a graph comes from a builder or ``from_edges``),
and ``graphs.py`` reads the derived ``.edges`` only in its export functions.
"""

import ast
from pathlib import Path

import zdgraph

SRC = Path(zdgraph.__file__).parent

TABLES = {"product", "add", "mul", "table"}  # names and attributes that hold a table
BUILDERS = {"SemigroupTable", "FiniteRing"}
RELATIONS = {"leq"}  # names and attributes that hold a relation


def _name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_tuple_call(node):
    return isinstance(node, ast.Call) and _name(node.func) == "tuple" and len(node.args) == 1


def _nested_tuple(node):
    """``tuple(tuple(...) for ...)``, ``tuple([tuple(...) ...])`` or ``tuple(map(tuple, ...))``."""
    if not _is_tuple_call(node):
        return False
    arg = node.args[0]
    if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
        return _is_tuple_call(arg.elt)
    return (isinstance(arg, ast.Call) and _name(arg.func) == "map" and len(arg.args) == 2
            and _name(arg.args[0]) == "tuple")


def _mentions_table(node):
    return any(isinstance(n, ast.Attribute) and n.attr in TABLES for n in ast.walk(node))


def scalar_table_reads(tree):
    """Line numbers of ``X.table[i][j]`` reads and of tuple copies of tables."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Subscript)
                and _name(node.value.value) in TABLES):
            found.append(node.lineno)
        # a nested tuple that reads a table, or that becomes one
        if _nested_tuple(node) and _mentions_table(node):
            found.append(node.lineno)
        if isinstance(node, ast.Call) and _name(node.func) in BUILDERS:
            args = node.args + [k.value for k in node.keywords]
            found += [a.lineno for a in args if _nested_tuple(a)]
        if isinstance(node, ast.keyword) and node.arg in TABLES and _nested_tuple(node.value):
            found.append(node.value.lineno)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if _nested_tuple(node.value) and any(_name(t) in TABLES for t in targets):
                found.append(node.lineno)
    return sorted(set(found))


def relation_bool_reads(tree):
    """Line numbers of ``X.leq[i][j]`` reads and of nested tuples passed as ``leq``."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Subscript)
                and _name(node.value.value) in RELATIONS):
            found.append(node.lineno)
        if isinstance(node, ast.Call) and _name(node.func) == "FinitePoset":
            args = node.args + [k.value for k in node.keywords]
            found += [a.lineno for a in args if _nested_tuple(a)]
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if _nested_tuple(node.value) and any(_name(t) in RELATIONS for t in targets):
                found.append(node.lineno)
    return sorted(set(found))


# the library scopes, by file and qualified name, that may use frozenset
FROZENSET_EXEMPT = {
    ("graphs.py", "SimpleGraph.edges"): "the edge set of a graph, pairs of vertices",
}


def frozenset_uses(tree, allowed=()):
    """Line numbers of the name ``frozenset`` outside the scopes whose
    qualified names (``Class.method``) are in ``allowed``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
                if inner not in allowed:
                    visit(child, inner)
                continue
            if isinstance(child, ast.Name) and child.id == "frozenset":
                found.append(child.lineno)
            visit(child, scope)

    visit(tree, "")
    return sorted(set(found))


def simple_graph_calls(tree):
    """Line numbers of ``SimpleGraph(...)`` calls."""
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _name(node.func) == "SimpleGraph"
    })


GRAPH_EXPORTS = {"to_dot", "graph_to_json"}  # the functions of graphs.py that list edges


def edge_reads(tree, allowed_functions=GRAPH_EXPORTS):
    """Line numbers of ``X.edges`` reads outside the allowed functions."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in allowed_functions:
            allowed |= {id(n) for n in ast.walk(node)}
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "edges" and id(node) not in allowed
    })


def unique_axis_calls(tree):
    """Line numbers of ``np.unique(...)`` calls with an ``axis=`` keyword."""
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _name(node.func) == "unique"
        and any(k.arg == "axis" for k in node.keywords)
    })


# the NumPy names the library uses, every one of them in NumPy 1.24
NUMPY_1_24 = {
    "add", "arange", "argmin", "argsort", "argwhere", "array", "array_equal", "asarray",
    "bincount", "concatenate", "count_nonzero", "cumsum", "dtype", "empty", "empty_like",
    "fill_diagonal", "flatnonzero", "float32", "frombuffer", "full", "full_like", "int64",
    "ix_", "maximum", "minimum", "moveaxis", "multiply", "ndarray", "nonzero", "packbits",
    "ravel_multi_index", "repeat", "searchsorted", "sort", "split", "take_along_axis",
    "tensordot", "tile", "triu", "uint8", "unique", "unpackbits", "unravel_index", "void",
    "vstack", "where", "zeros",
}


def numpy_names_outside(tree, allowed=NUMPY_1_24):
    """Line numbers of ``np.<name>`` for a name not in ``allowed``, and of
    any import of numpy other than ``import numpy as np``."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "np" and node.attr not in allowed):
            found.append(node.lineno)
        if isinstance(node, ast.Import):
            found += [node.lineno for a in node.names
                      if a.name.split(".")[0] == "numpy" and (a.name, a.asname) != ("numpy", "np")]
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found.append(node.lineno)
    return sorted(set(found))


def _library_hits(lint):
    return [
        f"{path.name}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in lint(ast.parse(path.read_text(), filename=str(path)))
    ]


def test_no_scalar_table_reads_in_library():
    found = _library_hits(scalar_table_reads)
    assert not found, f"cell-by-cell table reads or tuple table copies: {found}"


def test_no_bool_matrix_relations_in_library():
    found = _library_hits(relation_bool_reads)
    assert not found, f"bool-matrix relation reads or nested tuples as leq: {found}"


def test_no_frozenset_point_sets_in_library():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in frozenset_uses(
            ast.parse(path.read_text(), filename=str(path)),
            {scope for name, scope in FROZENSET_EXEMPT if name == path.name})
    ]
    assert not found, f"frozenset point sets: {found}"


def test_each_frozenset_exemption_is_used():
    # an exemption whose scope no longer uses frozenset would hide a new one
    for name, scope in FROZENSET_EXEMPT:
        tree = ast.parse((SRC / name).read_text())
        assert frozenset_uses(tree, {scope}) != frozenset_uses(tree), (name, scope)


def test_graphs_are_built_from_rows():
    found = [hit for hit in _library_hits(simple_graph_calls)
             if not hit.startswith("graphs.py:")]
    found += [f"graphs.py:{line}"
              for line in edge_reads(ast.parse((SRC / "graphs.py").read_text()))]
    assert not found, f"graphs built or read as edge sets: {found}"


def test_no_row_uniques_in_library():
    found = _library_hits(unique_axis_calls)
    assert not found, f"np.unique over whole rows: {found}"


def test_library_numpy_names_exist_in_numpy_1_24():
    found = _library_hits(numpy_names_outside)
    assert not found, f"NumPy names outside the 1.24 set, or numpy imported otherwise: {found}"


def test_the_numpy_lint_sees_each_pattern():
    tree = ast.parse(
        "import numpy as np\n"
        "a = np.bitwise_count(T)\n"
        "b = np.zeros(3, dtype=np.int64)\n"
        "import numpy\n"
        "from numpy import bitwise_count\n"
        "import numpy.linalg as la\n"
        "c = np.linalg.norm(x)\n"
    )
    assert numpy_names_outside(tree) == [2, 4, 5, 6, 7]


def test_the_unique_lint_sees_each_pattern():
    tree = ast.parse(
        "a = np.unique(kill, axis=0)\n"
        "b = np.unique(\n    rows, return_index=True, axis=1)\n"
        "c = np.unique(keys, return_index=True, return_inverse=True)\n"
        "d = np.sum(kill, axis=0)\n"
    )
    assert unique_axis_calls(tree) == [1, 2]


def test_the_graph_lint_sees_each_pattern():
    tree = ast.parse(
        "G = SimpleGraph(labels, frozenset(pairs))\n"
        "H = SimpleGraph.from_edges(labels, pairs)\n"
        "def to_dot(G):\n"
        "    return sorted(G.edges)\n"
        "def girth(G):\n"
        "    return sorted(G.edges)\n"
        "k = len(H.edges)\n"
        "def edges(self):\n"
        "    return self.adj\n"
    )
    assert simple_graph_calls(tree) == [1]
    assert edge_reads(tree) == [6, 7]
    assert edge_reads(tree, allowed_functions=()) == [4, 6, 7]


def test_the_point_set_lint_sees_each_pattern():
    tree = ast.parse(
        "a = frozenset({0})\n"
        "class Graph:\n"
        "    def edges(self) -> frozenset:\n"
        "        return frozenset()\n"
        "    def rows(self):\n"
        "        return frozenset(range(3))\n"
        "d = isinstance(a, frozenset)\n"
        "def edges(x: frozenset[int]):\n"
        "    return x\n"
    )
    assert frozenset_uses(tree, {"Graph.edges"}) == [1, 6, 7, 8]
    assert frozenset_uses(tree, {"edges"}) == [1, 3, 4, 6, 7]
    assert frozenset_uses(tree) == [1, 3, 4, 6, 7, 8]


def test_the_lint_sees_each_pattern():
    snippets = [
        "x = S.product[a][b]",
        "x = add[out[i]][row[b]]",
        "T = SemigroupTable(e, 0, tuple(tuple(r) for r in rows))",
        "T = SemigroupTable(elements=e, zero=0, product=tuple(tuple(r) for r in rows))",
        "t = tuple(map(tuple, pos[index.table(ks, op)].tolist()))",
        "self.add = tuple(tuple(r.tolist()) for r in A)",
    ]
    for snippet in snippets:
        assert scalar_table_reads(ast.parse(snippet)) == [1], snippet
    allowed = ["x = S.product[a, b]", "leq = tuple(tuple(r) for r in rel)", "x = rows[a][b]"]
    for snippet in allowed:
        assert scalar_table_reads(ast.parse(snippet)) == [], snippet


def test_the_relation_lint_sees_each_pattern():
    snippets = [
        "x = P.leq[i][j]",
        "x = leq[order[a]][order[b]]",
        "P = FinitePoset(pts, tuple(tuple(r) for r in rel))",
        "P = FinitePoset(points=pts, leq=tuple(tuple(P <= Q for Q in ps) for P in ps))",
        "leq = tuple(tuple(P <= Q for Q in ps) for P in ps)",
    ]
    for snippet in snippets:
        assert relation_bool_reads(ast.parse(snippet)) == [1], snippet
    allowed = ["x = P.leq[i] >> j & 1", "P = FinitePoset(pts, tuple(rows))", "x = rows[a][b]"]
    for snippet in allowed:
        assert relation_bool_reads(ast.parse(snippet)) == [], snippet
