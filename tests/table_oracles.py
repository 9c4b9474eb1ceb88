"""Reference table routines: the cell-by-cell loops the array code replaced.

Each routine reads its tables as lists of rows (``.tolist()``) and shares no
code with the program, so tests can compare verdicts, first witnesses and
messages of ``zdgraph.semigroups``, ``zdgraph.graphs``, ``zdgraph.corpus``,
``zdgraph.polynomials`` and ``zdgraph.rings._validate_ring`` (with its greedy
additive generators) against them.  ``poly_mul``, the table-lookup product
of two polynomials, has no caller left in the program; it lives here beside
its cell-by-cell check ``poly_mul_coeffs``, with ``coefficient_rows``, the
padded coefficient array of a list of polynomials, and
``product_blocks_2d``, the pair-check product kernel as it was before it
took each block's mul-table rows once: one broadcast 2-D lookup per
coefficient pair, and an add for every term, the first included.
``product_tables_ix`` is ``make_product``'s tables as they were built before
the factors were folded in by broadcasting, and ``fp_algebra_rows`` the
F_p-algebra tables as they were built before they were filled by digit
levels: two array expressions for each row.  ``record_calls`` is a test
helper: it logs every call of one program function, under every name a
``zdgraph`` module holds it by.  So do the map helpers
``identity_map`` and ``compose``, the graph reader ``graph_from_json`` and
``random_permutation``, the seeded shuffle given to ``permuted_copy``.
``bundle_on_g`` is the invariant bundle solved on G itself, as it was before
the program solved it on the twin quotient, with its diameter from
``bfs_diameter``, the level-by-level mask BFS from every vertex that the
reachability products replaced, and ``unique_rows_quotient`` is
``eq_quotient`` grouping kill rows with ``np.unique(axis=0)``, as it did
before the rows were keyed by their packed bytes, and checking the class
product on every pair, as it did before that check, which no commutative
semigroup can fail, was dropped.  ``eager_mask_labels`` is the
``{a,b}`` labels of a meet table, all formatted when the table was built, as
they were before a label was formatted only when read.  The routines return
point sets as frozensets, the form the program used before its int masks;
``mask`` turns one into the program's form where the two are compared.
"""

import itertools
import json
import math
import sys

import numpy as np

from zdgraph import graphs
from zdgraph.graphs import SimpleGraph
from zdgraph.polynomials import make_poly
from zdgraph.semigroups import (
    EqQuotient,
    InvalidSemigroup,
    SemigroupMap,
    SemigroupTable,
    first_witness,
)


def mask(points):
    """The int mask of a set of indices: bit i set for each member i."""
    return sum(1 << i for i in points)


def eager_mask_labels(points, masks):
    """Set labels ``{a,b}``, listing each mask's points in index order."""
    return ["{" + ",".join(points[p] for p in range(len(points)) if m >> p & 1) + "}"
            for m in masks]


def identity_map(table):
    return SemigroupMap(table, table, tuple(range(table.size)))


def compose(g, f):
    """g after f."""
    if f.target is not g.source and f.target != g.source:
        raise ValueError("maps are not composable")
    return SemigroupMap(f.source, g.target, tuple(g.assignment[t] for t in f.assignment))


def record_calls(monkeypatch, module, name):
    """A list that gets ``(args, result)`` for each call of ``module.name``
    from anywhere in the package, for as long as ``monkeypatch`` holds."""
    fn, calls = getattr(module, name), []

    def logged(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((args, result))
        return result

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "zdgraph" or mod_name.startswith("zdgraph."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, logged)
    return calls


def graph_from_json(text):
    data = json.loads(text)
    return SimpleGraph.from_edges(
        [str(v) for v in data["vertices"]],
        [(int(i), int(j)) for i, j in data["edges"]],
    )


def bfs_diameter(G):
    """The largest eccentricity, each from a BFS whose levels are masks;
    0 for the empty graph, infinite if some vertex is unreachable."""
    diam, everyone = 0, (1 << G.n) - 1
    for v in range(G.n):
        seen = front = 1 << v
        depth = 0
        while front:
            nxt = 0
            for u in range(G.n):
                if front >> u & 1:
                    nxt |= G.adj[u]
            front = nxt & ~seen
            seen |= front
            depth += bool(front)
        if seen != everyone:
            return math.inf
        diam = max(diam, depth)
    return diam


def bundle_on_g(G, max_clique_vertices=graphs.DEFAULT_MAX_CLIQUE_VERTICES,
                max_chromatic_vertices=graphs.DEFAULT_MAX_CHROMATIC_VERTICES):
    """(diameter, girth, clique, chromatic) of G: BFS diameter, per-edge
    girth, and the clique search seeding the colouring, all on G."""
    clique = graphs.max_clique(G, max_clique_vertices)
    graphs.guard("chromatic-solver vertices", G.n, max_chromatic_vertices)
    chromatic = graphs._colouring(G.adj, clique)[0]
    return bfs_diameter(G), graphs.girth(G), len(clique), chromatic


def unique_rows_quotient(table):
    """The permissive ``eq_quotient``, with the classes found by a 2-D
    ``np.unique`` over the kill rows."""
    _, first, inverse = np.unique(
        table.product == table.zero, axis=0, return_index=True, return_inverse=True
    )
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    class_of = rank[inverse.reshape(-1)]
    members = np.split(np.argsort(class_of, kind="stable"), np.cumsum(np.bincount(class_of))[:-1])
    classes = tuple(tuple(c.tolist()) for c in members)
    reps = np.sort(first)
    qprod = class_of[table.product[np.ix_(reps, reps)]]
    a, b = np.nonzero(class_of[table.product] != qprod[np.ix_(class_of, class_of)])
    ill = np.zeros((len(reps), len(reps)), dtype=bool)
    ill[class_of[a], class_of[b]] = True
    w = first_witness(ill)
    if w is not None:
        raise InvalidSemigroup(
            f"quotient product ill-defined on classes {classes[w[0]]} x {classes[w[1]]}"
        )
    labels = tuple(f"[{table.elements[cls[0]]}]" for cls in classes)
    quotient = SemigroupTable(elements=labels, zero=int(class_of[table.zero]), product=qprod)
    projection = SemigroupMap(table, quotient, tuple(class_of.tolist()))
    return EqQuotient(table, classes, quotient, projection)


def rows(S):
    return S.product.tolist()


def validate_semigroup(elements, zero, product):
    """(law, witness) of the first failed law, or (None, None); ``product``
    is a list of rows, which may be ragged."""
    n = len(elements)
    if n == 0:
        return "nonempty", ()
    if not 0 <= zero < n:
        return "zero-index", (zero,)
    if len(product) != n or any(len(row) != n for row in product):
        return "table-shape", ()
    for a in range(n):
        for b in range(n):
            if not 0 <= product[a][b] < n:
                return "index-bounds", (a, b)
    for a in range(n):
        for b in range(n):
            if product[a][b] != product[b][a]:
                return "commutative", (a, b)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if product[product[a][b]][c] != product[a][product[b][c]]:
                    return "associative", (a, b, c)
    for a in range(n):
        if product[zero][a] != zero:
            return "absorbing", (a,)
    return None, None


def nilpotent_witness(S):
    product, zero = rows(S), S.zero
    for s in range(S.size):
        if s == zero:
            continue
        seen = set()
        x = s
        while x not in seen:
            seen.add(x)
            x = product[x][s]
            if x == zero:
                return s
    return None


def annihilator(S, s):
    row = rows(S)[s]
    return frozenset(t for t in range(S.size) if row[t] == S.zero)


def zero_divisors(S):
    product, zero = rows(S), S.zero
    return frozenset(
        s for s in range(S.size)
        if s != zero and any(product[s][t] == zero for t in range(S.size) if t != zero)
    )


def check_armendariz(g):
    """(surjective witness, zero witness, product witness), each None on success."""
    S, T, assign = g.source, g.target, g.assignment
    ps, pt = rows(S), rows(T)
    hit = set(assign)
    surj = next((t for t in range(T.size) if t not in hit), None)
    zero = next((s for s in range(S.size) if (s == S.zero) != (assign[s] == T.zero)), None)
    prod = next(((a, b) for a in range(S.size) for b in range(a, S.size)
                 if (ps[a][b] == S.zero) != (pt[assign[a]][assign[b]] == T.zero)), None)
    return surj, zero, prod


def check_homomorphism(g):
    """The first failing pair (a, b) with a <= b, or None."""
    S, T, assign = g.source, g.target, g.assignment
    ps, pt = rows(S), rows(T)
    return next(((a, b) for a in range(S.size) for b in range(a, S.size)
                 if assign[ps[a][b]] != pt[assign[a]][assign[b]]), None)


def eq_quotient(S):
    """(classes, labels, zero, product rows, assignment), or the message of
    the InvalidSemigroup raised for an ill-defined class product."""
    product, n = rows(S), S.size
    ann_of = [annihilator(S, s) for s in range(n)]
    groups = {}
    for s in range(n):
        groups.setdefault(ann_of[s], []).append(s)
    classes = tuple(sorted((tuple(sorted(g)) for g in groups.values()), key=lambda c: c[0]))
    class_of = [0] * n
    for k, cls in enumerate(classes):
        for s in cls:
            class_of[s] = k
    m = len(classes)
    qprod = [[0] * m for _ in range(m)]
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            results = {class_of[product[a][b]] for a in ci for b in cj}
            if len(results) != 1:
                return f"quotient product ill-defined on classes {ci} x {cj}"
            qprod[i][j] = results.pop()
    labels = tuple(f"[{S.elements[cls[0]]}]" for cls in classes)
    return classes, labels, class_of[S.zero], qprod, tuple(class_of)


def zero_product_graph(S, verts):
    """(vertex labels, edges) of the graph on ``verts`` with s*t = 0 edges."""
    product, zero = rows(S), S.zero
    edges = set()
    for a, s in enumerate(verts):
        for b in range(a + 1, len(verts)):
            if product[s][verts[b]] == zero:
                edges.add((a, b))
    return tuple(S.elements[v] for v in verts), frozenset(edges)


def random_permutation(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def permuted_copy(S, perm):
    """(labels, zero, product rows, assignment) of the copy relabelled by
    a -> perm[a]."""
    n = S.size
    product = rows(S)
    prod = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            prod[perm[a]][perm[b]] = perm[product[a][b]]
    labels = [""] * n
    for a in range(n):
        labels[perm[a]] = S.elements[a]
    return tuple(labels), perm[S.zero], prod, tuple(perm)


def poly_mul_coeffs(R, f, g):
    """The coefficient list of f*g, trailing zeros stripped."""
    if not f or not g:
        return ()
    add, mul = R.add.tolist(), R.mul.tolist()
    out = [R.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == R.zero:
            continue
        for j, b in enumerate(g):
            out[i + j] = add[out[i + j]][mul[a][b]]
    while out and out[-1] == R.zero:
        out.pop()
    return tuple(out)


def coefficient_rows(R, polys, d):
    """``F[r]``: the coefficients of ``polys[r]``, padded with zero to d + 1."""
    F = np.full((len(polys), d + 1), R.zero, dtype=np.int64)
    for r, f in enumerate(polys):
        F[r, : len(f.coeffs)] = f.coeffs
    return F


def product_blocks_2d(R, F, block_cells):
    """Yield ``(r0, C)`` with ``C[b, g, k]`` the X^k coefficient of F[r0+b] * F[g],
    in blocks of as many rows as ``polynomials._product_blocks`` takes for
    ``block_cells``."""
    N, w = F.shape
    A, M = R.add, R.mul
    rows = max(1, block_cells // (N * (2 * w - 1)))
    for r0 in range(0, N, rows):
        Ff = F[r0 : r0 + rows]
        C = np.full((len(Ff), N, 2 * w - 1), R.zero, dtype=np.int64)
        for i in range(w):
            for j in range(w):
                C[:, :, i + j] = A[C[:, :, i + j], M[Ff[:, i, None], F[None, :, j]]]
        yield r0, C


def product_tables_ix(factors):
    """``make_product``'s (add, mul) tables as it built them before folding
    the factors in by broadcasting: each factor's table gathered at every
    pair of its digits with ``np.ix_``, times the factor's stride, summed."""
    sizes = tuple(r.size for r in factors)
    strides = np.cumprod((1,) + sizes[:0:-1])[::-1]
    digits = np.unravel_index(np.arange(math.prod(sizes)), sizes)

    def table(name):
        return sum(getattr(r, name)[np.ix_(x, x)] * s for r, x, s in zip(factors, digits, strides))

    return table("add"), table("mul")


def poly_mul(f, g):
    """The exact product of two ``TruncPoly`` values, one table lookup per
    row of coefficient products."""
    if f.ring is not g.ring:
        raise ValueError("polynomials over different rings")
    R = f.ring
    if not f.coeffs or not g.coeffs:
        return make_poly(R, ())
    terms = R.mul[np.ix_(f.coeffs, g.coeffs)]  # terms[i, j] is a term of X^(i+j)
    out = np.full(len(f.coeffs) + len(g.coeffs) - 1, R.zero)
    for i, row in enumerate(terms):
        out[i : i + len(row)] = R.add[out[i : i + len(row)], row]
    return make_poly(R, out.tolist())


def _first_bad(mask):
    return tuple(int(x) for x in np.argwhere(mask)[0])


def validate_ring(n, add, mul, zero, one):
    """The message the ring validator raised for these tables, or None."""
    A, M = np.asarray(add, dtype=np.int64), np.asarray(mul, dtype=np.int64)
    for name, T in (("add", A), ("mul", M)):
        if T.shape != (n, n):
            return f"{name} table has wrong shape"
        if ((T < 0) | (T >= n)).any():
            return f"{name} table entry out of range"
        if (T != T.T).any():
            return f"{name} not commutative at {_first_bad(T != T.T)}"
        for a in range(n):
            left = T[T[a]]
            right = T[a][T]
            if not np.array_equal(left, right):
                b, c = _first_bad(left != right)
                return f"{name} not associative at ({a}, {b}, {c})"
    ident = np.arange(n)
    if not np.array_equal(A[zero], ident):
        return f"zero is not an additive identity at {_first_bad(A[zero] != ident)}"
    has_inverse = (A == zero).any(axis=1)
    if not has_inverse.all():
        return f"element {int(np.argwhere(~has_inverse)[0][0])} has no additive inverse"
    if not np.array_equal(M[one], ident):
        return f"one is not a multiplicative identity at {_first_bad(M[one] != ident)}"
    for a in range(n):
        row = M[a]
        left = row[A]
        right = A[row[:, None], row[None, :]]
        if not np.array_equal(left, right):
            b, c = _first_bad(left != right)
            return f"distributivity fails at ({a}, {b}, {c})"
    return None


def additive_closure(add, gens):
    """The closure of ``gens`` under ``add``, adding one sum at a time."""
    closed, work = set(gens), list(gens)
    while work:
        a = work.pop()
        for b in list(closed):
            if add[a][b] not in closed:
                closed.add(add[a][b])
                work.append(add[a][b])
    return closed


def additive_generators(add, zero):
    """Greedy nonzero generators in index order: each element not in the
    closure of zero and the earlier generators joins them."""
    gens, closed = [], {zero}
    for e in range(len(add)):
        if e not in closed:
            gens.append(e)
            closed = additive_closure(add, [zero] + gens)
    return gens


def fp_algebra_rows(p, structure):
    """The F_p-algebra tables built one row at a time, two array expressions
    per row: ``(add, mul, one)`` for the algebra on F_p^d whose basis vectors
    i and j multiply to ``structure[i, j]``, elements in ``itertools.product``
    order."""
    d = len(structure)
    U = np.array(list(itertools.product(range(p), repeat=d))).reshape(-1, d)
    weights = p ** np.arange(d - 1, -1, -1)
    B = np.tensordot(U, structure, axes=1)  # v @ B[a] is the vector of u_a * v
    add = np.array([(U[a] + U) % p @ weights for a in range(len(U))])
    mul = np.array([U @ B[a] % p @ weights for a in range(len(U))])
    return add, mul, int(weights[0])
