"""Simple graphs and exact invariants: diameter, girth, clique, chromatic.

Conventions chosen to keep the invariant-preservation suite total:
the empty graph has diameter 0 and girth infinity; a disconnected graph
has diameter infinity (which cannot occur for zero-divisor graphs of valid
semigroups and therefore surfaces malformed inputs loudly).

Clique and chromatic numbers are computed exactly: branch and bound with a
greedy-colouring upper bound for cliques, and for colourings one
saturation-degree backtracking search seeded with a maximum clique, which
allows one more colour each time it runs out.  No heuristic value is ever
reported as an answer.  Both solvers fail fast above a configurable vertex
guard.

Values take one route: ``clique_and_chromatic`` and ``invariant_bundle``
check both guards on G and then solve on its false-twin quotient
(``twin_quotient``), lifting the values back exactly.  The witness solvers
``max_clique``, ``optimal_colouring`` and ``shortest_cycle`` search G
itself, because their witnesses are vertices of G.
"""

from __future__ import annotations

import json
import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .semigroups import (
    SemigroupMap,
    SemigroupTable,
    NotNilpotentFree,
    check_armendariz,
    guard,
    mask_row,
    members,
    nilpotent_witness,
    row_masks,
    row_union,
    zero_divisors,
)

INFINITY = math.inf

DEFAULT_MAX_CLIQUE_VERTICES = 200
DEFAULT_MAX_CHROMATIC_VERTICES = 64


class CountablyInfinite:
    """Symbolic cardinal for invariants of the symbolic infinite lattices."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "countably-infinite"


COUNTABLY_INFINITE = CountablyInfinite()

Value = Union[int, float]
Cardinal = Union[int, CountablyInfinite]


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph: labelled vertices and ``adj[v]``, the bitmask
    of v's neighbours, which every invariant reads."""

    vertices: tuple[str, ...]
    adj: tuple[int, ...]

    def __post_init__(self):
        n, adj = len(self.vertices), self.adj
        if len(adj) != n or min(adj, default=0) < 0:
            raise ValueError(f"{n} vertices need {n} nonnegative adjacency rows")
        if _rows_symmetric(adj):
            return
        # the first bad bit in row-major order is the witness
        for i, row in enumerate(adj):
            for j in members(row):
                if i == j:
                    raise ValueError(f"self-loop at {i}")
                if j >= n or not adj[j] >> i & 1:
                    raise ValueError(f"bad edge ({min(i, j)}, {max(i, j)})")

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as index pairs (i, j) with i < j."""
        return frozenset((i, j) for i, row in enumerate(self.adj) for j in members(row >> i << i))

    @staticmethod
    def from_edges(vertices: Iterable[str], edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        vertices = tuple(vertices)
        adj = [0] * len(vertices)
        for i, j in edges:
            if not (0 <= i < len(adj) and 0 <= j < len(adj)):
                raise ValueError(f"bad edge ({min(i, j)}, {max(i, j)})")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return SimpleGraph(vertices, tuple(adj))


# From this many vertices on, graphs are built and checked as bool matrices;
# below it from edge lists and bit by bit.  The NumPy calls cost about 10 µs
# a graph, more than the loops on a graph of a few vertices: on the Γ
# graphs of `verify`, nearly all under 16 vertices, the matrix paths take
# over twice as long in total, and any switch from 17 to 41 vertices does as
# well as any other.
_MATRIX_VERTICES = 33


def _rows_symmetric(adj: tuple[int, ...]) -> bool:
    """No row has its diagonal bit or a bit beyond the last vertex, and bit
    j of row i is set iff bit i of row j is.  On a large graph the unpacked
    matrix is compared with its transpose.  On a small one only the bits
    above the diagonal are looked up: once each has its mirror, the rows
    hold twice as many bits only if they hold no other."""
    n, upper = len(adj), 0
    if n >= _MATRIX_VERTICES:
        if max(adj) >> n:
            return False
        A = _unpacked_rows(adj)
        return not A.diagonal().any() and np.array_equal(A, A.T)
    for i, row in enumerate(adj):
        above = row >> i + 1
        for j in members(above):
            if i + 1 + j >= n or not adj[i + 1 + j] >> i & 1:
                return False
        upper += above.bit_count()
    return 2 * upper == sum(row.bit_count() for row in adj)


def _eccentricity(G: SimpleGraph, v: int) -> Value:
    """The largest distance from v, or infinity if some vertex is unreachable."""
    seen = front = 1 << v
    depth = 0
    while True:
        front = row_union(G.adj, front) & ~seen
        if not front:
            return depth if seen == (1 << G.n) - 1 else INFINITY
        seen |= front
        depth += 1


def is_connected(G: SimpleGraph) -> bool:
    """Standard reachability; the empty graph counts as connected."""
    return G.n == 0 or _eccentricity(G, 0) != INFINITY


# Cap on the cells of one row block of the reachability product (rows x n);
# larger blocks run no faster and raise peak memory.
_BLOCK_CELLS = 1 << 18


def _unpacked_rows(adj: tuple[int, ...]) -> np.ndarray:
    """The n x n 0/1 uint8 matrix of n rows of at most n bits, unpacked
    from all rows at once."""
    n, width = len(adj), (len(adj) + 7) // 8
    packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in adj),
                           dtype=np.uint8)
    return np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little")


def diameter(G: SimpleGraph) -> Value:
    """Supremum of pairwise distances; 0 for the empty graph.

    R, the pairs at distance at most k, starts as A + I at k = 1 and grows
    by R <- min(RA + R, 1), a row block at a time, until it holds every
    pair (the diameter is k) or a step adds none (G is disconnected).  The
    float32 products are exact: their entries are counts of at most n < 2^24.
    """
    n = G.n
    if n <= 1:
        return 0
    A = _unpacked_rows(G.adj)
    R = A.astype(bool)
    np.fill_diagonal(R, True)
    A = A.astype(np.float32)
    rows = max(1, _BLOCK_CELLS // n)
    reached, k = np.count_nonzero(R), 1
    while reached < n * n:
        for r0 in range(0, n, rows):
            block = R[r0 : r0 + rows]  # row i of the product reads row i of R only
            block |= block.astype(np.float32) @ A > 0
        now = np.count_nonzero(R)
        if now == reached:
            return INFINITY
        reached, k = now, k + 1
    return k


def shortest_cycle(G: SimpleGraph) -> tuple[Value, Optional[tuple[int, ...]]]:
    """Length and vertices of a shortest cycle, or (inf, None) if acyclic.

    For each edge {u, v}, a shortest u-v path avoiding that edge closes a
    shortest cycle through it; the minimum over edges is the girth.  Edges
    go in sorted order; u's frontier grows a level at a time only while the
    cycle it could close beats the best so far.  The witness path comes from
    a queue BFS, neighbours ascending, on the first edge reaching the minimum.
    """
    adj = G.adj
    best: Value = INFINITY
    best_edge = None
    for u, v in ((u, v) for u, row in enumerate(adj) for v in members(row >> u << u)):
        if best == 3:
            break
        target = 1 << v
        seen = 1 << u
        front = adj[u] & ~target
        length = 3  # of the cycle closed if v is in the next level
        while front and length < best:
            seen |= front
            front = row_union(adj, front) & ~seen
            if front & target:
                best, best_edge = length, (u, v)
                break
            length += 1
    return best, _path_avoiding_edge(adj, *best_edge) if best_edge else None


def _path_avoiding_edge(adj: tuple[int, ...], u: int, v: int) -> tuple[int, ...]:
    """A shortest u-v path in G - uv, by queue BFS with neighbours ascending."""
    parent = {u: u}
    q = deque([u])
    while v not in parent:
        x = q.popleft()
        for y in members(adj[x] & ~(1 << v) if x == u else adj[x]):
            if y not in parent:
                parent[y] = x
                q.append(y)
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def girth(G: SimpleGraph) -> Value:
    return shortest_cycle(G)[0]


def max_clique(G: SimpleGraph, max_vertices: int = DEFAULT_MAX_CLIQUE_VERTICES) -> tuple[int, ...]:
    """A maximum clique, found by exact branch and bound.

    Candidates are greedily coloured at every node; a branch is pruned when
    the current clique plus the colour bound cannot beat the incumbent.
    """
    n = G.n
    guard("clique-solver vertices", n, max_vertices)
    if n == 0:
        return ()
    adj = G.adj
    best_mask = 1  # single vertex is always a clique
    best_size = 1

    def colour_order(cand: int) -> list[tuple[int, int]]:
        order = []
        colour = 0
        rest = cand
        while rest:
            colour += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~adj[v] & ~(1 << v)
                rest &= ~(1 << v)
                order.append((v, colour))
        return order

    def expand(cur_mask: int, cur_size: int, cand: int) -> None:
        nonlocal best_mask, best_size
        order = colour_order(cand)
        for v, colour in reversed(order):
            if cur_size + colour <= best_size:
                return
            new_cand = cand & adj[v]
            if new_cand:
                expand(cur_mask | (1 << v), cur_size + 1, new_cand)
            elif cur_size + 1 > best_size:
                best_size = cur_size + 1
                best_mask = cur_mask | (1 << v)
            cand &= ~(1 << v)

    expand(0, 0, (1 << n) - 1)
    return tuple(members(best_mask))


def _colouring(adj: tuple[int, ...], clique: tuple[int, ...]) -> tuple[int, list[int]]:
    """The chromatic number k and the first k-colouring found, by one
    saturation-degree backtracking search (Brélaz, CACM 22, 1979) over k
    from the size of the maximum clique ``clique`` up.

    The clique is pre-coloured with distinct colours (sound symmetry
    breaking), and a fresh colour may only be introduced as the next unused
    one.  ``classes[c]`` is the mask of the vertices coloured c.

    The pick is the first uncoloured vertex, in index order, of greatest
    (saturation, degree).  ``seen[v][c]`` counts v's neighbours coloured c,
    and ``score[v]`` is n * saturation + degree, less ``off`` while v is
    coloured; both change with each vertex coloured or uncoloured, so a
    pick is one scan of the scores.

    When the search at k runs out, the state is the seeded one again: each
    ``seen`` row gains a zero column and the search restarts at k + 1, which
    at k = n cannot fail.
    """
    n = len(adj)
    if not any(adj):  # edgeless: one colour, or none for the empty graph
        return min(n, 1), [0] * n
    k = len(clique)
    colours = [-1] * n
    classes = [0] * k
    neighbours = [list(members(a)) for a in adj]
    seen = [[0] * k for _ in range(n)]
    score = [len(u) for u in neighbours]
    off = n * n  # saturation and degree are below n: a coloured vertex scores below 0

    def colour(v: int, c: int) -> None:
        colours[v] = c
        classes[c] |= 1 << v
        score[v] -= off
        for u in neighbours[v]:
            seen[u][c] += 1
            if seen[u][c] == 1:
                score[u] += n

    def uncolour(v: int, c: int) -> None:
        colours[v] = -1
        classes[c] ^= 1 << v
        score[v] += off
        for u in neighbours[v]:
            seen[u][c] -= 1
            if not seen[u][c]:
                score[u] -= n

    def pick() -> int:
        return score.index(max(score))

    for c, v in enumerate(clique):
        colour(v, c)

    # An explicit stack of (v, c, max_used before v): vertex v holds colour
    # c.  Each step colours the picked vertex with its least admissible
    # colour from c on, or, with none left, uncolours the last vertex
    # coloured and moves it on to its next colour, or, with none coloured
    # past the clique, allows one more colour.
    stack: list[tuple[int, int, int]] = []
    remaining, max_used = n - k, k - 1
    v, c = pick(), 0
    while remaining:
        top = min(k - 1, max_used + 1)
        while c <= top and classes[c] & adj[v]:
            c += 1
        if c <= top:
            colour(v, c)
            stack.append((v, c, max_used))
            max_used, remaining = max(max_used, c), remaining - 1
            v, c = pick(), 0
        elif stack:
            v, c, max_used = stack.pop()
            uncolour(v, c)
            remaining += 1
            c += 1
        else:
            k += 1
            classes.append(0)
            for row in seen:
                row.append(0)
            c = 0  # from the first pick, which the seeded state picks again
    return k, colours


def optimal_colouring(
    G: SimpleGraph, max_vertices: int = DEFAULT_MAX_CHROMATIC_VERTICES
) -> tuple[int, list[int]]:
    """Exact chromatic number with a witness colouring."""
    guard("chromatic-solver vertices", G.n, max_vertices)
    return _colouring(G.adj, max_clique(G, max_vertices=G.n))


@dataclass(frozen=True)
class InvariantBundle:
    """The four invariants, as computed.  χ ≥ ω is a theorem the suites
    judge, so a bundle that breaks it is reported, not refused."""

    diameter: Value
    girth: Value
    clique: Cardinal
    chromatic: Cardinal

    def as_tuple(self):
        return (self.diameter, self.girth, self.clique, self.chromatic)

    @property
    def chi_at_least_omega(self) -> bool:
        """χ ≥ ω, where both are numbers."""
        numeric = isinstance(self.clique, int) and isinstance(self.chromatic, int)
        return not numeric or self.chromatic >= self.clique


def twin_quotient(G: SimpleGraph) -> tuple[SimpleGraph, int]:
    """The false-twin quotient H of G, and the mask of G's vertices that
    share their row with another vertex.

    Vertices with equal rows are twins; they are never adjacent, as no row
    holds its own bit.  H is the subgraph induced on the first vertex of
    each class, in vertex order, so ω(H) = ω(G) and χ(H) = χ(G): a clique
    meets a class at most once, and a colouring of H gives each twin its
    representative's colour.  Without twins H is G itself.
    """
    first: dict[int, int] = {}
    twinned = 0
    for v, row in enumerate(G.adj):
        u = first.setdefault(row, v)
        if u != v:
            twinned |= 1 << u | 1 << v
    if not twinned:
        return G, 0
    kept = list(first.values())
    index = {v: i for i, v in enumerate(kept)}
    keep = sum(1 << v for v in kept)
    adj = tuple(sum(1 << index[u] for u in members(G.adj[v] & keep)) for v in kept)
    return SimpleGraph(tuple(G.vertices[v] for v in kept), adj), twinned


def _quotient_clique_and_chromatic(
    G: SimpleGraph, max_clique_vertices: int, max_chromatic_vertices: int
) -> tuple[SimpleGraph, int, int, int]:
    """Both guards on G's vertex count, then the twin quotient H, the mask of
    G's twinned vertices, and the clique and chromatic numbers solved on H
    from one clique search, which also seeds the colouring."""
    guard("clique-solver vertices", G.n, max_clique_vertices)
    guard("chromatic-solver vertices", G.n, max_chromatic_vertices)
    H, twinned = twin_quotient(G)
    clique = max_clique(H, max_clique_vertices)
    return H, twinned, len(clique), _colouring(H.adj, clique)[0]


def clique_and_chromatic(
    G: SimpleGraph,
    max_clique_vertices: int = DEFAULT_MAX_CLIQUE_VERTICES,
    max_chromatic_vertices: int = DEFAULT_MAX_CHROMATIC_VERTICES,
) -> tuple[int, int]:
    """Clique and chromatic numbers of G, solved on its twin quotient."""
    return _quotient_clique_and_chromatic(G, max_clique_vertices, max_chromatic_vertices)[2:]


def invariant_bundle(
    G: SimpleGraph,
    max_clique_vertices: int = DEFAULT_MAX_CLIQUE_VERTICES,
    max_chromatic_vertices: int = DEFAULT_MAX_CHROMATIC_VERTICES,
) -> InvariantBundle:
    """The four invariants of G, each solved on its twin quotient H.

    Twins u, u' are at distance 2 through any common neighbour, and close a
    4-cycle through any two; any other two vertices are as far apart as
    their representatives in H, and no triangle holds two twins.  So
    diam(G) is infinite if two isolated vertices exist, else
    max(diam(H), 2) if G has twins and diam(H) if not; girth(G) is
    min(girth(H), 4) if a twin has two neighbours, else girth(H).
    """
    # the guards count G and come first, so an over-guard graph fails before BFS
    H, twinned, clique, chromatic = _quotient_clique_and_chromatic(
        G, max_clique_vertices, max_chromatic_vertices)
    diam, gir = diameter(H), girth(H)
    degrees = [G.adj[v].bit_count() for v in members(twinned)]
    if degrees:
        diam = INFINITY if 0 in degrees else max(diam, 2)
    if max(degrees, default=0) >= 2:
        gir = min(gir, 4)
    return InvariantBundle(diam, gir, clique, chromatic)


# ---------------------------------------------------------------------------
# Graphs from semigroups


def _zero_product_graph(labels: tuple[str, ...], zero: np.ndarray) -> SimpleGraph:
    """The graph on ``labels`` with {i, j} an edge iff ``zero[i, j]``, read
    from the upper triangle of the boolean zero-product matrix: on a large
    graph its rows are packed from the triangle and its mirror, on a small
    one its edges are listed."""
    if len(labels) >= _MATRIX_VERTICES:
        upper = np.triu(zero, 1)
        return SimpleGraph(labels, tuple(row_masks(upper | upper.T)))
    a, b = np.nonzero(zero)
    upper = a < b
    return SimpleGraph.from_edges(labels, zip(a[upper].tolist(), b[upper].tolist()))


def zero_divisor_graph(S: SemigroupTable, zd: Optional[int] = None) -> SimpleGraph:
    """Vertices are nonzero zero-divisors; {s, t} is an edge iff s*t = 0.

    ``zd``, if given, is ``zero_divisors(S)`` found already; the table is
    not scanned again.
    """
    if zd is None:
        zd = zero_divisors(S)
    v = np.flatnonzero(mask_row(zd, S.size))
    labels = tuple(S.elements[i] for i in v.tolist())
    return _zero_product_graph(labels, S.product[v[:, None], v] == S.zero)


def beck_graph(S: SemigroupTable) -> SimpleGraph:
    """The graph on all elements with {a, b} an edge iff a*b = 0.

    Applied to the multiplicative semigroup of a ring this is the classical
    all-elements graph: 0 is connected to everything and non-zero-divisors
    connect only to 0.
    """
    return _zero_product_graph(tuple(S.elements), S.product == S.zero)


# ---------------------------------------------------------------------------
# Invariant preservation under Armendariz maps


@dataclass(frozen=True)
class SuitePart:
    name: str
    applies: bool
    passed: bool
    details: str


@dataclass(frozen=True)
class InvariantSuiteReport:
    parts: tuple[SuitePart, ...]
    source_invariants: InvariantBundle
    target_invariants: InvariantBundle
    induced_map_bijective: bool
    girth4_pattern_edge: bool
    girth4_pattern_vertex: bool

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.parts)


def armendariz_invariant_suites(
    maps: Iterable[SemigroupMap],
    max_clique_vertices: int = DEFAULT_MAX_CLIQUE_VERTICES,
    max_chromatic_vertices: int = DEFAULT_MAX_CHROMATIC_VERTICES,
) -> Iterator[InvariantSuiteReport]:
    """``armendariz_invariant_suite`` of each map in turn, sharing work on
    equal tables and graphs within this one iteration.

    Each distinct table is checked for nilpotents, and its zero divisors
    found, once; Γ is built from that one scan.  Each distinct Γ adjacency
    is solved once.  Every map still runs its checks in the one-map order
    (source nilpotents, target nilpotents, the Armendariz check, then both
    invariant bundles), so an error or guard trip surfaces at the same map
    with the same message.  The memos live only as long as the iteration.
    """
    sides: dict[tuple, tuple[int, SimpleGraph]] = {}  # table key -> (zero divisors, Γ)
    bundles: dict[tuple[int, ...], InvariantBundle] = {}  # Γ's rows -> its invariants

    def side(S: SemigroupTable, role: str) -> tuple[int, SimpleGraph]:
        key = S._key()
        if key not in sides:
            w = nilpotent_witness(S)
            if w is not None:
                raise NotNilpotentFree(f"{role} has nonzero nilpotent {w}")
            zd = zero_divisors(S)
            sides[key] = zd, zero_divisor_graph(S, zd)
        return sides[key]

    def bundle(G: SimpleGraph) -> InvariantBundle:
        if G.adj not in bundles:
            bundles[G.adj] = invariant_bundle(G, max_clique_vertices, max_chromatic_vertices)
        return bundles[G.adj]

    for g in maps:
        zs, GS = side(g.source, "source")
        zt, GT = side(g.target, "target")
        report = check_armendariz(g)
        if not report.is_armendariz:
            raise ValueError(f"map is not Armendariz: {report}")
        bs, bt = bundle(GS), bundle(GT)
        bijective = GS.n == GT.n

        # Fibre data over target vertices, for the two girth-4 witness patterns:
        # an edge whose endpoints both have non-singleton fibres, or a vertex
        # with a non-singleton fibre and at least two neighbours.
        fibre = Counter(g.assignment[s] for s in members(zs))
        multi = sum(1 << i for i, t in enumerate(members(zt)) if fibre[t] > 1)
        pattern_edge = any(GT.adj[i] & multi for i in members(multi))
        pattern_vertex = any(GT.adj[i].bit_count() >= 2 for i in members(multi))

        d1, acyclic = bt.diameter == 1, bt.girth == INFINITY
        chi_omega = bs.chi_at_least_omega and bt.chi_at_least_omega
        expected = 1 if bijective else 2
        parts = (
            SuitePart("diameter-transfer", not d1, d1 or bs.diameter == bt.diameter,
                      f"diam source={bs.diameter} target={bt.diameter}"),
            SuitePart("diameter-one-case", d1, (not d1) or bs.diameter == expected,
                      f"diam source={bs.diameter} expected={expected} bijective={bijective}"),
            SuitePart("girth-transfer", not acyclic, acyclic or bs.girth == bt.girth,
                      f"girth source={bs.girth} target={bt.girth}"),
            SuitePart("girth-acyclic-case", acyclic, (not acyclic) or bs.girth in (4, INFINITY),
                      f"girth source={bs.girth}, "
                      f"patterns edge={pattern_edge} vertex={pattern_vertex}"),
            SuitePart("clique-equal", True, bs.clique == bt.clique,
                      f"clique source={bs.clique} target={bt.clique}"),
            SuitePart("chromatic-equal", True,
                      bs.chromatic == bt.chromatic and chi_omega,
                      f"chromatic source={bs.chromatic} target={bt.chromatic}"
                      + ("" if chi_omega else "; chromatic below clique")),
        )
        yield InvariantSuiteReport(
            parts=parts,
            source_invariants=bs,
            target_invariants=bt,
            induced_map_bijective=bijective,
            girth4_pattern_edge=pattern_edge,
            girth4_pattern_vertex=pattern_vertex,
        )


def armendariz_invariant_suite(
    g: SemigroupMap,
    max_clique_vertices: int = DEFAULT_MAX_CLIQUE_VERTICES,
    max_chromatic_vertices: int = DEFAULT_MAX_CHROMATIC_VERTICES,
) -> InvariantSuiteReport:
    """Check the six invariant-preservation laws for a verified map.

    For an Armendariz map between finite nilpotent-free semigroups:
    (1) target diameter != 1 transfers exactly; (2) target diameter 1 gives
    source diameter 1 or 2 according to bijectivity of the induced vertex
    map; (3) finite girth transfers exactly; (4) infinite target girth
    forces source girth in {4, inf}; (5) clique numbers agree; (6) chromatic
    numbers agree, and on both sides are at least the clique number.  Each
    part carries its computed values as the witness.
    """
    return next(armendariz_invariant_suites((g,), max_clique_vertices, max_chromatic_vertices))


# ---------------------------------------------------------------------------
# Export


def _dot_id(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(G: SimpleGraph, name: str = "zd") -> str:
    """Undirected DOT with labels as quoted IDs; bit-stable ordering."""
    ids = [_dot_id(v) for v in G.vertices]
    lines = [f"graph {name} {{"]
    for v in ids:
        lines.append(f"  {v};")
    for i, j in sorted(G.edges):
        lines.append(f"  {ids[i]} -- {ids[j]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(G: SimpleGraph) -> str:
    return json.dumps(
        {"vertices": list(G.vertices), "edges": sorted([i, j] for i, j in G.edges)}
    )
