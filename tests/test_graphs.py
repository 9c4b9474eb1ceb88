import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from table_oracles import (
    bfs_diameter, bundle_on_g, graph_from_json, identity_map, record_calls,
)
from zdgraph import graphs
from zdgraph.graphs import (
    SimpleGraph,
    armendariz_invariant_suite,
    beck_graph,
    chromatic_number,
    clique_and_chromatic,
    clique_number,
    diameter,
    girth,
    graph_to_json,
    invariant_bundle,
    is_connected,
    max_clique,
    optimal_colouring,
    shortest_cycle,
    to_dot,
    twin_quotient,
    zero_divisor_graph,
)
from zdgraph.rings import gamma_graph, ring_from_spec
from zdgraph.semigroups import SemigroupTable, SizeGuardExceeded, eq_quotient

INF = math.inf


def graph(n, edges):
    return SimpleGraph.from_edges([str(i) for i in range(n)], edges)


def zn_mul(n):
    return SemigroupTable(
        tuple(str(i) for i in range(n)),
        0,
        tuple(tuple((a * b) % n for b in range(n)) for a in range(n)),
    )


TRIANGLE = graph(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = graph(3, [(0, 1), (1, 2)])
SQUARE = graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
EMPTY = graph(0, [])


def test_no_self_loops_or_bad_edges():
    with pytest.raises(ValueError, match="self-loop at 0"):
        SimpleGraph.from_edges(("a",), [(0, 0)])
    with pytest.raises(ValueError, match=r"bad edge \(0, 1\)"):
        SimpleGraph.from_edges(("a",), [(1, 0)])
    with pytest.raises(ValueError, match=r"bad edge \(-1, 0\)"):
        SimpleGraph.from_edges(("a",), [(0, -1)])


def test_diameter():
    assert diameter(TRIANGLE) == 1
    assert diameter(PATH3) == 2
    assert diameter(EMPTY) == 0
    assert diameter(graph(1, [])) == 0
    assert diameter(graph(4, [(0, 1), (2, 3)])) == INF


def test_girth():
    assert girth(TRIANGLE) == 3
    assert girth(PATH3) == INF
    assert girth(SQUARE) == 4
    length, cycle = shortest_cycle(SQUARE)
    assert length == 4 and len(cycle) == 4


def test_connected():
    assert is_connected(PATH3)
    assert not is_connected(graph(4, [(0, 1), (2, 3)]))
    assert is_connected(graph(1, []))
    assert is_connected(EMPTY)


def test_clique_number():
    assert clique_number(TRIANGLE) == 3
    assert clique_number(EMPTY) == 0
    assert clique_number(graph(4, [])) == 1
    assert clique_number(SQUARE) == 2
    witness = max_clique(TRIANGLE)
    assert set(witness) == {0, 1, 2}


def test_chromatic_number():
    assert chromatic_number(TRIANGLE) == 3
    assert chromatic_number(EMPTY) == 0
    assert chromatic_number(graph(3, [])) == 1
    assert chromatic_number(SQUARE) == 2
    assert chromatic_number(graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])) == 5


def test_size_guards():
    big = graph(10, [])
    with pytest.raises(SizeGuardExceeded):
        clique_number(big, max_vertices=5)
    with pytest.raises(SizeGuardExceeded):
        chromatic_number(big, max_vertices=5)


def test_zero_divisor_graph_z6():
    G = zero_divisor_graph(zn_mul(6))
    assert G.vertices == ("2", "3", "4")
    assert G.edges == {(0, 1), (1, 2)}
    b = invariant_bundle(G)
    assert b.as_tuple() == (2, INF, 2, 2)


def test_zero_divisor_graph_of_field_is_empty():
    assert zero_divisor_graph(zn_mul(7)).n == 0


def test_beck_graph_star_for_domain():
    G = beck_graph(zn_mul(5))
    # 0 is adjacent to everything, nothing else touches
    assert G.n == 5
    assert G.edges == {(0, i) for i in range(1, 5)}
    assert clique_number(G) == 2 and chromatic_number(G) == 2


def test_beck_graph_z2():
    G = beck_graph(zn_mul(2))
    assert G.n == 2 and len(G.edges) == 1


def test_beck_relations_z6():
    S = zn_mul(6)
    g0 = beck_graph(S)
    g = zero_divisor_graph(S)
    assert clique_number(g0) == clique_number(g) + 1 == 3
    assert chromatic_number(g0) == chromatic_number(g) + 1 == 3


def test_invariant_bundle_keeps_chromatic_below_clique():
    # χ ≥ ω is judged by the suites, so a bundle that breaks it is kept as computed
    from zdgraph.graphs import InvariantBundle

    assert InvariantBundle(1, 3, 3, 2).as_tuple() == (1, 3, 3, 2)


def test_dot_export_canonical():
    G = zero_divisor_graph(zn_mul(6))
    text = to_dot(G)
    assert text == to_dot(zero_divisor_graph(zn_mul(6)))  # bit-stable
    assert '"2" -- "3";' in text and '"3" -- "4";' in text
    assert text.startswith("graph zd {")


def test_dot_export_empty_graph():
    assert to_dot(EMPTY) == "graph zd {\n}\n"


def test_json_round_trip():
    G = zero_divisor_graph(zn_mul(6))
    data = json.loads(graph_to_json(G))
    assert data["vertices"] == ["2", "3", "4"]
    assert data["edges"] == [[0, 1], [1, 2]]
    assert graph_from_json(graph_to_json(G)) == G


def test_suite_on_identity_passes_trivially():
    rep = armendariz_invariant_suite(identity_map(zn_mul(6)))
    assert rep.passed and rep.induced_map_bijective


def test_suite_z6_quotient_details():
    rep = armendariz_invariant_suite(eq_quotient(zn_mul(6)).projection)
    assert rep.passed
    assert not rep.induced_map_bijective
    assert rep.target_invariants.diameter == 1
    assert rep.source_invariants.diameter == 2
    by_name = {p.name: p for p in rep.parts}
    assert by_name["diameter-one-case"].applies
    assert not by_name["diameter-transfer"].applies


def test_suite_rejects_nilpotent_input():
    from zdgraph.semigroups import NotNilpotentFree

    with pytest.raises(NotNilpotentFree):
        armendariz_invariant_suite(identity_map(zn_mul(4)))


def test_girth4_pattern_flags():
    # two size-two fibres over the single edge of the target: products
    # collapse within each block and vanish across blocks
    prod = [[0] * 5 for _ in range(5)]
    for i in (1, 2):
        for j in (1, 2):
            prod[i][j] = 1
    for i in (3, 4):
        for j in (3, 4):
            prod[i][j] = 3
    t = SemigroupTable(("0", "a1", "a2", "b1", "b2"), 0, tuple(tuple(r) for r in prod))
    from zdgraph.semigroups import SemigroupMap, validate_semigroup

    assert validate_semigroup(t).ok
    target = SemigroupTable(("0", "a", "b"), 0, ((0, 0, 0), (0, 1, 0), (0, 0, 2)))
    g = SemigroupMap(t, target, (0, 1, 1, 2, 2))
    rep = armendariz_invariant_suite(g)
    assert rep.passed
    assert rep.girth4_pattern_edge
    assert rep.source_invariants.girth == 4



def test_girth4_patterns_match_an_edge_set_reference():
    from collections import Counter

    from zdgraph.corpus import armendariz_map_corpus
    from zdgraph.semigroups import members, zero_divisors

    seen = Counter()
    for _, g, _ in armendariz_map_corpus().maps:
        rep = armendariz_invariant_suite(g)
        vt = sorted(members(zero_divisors(g.target)))
        fibre = Counter(g.assignment[s] for s in members(zero_divisors(g.source)))
        GT = zero_divisor_graph(g.target)
        degree = Counter(v for e in GT.edges for v in e)
        edge = any(fibre[vt[i]] > 1 and fibre[vt[j]] > 1 for i, j in GT.edges)
        vertex = any(fibre[t] > 1 and degree[i] >= 2 for i, t in enumerate(vt))
        assert (rep.girth4_pattern_edge, rep.girth4_pattern_vertex) == (edge, vertex)
        seen[edge, vertex] += 1
    assert len(seen) >= 3, seen

def test_adjacency_rows_are_neighbour_masks():
    assert SQUARE.adj == (0b1010, 0b0101, 0b1010, 0b0101)
    assert EMPTY.adj == () and graph(2, []).adj == (0, 0)


def test_edge_list_and_zero_product_builds_give_equal_graphs():
    G = SimpleGraph.from_edges(("2", "3", "4"), [(2, 1), (0, 1), (1, 0)])
    H = zero_divisor_graph(zn_mul(6))
    assert G == H and hash(G) == hash(H)
    assert G.adj == H.adj == (0b010, 0b101, 0b010)
    assert G.edges == H.edges == {(0, 1), (1, 2)}
    assert repr(G) == "SimpleGraph(vertices=('2', '3', '4'), adj=(2, 5, 2))"
    assert G != SimpleGraph.from_edges(("2", "3", "4"), [(0, 1)])
    assert G != SimpleGraph.from_edges(("a", "b", "c"), [(0, 1), (1, 2)])


@pytest.mark.parametrize("adj, message", [
    ((0b001, 0, 0), "self-loop at 0"),
    ((0b010, 0b001, 0b100), "self-loop at 2"),
    ((0b1000, 0, 0), r"bad edge \(0, 3\)"),
    ((0b010, 0, 0), r"bad edge \(0, 1\)"),
    ((0, 0, 0b001), r"bad edge \(0, 2\)"),
    ((0, 0, -1), "3 vertices need 3 nonnegative adjacency rows"),
    ((0, 0), "3 vertices need 3 nonnegative adjacency rows"),
    # every bit above the diagonal has its mirror; the stray one is below
    ((0b010, 0b001, 0b010), r"bad edge \(1, 2\)"),
])
def test_bad_rows_raise(adj, message):
    with pytest.raises(ValueError, match=message):
        SimpleGraph(("a", "b", "c"), adj)


def _full_row_scan(adj):
    """The message of the first bad bit in row-major order, or None."""
    n = len(adj)
    for i, row in enumerate(adj):
        for j in range(row.bit_length()):
            if row >> j & 1:
                if i == j:
                    return f"self-loop at {i}"
                if j >= n or not adj[j] >> i & 1:
                    return f"bad edge ({min(i, j)}, {max(i, j)})"
    return None


def test_row_check_matches_a_full_scan():
    # symmetric rows with up to three bits flipped, anywhere in 0..n
    rng = random.Random(12)
    for _ in range(600):
        n = rng.randint(1, 9)
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        for _ in range(rng.randint(0, 3)):
            adj[rng.randrange(n)] ^= 1 << rng.randrange(n + 1)
        want = _full_row_scan(adj)
        if want is None:
            assert SimpleGraph(tuple(map(str, range(n))), tuple(adj)).adj == tuple(adj)
        else:
            with pytest.raises(ValueError) as err:
                SimpleGraph(tuple(map(str, range(n))), tuple(adj))
            assert str(err.value) == want


def test_row_check_matches_a_full_scan_on_both_sides_of_the_matrix_switch():
    # graphs from 33 vertices on are checked as unpacked matrices
    rng = random.Random(13)
    for n in (graphs._MATRIX_VERTICES - 1, graphs._MATRIX_VERTICES, 40):
        for _ in range(150):
            adj = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.2:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
            for _ in range(rng.choice((0, 1, 1, 2))):
                adj[rng.randrange(n)] ^= 1 << rng.randrange(n + 2)
            want = _full_row_scan(adj)
            if want is None:
                assert SimpleGraph(tuple(map(str, range(n))), tuple(adj)).adj == tuple(adj)
            else:
                with pytest.raises(ValueError) as err:
                    SimpleGraph(tuple(map(str, range(n))), tuple(adj))
                assert str(err.value) == want


@pytest.mark.parametrize("adj, message", [
    ({0: 0b1}, "self-loop at 0"),
    ({5: 1 << 9}, r"bad edge \(5, 9\)"),
    ({39: 1 << 41}, r"bad edge \(39, 41\)"),
    ({3: 1 << 40}, r"bad edge \(3, 40\)"),
])
def test_bad_rows_of_a_large_graph_raise(adj, message):
    rows = tuple(adj.get(i, 0) for i in range(40))
    with pytest.raises(ValueError, match=message):
        SimpleGraph(tuple(map(str, range(40))), rows)


def test_packed_rows_equal_edge_built_rows():
    # asymmetric matrices with their diagonals set: only the upper triangle counts
    rng = np.random.default_rng(5)
    for n in (0, 1, 2, graphs._MATRIX_VERTICES - 1, graphs._MATRIX_VERTICES, 70):
        for density in (0.0, 0.3, 1.0):
            zero = rng.random((n, n)) < density
            labels = tuple(map(str, range(n)))
            pairs = zip(*(ix.tolist() for ix in np.nonzero(zero)))
            want = SimpleGraph.from_edges(labels, [(i, j) for i, j in pairs if i < j])
            assert graphs._zero_product_graph(labels, zero) == want


def test_the_small_graphs_of_verify_armendariz_list_their_edges(monkeypatch):
    # its largest Γ has 30 vertices, below the matrix switch: today's path
    from zdgraph.suites import verify_armendariz

    listed, real = [], SimpleGraph.from_edges
    monkeypatch.setattr(SimpleGraph, "from_edges",
                        staticmethod(lambda v, e: listed.append(v) or real(v, e)))
    built = record_calls(monkeypatch, graphs, "_zero_product_graph")
    assert verify_armendariz().passed
    assert len(listed) == len(built) == 345
    assert max(len(args[0]) for args, _ in built) == 30


def _recursive_k_colouring(adj, k, seed_clique):
    """The recursive backtracking search the explicit stack replaced."""
    n = len(adj)
    colours = [-1] * n
    classes = [0] * k
    for c, v in enumerate(seed_clique):
        colours[v] = c
        classes[c] |= 1 << v
    degree = [a.bit_count() for a in adj]

    def pick():
        free = [v for v in range(n) if colours[v] == -1]
        return max(free, key=lambda v: (sum(1 for cls in classes if cls & adj[v]), degree[v], -v))

    def rec(remaining, max_used):
        if remaining == 0:
            return True
        v = pick()
        for c in range(min(k - 1, max_used + 1) + 1):
            if classes[c] & adj[v]:
                continue
            colours[v] = c
            classes[c] |= 1 << v
            if rec(remaining - 1, max(max_used, c)):
                return True
            classes[c] ^= 1 << v
            colours[v] = -1
        return False

    return colours if rec(colours.count(-1), len(seed_clique) - 1) else None


def _recount_k_colouring(adj, k, seed_clique):
    """The explicit-stack search whose pick recounts every uncoloured
    vertex's saturation over all k colour classes."""
    n = len(adj)
    colours = [-1] * n
    classes = [0] * k
    for c, v in enumerate(seed_clique):
        colours[v] = c
        classes[c] |= 1 << v
    uncoloured = [v for v in range(n) if colours[v] == -1]
    degree = [a.bit_count() for a in adj]

    def pick():
        best_v, best_key = -1, (-1, -1)
        for v in uncoloured:
            if colours[v] != -1:
                continue
            key = (sum(1 for cls in classes if cls & adj[v]), degree[v])
            if key > best_key:
                best_key, best_v = key, v
        return best_v

    stack = []
    remaining, max_used = len(uncoloured), len(seed_clique) - 1
    v, c = pick(), 0
    while remaining:
        top = min(k - 1, max_used + 1)
        while c <= top and classes[c] & adj[v]:
            c += 1
        if c <= top:
            colours[v] = c
            classes[c] |= 1 << v
            stack.append((v, c, max_used))
            max_used, remaining = max(max_used, c), remaining - 1
            v, c = pick(), 0
        elif stack:
            v, c, max_used = stack.pop()
            classes[c] ^= 1 << v
            colours[v] = -1
            remaining += 1
            c += 1
        else:
            return None
    return colours


def test_kept_saturation_counts_pick_like_the_recount():
    # every k from the clique size up to the first success, on random graphs
    # of 1 to 40 vertices, so the searches that backtrack are compared too
    rng = random.Random(11)
    failed = 0
    for _ in range(300):
        n = rng.randint(1, 40)
        p = rng.uniform(0.1, 0.8)
        G = graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        if not G.edges:
            continue
        clique = max_clique(G)
        for k in range(len(clique), n + 1):
            got = graphs._k_colouring(G.adj, k, clique)
            assert got == _recount_k_colouring(G.adj, k, clique)
            if got is not None:
                break
            failed += 1
    assert failed > 50
    # the star K_{1,1199}, beyond the recursive search's depth
    star = graph(1200, [(0, j) for j in range(1, 1200)])
    for k, clique in ((2, (0, 1)), (2, (5, 0))):
        assert graphs._k_colouring(star.adj, k, clique) == _recount_k_colouring(star.adj, k, clique)


def test_colouring_search_matches_the_recursive_search():
    # every k from the clique size up to the first success, so the searches
    # that fail and backtrack to the root are compared too
    rng = random.Random(5)
    failed = 0
    for _ in range(300):
        n = rng.randint(8, 20)
        p = rng.uniform(0.2, 0.7)
        G = graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        clique = max_clique(G)
        for k in range(len(clique), n + 1):
            got = graphs._k_colouring(G.adj, k, clique)
            assert got == _recursive_k_colouring(G.adj, k, clique)
            if got is not None:
                break
            failed += 1
    assert failed > 50


def test_colouring_search_is_not_bounded_by_recursion_depth():
    # the star K_{1,1199}: one backtracking level per uncoloured vertex
    G = graph(1200, [(0, j) for j in range(1, 1200)])
    assert clique_and_chromatic(G, 10**5, 10**5) == (2, 2)
    k, colours = optimal_colouring(G, 10**5)
    assert k == 2 and all(colours[i] != colours[j] for i, j in G.edges)


def test_invariant_bundle_searches_for_a_clique_once(monkeypatch):
    # perfbench/spans.py times diameter, girth and max_clique by rebinding
    # these module-level names: the bundle calls each once, on the quotient
    calls = {name: [] for name in ("diameter", "girth", "max_clique")}
    for name, seen in calls.items():
        def counting(G, *args, _fn=getattr(graphs, name), _seen=seen):
            _seen.append(G)
            return _fn(G, *args)

        monkeypatch.setattr(graphs, name, counting)
    G = zero_divisor_graph(zn_mul(30))
    H = twin_quotient(G)[0]
    assert H.n < G.n
    assert invariant_bundle(G).as_tuple() == (3, 3, 3, 3)
    assert calls == {"diameter": [H], "girth": [H], "max_clique": [H]}


def test_invariant_bundle_guards_keep_their_order():
    big = graph(70, [(0, 1)])
    with pytest.raises(SizeGuardExceeded, match="70 clique-solver vertices exceed guard 60"):
        invariant_bundle(big, max_clique_vertices=60, max_chromatic_vertices=50)
    with pytest.raises(SizeGuardExceeded, match="70 chromatic-solver vertices exceed guard 64"):
        invariant_bundle(big)


# ---------------------------------------------------------------------------
# The false-twin quotient


def test_twin_quotient_keeps_the_first_vertex_of_each_class():
    # 1 and 3 share the row {0}, 2 and 4 share {}: 0 -- 1, 0 -- 3, 5 -- 0
    G = graph(6, [(0, 1), (0, 3), (0, 5)])
    H, twinned = twin_quotient(G)
    assert H.vertices == ("0", "1", "2")
    assert H.adj == (0b010, 0b001, 0)
    assert twinned == 0b111110
    assert twin_quotient(TRIANGLE) == (TRIANGLE, 0)
    assert twin_quotient(TRIANGLE)[0] is TRIANGLE
    assert twin_quotient(EMPTY)[0] is EMPTY


def blow_up(base, sizes, order):
    """Each vertex i of ``base`` replaced by ``sizes[i]`` twins; the twins
    are numbered by ``order``, a permutation of range(sum(sizes))."""
    owner = [i for i, m in enumerate(sizes) for _ in range(m)]
    owner = [owner[k] for k in order]
    n = len(owner)
    return graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                     if base.adj[owner[a]] >> owner[b] & 1])


@st.composite
def blow_ups(draw):
    k = draw(st.integers(0, 7))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    base = graph(k, [p for p in pairs if draw(st.booleans())])
    sizes = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    order = draw(st.permutations(range(sum(sizes))))
    return blow_up(base, sizes, order)


def _check_against_g(G):
    H, _ = twin_quotient(G)
    assert len(set(H.adj)) == H.n
    assert twin_quotient(H)[0] is H
    expected = bundle_on_g(G, G.n, G.n)
    assert invariant_bundle(G, G.n, G.n).as_tuple() == expected
    assert clique_and_chromatic(G, G.n, G.n) == expected[2:]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(blow_ups())
def test_bundle_on_twin_blow_ups_matches_the_bundle_on_g(G):
    _check_against_g(G)


def _stars(n):
    return graph(n + 1, [(0, j) for j in range(1, n + 1)])


BLOWN_UP_CASES = {
    "empty": EMPTY,
    "one vertex": graph(1, []),
    "two isolated twins": graph(2, []),
    "three isolated twins": graph(3, []),
    "isolated twins beside an edge": graph(4, [(1, 2)]),
    "isolated twins beside a triangle": graph(5, [(0, 1), (1, 2), (0, 2)]),
    **{f"K1,{n}": _stars(n) for n in range(1, 6)},
    **{f"K2 blown up to K{a},{b}": blow_up(graph(2, [(0, 1)]), (a, b), range(a + b))
       for a in range(1, 4) for b in range(1, 4)},
    "leaf twins on a triangle": graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4)]),
    "twins on a pentagon": blow_up(graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
                                   (2, 1, 1, 1, 1), range(6)),
}


@pytest.mark.parametrize("name", sorted(BLOWN_UP_CASES))
def test_bundle_on_small_cases_matches_the_bundle_on_g(name):
    _check_against_g(BLOWN_UP_CASES[name])


def test_lift_rules_on_pinned_cases():
    assert invariant_bundle(graph(2, [])).as_tuple() == (INF, INF, 1, 1)
    assert invariant_bundle(_stars(3)).as_tuple() == (2, INF, 2, 2)
    K23 = BLOWN_UP_CASES["K2 blown up to K2,3"]
    assert invariant_bundle(K23).as_tuple() == (2, 4, 2, 2)
    assert invariant_bundle(BLOWN_UP_CASES["twins on a pentagon"]).as_tuple() == (2, 4, 2, 3)


RING_SPECS = [f"Zn:{n}" for n in range(2, 65)] + [
    "prod:Zn:2,Zn:2", "prod:Zn:2,Zn:3", "prod:Zn:4,Zn:2", "prod:Zn:2,Zn:2,Zn:2",
    "prod:Zn:4,Zn:4", "prod:gf:4,Zn:3", "prod:Zn:2,Zn:2,Zn:3", "prod:Zn:3,Zn:3,Zn:2",
    "prod:Zn:2,Zn:2,Zn:2,Zn:2", "prod:Zn:6,Zn:6", "prod:Zn:8,Zn:2", "prod:Zn:9,Zn:3",
]


@pytest.mark.parametrize("spec", RING_SPECS)
def test_bundle_on_ring_graphs_matches_the_bundle_on_g(spec):
    _check_against_g(gamma_graph(ring_from_spec(spec)))


# ---------------------------------------------------------------------------
# The diameter kernel against the BFS oracle


def _path(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


DIAMETER_CASES = {
    "empty": EMPTY,
    "one vertex": graph(1, []),
    "two isolated vertices": graph(2, []),
    "an edge beside an isolated vertex": graph(3, [(0, 1)]),
    "two triangles": graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    "a path beside a star": graph(70, [(i, i + 1) for i in range(39)]
                                  + [(40, j) for j in range(41, 70)]),
    **{f"P{n}": _path(n) for n in range(60, 71)},
    "C65": graph(65, [(i, (i + 1) % 65) for i in range(65)]),
}


@pytest.mark.parametrize("name", sorted(DIAMETER_CASES))
def test_diameter_matches_the_bfs_oracle_on_pinned_graphs(name):
    G = DIAMETER_CASES[name]
    assert diameter(G) == bfs_diameter(G)


def test_diameter_of_paths_across_the_word_boundary():
    assert [diameter(_path(n)) for n in range(60, 71)] == list(range(59, 70))
    assert diameter(DIAMETER_CASES["a path beside a star"]) == INF


@st.composite
def random_graphs(draw):
    n = draw(st.integers(0, 90))
    p = draw(st.sampled_from([0.0, 0.01, 0.03, 0.05, 0.1, 0.3, 0.7, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(random_graphs())
def test_diameter_matches_the_bfs_oracle_on_random_graphs(G):
    assert diameter(G) == bfs_diameter(G)


def _fan_window_graphs():
    from zdgraph.spectra import (
        fan_disjoint, fan_shared, fan_window_poset, fan_window_upset_count, restrict_to_max,
    )

    # every window the fan specs suite solves: at most 2,000 closed sets
    for fan in [fan_shared(k) for k in range(1, 17)] + [fan_disjoint(k) for k in range(1, 17)]:
        for w in (2, 3):
            if fan_window_upset_count(fan, w) <= 2000:
                yield zero_divisor_graph(restrict_to_max(fan_window_poset(fan, w)).source)


def test_diameter_matches_the_bfs_oracle_on_fan_windows_and_z1024():
    graphs_seen = list(_fan_window_graphs())
    assert len(graphs_seen) == 27 and max(G.n for G in graphs_seen) == 720
    for G in graphs_seen + [gamma_graph(ring_from_spec("Zn:1024"))]:
        assert diameter(G) == bfs_diameter(G) <= 3


# ---------------------------------------------------------------------------
# One Armendariz run shares each table's graph and each graph's invariants


def _counting(monkeypatch, name):
    calls = []
    fn = getattr(graphs, name)
    monkeypatch.setattr(graphs, name, lambda *a, **k: calls.append(a[0]) or fn(*a, **k))
    return calls


def test_verify_armendariz_solves_each_distinct_table_and_graph_once(monkeypatch):
    from zdgraph.suites import verify_armendariz

    built = _counting(monkeypatch, "zero_divisor_graph")
    solved = _counting(monkeypatch, "invariant_bundle")
    for _ in range(2):  # the second run counts the same: nothing outlives a run
        built.clear()
        solved.clear()
        assert verify_armendariz().passed
        assert len(built) == len({S._key() for S in built}) == 345
        assert len(solved) == len({G.adj for G in solved}) == 81


def test_the_shared_run_equals_the_one_map_suite_on_every_corpus_map():
    from zdgraph.corpus import armendariz_map_corpus
    from zdgraph.graphs import armendariz_invariant_suites

    maps = [g for _, g, _ in armendariz_map_corpus().maps]
    shared = list(armendariz_invariant_suites(maps))
    assert len(shared) == len(maps) == 293
    assert shared == [armendariz_invariant_suite(g) for g in maps]


def test_verify_armendariz_builds_each_corpus_map_and_scans_each_table_once(monkeypatch):
    from zdgraph import semigroups, spectra, topology
    from zdgraph.suites import verify_armendariz

    counted = {name: record_calls(monkeypatch, module, name) for module, name in (
        (topology, "make_space"), (topology, "alpha_map"), (topology, "axiom_suite"),
        (spectra, "restrict_to_max"), (semigroups, "check_armendariz"),
        (semigroups, "zero_divisors"))}
    for _ in range(2):  # the memos live for one run only
        for calls in counted.values():
            calls.clear()
        assert verify_armendariz().passed
        # the 185 topology classes on 1-5 points are each built into a
        # space and tested for pearls once; each of the 127 pearled classes
        # builds its closed points without testing the space again, and
        # each of the 87 poset classes is restricted once: 61 quotients and
        # 18 relabellings make 293 maps, all distinct
        assert {name: len(calls) for name, calls in counted.items()} == {
            "make_space": 312, "alpha_map": 127, "axiom_suite": 185, "restrict_to_max": 87,
            "check_armendariz": 293, "zero_divisors": 345}
        scanned = [args[0]._key() for args, _ in counted["zero_divisors"]]
        assert len(set(scanned)) == len(scanned)


def test_a_map_on_the_same_tables_with_another_assignment_is_checked_again():
    from zdgraph.graphs import armendariz_invariant_suites
    from zdgraph.semigroups import SemigroupMap

    S = zn_mul(6)
    swap = SemigroupMap(S, S, (0, 2, 1, 3, 4, 5))  # 2*3 = 0, but 1*3 = 3
    with pytest.raises(ValueError, match="^map is not Armendariz"):
        list(armendariz_invariant_suites([identity_map(S), swap]))


def test_verify_armendariz_json_does_not_depend_on_the_hash_seed():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    for argv, marker in ((["armendariz"], b'"10436 maps, 0 failures"'),
                         (["specs", "--max-points", "3"], b'"19 posets checked"')):
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-m", "zdgraph.cli", "verify", *argv, "--json"],
                                 capture_output=True, env=env, check=True)
            outs.append(re.sub(rb'"elapsed_s": [0-9.e-]+', b'"elapsed_s": _', run.stdout))
        assert outs[0] == outs[1] and marker in outs[0]


def test_a_map_that_is_not_armendariz_fails_before_any_guard():
    from zdgraph.graphs import armendariz_invariant_suites
    from zdgraph.semigroups import SemigroupMap, meet_table

    S = meet_table([str(i) for i in range(8)], range(256))  # Γ: 254 vertices, over the guard
    swap = list(range(S.size))
    swap[1], swap[3] = 3, 1  # {0} and {0,1} trade places: kill rows differ
    bad = SemigroupMap(S, S, tuple(swap))
    for run in (lambda: armendariz_invariant_suite(bad),
                lambda: list(armendariz_invariant_suites([identity_map(zn_mul(6)), bad]))):
        with pytest.raises(ValueError, match="^map is not Armendariz") as info:
            run()
        assert not isinstance(info.value, SizeGuardExceeded)
    with pytest.raises(SizeGuardExceeded, match="254 clique-solver vertices exceed guard 200"):
        armendariz_invariant_suite(identity_map(S))
