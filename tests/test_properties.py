"""Property-based checks of the structural invariants.

Graph solvers are validated against naive independent oracles; the
semigroup, ring, topology and lattice layers are checked against the laws
the structure theorems promise, over seeded random corpora.
"""

import math
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from relation_oracles import random_poset, random_space
from table_oracles import compose, mask, random_permutation
from zdgraph.corpus import reduced_rings_up_to
from zdgraph.graphs import (
    SimpleGraph,
    beck_graph,
    clique_and_chromatic,
    diameter,
    girth,
    invariant_bundle,
    is_connected,
    max_clique,
    optimal_colouring,
    shortest_cycle,
    zero_divisor_graph,
)
from zdgraph.rings import (
    annihilating_ideal_graph,
    gamma_graph,
    is_reduced,
    make_gf,
    make_product,
    make_zn,
    multiplicative_semigroup,
    ring_from_spec,
)
from zdgraph.semigroups import (
    annihilator,
    check_armendariz,
    eq_quotient,
    induced_final_map,
    is_nilpotent_free,
    members,
)
from zdgraph.spectra import restrict_to_max, sigma_spec, uspec_sigma
from zdgraph.topology import CofiniteT1Lattice, alpha_map, axiom_suite

INF = math.inf


# ---------------------------------------------------------------------------
# Graph solver oracles


def naive_clique_number(G: SimpleGraph) -> int:
    adj = {(i, j) for i, j in G.edges} | {(j, i) for i, j in G.edges}
    best = 0
    for mask in range(1 << G.n):
        vs = [v for v in range(G.n) if mask >> v & 1]
        if all((a, b) in adj for i, a in enumerate(vs) for b in vs[i + 1:]):
            best = max(best, len(vs))
    return best


def naive_chromatic_number(G: SimpleGraph) -> int:
    adj = [set() for _ in range(G.n)]
    for i, j in G.edges:
        adj[i].add(j)
        adj[j].add(i)

    def colourable(k):
        cols = [-1] * G.n

        def rec(v):
            if v == G.n:
                return True
            for c in range(k):
                if all(cols[u] != c for u in adj[v]):
                    cols[v] = c
                    if rec(v + 1):
                        return True
                    cols[v] = -1
            return False

        return rec(0)

    for k in range(G.n + 1):
        if colourable(k):
            return k
    return G.n


def values(G: SimpleGraph) -> tuple[int, int]:
    """ω and χ from the twin quotient, checked against the witness solvers
    on G."""
    got = clique_and_chromatic(G)
    assert got == (len(max_clique(G)), optimal_colouring(G)[0])
    return got


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, f in zip(pairs, flags) if f]
    return SimpleGraph.from_edges([str(i) for i in range(n)], edges)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=12))
def test_clique_matches_naive_enumeration(G):
    assert values(G)[0] == naive_clique_number(G)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=10))
def test_chromatic_matches_naive_search(G):
    assert values(G)[1] == naive_chromatic_number(G)


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=11))
def test_chromatic_at_least_clique(G):
    clique, chromatic = values(G)
    assert chromatic >= clique


def _to_networkx(G: SimpleGraph):
    import networkx as nx

    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges)
    return H


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=12))
def test_metric_invariants_match_networkx(G):
    import networkx as nx

    H = _to_networkx(G)
    assert is_connected(G) == (G.n == 0 or nx.is_connected(H))
    if G.n and nx.is_connected(H):
        assert diameter(G) == nx.diameter(H)
    try:
        expected_girth = nx.girth(H)
    except Exception:
        expected_girth = INF
    assert girth(G) == expected_girth


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=12))
def test_clique_matches_networkx(G):
    import networkx as nx

    H = _to_networkx(G)
    expected = max((len(c) for c in nx.find_cliques(H)), default=0)
    assert values(G)[0] == expected


# ---------------------------------------------------------------------------
# Zero-divisor graph laws over random semigroups


def _corpus_semigroups(seed=13, spaces=25, posets=25):
    rng = random.Random(seed)
    out = [multiplicative_semigroup(R) for R in reduced_rings_up_to(16)]
    from zdgraph.topology import closure_lattice

    for _ in range(spaces):
        out.append(closure_lattice(random_space(rng, rng.randint(1, 5))))
    for _ in range(posets):
        out.append(sigma_spec(random_poset(rng, rng.randint(1, 5))))
    out.append(multiplicative_semigroup(make_zn(4)))  # nilpotents allowed here
    out.append(multiplicative_semigroup(make_zn(8)))
    return out


def test_zero_divisor_graphs_connected_small_diameter_constrained_girth():
    for S in _corpus_semigroups():
        G = zero_divisor_graph(S)
        assert is_connected(G)
        assert diameter(G) <= 3
        assert girth(G) in (3, 4, INF)


def test_quotient_projection_is_armendariz_and_nilpotent_free():
    for S in _corpus_semigroups():
        if not is_nilpotent_free(S):
            continue
        q = eq_quotient(S)
        assert check_armendariz(q.projection).is_armendariz
        assert is_nilpotent_free(q.quotient)


def test_annihilator_class_product_well_defined():
    for S in _corpus_semigroups():
        ann = [annihilator(S, s) for s in range(S.size)]
        classes = {}
        for s in range(S.size):
            classes.setdefault(ann[s], []).append(s)
        reps = list(classes.values())
        for c1 in reps:
            for c2 in reps:
                results = {ann[S.product[a][b]] for a in c1[:2] for b in c2[:2]}
                assert len(results) == 1


def test_finality_factorization_over_corpus():
    from zdgraph.corpus import permuted_copy

    rng = random.Random(3)
    count = 0
    for S in _corpus_semigroups(seed=23, spaces=10, posets=10):
        if not is_nilpotent_free(S) or S.size > 40:
            continue
        q = eq_quotient(S)
        for g in (q.projection, permuted_copy(S, random_permutation(S.size, rng))):
            h = induced_final_map(g)
            assert compose(h, g).assignment == q.projection.assignment
        count += 1
    assert count >= 10


def test_alpha_maps_armendariz_over_random_pearled_spaces():
    rng = random.Random(101)
    found = 0
    while found < 30:
        X = random_space(rng, rng.randint(1, 5))
        if not axiom_suite(X).pearled:
            continue
        found += 1
        a = alpha_map(X)
        assert check_armendariz(a).is_armendariz
        # the closed-point subspace realizes the annihilator quotient
        q = eq_quotient(a.source)
        assert q.quotient.size == a.target.size


def test_max_restrictions_armendariz_over_random_posets():
    rng = random.Random(7)
    for _ in range(30):
        P = random_poset(rng, rng.randint(1, 5))
        assert check_armendariz(restrict_to_max(P)).is_armendariz
        assert set(sigma_spec(P).elements) == set(uspec_sigma(P).elements)


def test_beck_relations_on_nondomain_rings():
    for R in (make_zn(6), make_zn(12), make_product([make_zn(2), make_zn(2)]),
              make_product([make_gf(4), make_zn(3)])):
        S = multiplicative_semigroup(R)
        G = zero_divisor_graph(S)
        if G.n == 0:
            continue
        G0 = beck_graph(S)
        clique, chromatic = values(G)
        assert values(G0) == (clique + 1, chromatic + 1)


def test_reduced_rings_really_reduced():
    for R in reduced_rings_up_to(20):
        assert is_reduced(R)


def _comaximal_ring_corpus():
    out = [make_zn(n) for n in range(2, 25)]
    out.append(make_zn(36))  # (4) and (9) separate the two maximals: girth 4
    out += [make_product([make_gf(a), make_gf(b)]) for a, b in ((2, 2), (2, 4), (3, 5))]
    out += [make_product([make_gf(2), make_gf(2), make_gf(3)])]
    return out


def test_ideal_semigroup_identities_and_absorbers():
    from zdgraph.rings import enumerate_ideals, ideal_semigroup

    for R in (make_zn(12), make_product([make_gf(2), make_gf(3)])):
        n_ideals = len(enumerate_ideals(R))
        for op in ("mult", "add"):
            sg = ideal_semigroup(R, op).table
            zero_row = sg.product[sg.zero]
            assert all(x == sg.zero for x in zero_row)
            # the other extreme ideal is a two-sided identity
            identity = next(
                i for i in range(n_ideals)
                if all(sg.product[i][j] == j for j in range(n_ideals))
            )
            assert identity != sg.zero


def test_comaximal_two_maximal_case_split():
    """Diameter and girth of the ideals-under-addition graph follow the
    two-maximal-ideal case analysis, exhaustively over the corpus."""
    from zdgraph.rings import (
        enumerate_ideals,
        ideal_semigroup,
        maximal_ideals,
    )

    legs = {"diam1": 0, "diam2": 0, "gir4": 0, "girinf": 0}
    for R in _comaximal_ring_corpus():
        masks = enumerate_ideals(R)
        ideals = [frozenset(members(I)) for I in masks]
        maxes = [frozenset(members(M)) for M in maximal_ideals(R, masks)]
        if len(maxes) != 2:
            continue
        m1, m2 = maxes
        whole = frozenset(range(R.size))
        nonmax = [I for I in ideals if I != whole and I not in (m1, m2)]
        G = zero_divisor_graph(ideal_semigroup(R, "add").table)
        below_both = all(I <= (m1 & m2) for I in nonmax)
        assert diameter(G) == (1 if below_both else 2)
        legs["diam1" if below_both else "diam2"] += 1
        sep = any(
            J1 <= m1 and not J1 <= m2 and J2 <= m2 and not J2 <= m1
            for J1 in nonmax
            for J2 in nonmax
        )
        assert girth(G) == (4 if sep else INF)
        legs["gir4" if sep else "girinf"] += 1
    assert all(count >= 1 for count in legs.values()), legs


def test_comaximal_counting_law():
    # clique and chromatic number of the addition graph equal the number of
    # maximal ideals (empty graphs below two maximals)
    from zdgraph.rings import ideal_semigroup, maximal_ideals

    for R in _comaximal_ring_corpus():
        G = zero_divisor_graph(ideal_semigroup(R, "add").table)
        nmax = len(maximal_ideals(R))
        expected = nmax if nmax >= 2 else 0
        assert values(G) == (expected, expected)


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=30), min_size=1, max_size=6),
       st.sets(st.integers(min_value=0, max_value=30), min_size=1, max_size=6))
def test_symbolic_choice_colouring_proper(a, b):
    C = CofiniteT1Lattice()
    u, v = mask(a), mask(b)
    if u != v and not (u & v):
        assert C.choice_colour(u) != C.choice_colour(v)


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=20), min_size=1, max_size=5),
       st.sets(st.integers(min_value=0, max_value=20), min_size=1, max_size=5))
def test_symbolic_meets_agree_with_windows(a, b):
    C = CofiniteT1Lattice()
    u, v = mask(a), mask(b)
    w = max(a | b) + 1
    assert C.meet(u, v) == C.restrict(u, w) & C.restrict(v, w)


# ---------------------------------------------------------------------------
# Mask-based solvers against the set-based loops they replaced


def _adjacency_sets(G):
    adj = [set() for _ in range(G.n)]
    for i, j in G.edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def oracle_shortest_cycle(G, ascending=True):
    """One full BFS per sorted edge.  With ascending=False neighbours come in
    set iteration order, as in the set-based function this replaced."""
    adj = _adjacency_sets(G)
    best, best_cycle = INF, None
    for u, v in sorted(G.edges):
        dist = [INF] * G.n
        parent = [-1] * G.n
        dist[u] = 0
        q = deque([u])
        while q:
            x = q.popleft()
            if x == v:
                break
            for y in sorted(adj[x]) if ascending else adj[x]:
                if {x, y} == {u, v}:
                    continue
                if dist[y] == INF:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    q.append(y)
        if dist[v] != INF and dist[v] + 1 < best:
            best = dist[v] + 1
            path = [v]
            while path[-1] != u:
                path.append(parent[path[-1]])
            best_cycle = tuple(reversed(path))
    return best, best_cycle


def oracle_k_colouring(adj, n, k, seed_clique):
    """The set-based saturation search the mask version replaced."""
    colours = [-1] * n
    for c, v in enumerate(seed_clique):
        colours[v] = c
    uncoloured = [v for v in range(n) if colours[v] == -1]

    def pick():
        best_v, best_key = -1, (-1, -1)
        for v in uncoloured:
            if colours[v] != -1:
                continue
            sat = len({colours[u] for u in adj[v] if colours[u] != -1})
            key = (sat, len(adj[v]))
            if key > best_key:
                best_key, best_v = key, v
        return best_v

    def rec(remaining, max_used):
        if remaining == 0:
            return True
        v = pick()
        used = {colours[u] for u in adj[v] if colours[u] != -1}
        for c in range(min(k - 1, max_used + 1) + 1):
            if c in used:
                continue
            colours[v] = c
            if rec(remaining - 1, max(max_used, c)):
                return True
            colours[v] = -1
        return False

    return colours if rec(len(uncoloured), len(seed_clique) - 1) else None


def oracle_optimal_colouring(G):
    n = G.n
    if n == 0:
        return 0, []
    if not G.edges:
        return 1, [0] * n
    clique = max_clique(G, max_vertices=n)
    adj = _adjacency_sets(G)
    for k in range(len(clique), n + 1):
        colours = oracle_k_colouring(adj, n, k, clique)
        if colours is not None:
            return k, colours


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=14))
def test_shortest_cycle_matches_ascending_oracle(G):
    assert shortest_cycle(G) == oracle_shortest_cycle(G)


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=10))
def test_colouring_matches_set_based_search(G):
    assert optimal_colouring(G) == oracle_optimal_colouring(G)


def test_corpus_graphs_match_set_based_solvers():
    for S in _corpus_semigroups():
        G = zero_divisor_graph(S)
        assert shortest_cycle(G) == oracle_shortest_cycle(G)
        assert optimal_colouring(G, max_vertices=G.n) == oracle_optimal_colouring(G)
        bundle = invariant_bundle(G, max_chromatic_vertices=G.n)
        assert bundle.chromatic == oracle_optimal_colouring(G)[0]


# one presentation per ring-analyze benchmark slot, and the AG-girth rings
RING_GRAPH_SPECS = [
    "Zn:256", "mvq:p=2;vars=x,y,z;rel=x2,y2,z2,xyz", "Zn:210", "prod:gf:4,gf:5,gf:7",
    "mvq:p=3;vars=x,y;rel=x2,y2", "prod:gf:8,gf:9", "prod:Zn:2,gf:27", "gf:25",
    "prod:Zn:4,Zn:2,Zn:3", "Zn:12", "polyquot:p=2;mod=0,0,0,1", "mvq:p=2;vars=x,y;rel=x2,xy,y2",
    "prod:gf:2,gf:2,gf:2", "prod:gf:3,gf:4,gf:5", "prod:gf:2,gf:3,gf:4,gf:5",
]


@pytest.mark.parametrize("spec", RING_GRAPH_SPECS)
def test_ring_graph_cycles_match_set_based_function(spec):
    # on these graphs set iteration order happens to be ascending, so the
    # set-based function and the canonical order give the same witness
    R = ring_from_spec(spec)
    for G in (gamma_graph(R), annihilating_ideal_graph(R)):
        assert shortest_cycle(G) == oracle_shortest_cycle(G, ascending=False)
        assert shortest_cycle(G) == oracle_shortest_cycle(G)
