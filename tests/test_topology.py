import math
import random

import pytest

from relation_oracles import WHOLE, SetCofiniteT1Lattice, from_open_sets, member_mask
from table_oracles import mask
from zdgraph.graphs import COUNTABLY_INFINITE, invariant_bundle, zero_divisor_graph
from zdgraph.semigroups import check_armendariz, check_homomorphism, is_nilpotent_free
from zdgraph.topology import (
    CofiniteT1Lattice,
    InvalidLattice,
    InvalidSpace,
    NotPearled,
    alpha_map,
    axiom_suite,
    char_check_irr_conn,
    closure,
    closure_lattice,
    is_t1,
    lattice_is_connected,
    lattice_is_irreducible,
    lattice_semigroup,
    make_space,
    n0_space_window,
    powerset_lattice,
    prl,
    t1_invariants,
)

INF = math.inf


# closed sets and lattice members are bitmasks: bit p set when point p is in


def sierpinski():
    return make_space(["a", "b"], [0b00, 0b10, 0b11])


def three_point_pearled():
    return make_space(["a", "b", "c"], [0b000, 0b100, 0b111])


def discrete(n):
    pts = [chr(ord("a") + i) for i in range(n)]
    return make_space(pts, range(1 << n))


def test_validation_rejects_unclosed_family():
    with pytest.raises(InvalidSpace):
        make_space(["a", "b"], [0b00, 0b01, 0b10])


def test_from_open_sets():
    # Sierpinski given by opens: {}, {a}, X
    X = from_open_sets(["a", "b"], [0b00, 0b01, 0b11])
    assert set(X.closed_sets) == set(sierpinski().closed_sets)


def test_axioms_three_point():
    ax = axiom_suite(three_point_pearled())
    assert ax.pearled and not ax.t0 and ax.noetherian


def test_axioms_sierpinski():
    ax = axiom_suite(sierpinski())
    assert ax.t_half and not ax.t1 and ax.t0 and ax.pearled


def test_axioms_discrete():
    ax = axiom_suite(discrete(3))
    assert ax.t0 and ax.t1 and ax.t_half and ax.pearled and ax.noetherian


def test_prl_tests_pearls_without_the_axiom_suite(monkeypatch):
    from zdgraph import topology

    def no_suite(X):
        raise AssertionError("Prl X ran the axiom suite")

    monkeypatch.setattr(topology, "axiom_suite", no_suite)
    X = make_space(["a", "b"], [0b00, 0b11])  # {a, b} holds no closed point
    for f in (prl, alpha_map):
        with pytest.raises(NotPearled, match="^space has a nonempty closed set without closed points$"):
            f(X)
    assert prl(sierpinski()).points == ("b",)


def test_closure():
    X = sierpinski()
    assert closure(X, 0b01) == 0b11
    assert closure(X, 0b10) == 0b10


def test_prl():
    assert prl(three_point_pearled()).points == ("c",)
    assert prl(sierpinski()).points == ("b",)
    assert prl(discrete(3)).points == ("a", "b", "c")


def test_prl_rejects_nonpearled():
    # closed sets {}, {a,b}, X on three points: {a,b} has no closed point
    X = make_space(["a", "b", "c"], [0b000, 0b011, 0b111])
    with pytest.raises(NotPearled):
        prl(X)


def test_n0_window():
    rep = n0_space_window(5)
    assert rep.t0_on_window and not rep.pearled
    assert rep.proper_chain[0] == (0, 1)
    rep1 = n0_space_window(1)
    assert rep1.t0_on_window and not rep1.pearled
    from zdgraph.topology import n0_closure_of

    assert n0_closure_of(3) == "[3,inf)"


def test_closure_lattice_examples():
    t = closure_lattice(discrete(2))
    assert t.size == 4
    G = zero_divisor_graph(t)
    assert G.n == 2 and len(G.edges) == 1

    indiscrete = make_space(["a", "b"], [0b00, 0b11])
    assert zero_divisor_graph(closure_lattice(indiscrete)).n == 0

    G3 = zero_divisor_graph(closure_lattice(discrete(3)))
    b = invariant_bundle(G3)
    assert (G3.n, b.diameter, b.girth) == (6, 3, 3)

    assert is_nilpotent_free(t)


def test_alpha_map_properties():
    for X in (three_point_pearled(), sierpinski(), discrete(3)):
        a = alpha_map(X)
        assert check_armendariz(a).is_armendariz
        assert check_homomorphism(a).ok


def test_alpha_map_on_t1_space_is_identity():
    a = alpha_map(discrete(3))
    assert a.assignment == tuple(range(a.source.size))


def test_alpha_map_sierpinski_shape():
    a = alpha_map(sierpinski())
    assert a.source.size == 3 and a.target.size == 2


def test_lattice_validation():
    with pytest.raises(InvalidSpace):
        make_space(["a", "b"], [0b00, 0b01])  # missing ground


def test_negative_masks_and_ground_sizes_are_refused():
    # a negative mask has no finite point list to sort or report by
    with pytest.raises(InvalidSpace, match="member -2 is not a subset"):
        make_space(["a"], [0b0, 0b1, -2])
    with pytest.raises(ValueError, match="ground size >= 0, not -1"):
        powerset_lattice(-1)


def test_irreducible_and_connected():
    L = powerset_lattice(3)
    assert not lattice_is_irreducible(L)
    assert not lattice_is_connected(L)

    # {0, A, B, Y} with A | B = Y a disconnection
    L2 = make_space(["a", "b"], [0b00, 0b01, 0b10, 0b11])
    assert not lattice_is_connected(L2)

    chain = make_space(["a", "b"], [0b00, 0b01, 0b11])
    assert lattice_is_irreducible(chain) and lattice_is_connected(chain)

    C = CofiniteT1Lattice()
    assert lattice_is_irreducible(C) and lattice_is_connected(C)


def test_char_check_powerset():
    for n in (1, 2, 3, 4):
        rep = char_check_irr_conn(powerset_lattice(n))
        assert rep.passed
    rep4 = char_check_irr_conn(powerset_lattice(4))
    assert not rep4.irreducible and not rep4.every_pair_has_2path
    assert not rep4.connected and not rep4.every_edge_in_3cycle


def test_char_check_requires_t1():
    L = make_space(["a", "b"], [0b00, 0b11])
    with pytest.raises(InvalidLattice):
        char_check_irr_conn(L)


def test_t1_invariants_table():
    assert t1_invariants(powerset_lattice(1)).as_tuple() == (0, INF, 0, 0)
    assert t1_invariants(powerset_lattice(2)).as_tuple() == (1, INF, 2, 2)
    assert t1_invariants(powerset_lattice(3)).as_tuple() == (3, 3, 3, 3)
    assert t1_invariants(powerset_lattice(4)).as_tuple() == (3, 3, 4, 4)


def test_t1_invariants_rejects_non_t1():
    L = make_space(["a", "b"], [0b00, 0b11])
    with pytest.raises(InvalidLattice):
        t1_invariants(L)


def test_symbolic_lattice():
    C = CofiniteT1Lattice()
    b = t1_invariants(C)
    assert b.as_tuple() == (2, 3, COUNTABLY_INFINITE, COUNTABLY_INFINITE)
    assert member_mask(WHOLE) & mask({1}) == mask({1})
    assert mask({1}) | member_mask(WHOLE) == member_mask(WHOLE)
    a, bb, mid = C.distance2_witness()
    assert a & bb and not (a & mid) and not (bb & mid)
    cl = C.clique_witness(100)
    assert len(cl) == 100


def test_symbolic_window_agreement():
    C, S = CofiniteT1Lattice(), SetCofiniteT1Lattice()
    rng = random.Random(5)
    for _ in range(100):
        u, v = mask(S.random_member(rng)), mask(S.random_member(rng))
        w = (u | v).bit_length()
        assert bool(u & v) == bool(C.restrict(u, w) & C.restrict(v, w))
    assert C.restrict(member_mask(WHOLE), 4) == mask(range(4))


def test_symbolic_lattice_matches_the_frozenset_lattice():
    C, S = CofiniteT1Lattice(), SetCofiniteT1Lattice()
    assert C.triangle_witness() == tuple(map(mask, S.triangle_witness()))
    assert C.distance2_witness() == tuple(map(mask, S.distance2_witness()))
    assert C.clique_witness(30) == tuple(map(mask, S.clique_witness(30)))
    rng = random.Random(11)
    for _ in range(300):
        su, sv = S.random_member(rng), S.random_member(rng)
        u, v = mask(su), mask(sv)
        assert C.choice_colour(u) == S.choice_colour(su)
        for a, b in ((su, sv), (su, WHOLE), (WHOLE, sv), (WHOLE, WHOLE)):
            x, y = member_mask(a), member_mask(b)
            assert x & y == member_mask(S.meet(a, b))
            assert x | y == member_mask(S.join(a, b))
        for w in (0, 3, 50):
            assert C.restrict(u, w) == mask(S.restrict(su, w))
            assert C.restrict(-1, w) == mask(S.restrict(WHOLE, w))


def test_lattice_semigroup_zero():
    sg = lattice_semigroup(powerset_lattice(2))
    assert sg.elements[sg.zero] == "{}"
