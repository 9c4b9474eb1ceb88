import itertools
import math
import time

import numpy as np
import pytest

import ideal_oracles as oracle
from zdgraph.graphs import invariant_bundle
from zdgraph.rings import (
    FiniteRing,
    RingConstructionError,
    ag_conjecture_check,
    annihilating_ideal_graph,
    beck_gamma0,
    comaximal_ideal_graph,
    enumerate_ideals,
    gamma_graph,
    ideal_label,
    ideal_semigroup,
    is_ideal_prime,
    is_reduced,
    jacobson_radical,
    make_gf,
    make_multivariate_quot,
    make_polyquot,
    make_product,
    make_zn,
    maximal_ideals,
    minimal_primes,
    multiplicative_semigroup,
    prime_power,
    ring_from_spec,
    spec_poset,
    validate_ring,
)
from zdgraph.semigroups import is_nilpotent_free, validate_semigroup

INF = math.inf


@pytest.mark.parametrize("n", [1, 2, 6, 12, 256])  # n = 1 is the zero ring
def test_make_zn(n):
    R = make_zn(n)
    assert R.labels == tuple(str(a) for a in range(n)) and (R.zero, R.one) == (0, 1 % n)
    assert np.array_equal(R.add, [[(a + b) % n for b in range(n)] for a in range(n)])
    assert np.array_equal(R.mul, [[a * b % n for b in range(n)] for a in range(n)])


def test_make_product_reduced_three_primes():
    R = make_product([make_zn(2)] * 3)
    assert R.size == 8
    assert is_reduced(R)
    assert len(minimal_primes(R)) == 3


def test_make_multivariate_quot_order8_local():
    R = make_multivariate_quot(2, ["x", "y"], [(2, 0), (1, 1), (0, 2)])
    assert R.size == 8
    assert not is_reduced(R)
    assert len(maximal_ideals(R)) == 1


def test_multivariate_rejects_infinite_quotient():
    with pytest.raises(RingConstructionError):
        make_multivariate_quot(2, ["x", "y"], [(1, 1)])  # no pure powers


@pytest.mark.parametrize("variables,message", [
    ([""], "variable 1 has an empty name"),
    (["x", ""], "variable 2 has an empty name"),
    (["x", "x"], "variable 'x' is named twice"),
])
def test_multivariate_rejects_empty_or_repeated_names(variables, message):
    rels = [tuple(2 if j == i else 0 for j in range(len(variables))) for i in range(len(variables))]
    with pytest.raises(RingConstructionError, match=message):
        make_multivariate_quot(2, variables, rels)


def test_polyquot_gf4():
    F4 = make_polyquot(2, [1, 1, 1])
    assert F4.size == 4
    assert is_reduced(F4)
    assert enumerate_ideals(F4) == [oracle.mask({F4.zero}), oracle.mask(range(4))]


def oracle_fp_algebra(p, d, multiply):
    """The cell-by-cell table builder the F_p-algebra constructors replaced."""
    elems = list(itertools.product(range(p), repeat=d))
    pos = {e: i for i, e in enumerate(elems)}
    add = tuple(tuple(pos[tuple((x + y) % p for x, y in zip(a, b))] for b in elems)
                for a in elems)
    mul = tuple(tuple(pos[multiply(a, b)] for b in elems) for a in elems)
    return add, mul, pos[(1,) + (0,) * (d - 1)]


def poly_times(p, modulus):
    """Convolution, then reduction from the top coefficient down."""
    d = len(modulus) - 1
    inv = pow(modulus[-1], p - 2, p)

    def times(a, b):
        conv = [0] * (2 * d - 1)
        for (i, x), (j, y) in itertools.product(enumerate(a), enumerate(b)):
            conv[i + j] = (conv[i + j] + x * y) % p
        for top in range(2 * d - 2, d - 1, -1):
            f = conv[top] * inv % p
            for i, c in enumerate(modulus):
                conv[top - d + i] = (conv[top - d + i] - f * c) % p
        return tuple(conv[:d])

    return times


def monomial_times(p, bounds, rels):
    """Basis monomials ordered by (degree, exponents); products of basis vectors."""
    basis = sorted((m for m in itertools.product(*map(range, bounds))
                    if not any(all(x >= y for x, y in zip(m, r)) for r in rels)),
                   key=lambda m: (sum(m), m))
    bpos = {m: i for i, m in enumerate(basis)}

    def times(u, v):
        out = [0] * len(basis)
        for (i, x), (j, y) in itertools.product(enumerate(u), enumerate(v)):
            s = tuple(a + b for a, b in zip(basis[i], basis[j]))
            if s in bpos:
                out[bpos[s]] = (out[bpos[s]] + x * y) % p
        return tuple(out)

    return len(basis), times


@pytest.mark.parametrize("p,modulus", [
    (2, [1, 1, 1]), (5, [2, 0, 1]), (3, [2, 1, 1]), (2, [0, 0, 0, 1]), (2, [1, 1, 1, 1]),
    (3, [1, 2, 0, 1]), (5, [3, 0, 2]), (7, [1, 3]), (3, [1, 1, 0, 2]), (2, [1, 0, 0, 1, 0, 1]),
])
def test_polyquot_tables_match_cell_builder(p, modulus):
    R = make_polyquot(p, modulus)
    add, mul, one = oracle_fp_algebra(p, len(modulus) - 1, poly_times(p, modulus))
    assert np.array_equal(R.add, add) and np.array_equal(R.mul, mul) and R.one == one
    assert R.zero == 0


@pytest.mark.parametrize("p,bounds,rels", [
    (2, (2, 2, 2), [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)]),
    (3, (2, 2), [(2, 0), (0, 2)]),
    (2, (3,), [(3,)]),
    (2, (2, 2), [(2, 0), (1, 1), (0, 2)]),
    (5, (2, 2), [(2, 0), (0, 2), (1, 1)]),
    (2, (4, 2), [(4, 0), (0, 2), (2, 1)]),
])
def test_multivariate_tables_match_cell_builder(p, bounds, rels):
    variables = "xyz"[: len(bounds)]
    R = make_multivariate_quot(p, variables, rels)
    d, times = monomial_times(p, bounds, rels)
    add, mul, one = oracle_fp_algebra(p, d, times)
    assert np.array_equal(R.add, add) and np.array_equal(R.mul, mul) and R.one == one
    assert R.zero == 0


def test_make_gf_prime_powers():
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = make_gf(q)
        assert F.size == q
        assert len(enumerate_ideals(F)) == 2
    with pytest.raises(RingConstructionError):
        make_gf(6)


def test_bad_table_rejected():
    add = [[0, 1], [1, 0]]
    mul = [[0, 0], [0, 0]]  # no multiplicative identity
    with pytest.raises(RingConstructionError):
        validate_ring(FiniteRing(("0", "1"), add, mul, 0, 1))


@pytest.mark.parametrize("zero,one,message", [
    (5, 1, "zero index 5 is not in 0..1"),
    (0, 7, "one index 7 is not in 0..1"),
    (0, -1, "one index -1 is not in 0..1"),
])
def test_zero_and_one_must_be_element_indices(zero, one, message):
    add, mul = [[0, 1], [1, 0]], [[0, 0], [0, 1]]
    R = FiniteRing(("0", "1"), add, mul, zero, one)  # stored as given
    assert (R.zero, R.one) == (zero, one)
    with pytest.raises(RingConstructionError, match=message):
        validate_ring(R)


def test_is_reduced():
    assert is_reduced(make_zn(6))
    assert not is_reduced(make_zn(4))
    assert is_reduced(make_product([make_zn(2), make_zn(2)]))


def test_multiplicative_semigroup_valid():
    for R in (make_zn(6), make_zn(4)):
        S = multiplicative_semigroup(R)
        assert validate_semigroup(S).ok
    assert is_nilpotent_free(multiplicative_semigroup(make_zn(6)))
    assert not is_nilpotent_free(multiplicative_semigroup(make_zn(4)))


def test_gamma_of_mvq_is_triangle():
    R = ring_from_spec("mvq:p=2;vars=x,y;rel=x2,xy,y2")
    G = gamma_graph(R)
    assert G.n == 3 and len(G.edges) == 3


def test_enumerate_ideals_counts():
    assert len(enumerate_ideals(make_zn(30))) == 8
    assert len(enumerate_ideals(make_product([make_zn(2), make_zn(2)]))) == 4


def test_ideal_arithmetic():
    R = make_zn(12)
    two = oracle.index_principal(R, 2)
    three = oracle.index_principal(R, 3)
    assert oracle.index_sum(R, two, three) == oracle.mask(range(12))  # gcd 1
    assert oracle.index_product(R, two, three) == oracle.index_principal(R, 6)


def test_ideal_labels():
    R = make_zn(30)
    assert ideal_label(R, oracle.index_principal(R, 10)) == "(10)"
    Rm = ring_from_spec("mvq:p=2;vars=x,y;rel=x2,xy,y2")
    m = maximal_ideals(Rm)[0]
    assert ideal_label(Rm, m).startswith("(") and "," in ideal_label(Rm, m)


def test_ideal_semigroup_absorbers():
    R = make_zn(6)
    mult = ideal_semigroup(R, "mult")
    add = ideal_semigroup(R, "add")
    assert mult.table.elements[mult.table.zero] == "(0)"
    assert add.table.elements[add.table.zero] == "(1)"
    assert validate_semigroup(mult.table).ok and validate_semigroup(add.table).ok


def test_ag_graph_of_two_field_product_is_single_edge():
    G = annihilating_ideal_graph(make_product([make_zn(2), make_zn(2)]))
    assert G.n == 2 and len(G.edges) == 1


def test_ag_graph_built_despite_nilpotent_ideals():
    # (2)*(2) = (0) in Z4: the ideal semigroup has a nilpotent, the graph
    # is still a single vertex with no self-edge
    G = annihilating_ideal_graph(make_zn(4))
    assert G.vertices == ("(2)",) and not G.edges


def test_comaximal_examples():
    assert comaximal_ideal_graph(make_zn(4)).n == 0  # local ring
    G6 = comaximal_ideal_graph(make_zn(6))
    assert set(G6.vertices) == {"(2)", "(3)"} and len(G6.edges) == 1
    assert invariant_bundle(G6).diameter == 1


def test_maximal_minimal_jacobson():
    R = make_zn(30)
    assert {ideal_label(R, M) for M in maximal_ideals(R)} == {"(2)", "(3)", "(5)"}
    jac = jacobson_radical(R)
    assert jac == oracle.mask({0})
    assert not is_ideal_prime(R, jac)

    R4 = make_zn(4)
    (m,) = maximal_ideals(R4)
    assert jacobson_radical(R4) == m
    assert is_ideal_prime(R4, m)

    assert len(minimal_primes(make_product([make_zn(2)] * 3))) == 3


def test_ag_conjecture_examples():
    rep = ag_conjecture_check(make_product([make_zn(2)] * 3))
    assert rep.applies and rep.passed and len(rep.witness) == 3

    rep2 = ag_conjecture_check(make_product([make_zn(2), make_zn(2)]))
    assert not rep2.applies and rep2.passed is None and rep2.girth == INF

    rep3 = ag_conjecture_check(make_product([make_zn(2), make_zn(3), make_zn(5)]))
    assert rep3.applies and rep3.passed


def test_spec_poset_shapes():
    P = spec_poset(make_zn(30))
    assert P.n == 3
    assert P.leq == (0b001, 0b010, 0b100)  # an antichain
    assert spec_poset(make_zn(4)).n == 1
    assert spec_poset(ring_from_spec("mvq:p=2;vars=x,y;rel=x2,xy,y2")).n == 1


def test_beck_gamma0_from_ring():
    G = beck_gamma0(make_zn(5))
    assert G.n == 5 and len(G.edges) == 4


def test_ring_from_spec_round_trips():
    for spec in ("Zn:6", "gf:4", "prod:Zn:2,Zn:3", "polyquot:p=2;mod=1,1,1",
                 "mvq:p=2;vars=x,y;rel=x2,xy,y2"):
        R = ring_from_spec(spec)
        assert R.size >= 1
    with pytest.raises(RingConstructionError):
        ring_from_spec("nonsense:1")
    with pytest.raises(RingConstructionError):
        ring_from_spec("polyquot:p=4;mod=1,1,1")  # p not prime


def test_prime_power_matches_trial_division():
    def oracle(q):
        for p in range(2, q + 1):
            for k in range(1, q.bit_length() + 1):
                if p**k == q and all(p % d for d in range(2, p)):
                    return p, k
        return None

    for q in range(-2, 300):
        assert prime_power(q) == oracle(q), q
    assert prime_power(2**13) == (2, 13) and prime_power(7919) == (7919, 1)


def oracle_ideal_label(R, I):
    """The label search before least generators: every member pair and triple."""
    members = sorted(I)
    for a in members:
        if oracle.principal_ideal(R, a) == I:
            return f"({R.labels[a]})"
    for a, b in itertools.combinations(members, 2):
        if oracle.ideal_sum(R, oracle.principal_ideal(R, a), oracle.principal_ideal(R, b)) == I:
            return f"({R.labels[a]},{R.labels[b]})"
    for gens in itertools.combinations(members, 3):
        acc = frozenset({R.zero})
        for g in gens:
            acc = oracle.ideal_sum(R, acc, oracle.principal_ideal(R, g))
        if acc == I:
            return "(" + ",".join(R.labels[g] for g in gens) + ")"
    return "{" + ",".join(R.labels[a] for a in members) + "}"


# mvq:p=2;vars=x,y,z;rel=x2,y2,z2 is left out: the oracle takes about 10 s there
@pytest.mark.parametrize("spec", [
    "Zn:12", "Zn:30", "prod:Zn:4,Zn:2,Zn:3", "mvq:p=2;vars=x,y;rel=x2,xy,y2",
    "mvq:p=3;vars=x,y;rel=x2,y2", "mvq:p=2;vars=x,y,z;rel=x2,y2,z2,xyz",
])
def test_ideal_label_matches_oracle(spec):
    R = ring_from_spec(spec)
    for I in enumerate_ideals(R):
        assert ideal_label(R, I) == oracle_ideal_label(R, oracle.ideal_set(I))


def test_ideal_labels_of_order_128_ring_are_fast():
    R = ring_from_spec("mvq:p=2;vars=x,y,z;rel=x2,y2,z2")
    ideals = enumerate_ideals(R)
    t0 = time.perf_counter()
    labels = [ideal_label(R, I) for I in ideals]
    assert time.perf_counter() - t0 < 5.0  # the pair-and-triple search took 10 s
    assert len(set(labels)) == len(ideals) == 47


def oracle_enumerate_ideals(R):
    """The closure before principal-only sums: every pair of ideals found."""
    ideals = {oracle.principal_ideal(R, a) for a in range(R.size)}
    work = list(ideals)
    while work:
        I = work.pop()
        for J in list(ideals):
            K = oracle.ideal_sum(R, I, J)
            if K not in ideals:
                ideals.add(K)
                work.append(K)
    return sorted(ideals, key=lambda I: (len(I), sorted(I)))


# the last ring is F_2[a..e] modulo every quadratic monomial: 375 ideals
@pytest.mark.parametrize("spec", [
    "Zn:256", "mvq:p=2;vars=x,y,z;rel=x2,y2,z2,xyz", "mvq:p=2;vars=x,y,z;rel=x2,y2,z2",
    "mvq:p=3;vars=x,y;rel=x2,y2", "prod:gf:4,gf:5,gf:7",
    "mvq:p=2;vars=a,b,c,d,e;rel=a2,ab,ac,ad,ae,b2,bc,bd,be,c2,cd,ce,d2,de,e2",
])
def test_enumerate_ideals_matches_oracle(spec):
    R = ring_from_spec(spec)
    assert enumerate_ideals(R) == [oracle.mask(I) for I in oracle_enumerate_ideals(R)]


def test_the_irreducible_search_raises_runtime_error_when_nothing_is_irreducible(monkeypatch):
    from zdgraph import rings

    # every division leaves no remainder, so no candidate is irreducible
    monkeypatch.setattr(rings, "_fp_poly_mod", lambda num, den, p: [])
    with pytest.raises(RuntimeError, match="F_2\\[x\\] has a monic irreducible of degree 2"):
        rings._monic_irreducible(2, 2)
