"""One table form: read-only int64 arrays, and array code equal to the loops.

``table_oracles`` keeps the cell-by-cell routines the array code replaced.
Verdicts, first witnesses and messages must be equal on the corpus
semigroups, on hypothesis tables, on seeded random maps and on seeded
single-cell corruptions of ring and semigroup tables.
"""

import bisect
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ideal_oracles
import table_oracles as oracle
from relation_oracles import random_poset, random_space
from zdgraph import rings
from zdgraph.cli import main
from zdgraph.corpus import armendariz_map_corpus, permuted_copy, reduced_rings_up_to
from zdgraph.graphs import beck_graph, zero_divisor_graph
from zdgraph.polynomials import make_poly, polys_up_to_degree
from zdgraph.rings import (
    FiniteRing,
    RingConstructionError,
    ideal_semigroup,
    make_zn,
    multiplicative_semigroup,
    ring_from_spec,
    validate_ring,
)
from zdgraph.semigroups import (
    InvalidSemigroup,
    SemigroupMap,
    SemigroupTable,
    annihilator,
    block_size,
    check_armendariz,
    check_homomorphism,
    eq_quotient,
    first_witness,
    meet_table,
    nilpotent_witness,
    read_only_table,
    table_law_failure,
    validate_semigroup,
    zero_divisors,
)
from zdgraph.spectra import sigma_spec
from zdgraph.suites import SUITES
from zdgraph.topology import closure_lattice, powerset_lattice, lattice_semigroup

RING_SPECS = ["Zn:1", "Zn:2", "Zn:4", "Zn:6", "Zn:8", "Zn:9", "Zn:12", "Zn:16", "Zn:30",
              "gf:4", "gf:8", "gf:9", "prod:Zn:2,Zn:2", "prod:Zn:2,Zn:4,Zn:3",
              "prod:gf:4,Zn:3", "mvq:p=2;vars=x,y;rel=x2,xy,y2", "polyquot:p=3;mod=0,0,1"]


def _corpus():
    rng = random.Random(11)
    out = [multiplicative_semigroup(ring_from_spec(s)) for s in RING_SPECS]
    out += [closure_lattice(random_space(rng, rng.randint(1, 5))) for _ in range(20)]
    out += [sigma_spec(random_poset(rng, rng.randint(1, 5))) for _ in range(20)]
    for spec in ("Zn:12", "prod:Zn:2,Zn:4", "mvq:p=2;vars=x,y;rel=x2,y2"):
        out += [ideal_semigroup(ring_from_spec(spec), op).table for op in ("add", "mult")]
    out.append(lattice_semigroup(powerset_lattice(3)))
    return out


CORPUS = _corpus()


def _from_rows(rows, zero, labels=None):
    return SemigroupTable(tuple(labels or map(str, range(len(rows)))), zero, rows)


def _same_semigroup_answers(S):
    for s in range(S.size):
        assert annihilator(S, s) == oracle.mask(oracle.annihilator(S, s))
    assert zero_divisors(S) == oracle.mask(oracle.zero_divisors(S))
    for G, verts in ((zero_divisor_graph(S), sorted(oracle.zero_divisors(S))),
                     (beck_graph(S), list(range(S.size)))):
        assert (G.vertices, G.edges) == oracle.zero_product_graph(S, verts)
    if not validate_semigroup(S).ok:
        return  # eq_quotient's class product is well-defined on semigroups only
    q = eq_quotient(S, permissive=True)
    got = (q.classes, q.quotient.elements, q.quotient.zero, q.quotient.product.tolist(),
           q.projection.assignment)
    assert got == oracle.eq_quotient(S)  # never the oracle's ill-defined message
    assert all(type(x) is int for c in q.classes for x in c + q.projection.assignment)


def test_corpus_semigroups_match_oracles():
    for S in CORPUS:
        assert validate_semigroup(S).ok
        assert nilpotent_witness(S) == oracle.nilpotent_witness(S)
        _same_semigroup_answers(S)


# ---------------------------------------------------------------------------
# Hypothesis tables: products of Z_n, truncated x-powers and meet semilattices


def _zn_rows(n):
    return [[a * b % n for b in range(n)] for a in range(n)], 0


def _powers_rows(k):
    # element 0 is zero, element e >= 1 is x^(e-1), and x^k = 0
    return [[e + f - 1 if e and f and e + f - 1 <= k else 0 for f in range(k + 1)]
            for e in range(k + 1)], 0


def _meet_rows(masks):
    family = set(masks)
    while (more := family | {a & b for a in family for b in family}) != family:
        family = more
    family = sorted(family)  # the bottom, a subset of every member, comes first
    pos = {m: i for i, m in enumerate(family)}
    return [[pos[a & b] for b in family] for a in family], 0


def _product_rows(factors):
    rows, zero = [[0]], 0
    for f_rows, f_zero in factors:
        m = len(f_rows)
        rows = [[rows[a // m][b // m] * m + f_rows[a % m][b % m]
                 for b in range(len(rows) * m)] for a in range(len(rows) * m)]
        zero = zero * m + f_zero
    return rows, zero


FACTORS = st.one_of(
    st.integers(1, 9).map(_zn_rows),
    st.integers(1, 5).map(_powers_rows),
    st.lists(st.integers(0, 15), min_size=1, max_size=5).map(_meet_rows),
)


@st.composite
def semigroups(draw):
    rows, zero = _product_rows(draw(st.lists(FACTORS, min_size=1, max_size=2)))
    perm = oracle.random_permutation(len(rows), random.Random(draw(st.integers(0, 99))))
    labels, zero, rows, _ = oracle.permuted_copy(_from_rows(rows, zero), perm)
    return _from_rows(rows, zero, labels)


@settings(max_examples=60, deadline=None)
@given(semigroups())
def test_hypothesis_semigroups_match_oracles(S):
    assert validate_semigroup(S).ok
    assert nilpotent_witness(S) == oracle.nilpotent_witness(S)
    _same_semigroup_answers(S)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n - 1),
                        st.lists(st.lists(st.integers(-1, n), min_size=n, max_size=n),
                                 min_size=n, max_size=n))))
def test_random_tables_validate_like_the_loops(args):
    n, zero, rows = args
    S = _from_rows(rows, zero)
    res = validate_semigroup(S)
    assert (res.law, res.witness) == oracle.validate_semigroup(S.elements, zero, rows)
    if not any(x < 0 or x >= n for row in rows for x in row):
        _same_semigroup_answers(S)  # the quotient too, where S is a semigroup
        # a map between tables that need not commute: only pairs a <= b count
        _same_map_answers(SemigroupMap(S, S, tuple(rows[0])))


# ---------------------------------------------------------------------------
# The annihilator classes, keyed by packed kill rows


def _same_quotient_as_unique_rows(S):
    got = eq_quotient(S, permissive=True)
    want = oracle.unique_rows_quotient(S)  # raises on an ill-defined class product
    assert got.classes == want.classes
    assert got.quotient == want.quotient  # labels, zero and table bytes
    assert got.projection.assignment == want.projection.assignment
    return got


def test_quotients_of_reduced_rings_match_unique_rows():
    for R in reduced_rings_up_to(32):
        S = multiplicative_semigroup(R)
        assert _same_quotient_as_unique_rows(S) == eq_quotient(S)


@pytest.mark.parametrize("spec", ideal_oracles.workload_ring_specs())
def test_quotients_of_workload_rings_match_unique_rows(spec):
    S = multiplicative_semigroup(ideal_oracles.cached_ring(spec))
    _same_quotient_as_unique_rows(S)
    perm = oracle.random_permutation(S.size, random.Random(spec))
    _same_quotient_as_unique_rows(permuted_copy(S, perm).target)


@st.composite
def zero_heavy_tables(draw):
    """A commutative table on up to 20 elements (kill rows of up to three
    bytes) whose zero absorbs, with products drawn from a few values, so
    that kill rows repeat; most are no semigroup."""
    n = draw(st.integers(1, 20))
    zero = draw(st.integers(0, n - 1))
    values = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)) + [zero] * 2
    rows = [[zero] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            if zero not in (a, b):
                rows[a][b] = rows[b][a] = draw(st.sampled_from(values))
    return _from_rows(rows, zero)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(zero_heavy_tables())
def test_quotients_of_random_tables_match_unique_rows(S):
    assume(validate_semigroup(S).ok)  # eq_quotient takes a semigroup
    _same_quotient_as_unique_rows(S)


# ---------------------------------------------------------------------------
# Maps


def _same_map_answers(g):
    rep = check_armendariz(g)
    assert (rep.surjective_witness, rep.zero_witness, rep.product_witness) == \
        oracle.check_armendariz(g)
    assert check_homomorphism(g).witness == oracle.check_homomorphism(g)


def test_map_corpus_matches_oracles():
    for _, g, _ in armendariz_map_corpus().maps:
        _same_map_answers(g)


def test_seeded_random_maps_match_oracles():
    rng = random.Random(5)
    small = [S for S in CORPUS if S.size <= 16]
    for _ in range(300):
        S, T = rng.choice(small), rng.choice(small)
        assign = [rng.randrange(T.size) for _ in range(S.size)]
        if rng.random() < 0.5:  # keep zero on zero, so the product check is reached
            assign[S.zero] = T.zero
        _same_map_answers(SemigroupMap(S, T, tuple(assign)))


def test_permuted_copies_match_oracle():
    for seed, S in enumerate(CORPUS):
        perm = oracle.random_permutation(S.size, random.Random(seed))
        g = permuted_copy(S, perm)
        want = oracle.permuted_copy(S, perm)
        assert (g.target.elements, g.target.zero, g.target.product.tolist(), g.assignment) == want
        assert check_armendariz(g).is_armendariz and check_homomorphism(g).ok


def test_poly_mul_matches_convolution():
    for spec in ("Zn:6", "Zn:8", "gf:4", "prod:Zn:2,Zn:3"):
        R = ring_from_spec(spec)
        polys = list(polys_up_to_degree(R, 2))[:: 7]
        for f in polys:
            for g in polys:
                assert oracle.poly_mul(f, g).coeffs == oracle.poly_mul_coeffs(R, f.coeffs, g.coeffs)
    R = make_zn(4)
    assert oracle.poly_mul(make_poly(R, (2, 1)), make_poly(R, (2,))).coeffs == (0, 2)


# ---------------------------------------------------------------------------
# Seeded single-cell corruptions


def _corruptions(rows, seed, count):
    rng = random.Random(seed)
    n = len(rows)
    for _ in range(count):
        bad = [list(r) for r in rows]
        a, b = rng.randrange(n), rng.randrange(n)
        bad[a][b] = rng.choice([v for v in range(-1, n + 1) if v != rows[a][b]])
        if rng.random() < 0.6:  # keep the table commutative, to reach the later laws
            bad[b][a] = bad[a][b]
        yield bad


def test_semigroup_corruptions_match_oracle():
    laws = set()
    for k, S in enumerate(S for S in CORPUS if 1 < S.size <= 24):
        for bad in _corruptions(S.product.tolist(), k, 12):
            T = _from_rows(bad, S.zero, S.elements)
            res = validate_semigroup(T)
            assert (res.law, res.witness) == oracle.validate_semigroup(S.elements, S.zero, bad)
            laws.add(res.law)
            if res.law != "index-bounds":
                _same_semigroup_answers(T)
    assert {"index-bounds", "commutative", "associative", "absorbing"} <= laws


def _ring_message(n, add, mul, zero, one):
    """The validation error message, after checking that the generator
    check alone agrees with the oracle's verdict."""
    want = oracle.validate_ring(n, add, mul, zero, one)
    R = FiniteRing([str(i) for i in range(n)], add, mul, zero, one)
    assert rings._ring_laws_hold(R) == (want is None)
    try:
        validate_ring(R)
    except RingConstructionError as exc:
        return str(exc)
    return None


def test_ring_corruptions_match_oracle():
    messages = set()
    for k, spec in enumerate(RING_SPECS):
        R = ring_from_spec(spec)
        if R.size < 2:
            continue
        add, mul = R.add.tolist(), R.mul.tolist()
        for j, bad in enumerate(_corruptions(add, k, 10)):
            got = _ring_message(R.size, bad, mul, R.zero, R.one)
            assert got == oracle.validate_ring(R.size, bad, mul, R.zero, R.one)
            messages.add(got and got.split(" at ")[0])
        for bad in _corruptions(mul, 100 + k, 10):
            got = _ring_message(R.size, add, bad, R.zero, R.one)
            assert got == oracle.validate_ring(R.size, add, bad, R.zero, R.one)
            messages.add(got and got.split(" at ")[0])
    assert {"add table entry out of range", "add not commutative", "add not associative",
            "mul table entry out of range", "mul not commutative", "mul not associative",
            "distributivity fails"} <= messages


def test_ring_shape_and_identity_messages_match_oracle():
    R = make_zn(6)
    add, mul = R.add.tolist(), R.mul.tolist()
    lattice = [[max(a, b) for b in range(6)] for a in range(6)]  # 0 is its identity
    cases = [(add[:5], mul, 0, 1), (add, [r[:5] for r in mul], 0, 1),
             (add, mul, 1, 1), (lattice, mul, 0, 1), (add, mul, 0, 5), (add, mul, 0, 0)]
    for a, m, zero, one in cases:
        got = _ring_message(6, a, m, zero, one)
        assert got is not None and got == oracle.validate_ring(6, a, m, zero, one)


# ---------------------------------------------------------------------------
# The ring check on additive generators


ANALYZE_SPECS = ideal_oracles.ring_analyze_specs()
# one ring of order >= 1,024 from each constructor: Z/nZ, a direct product,
# F_p[x]/(f) and a monomial quotient of F_p[x, y]
LARGE_SPECS = ["Zn:1024", "prod:gf:4,gf:8,Zn:5,Zn:7", "polyquot:p=11;mod=1,0,1,1",
               "mvq:p=2;vars=x,y;rel=x5,y2"]


def test_corpus_rings_pass_the_generator_check(monkeypatch):
    # constructors check no ring law, so this is where a wrong table shows:
    # every ring the benchmark workloads and the ring-building verify suites
    # make, against the O(n^3) oracle, and the large rings by validate_ring
    built = [oracle.record_calls(monkeypatch, rings, name)
             for name in ("make_zn", "make_product", "_fp_algebra")]
    for suite in ("ag-conjecture", "armendariz", "content"):
        SUITES[suite]()
    suite_rings = {R.tag: R for calls in built for _, R in calls}
    monkeypatch.undo()
    specs = RING_SPECS + ideal_oracles.workload_ring_specs()
    small = {R.tag: R for R in map(ring_from_spec, specs)} | suite_rings
    assert len(suite_rings) > 60 and max(R.size for R in small.values()) <= 256
    for R in small.values():
        assert oracle.validate_ring(R.size, R.add, R.mul, R.zero, R.one) is None, R.tag
        assert rings._ring_laws_hold(R), R.tag
    for spec in LARGE_SPECS:
        R = ring_from_spec(spec)
        assert R.size >= 1024
        validate_ring(R)


def test_additive_generators_are_greedy_and_few():
    for spec in RING_SPECS + ANALYZE_SPECS:
        R = ring_from_spec(spec)
        add = R.add.tolist()
        n = len(add)
        G = rings._additive_generators(np.array(add), R.zero)
        assert G == oracle.additive_generators(add, R.zero)
        assert oracle.additive_closure(add, [R.zero] + G) == set(range(n))
        assert len(G) <= n.bit_length() - 1  # floor(log2 n)


def test_generators_of_a_semilattice_are_every_element():
    # x + y = max(x, y): every element is closed under +, so each nonzero one joins
    n = 6
    add = [[max(a, b) for b in range(n)] for a in range(n)]
    assert rings._additive_generators(np.array(add), 0) == list(range(1, n))
    mul = make_zn(n).mul.tolist()
    assert _ring_message(n, add, mul, 0, 1) == "element 1 has no additive inverse"


def _relabelled(T, perm):
    """The table T with element a renamed perm[a]."""
    out = [[0] * len(T) for _ in T]
    for a, row in enumerate(T):
        for b, c in enumerate(row):
            out[perm[a]][perm[b]] = perm[c]
    return out


def test_nonzero_generators_keep_the_verdict():
    # the zero ring has no nonzero generator, and no law left to check
    assert rings._additive_generators(np.array([[0]]), 0) == []
    assert _ring_message(1, [[0]], [[0]], 0, 0) is None
    # Z_6 with its zero at index 3: every corruption gets the scan's verdict
    perm = [3, 0, 5, 1, 4, 2]
    R = make_zn(6)
    add, mul = _relabelled(R.add.tolist(), perm), _relabelled(R.mul.tolist(), perm)
    G = rings._additive_generators(np.array(add), 3)
    assert G == oracle.additive_generators(add, 3) == [0]  # 1 generates Z_6
    assert _ring_message(6, add, mul, 3, 0) is None
    for bad in _corruptions(add, 7, 10):
        assert _ring_message(6, bad, mul, 3, 0) == oracle.validate_ring(6, bad, mul, 3, 0)
    for bad in _corruptions(mul, 8, 10):
        assert _ring_message(6, add, bad, 3, 0) == oracle.validate_ring(6, add, bad, 3, 0)
    # x + y = max(x, y): the sums of the nonzero elements never reach zero
    lattice = [[max(a, b) for b in range(6)] for a in range(6)]
    assert 0 not in oracle.additive_closure(lattice, rings._additive_generators(np.array(lattice), 0))
    got = _ring_message(6, lattice, R.mul.tolist(), 0, 1)
    assert got is not None and got == oracle.validate_ring(6, lattice, R.mul.tolist(), 0, 1)


@st.composite
def commutative_tables(draw, n):
    """A random commutative table on n elements, or max, or Z_n's sum."""
    kind = draw(st.sampled_from(["random", "max", "zn"]))
    if kind == "max":
        return [[max(a, b) for b in range(n)] for a in range(n)]
    if kind == "zn":
        return [[(a + b) % n for b in range(n)] for a in range(n)]
    T = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            T[a][b] = T[b][a] = draw(st.integers(0, n - 1))
    return T


@st.composite
def ring_tables(draw):
    n = draw(st.integers(1, 6))
    add = draw(commutative_tables(n))
    if draw(st.booleans()):
        mul = [[a * b % n for b in range(n)] for a in range(n)]
    else:
        mul = draw(commutative_tables(n))
        for a in range(n):  # element 1 % n is the one, to reach the later laws
            mul[1 % n][a] = mul[a][1 % n] = a
    return n, add, mul


@settings(max_examples=200, deadline=None)
@given(ring_tables())
def test_commutative_tables_check_like_the_scan(args):
    # most of these are no additive group, so the greedy generators may be
    # every element; the verdict and the message must still be the scan's
    n, add, mul = args
    assert rings._additive_generators(np.array(add), 0) == oracle.additive_generators(add, 0)
    got = _ring_message(n, add, mul, 0, 1 % n)
    assert got == oracle.validate_ring(n, add, mul, 0, 1 % n)


def _f2_algebra(products):
    """F_2 with basis b_0 = 1, b_1, ..., b_4 (element e is the sum of the b_k
    with bit k set) and b_i b_j = b_k for each (i, j, k) in ``products``;
    every other product of two basis elements other than 1 is zero."""
    basis = [[0] * 5 for _ in range(5)]
    for k in range(5):
        basis[0][k] = basis[k][0] = 1 << k
    for i, j, k in products:
        basis[i][j] = basis[j][i] = 1 << k
    n = 32

    def mul(e, f):
        out = 0
        for i in range(5):
            for j in range(5):
                if e >> i & 1 and f >> j & 1:
                    out ^= basis[i][j]
        return out

    return [[e ^ f for f in range(n)] for e in range(n)], \
        [[mul(e, f) for f in range(n)] for e in range(n)]


def test_non_associative_algebra_fails_on_generator_triples():
    # b_1 b_2 = b_4 and b_4 b_3 = b_1: commutative, distributive and unital,
    # and (b_1 b_2) b_3 = b_1 while b_1 (b_2 b_3) = 0.  Every triple of basis
    # elements with a repeat associates, so only distinct generators show it.
    add, mul = _f2_algebra([(1, 2, 4), (4, 3, 1)])
    basis = [1 << k for k in range(5)]
    assert rings._additive_generators(np.array(add), 0) == basis
    for a in basis:
        for b in basis:
            assert mul[mul[a][a]][b] == mul[a][mul[a][b]]
    got = _ring_message(32, add, mul, 0, 1)
    assert got.startswith("mul not associative at")
    assert got == oracle.validate_ring(32, add, mul, 0, 1)
    assert _ring_message(32, *_f2_algebra([(1, 2, 4)]), 0, 1) is None


# ---------------------------------------------------------------------------
# F_p-algebra tables, filled by digit levels


def _fp_algebras_match_rows(monkeypatch, build):
    """Build rings with ``build()`` and compare every F_p-algebra among them
    with the row-by-row tables of the same structure constants."""
    calls = oracle.record_calls(monkeypatch, rings, "_fp_algebra")
    build()
    for (p, structure, labels, _tag), R in calls:
        add, mul, one = oracle.fp_algebra_rows(p, structure)
        assert np.array_equal(R.add, add) and np.array_equal(R.mul, mul)
        assert (R.zero, R.one, R.labels) == (0, one, tuple(labels))
        assert labels[0] == "0" and labels[one] == "1" and len(set(labels)) == R.size
    return len(calls)


def test_fp_algebra_tables_match_the_row_builder(monkeypatch):
    specs = [s for s in RING_SPECS + ANALYZE_SPECS if any(
        kind in s for kind in ("gf:", "polyquot:", "mvq:"))]
    built = _fp_algebras_match_rows(monkeypatch, lambda: [ring_from_spec(s) for s in specs])
    assert built == 31


@st.composite
def polyquot_moduli(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 4))
    return p, draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)) + [1]


@settings(max_examples=40, deadline=None)
@given(polyquot_moduli())
def test_polyquot_tables_match_the_row_builder(args):
    p, modulus = args
    with pytest.MonkeyPatch.context() as mp:
        assert _fp_algebras_match_rows(mp, lambda: rings.make_polyquot(p, modulus)) == 1


def _basis_size(bounds, rels):
    return sum(not any(all(e >= r for e, r in zip(m, rel)) for rel in rels)
               for m in itertools.product(*map(range, bounds)))


@st.composite
def monomial_quotients(draw):
    """F_p modulo a pure power of each of 1-3 variables and some random
    monomials, with at most 256 elements."""
    p = draw(st.sampled_from([2, 3, 5]))
    bounds = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    pure = [tuple(e if j == i else 0 for j in range(len(bounds))) for i, e in enumerate(bounds)]
    extra = draw(st.lists(st.tuples(*(st.integers(0, e) for e in bounds)), max_size=3))
    rels = pure + [r for r in extra if any(r)]
    assume(p ** _basis_size(bounds, rels) <= 256)
    return p, "xyz"[: len(bounds)], rels


@settings(max_examples=40, deadline=None)
@given(monomial_quotients())
def test_multivariate_tables_match_the_row_builder(args):
    p, variables, rels = args
    with pytest.MonkeyPatch.context() as mp:
        assert _fp_algebras_match_rows(
            mp, lambda: rings.make_multivariate_quot(p, variables, rels)) == 1


# ---------------------------------------------------------------------------
# The table type


def test_tables_are_read_only_int64_arrays():
    R = ring_from_spec("prod:Zn:2,Zn:3")
    q = eq_quotient(multiplicative_semigroup(R))
    tables = [R.add, R.mul, q.quotient.product, q.source.product,
              ideal_semigroup(R, "mult").table.product, CORPUS[-1].product,
              permuted_copy(q.source, oracle.random_permutation(q.source.size, random.Random(1)))
              .target.product]
    for T in tables:
        assert isinstance(T, np.ndarray) and T.dtype == np.int64
        with pytest.raises(ValueError):
            T[0, 0] = 0


def test_multiplicative_semigroup_shares_the_ring_table():
    R = make_zn(12)
    assert multiplicative_semigroup(R).product is R.mul
    assert not hasattr(SemigroupTable, "mul")


def test_equality_and_hashing():
    rows = [[0, 0], [0, 1]]
    a = SemigroupTable(("0", "1"), 0, rows)
    b = SemigroupTable(("0", "1"), 0, np.array(rows))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != SemigroupTable(("0", "e"), 0, rows)
    assert a != SemigroupTable(("0", "1"), 1, rows)
    assert a != SemigroupTable(("0", "1"), 0, [[0, 0], [0, 0]])
    assert a != rows


def test_json_format_is_unchanged():
    S = multiplicative_semigroup(make_zn(3))
    text = S.to_json()
    assert text == '{"elements": ["0", "1", "2"], "zero": 0, "product": [[0, 0, 0], [0, 1, 2], [0, 2, 1]]}'
    assert SemigroupTable.from_json(text) == S
    T = meet_table(["a", "b"], [0b01, 0b11, 0b00])
    assert SemigroupTable.from_json(T.to_json()) == T
    assert json.loads(T.to_json())["elements"] == ["{a}", "{a,b}", "{}"]
    assert json.loads(T.to_json())["product"] == [[0, 0, 2], [0, 1, 2], [2, 2, 2]]


def test_meet_table_over_wide_masks():
    # masks past 63 bits: a chain of closed sets on 100 points
    points = [str(p) for p in range(100)]
    members = [(1 << k) - 1 for k in range(0, 101, 10)]
    T = meet_table(points, members)
    assert T.product.tolist() == [[min(i, j) for j in range(11)] for i in range(11)]
    assert T.zero == 0
    assert T.elements[1] == "{0,1,2,3,4,5,6,7,8,9}"
    with pytest.raises(ValueError, match="not closed under intersection"):
        meet_table(["a", "b", "c"], [0b11, 0b101, 0b111])


def _intersection_closed(rng, points, generators, shift):
    """Random masks over ``points`` bits, closed under intersection, shifted
    left by ``shift`` and shuffled."""
    family = {rng.getrandbits(points) for _ in range(generators)}
    while True:
        more = {a & b for a in family for b in family} - family
        if not more:
            break
        family |= more
    masks = [m << shift for m in family]
    rng.shuffle(masks)
    return masks


def _bisection_positions(masks):
    """The position of each meet, looked up in the sorted masks."""
    order = sorted(range(len(masks)), key=masks.__getitem__)
    ordered = [masks[k] for k in order]
    at = [[order[bisect.bisect_left(ordered, a & b)] for b in masks] for a in masks]
    if any(masks[k] != a & b for row, a in zip(at, masks) for k, b in zip(row, masks)):
        raise ValueError("family is not closed under intersection")
    return at


@pytest.mark.parametrize("shift,lookup", [(0, True), (0, False), (40, False), (70, False)])
def test_meet_positions_match_bisection(shift, lookup, monkeypatch):
    # unshifted families over few points are read by lookup, over many by
    # bisection; 40 and 70 bits up they are wide int64 and object masks
    bisections = []
    real = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda *a: bisections.append(1) or real(*a))
    rng = random.Random(shift + lookup)
    seen = 0
    for _ in range(80):
        points = rng.randint(1, 6) if lookup else rng.randint(10, 14)
        masks = _intersection_closed(rng, points, rng.randint(1, 12), shift)
        width = max(masks).bit_length()
        if (1 << width <= len(masks) ** 2) != lookup:
            continue
        seen += 1
        labels = [str(p) for p in range(width)]
        bisections.clear()
        T = meet_table(labels, masks)
        assert len(bisections) == (not lookup)
        assert T.product.tolist() == _bisection_positions(masks)
        assert T.zero == masks.index(min(masks))
        # drop a meet that is not the least mask: the family is no longer closed
        meets = {a & b for a in masks for b in masks if a & b != a and a & b != b}
        if meets - {min(masks)}:
            broken = [m for m in masks if m != max(meets - {min(masks)})]
            with pytest.raises(ValueError, match="not closed under intersection"):
                _bisection_positions(broken)
            with pytest.raises(ValueError, match="not closed under intersection"):
                meet_table(labels, broken)
    assert seen >= 30


@pytest.mark.parametrize("product", [
    [[0, 0], [0]],          # ragged
    [[0, 0, 0], [0, 1, 0]],  # not square
    [[0, 0]],               # too few rows
])
def test_bad_table_shape_in_a_file_is_an_input_error(product, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"elements": ["0", "1"], "zero": 0, "product": product}))
    assert main(["analyze", "--semigroup", str(path), "--tasks", "validate"]) == 1
    err = capsys.readouterr().err
    assert "table-shape" in err and "Traceback" not in err
    with pytest.raises(InvalidSemigroup, match="table-shape"):
        validate_semigroup(SemigroupTable.from_json(path.read_text())).raise_if_invalid()


def test_validate_task_validates_once(tmp_path, monkeypatch, capsys):
    import zdgraph.cli as cli

    calls = []
    real = cli.validate_semigroup
    monkeypatch.setattr(cli, "validate_semigroup", lambda *a, **k: calls.append(1) or real(*a, **k))
    path = tmp_path / "z6.json"
    path.write_text(multiplicative_semigroup(make_zn(6)).to_json())
    assert main(["analyze", "--semigroup", str(path), "--tasks", "validate", "--json"]) == 0
    assert len(calls) == 1
    out = json.loads(capsys.readouterr().out)["results"]["validate"]
    assert out == {"ok": True, "law": None, "witness": None, "nilpotent_free": True}



def test_generators_seeded_with_the_unit_span_and_are_no_more(monkeypatch):
    for spec in RING_SPECS + ANALYZE_SPECS:
        R = ring_from_spec(spec)
        add, n = R.add.tolist(), R.size
        G = rings._additive_generators(R.add, R.zero, R.one)
        assert G[:1] == ([R.one] if n > 1 else [])
        assert oracle.additive_closure(add, [R.zero] + G) == set(range(n))
        assert len(G) <= n.bit_length() - 1  # floor(log2 n)
        assert len(G) <= len(rings._additive_generators(R.add, R.zero))
    # the prime subring of a product is most of it
    counts = {spec: len(rings._additive_generators(R.add, R.zero, R.one))
              for spec in ("prod:gf:4,gf:5,gf:7", "prod:gf:8,gf:9", "prod:Zn:4,Zn:2,Zn:3")
              for R in [ring_from_spec(spec)]}
    assert counts == {"prod:gf:4,gf:5,gf:7": 2, "prod:gf:8,gf:9": 4, "prod:Zn:4,Zn:2,Zn:3": 2}
    # and ring validation seeds them so
    used, real = [], rings._additive_generators
    monkeypatch.setattr(rings, "_additive_generators",
                        lambda *args: used.append(real(*args)) or used[-1])
    validate_ring(ring_from_spec("prod:gf:4,gf:5,gf:7"))  # index order gives 4
    assert [len(G) for G in used] == [2]


def test_corrupted_product_tables_fail_with_the_scans_message():
    # products, whose seeded generators are fewer than index order gives
    messages = set()
    for k, spec in enumerate(["prod:Zn:4,Zn:2,Zn:3", "prod:gf:4,Zn:3", "prod:Zn:2,Zn:2,Zn:2"]):
        R = ring_from_spec(spec)
        add, mul = R.add.tolist(), R.mul.tolist()
        for bad in _corruptions(mul, 200 + k, 15):
            got = _ring_message(R.size, add, bad, R.zero, R.one)
            assert got == oracle.validate_ring(R.size, add, bad, R.zero, R.one)
            messages.add(got and got.split(" at ")[0])
        for bad in _corruptions(add, 300 + k, 15):
            got = _ring_message(R.size, bad, mul, R.zero, R.one)
            assert got == oracle.validate_ring(R.size, bad, mul, R.zero, R.one)
            messages.add(got and got.split(" at ")[0])
        # x·y the earlier of x and y, with one last: a commutative monoid
        # with zero absorbing, but not distributive
        last = [R.size if x == R.one else x for x in range(R.size)]
        meet = [[min(x, y, key=last.__getitem__) for y in range(R.size)] for x in range(R.size)]
        got = _ring_message(R.size, add, meet, R.zero, R.one)
        assert got == oracle.validate_ring(R.size, add, meet, R.zero, R.one)
        messages.add(got and got.split(" at ")[0])
    assert {"add not associative", "mul not associative", "distributivity fails"} <= messages


def _per_row_law_failure(P, n):
    """The associativity scan one first argument at a time."""
    for a in range(n):
        if (w := first_witness(P[P[a]] != P[a][P])) is not None:
            return "associative", (a,) + w
    return None


@pytest.mark.parametrize("n", [39, 40, 41])  # n^3 below, near and above 2^16 cells
def test_blocked_associativity_scan_names_the_per_row_witness(n):
    rng = random.Random(n)
    rows = block_size(n * n)
    firsts = set()
    null = np.zeros((n, n), dtype=np.int64)  # a·b = 0: associative
    zn = np.multiply.outer(np.arange(n), np.arange(n)) % n
    for base in (null, zn):
        for _ in range(40):
            P = base.copy()
            a, b = rng.randrange(1, n), rng.randrange(1, n)
            # in the null semigroup, a·b = a fails first at (min(a, b), ...)
            P[a, b] = P[b, a] = a if base is null else rng.randrange(n)
            got = table_law_failure(read_only_table(P), n)
            assert got == _per_row_law_failure(P, n)
            if got is not None:
                firsts.add(got[1][0] // rows)
    assert table_law_failure(read_only_table(zn), n) is None
    assert firsts == ({0} if n <= 40 else {0, 1})  # every block of the scan names one
