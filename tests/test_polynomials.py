import pytest

import ideal_oracles as oracle
from ideal_oracles import contents_hit
from table_oracles import coefficient_rows, poly_mul
from zdgraph import polynomials
from zdgraph.polynomials import (
    check_armendariz_ring,
    check_content_containment,
    check_gaussian,
    clique_stabilization,
    content,
    make_poly,
    polys_up_to_degree,
    truncated_zero_divisor_graph,
)
from zdgraph.rings import (
    enumerate_ideals,
    gamma_graph,
    make_gf,
    make_product,
    make_zn,
    maximal_ideals,
    ring_from_spec,
)
from zdgraph.semigroups import SizeGuardExceeded


def test_poly_normalization():
    R = make_zn(6)
    f = make_poly(R, (2, 3, 0, 0))
    assert f.coeffs == (2, 3)
    assert make_poly(R, (0, 0)).coeffs == ()
    assert make_poly(R, ()).coeffs == ()


def test_poly_mul_vanishing_square():
    R = make_zn(4)
    f = make_poly(R, (2, 2))  # 2X + 2
    assert not poly_mul(f, f).coeffs


def test_poly_mul_identity():
    R = make_zn(6)
    f = make_poly(R, (3, 1, 5))
    one = make_poly(R, (1,))
    assert poly_mul(f, one) == f


def test_poly_mul_cross_term_formula():
    # (aX + b)(bX + a) = ab X^2 + (a^2 + b^2) X + ab; with ab = 0 this
    # collapses to (a^2 + b^2) X
    R = make_zn(6)
    a, b = 2, 3
    f = make_poly(R, (b, a))
    g = make_poly(R, (a, b))
    prod = poly_mul(f, g)
    a2b2 = (a * a + b * b) % 6
    assert prod == make_poly(R, (0, a2b2, (a * b) % 6))
    assert prod.coeffs == (0, 1)  # ab = 0 in Z6


def test_poly_mul_ring_mismatch():
    with pytest.raises(ValueError):
        poly_mul(make_poly(make_zn(4), (1,)), make_poly(make_zn(6), (1,)))


def test_content_examples():
    R = make_zn(6)
    f = make_poly(R, (3, 2))  # 2X + 3
    assert content(f) == oracle.mask(ideal_sum_of(R, 2, 3))
    assert content(make_poly(R, ())) == oracle.mask({0})
    assert content(make_poly(R, (2, 0, 3))) == oracle.mask(range(6))


def ideal_sum_of(R, a, b):
    return oracle.ideal_sum(R, oracle.principal_ideal(R, a), oracle.principal_ideal(R, b))


def test_enumeration_count_and_order():
    R = make_zn(4)
    polys = list(polys_up_to_degree(R, 1))
    assert len(polys) == 16  # |R|^(d+1)
    assert not polys[0].coeffs
    assert len(set(polys)) == 16  # each normalized poly exactly once


def test_enumeration_guard():
    with pytest.raises(SizeGuardExceeded):
        check_armendariz_ring(make_zn(6), 10)


@pytest.mark.parametrize("check", [check_armendariz_ring, check_gaussian,
                                   check_content_containment, clique_stabilization])
def test_negative_degree_bound_is_refused(check):
    with pytest.raises(ValueError, match="degree bound must be >= 0, not -1"):
        check(make_zn(6), -1)


@pytest.mark.parametrize("spec,d", [
    ("Zn:1", 2), ("Zn:2", 3), ("Zn:6", 2), ("gf:4", 3), ("gf:9", 2),
    ("prod:gf:2,gf:2", 2), ("mvq:p=2;vars=x,y;rel=x2,y2", 1), ("Zn:16", 0),
])
def test_polynomial_rows_follow_the_enumeration(spec, d):
    R = ring_from_spec(spec)
    want = coefficient_rows(R, list(polys_up_to_degree(R, d)), d)
    got = polynomials._polynomial_rows(R, d)
    assert got.dtype == want.dtype and got.shape == want.shape and (got == want).all()


def test_armendariz_check_reduced_rings_pass():
    assert check_armendariz_ring(make_zn(6), 2).passed
    assert check_armendariz_ring(make_product([make_zn(2), make_zn(2)]), 2).passed


def test_armendariz_check_z4_passes_despite_nilpotents():
    assert check_armendariz_ring(make_zn(4), 2).passed


def test_gaussian_checks():
    assert check_gaussian(make_zn(6), 2).passed
    assert check_gaussian(make_gf(2), 3).passed
    assert check_gaussian(make_product([make_zn(2), make_zn(2)]), 2).passed


def test_reduced_rings_pass_all_pair_checks_at_degree_2():
    # a finite reduced ring is a product of fields, hence Armendariz and
    # Gaussian; containment holds in every commutative ring
    from zdgraph.corpus import small_reduced_rings_for_content

    for R in small_reduced_rings_for_content(9):
        for check in (check_armendariz_ring, check_gaussian, check_content_containment):
            rep = check(R, 2)
            assert rep.passed, (R.tag, rep)
            assert rep.pairs_checked == R.size ** 6


def test_content_containment():
    assert check_content_containment(make_zn(6), 2).passed
    assert check_content_containment(make_zn(4), 2).passed


def test_content_surjectivity_bound():
    R = make_zn(6)  # every ideal is principal: degree 0 suffices
    assert {oracle.mask(I) for I in contents_hit(R, 0)} == set(enumerate_ideals(R))
    Rm = None
    from zdgraph.rings import ring_from_spec

    Rm = ring_from_spec("mvq:p=2;vars=x,y;rel=x2,xy,y2")
    # the maximal ideal needs two generators: degree 0 misses it, degree 1 hits
    assert {oracle.mask(I) for I in contents_hit(Rm, 0)} != set(enumerate_ideals(Rm))
    assert {oracle.mask(I) for I in contents_hit(Rm, 1)} == set(enumerate_ideals(Rm))


def test_truncated_graph_degree0_is_gamma():
    R = make_zn(6)
    G0 = truncated_zero_divisor_graph(R, 0)
    G = gamma_graph(R)
    assert sorted(G0.vertices) == sorted(G.vertices)
    assert len(G0.edges) == len(G.edges)


def test_truncated_graph_contains_ring_graph():
    # the degree-0 polynomials embed as an induced subgraph at every bound
    R = make_zn(6)
    G = gamma_graph(R)
    G1 = truncated_zero_divisor_graph(R, 1)
    assert set(G.vertices) <= set(G1.vertices)
    pos = {v: i for i, v in enumerate(G1.vertices)}
    for i, j in G.edges:
        a, b = pos[G.vertices[i]], pos[G.vertices[j]]
        assert (min(a, b), max(a, b)) in G1.edges


def test_clique_stabilization_values():
    st = clique_stabilization(make_zn(6), 1)
    assert st.passed and st.base_clique == 2 and st.base_chromatic == 2
    st2 = clique_stabilization(make_product([make_zn(2), make_zn(2)]), 1)
    assert st2.passed and st2.per_degree == ((0, 2, 2), (1, 2, 2))


def test_clique_stabilization_guard_precedes_graphs(monkeypatch):
    import zdgraph.polynomials as polys

    def no_graph(*args):
        raise AssertionError("a graph was built before the guard")

    monkeypatch.setattr(polys, "gamma_graph", no_graph)
    monkeypatch.setattr(polys, "truncated_zero_divisor_graph", no_graph)
    with pytest.raises(SizeGuardExceeded):
        clique_stabilization(make_zn(6), 2, max_polys=6 ** 3 - 1)


@pytest.mark.parametrize("degree_bound", [0, 1, 2])
def test_clique_stabilization_searches_one_clique_per_graph(monkeypatch, degree_bound):
    import zdgraph.graphs as graphs

    calls = []
    real = graphs.max_clique

    def counting(G, *args):
        calls.append(G.n)
        return real(G, *args)

    monkeypatch.setattr(graphs, "max_clique", counting)
    st = clique_stabilization(make_zn(6), degree_bound)
    assert st.passed and st.per_degree[-1] == (degree_bound, 2, 2)
    # the base graph, then one truncated graph per degree
    assert len(calls) == degree_bound + 2


@pytest.mark.parametrize("p,message", [
    (67, "67 chromatic-solver vertices exceed guard 64"),
    (211, "211 clique-solver vertices exceed guard 200"),
])
def test_clique_stabilization_guards_the_base_graph(p, message):
    # Gamma(Z_2 x Z_p) has p vertices
    with pytest.raises(SizeGuardExceeded, match=message):
        clique_stabilization(make_product([make_zn(2), make_zn(p)]), 0)


def test_clique_stabilization_requires_reduced():
    with pytest.raises(ValueError):
        clique_stabilization(make_zn(4), 1)


def test_non_armendariz_ring_yields_witness():
    # in F2[x,y]/(x^2, y^2) the square of xX + y vanishes although the
    # content squared is (xy) != 0
    from zdgraph.rings import make_multivariate_quot

    R = make_multivariate_quot(2, ["x", "y"], [(2, 0), (0, 2)])
    rep = check_armendariz_ring(R, 1)
    assert not rep.passed and rep.witness is not None
    rg = check_gaussian(R, 1)
    assert not rg.passed and rg.witness is not None
    # containment still holds: it is one-sided
    assert check_content_containment(R, 1).passed


def test_no_finite_armendariz_not_gaussian_witness():
    # a reduced local finite ring is a field, so the known recipe for an
    # Armendariz-but-not-Gaussian ring (reduced, quasi-local, not a domain)
    # has no finite instance; record the impossibility over the corpus
    from zdgraph.corpus import small_reduced_rings_for_content
    from zdgraph.rings import is_reduced

    for R in small_reduced_rings_for_content(9):
        assert is_reduced(R)
        if len(maximal_ideals(R)) == 1:
            units = sum(
                1 for a in range(R.size)
                if any(R.mul[a][b] == R.one for b in range(R.size))
            )
            assert units == R.size - 1  # every nonzero element invertible
