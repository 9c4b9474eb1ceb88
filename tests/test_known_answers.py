"""Published values of zero-divisor graph invariants, as oracles that share
nothing with the program's own code.

Beck, "Coloring of commutative rings", J. Algebra 116 (1988), 208-226: a
reduced ring of finite clique number has chromatic number equal to its
clique number, and both count its minimal primes.  Beck's graph has every
element as a vertex and 0 joined to all of them; the zero-divisor graph
Gamma drops 0, so a product of k >= 2 finite fields has
omega(Gamma) = chi(Gamma) = k, and a field's Gamma is empty.

Anderson & Naseer, "Beck's coloring of a commutative ring", J. Algebra 159
(1993), 500-514: the local ring Z_4[X,Y,Z]/(X^2-2, Y^2-2, Z^2, 2X, 2Y, 2Z,
XY, XZ, YZ-2) of order 32 has a Beck graph of clique number 5 and
chromatic number 6, a counterexample to Beck's conjecture chi = omega.

DeMeyer, McKenzie & Schneider, "The zero-divisor graph of a commutative
semigroup", Semigroup Forum 65 (2002), 206-214: the zero-divisor graph of
a commutative semigroup with zero is connected, has diameter at most 3,
and has girth 3, 4 or infinity.
"""

import contextlib
import io
import itertools
import math

import pytest

from table_oracles import record_calls
from zdgraph import graphs
from zdgraph.cli import main
from zdgraph.corpus import reduced_rings_up_to, small_reduced_rings_for_content
from zdgraph.graphs import (
    InvariantBundle,
    chromatic_number,
    clique_and_chromatic,
    clique_number,
    diameter,
    girth,
    invariant_bundle,
    is_connected,
)
from zdgraph.polynomials import clique_stabilization
from zdgraph.rings import FiniteRing, beck_gamma0, gamma_graph, validate_ring

REDUCED = {R.tag: R for R in small_reduced_rings_for_content(9)}
ARMENDARIZ_RINGS = {R.tag: R for R in reduced_rings_up_to(32)}  # the map corpus's rings


def _field_count(R):
    """k for a product of k fields: it has 2^k idempotents."""
    idempotents = sum(int(R.mul[a, a]) == a for a in range(R.size))
    return idempotents.bit_length() - 1


@pytest.mark.parametrize("tag", list(REDUCED))
def test_truncated_graphs_of_field_products_have_k_cliques_and_colours(tag):
    R = REDUCED[tag]
    k = _field_count(R)
    # Beck (1988): omega = chi = k for k >= 2 fields; a field's Gamma is empty.
    # R[X] is reduced with the same k minimal primes, and each truncated graph
    # lies in Gamma(R[X]) and holds the clique of the k primitive idempotents,
    # so every degree keeps the pair.
    want = (k, k) if k >= 2 else (0, 0)
    st = clique_stabilization(R, 1)
    assert (st.base_clique, st.base_chromatic) == want
    assert st.per_degree == ((0, *want), (1, *want))
    assert st.passed


@pytest.mark.parametrize("tag", list(ARMENDARIZ_RINGS))
def test_gamma_of_a_reduced_ring_has_k_cliques_and_colours(tag):
    R = ARMENDARIZ_RINGS[tag]
    k = _field_count(R)
    # Beck (1988): omega = chi = k for a product of k >= 2 fields, and a
    # field's Gamma is empty
    want = (k, k) if k >= 2 else (0, 0)
    G = gamma_graph(R)
    assert clique_and_chromatic(G) == want
    assert (clique_number(G), chromatic_number(G)) == want


def test_every_semigroup_gamma_the_suites_build_obeys_the_semigroup_bounds(monkeypatch):
    built = record_calls(monkeypatch, graphs, "zero_divisor_graph")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "all", "--json"]) == 0
        # verify all walks the armendariz corpus on 1-5 points and builds 90
        # distinct graphs; the walk on 1-6 points brings them to 228
        assert main(["verify", "armendariz", "--max-points", "6", "--json"]) == 0
    # truncated polynomial graphs come from their own builder and are not here
    distinct = {G.adj: G for _, G in built}
    assert len(built) >= 500 and len(distinct) >= 100
    for G in distinct.values():
        # DeMeyer, McKenzie & Schneider (2002): connected, diameter <= 3,
        # girth 3, 4 or infinity
        assert is_connected(G)
        assert diameter(G) <= 3
        assert girth(G) in (3, 4, math.inf)


def _anderson_naseer_ring():
    """Z_4[X,Y,Z]/(X^2-2, Y^2-2, Z^2, 2X, 2Y, 2Z, XY, XZ, YZ-2): the 32
    elements a + bX + cY + dZ, a in Z_4 and b, c, d in Z_2, validated."""
    elements = list(itertools.product(range(4), range(2), range(2), range(2)))
    index = {e: i for i, e in enumerate(elements)}

    def add(x, y):
        return tuple((u + v) % m for u, v, m in zip(x, y, (4, 2, 2, 2)))

    def mul(x, y):
        (a, b, c, d), (a2, b2, c2, d2) = x, y
        # X^2 = Y^2 = YZ = 2, and XY = XZ = Z^2 = 0
        return ((a * a2 + 2 * (b * b2 + c * c2 + c * d2 + c2 * d)) % 4,
                (a * b2 + a2 * b) % 2, (a * c2 + a2 * c) % 2, (a * d2 + a2 * d) % 2)

    def table(op):
        return [[index[op(x, y)] for y in elements] for x in elements]

    labels = [f"{a}+{b}X+{c}Y+{d}Z" for a, b, c, d in elements]
    R = FiniteRing(labels, table(add), table(mul), index[0, 0, 0, 0], index[1, 0, 0, 0],
                   tag="anderson-naseer")
    validate_ring(R)
    return R


def test_becks_conjecture_fails_on_the_anderson_naseer_ring():
    R = _anderson_naseer_ring()
    # Anderson & Naseer (1993): Beck's graph on all 32 elements has
    # omega = 5 and chi = 6
    G0 = beck_gamma0(R)
    assert G0.n == 32
    assert (clique_number(G0), chromatic_number(G0)) == (5, 6)
    assert invariant_bundle(G0, 32, 32) == InvariantBundle(2, 3, 5, 6)
    # Gamma keeps the 15 nonzero zero divisors; 0, joined to every element
    # in Beck's graph, is gone, so the clique and the colouring lose one each
    G = gamma_graph(R)
    assert G.n == 15
    assert invariant_bundle(G) == InvariantBundle(2, 3, 4, 5)
