"""Published values of zero-divisor graph invariants, as oracles that share
nothing with the program's own code.

Beck, "Coloring of commutative rings", J. Algebra 116 (1988), 208-226: a
reduced ring of finite clique number has chromatic number equal to its
clique number, and both count its minimal primes.  Beck's graph has every
element as a vertex and 0 joined to all of them; the zero-divisor graph
Gamma drops 0, so a product of k >= 2 finite fields has
omega(Gamma) = chi(Gamma) = k, and a field's Gamma is empty.
"""

import pytest

from zdgraph.corpus import small_reduced_rings_for_content
from zdgraph.polynomials import clique_stabilization

REDUCED = {R.tag: R for R in small_reduced_rings_for_content(9)}


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
