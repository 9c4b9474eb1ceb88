"""Product rings and principal-ideal labels against the code they replaced.

``make_product`` folds its factors in by broadcasting; ``product_tables_ix``
in ``table_oracles`` is the ``np.ix_`` gather it used before.  The two must
give equal tables on every product the benchmark workloads, the AG-girth
suite and ``reduced_rings_up_to(32)`` build, and on derandomized draws of
2-4 factors from a catalog.  A principal ideal's label is read from its
generator in the ideal index; it must equal the label the generator search
finds, and the frozenset oracle's.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ideal_oracles as oracle
from table_oracles import product_tables_ix, record_calls
from zdgraph import rings
from zdgraph.cli import main
from zdgraph.corpus import reduced_rings_up_to
from zdgraph.rings import ideal_index, make_product, ring_from_spec
from zdgraph.suites import verify_ag_girth


def _assert_tables_match(factors, R):
    add, mul = product_tables_ix(factors)
    assert np.array_equal(R.add, add) and np.array_equal(R.mul, mul)
    assert R.add.dtype == R.mul.dtype == np.int64
    assert not (R.add.flags.writeable or R.mul.flags.writeable)


@pytest.fixture(scope="module")
def built_products():
    """(factors, ring) for every product the three workloads, the AG-girth
    suite and ``reduced_rings_up_to(32)`` build."""
    mp = pytest.MonkeyPatch()
    calls = record_calls(mp, rings, "make_product")
    try:
        for spec in oracle.workload_ring_specs():  # ring-analyze and poly-checks
            ring_from_spec(spec)
        with contextlib.redirect_stdout(io.StringIO()):  # verify-suites: every suite
            assert main(["verify", "all", "--json"]) == 0
        verify_ag_girth()
        reduced_rings_up_to(32)
    finally:
        mp.undo()
    return [(list(args[0]), R) for args, R in calls]


def test_broadcast_products_equal_the_gathered_tables(built_products):
    tags = {R.tag for _, R in built_products}
    assert len(tags) >= 80 and "prod:gf:4,gf:5,gf:7" in tags and "prod:Zn:4,Zn:2,Zn:3" in tags
    for factors, R in built_products:
        _assert_tables_match(factors, R)


CATALOG = ["Zn:2", "Zn:3", "Zn:4", "Zn:6", "gf:4", "gf:5", "Zn:8", "gf:7",
           "mvq:p=2;vars=x,y;rel=x2,xy,y2", "polyquot:p=3;mod=1,0,1"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(CATALOG), min_size=2, max_size=4))
def test_broadcast_products_of_catalog_draws(specs):
    factors = [oracle.cached_ring(s) for s in specs]
    if np.prod([F.size for F in factors]) > 512:
        factors = factors[:2]
    _assert_tables_match(factors, make_product(factors))


def test_principal_labels_equal_the_search(built_products):
    seen = set()
    for _, R in built_products:
        if R.tag in seen:
            continue
        seen.add(R.tag)
        index = ideal_index(R)
        principal = sorted(set(index.principal.tolist()))
        assert principal == list(range(len(principal)))  # they come first
        for k in principal:
            label = index._find_label(k)
            assert label == index._search_label(k)
            assert label == oracle.ideal_label(R, oracle.ideal_set(index.ideals[k]))
