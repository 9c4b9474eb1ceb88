"""Relations as bitmask rows, checked against the bool-matrix code they replaced.

The row validator of ``FinitePoset`` and ``transitive_closure`` must give the oracle's verdict, closure and first
``InvalidPoset`` message on every relation on up to three points and on
seeded relations on four to six points.
"""

import itertools
import random

import pytest

import relation_oracles as oracle
from zdgraph.spectra import FinitePoset, InvalidPoset, transitive_closure


def _message(rows, n):
    try:
        FinitePoset(tuple(f"p{i}" for i in range(n)), rows)
    except InvalidPoset as exc:
        return str(exc)
    return None


def _check(rel):
    n = len(rel)
    rows = oracle.to_rows(rel)
    assert _message(rows, n) == oracle.poset_message(n, rel), rel
    assert oracle.rows_transitive(rows) == oracle.is_transitive(rel), rel
    closed = transitive_closure(rows)
    assert closed == oracle.to_rows(oracle.transitive_closure(rel)), rel
    assert oracle.rows_transitive(closed)


def test_every_relation_on_up_to_three_points():
    count = 0
    for n in range(4):
        for bits in itertools.product((False, True), repeat=n * n):
            _check([list(bits[n * i:n * i + n]) for i in range(n)])
            count += 1
    assert count == 1 + 2 + 16 + 512


def _seeded_relations(rng, count):
    """Random relations, reflexive or closed ones, and posets with one cell flipped."""
    for _ in range(count):
        n = rng.randint(4, 6)
        rel = [[rng.random() < rng.choice((0.15, 0.3, 0.5)) for _ in range(n)] for _ in range(n)]
        kind = rng.randrange(4)
        if kind >= 1:
            for i in range(n):
                rel[i][i] = True
        if kind == 2:
            rel = [list(r) for r in oracle.transitive_closure(rel)]
        if kind == 3:
            # an order: the closure of a relation along a random permutation
            order = list(range(n))
            rng.shuffle(order)
            rel = [[i == j for j in range(n)] for i in range(n)]
            for a, b in itertools.combinations(range(n), 2):
                if rng.random() < 0.4:
                    rel[order[a]][order[b]] = True
            rel = [list(r) for r in oracle.transitive_closure(rel)]
            if rng.random() < 0.8:
                i, j = rng.randrange(n), rng.randrange(n)
                rel[i][j] = not rel[i][j]
        yield rel


def test_seeded_relations_on_four_to_six_points():
    messages = set()
    for rel in _seeded_relations(random.Random(9), 2000):
        _check(rel)
        messages.add((oracle.poset_message(len(rel), rel) or "ok").split(" at")[0])
    # every verdict of the validator is exercised
    assert messages == {"ok", "not reflexive", "not antisymmetric", "not transitive"}


@pytest.mark.parametrize("leq", [(1, 2), (1, 2, 4, 8), (1, 2, 8), (1, -1, 4)])
def test_rows_of_the_wrong_shape(leq):
    with pytest.raises(InvalidPoset, match="relation has wrong shape"):
        FinitePoset(("a", "b", "c"), leq)
