"""The shared core of closed-set families: relations, up-sets, closure checks
and meet tables, checked against the per-module code they replaced."""

import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import relation_oracles
from relation_oracles import random_poset, random_space, rows_transitive, to_bools, to_rows
from zdgraph.corpus import armendariz_map_corpus
from zdgraph.semigroups import SemigroupTable, SizeGuardExceeded, members, point_set_key
from zdgraph import topology
from zdgraph.spectra import (
    FinitePoset,
    max_points,
    restrict_to_max,
    sigma_spec,
    transitive_closure,
    upset_masks,
    uspec_sigma,
)
from zdgraph.topology import (
    InvalidSpace,
    closure_lattice,
    lattice_semigroup,
    make_space,
    powerset_lattice,
)

# ---------------------------------------------------------------------------
# Oracles: the code the shared helpers replaced


def oracle_closure(rel):
    """The fixed-point transitive-closure loop of FinitePoset.from_json."""
    n = len(rel)
    leq = [list(row) for row in rel]
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(n):
                if leq[a][b]:
                    for c in range(n):
                        if leq[b][c] and not leq[a][c]:
                            leq[a][c] = True
                            changed = True
    return tuple(tuple(row) for row in leq)


def oracle_is_transitive(rel):
    n = len(rel)
    return all(
        not (rel[a][b] and rel[b][c]) or rel[a][c]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def oracle_meet_table(sets, labels):
    """The frozenset builder of closure_lattice and lattice_semigroup."""
    pos = {C: i for i, C in enumerate(sets)}
    return SemigroupTable(
        elements=tuple(labels),
        zero=pos[frozenset()],
        product=tuple(tuple(pos[A & B] for B in sets) for A in sets),
    )


def _label(points, C):
    return "{" + ",".join(points[p] for p in sorted(C)) + "}"


def _mask(C):
    return sum(1 << p for p in C)


def _points(mask):
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


def _frozensets(masks):
    """Bitmask members in the frozenset form they had when the digests were
    taken."""
    return tuple(frozenset(_points(m)) for m in masks)


def oracle_sigma(P, keep=None):
    """All up-sets of P as frozensets (optionally cut down to ``keep``),
    in (size, mask) order, with their frozenset meet table."""
    ups = []
    for bits in itertools.product((False, True), repeat=P.n):
        A = frozenset(p for p in range(P.n) if bits[p])
        if all(q in A for p in A for q in range(P.n) if P.leq[p] >> q & 1):
            ups.append(A)
    sets = sorted({A & keep if keep is not None else A for A in ups},
                  key=lambda C: (len(C), _mask(C)))
    return sets, oracle_meet_table(sets, [_label(P.points, C) for C in sets])


def _random_relation(rng, n, density):
    return [[rng.random() < density for _ in range(n)] for _ in range(n)]


def _digest(items):
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Enumerations


def test_enumerate_posets_counts_oeis_a001035():
    assert [
        sum(1 for _ in relation_oracles.enumerate_posets(n)) for n in range(6)
    ] == [1, 1, 3, 19, 219, 4231]


def test_enumerate_topologies_counts_oeis_a000798():
    assert [
        sum(1 for _ in relation_oracles.enumerate_topologies(n)) for n in range(5)
    ] == [1, 1, 4, 29, 355]


def test_enumeration_order_is_pinned():
    # digests of the enumerations made before the shared core, with the
    # relation rows in the bool-matrix repr the digest was taken over; the
    # labelled poset and topology enumerators are oracles now
    assert _digest(
        repr(to_bools(P.leq, P.n)) for P in relation_oracles.enumerate_posets(4)
    ) == "19733cb0a01f0150"
    assert _digest(
        repr((X.points, [_points(c) for c in X.closed_sets]))
        for X in relation_oracles.enumerate_topologies(4)
    ) == "cc76054a9b09ea34"
    assert _digest(
        repr(_frozensets(powerset_lattice(n).closed_sets)) for n in range(1, 5)
    ) == "7da94b0a66301b84"


# ---------------------------------------------------------------------------
# Relations


def test_transitive_closure_matches_oracle():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(0, 7)
        rel = _random_relation(rng, n, rng.choice((0.1, 0.25, 0.5)))
        closed = transitive_closure(to_rows(rel))
        assert to_bools(closed, n) == oracle_closure(rel)
        assert rows_transitive(closed)


def test_is_transitive_matches_oracle_on_every_three_point_relation():
    for bits in itertools.product((False, True), repeat=9):
        rel = [list(bits[3 * i:3 * i + 3]) for i in range(3)]
        assert rows_transitive(to_rows(rel)) == oracle_is_transitive(rel)


def test_upset_masks_guard():
    eye = [1 << i for i in range(17)]
    with pytest.raises(SizeGuardExceeded, match="17 relation points exceed guard 16"):
        upset_masks(eye)
    assert upset_masks([]) == [0]
    # the chain 0 <= 1: up-sets {}, {1}, {0,1}
    assert upset_masks([0b11, 0b10]) == [0, 2, 3]


# ---------------------------------------------------------------------------
# Closed-family check


def _defect(family, n):
    """``make_space``'s ``InvalidSpace`` message for ``family`` on n points,
    or None if it is a closed family."""
    try:
        make_space(tuple("abc"[:n]), family)
    except InvalidSpace as exc:
        return str(exc)
    return None


def test_make_space_names_each_defect():
    e, a, ab = 0b00, 0b01, 0b11
    assert _defect({e, a, ab}, 2) is None
    assert "empty set" in _defect({a, ab}, 2)
    assert "ground set" in _defect({e, a}, 2)
    assert "not a subset" in _defect({e, ab, 0b101}, 2)
    meets = {e, 0b011, 0b110, 0b111}
    assert "intersection" in _defect(meets, 3)
    joins = {e, 0b001, 0b010, 0b100, 0b111}
    # pairs are scanned in (size, sorted point list) order, whatever the
    # order the family is given in
    assert _defect(joins, 3) == "union [0] | [1] is not a member"
    assert _defect(sorted(joins, reverse=True), 3) == "union [0] | [1] is not a member"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 70).flatmap(
    lambda n: st.lists(st.integers(0, (1 << (n + 3)) - 1), max_size=40, unique=True)))
def test_point_set_key_orders_by_size_then_member_list(family):
    # masks up to 70 points, with members up to 3 points beyond a ground set
    # of n, so the key's width comes from the widest mask
    want = sorted(family, key=lambda m: (m.bit_count(), list(members(m))))
    assert sorted(family, key=point_set_key(family)) == want


def test_space_guard_trips_before_validation(monkeypatch):
    def no_work(*args):
        raise AssertionError("validation started above the table guard")

    # sorting the family is the first work after the guard
    for name in ("point_set_key", "_family_defect"):
        monkeypatch.setattr(topology, name, no_work)
    with pytest.raises(SizeGuardExceeded, match="4097 closed sets exceed guard 4096"):
        make_space([f"q{i}" for i in range(13)], range(4097))


# ---------------------------------------------------------------------------
# Meet tables


def test_space_tables_match_frozenset_oracle():
    rng = random.Random(17)
    for _ in range(60):
        X = random_space(rng, rng.randint(0, 6))
        sets = _frozensets(X.closed_sets)
        labels = [_label(X.points, C) for C in sets]
        assert closure_lattice(X) == oracle_meet_table(sets, labels)


def test_lattice_tables_match_frozenset_oracle():
    lattices = [powerset_lattice(k) for k in range(5)]
    lattices += [powerset_lattice("abcd"[:n]) for n in range(1, 5)]
    for L in lattices:
        sets = _frozensets(L.closed_sets)
        labels = [_label(L.points, m) for m in sets]
        assert lattice_semigroup(L) == oracle_meet_table(sets, labels)


def _small_and_random_posets():
    rng = random.Random(29)
    yield from (P for n in range(5) for P in relation_oracles.enumerate_posets(n))
    for _ in range(60):
        yield random_poset(rng, rng.randint(0, 6))


def test_poset_tables_match_frozenset_oracle():
    for P in _small_and_random_posets():
        sets, table = oracle_sigma(P)
        assert sigma_spec(P) == table
        assert uspec_sigma(P) == table
        maxes = frozenset(max_points(P))
        targets, target_table = oracle_sigma(P, keep=maxes)
        tpos = {C: i for i, C in enumerate(targets)}
        g = restrict_to_max(P)
        assert g.source == table
        assert g.target == target_table
        assert g.assignment == tuple(tpos[C & maxes] for C in sets)


def test_uspec_sigma_guard_trips_as_the_closure_grows():
    # 13 incomparable points: the closure doubles with each principal up-set
    # and passes the guard at the 13th; a pairwise closure ran 0.8 s first
    P = FinitePoset(tuple(f"q{i}" for i in range(13)), tuple(1 << i for i in range(13)))
    t0 = time.perf_counter()
    with pytest.raises(SizeGuardExceeded, match="8192 closed sets exceed guard 4096"):
        uspec_sigma(P)
    assert time.perf_counter() - t0 < 0.1


def test_random_corpora_are_pinned():
    # digests of the corpora made before the shared core, for the same seeds
    rng = random.Random(2024)
    spaces = [random_space(rng, rng.randint(0, 6)) for _ in range(60)]
    assert _digest(
        repr((X.points, [_points(c) for c in X.closed_sets])) for X in spaces
    ) == "16d5f59d164605cd"
    rng = random.Random(2024)
    posets = [random_poset(rng, rng.randint(0, 6)) for _ in range(60)]
    assert _digest(
        repr((P.points, to_bools(P.leq, P.n))) for P in posets
    ) == "e57e49a0af609d29"


def test_the_walked_map_corpus_is_pinned():
    # the digest of the corpus as first walked, one map per class
    corpus = armendariz_map_corpus()
    assert _digest(
        f"({d!r}, {_table_repr(g.source)}, {_table_repr(g.target)}, {g.assignment!r}, {o})"
        for d, g, o in corpus.maps
    ) == "66ab1d58b0c7ae76"


def _rings_built_twice(ring_order):
    """The quotients and relabellings of the map corpus, with the reduced
    rings of order <= 12 built a second time for the relabellings."""
    from zdgraph.corpus import permuted_copy, reduced_rings_up_to
    from zdgraph.rings import multiplicative_semigroup
    from zdgraph.semigroups import eq_quotient

    out = [(f"eq-quotient {R.tag}", eq_quotient(multiplicative_semigroup(R)).projection)
           for R in reduced_rings_up_to(ring_order)]
    for R in reduced_rings_up_to(12):
        S = multiplicative_semigroup(R)
        shift = [(a + 1) % S.size for a in range(S.size)]
        out.append((f"relabelling of {R.tag}", permuted_copy(S, shift)))
    return out


@pytest.mark.parametrize("ring_order", [6, 12, 20, 32])
def test_map_corpus_builds_its_rings_once_and_is_unchanged(monkeypatch, ring_order):
    from zdgraph import corpus

    want = _rings_built_twice(ring_order)
    built = []
    rings = corpus.reduced_rings_up_to
    monkeypatch.setattr(corpus, "reduced_rings_up_to", lambda n: built.append(n) or rings(n))
    got = armendariz_map_corpus(max_points=0, ring_order=ring_order).maps
    assert built == [max(ring_order, 12)]
    assert [d for d, _, _ in got] == [d for d, _ in want]
    for (_, g, _), (_, h) in zip(got, want):
        assert (g.source, g.target, g.assignment) == (h.source, h.target, h.assignment)


def _table_repr(S):
    """The repr a SemigroupTable had when the digest was taken: the table as
    a tuple of rows."""
    rows = tuple(tuple(row) for row in S.product.tolist())
    return f"SemigroupTable(elements={S.elements!r}, zero={S.zero!r}, product={rows!r})"
