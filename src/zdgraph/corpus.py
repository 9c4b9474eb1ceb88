"""Deterministic corpora: isomorph-free enumerations, reduced rings and the
Armendariz map corpus.

Relations are bitmask rows, as in ``spectra``: bit j of ``rows[i]`` means
i relates to j.  Finite topologies are in bijection with preorders (closed
sets are the down-sets of the specialization order, the complements of its
up-sets), so spaces are enumerated through preorder rows.

Posets and preorders are enumerated one per isomorphism class, each with
its orbit n!/|Aut|, the number of labelled relations isomorphic to it
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).
Level n + 1 extends each class on n points by a new maximal point over each
of its down-sets and, for preorders, by a new point in each of its classes;
the extensions are deduplicated by a canonical form.  The orbits sum to the
labelled counts (OEIS A001035 for posets, A000798 for topologies), and the
classes number A000112 and A001930.
"""

from __future__ import annotations

import functools
import itertools
import math
import string
from typing import Iterator, NamedTuple

import numpy as np

from .rings import FiniteRing, make_gf, make_product, make_zn, prime_power
from .semigroups import NotNilpotentFree, SemigroupMap, SemigroupTable, guard
from .spectra import FinitePoset, upset_masks
from .topology import FiniteSpace, make_space

# 7 points are 2,045 poset classes, generated in under a second and checked
# by the specs suite in seconds; 8 points are 16,999
DEFAULT_MAX_POSET_POINTS = 7
# 6 points are 718 preorder classes; 7 points are 4,535
DEFAULT_MAX_TOPOLOGY_POINTS = 6

_LETTERS = string.ascii_lowercase


def _space_from_preorder(rows) -> FiniteSpace:
    """Closed sets are the down-sets of x <= y (x in the closure of y), the
    complements of the up-sets."""
    n = len(rows)
    full = (1 << n) - 1
    closed = [full & ~up for up in upset_masks(rows)]
    return make_space(tuple(_LETTERS[i] for i in range(n)), closed)


def _canonical_form(rows) -> tuple[tuple[int, ...], int]:
    """The least relabelled row tuple of a relation, and the number of
    relabellings that reach it, which is |Aut|.

    Points are placed by ascending (|down|, |up|), so only permutations
    within each such class are tried.  Every automorphism keeps the classes,
    so the relabellings that reach the least form are one coset of Aut.
    """
    n = len(rows)
    keys = [(sum(r >> i & 1 for r in rows), r.bit_count()) for i, r in enumerate(rows)]
    order = sorted(range(n), key=keys.__getitem__)
    classes = [tuple(c) for _, c in itertools.groupby(order, key=keys.__getitem__)]
    members = [[j for j in range(n) if r >> j & 1] for r in rows]
    best, ties = None, 0
    pos = [0] * n
    for blocks in itertools.product(*(itertools.permutations(c) for c in classes)):
        old = [p for block in blocks for p in block]
        for k, p in enumerate(old):
            pos[p] = k
        form = tuple(sum(1 << pos[j] for j in members[p]) for p in old)
        if best is None or form < best:
            best, ties = form, 1
        elif form == best:
            ties += 1
    return best, ties


def _extensions(rows, preorders: bool) -> Iterator[tuple[int, ...]]:
    """The relations on n + 1 points that restrict to ``rows`` on the first
    n: a new maximal point n over each down-set (the complement of an
    up-set), and for preorders also point n joining each class, with the
    row and column of a member copied (a class is the points of one row)."""
    n = len(rows)
    new = 1 << n
    full = new - 1
    for up in upset_masks(rows):
        down = full & ~up
        yield tuple(r | new if down >> i & 1 else r for i, r in enumerate(rows)) + (new,)
    if preorders:
        for m, row in enumerate(rows):
            if row not in rows[:m]:
                yield tuple(r | new if r >> m & 1 else r for r in rows) + (row | new,)


@functools.cache
def _relation_classes(n: int, *, preorders: bool) -> tuple[tuple[tuple[int, ...], int], ...]:
    """One (canonical rows, n!/|Aut|) pair per isomorphism class of posets,
    or of preorders, on n points, ascending; each level is built once."""
    if n == 0:
        return (((), 1),)
    grown: dict[tuple[int, ...], int] = {}
    for rows, _ in _relation_classes(n - 1, preorders=preorders):
        for ext in _extensions(rows, preorders):
            form, aut = _canonical_form(ext)
            grown.setdefault(form, math.factorial(n) // aut)
    return tuple(sorted(grown.items()))


def enumerate_topologies(n: int) -> Iterator[tuple[FiniteSpace, int]]:
    """One topology per isomorphism class on n points, via preorders, each
    with its orbit: the number n!/|Aut| of labelled topologies isomorphic
    to it."""
    guard("topology points", n, DEFAULT_MAX_TOPOLOGY_POINTS)
    for rows, orbit in _relation_classes(n, preorders=True):
        yield _space_from_preorder(rows), orbit


def enumerate_posets(n: int) -> Iterator[tuple[FinitePoset, int]]:
    """One partial order per isomorphism class on n points, each with its
    orbit: the number n!/|Aut| of labelled posets isomorphic to it."""
    guard("poset points", n, DEFAULT_MAX_POSET_POINTS)
    labels = tuple(f"p{i}" for i in range(n))
    for rows, orbit in _relation_classes(n, preorders=False):
        yield FinitePoset(labels, rows), orbit


# ---------------------------------------------------------------------------
# Ring corpora


def field_orders_up_to(n: int) -> list[int]:
    return [q for q in range(2, n + 1) if prime_power(q)]


def _squarefree(n: int) -> bool:
    for d in range(2, int(n**0.5) + 1):
        if n % (d * d) == 0:
            return False
    return True


def _field_products(max_order: int, factor_counts) -> list[FiniteRing]:
    """The fields of order <= max_order, then their products within the bound."""
    fields = {q: make_gf(q) for q in field_orders_up_to(max_order)}
    rings: list[FiniteRing] = list(fields.values())
    for k in factor_counts:
        for combo in itertools.combinations_with_replacement(sorted(fields), k):
            if math.prod(combo) <= max_order:
                rings.append(make_product([fields[q] for q in combo]))
    return rings


def reduced_rings_up_to(max_order: int) -> list[FiniteRing]:
    """Reduced rings up to the order bound: squarefree Z_n, finite fields,
    and products of two to four fields (every finite reduced commutative
    ring is such a product; the different constructions exercise different
    code paths)."""
    rings = [
        make_zn(n)
        for n in range(2, max_order + 1)
        if _squarefree(n) and not prime_power(n)
    ]
    return rings + _field_products(max_order, range(2, 5))


def small_reduced_rings_for_content(max_order: int = 9) -> list[FiniteRing]:
    """All reduced commutative rings of order <= the bound, up to isomorphism."""
    return _field_products(max_order, (2, 3))


# ---------------------------------------------------------------------------
# Armendariz map corpus


def permuted_copy(S: SemigroupTable, perm) -> SemigroupMap:
    """The isomorphism a -> perm[a] from S onto its relabelled copy."""
    p = np.array(perm, dtype=np.int64)
    prod = np.empty_like(S.product)
    prod[np.ix_(p, p)] = p[S.product]
    labels = [S.elements[a] for a in np.argsort(p).tolist()]
    target = SemigroupTable(tuple(labels), int(p[S.zero]), prod)
    return SemigroupMap(S, target, tuple(p.tolist()))


class MapCorpus(NamedTuple):
    """(name, map, orbit) entries, the orbit being the number of labelled
    spaces or posets a class map stands for (1 for a quotient or a
    relabelling), and the labelled topologies and posets walked, pearled
    or not."""

    maps: list[tuple[str, SemigroupMap, int]]
    topologies: int
    posets: int


# the order bound of the reduced rings whose annihilator quotients the map
# corpus holds; at least 12, as the relabellings of the rings of order <= 12
# read the same ring list
MAP_CORPUS_RING_ORDER = 32


def armendariz_map_corpus(max_points: int = 5) -> MapCorpus:
    """The maps of the invariant-preservation suite, walked, not drawn.

    The annihilator quotient of the multiplicative semigroup of every
    reduced ring of order <= ``MAP_CORPUS_RING_ORDER``; for n = 1..max_points, the
    closed-point intersection map of every pearled topology class and the
    restriction to maximal points of every poset class, each named by its
    representative's JSON; and one relabelling of each of those semigroups
    of order <= 12, by the cyclic shift a -> a + 1, which is no involution,
    so a confusion of a map with its inverse shows.
    """
    from .rings import is_reduced, multiplicative_semigroup
    from .semigroups import eq_quotient
    from .spectra import restrict_to_max
    from .topology import alpha_map, axiom_suite

    maps: list[tuple[str, SemigroupMap, int]] = []
    # one ring list serves the quotients and the relabellings (order <= 12)
    semigroups = [(R, multiplicative_semigroup(R))
                  for R in reduced_rings_up_to(MAP_CORPUS_RING_ORDER)]
    for R, S in semigroups:
        if not is_reduced(R):  # the suite reports it as a FAIL
            raise NotNilpotentFree(f"{R.tag} from reduced_rings_up_to is not reduced")
        maps.append((f"eq-quotient {R.tag}", eq_quotient(S).projection, 1))

    topologies = posets = 0
    for n in range(1, max_points + 1):
        for X, orbit in enumerate_topologies(n):
            topologies += orbit
            if axiom_suite(X).pearled:
                maps.append((f"alpha map of {X.to_json()}", alpha_map(X), orbit))
        for P, orbit in enumerate_posets(n):
            posets += orbit
            maps.append((f"max restriction of {P.to_json()}", restrict_to_max(P), orbit))

    for R, S in semigroups:
        if R.size <= 12:
            shift = [(a + 1) % S.size for a in range(S.size)]
            maps.append((f"relabelling of {R.tag}", permuted_copy(S, shift), 1))
    return MapCorpus(maps, topologies, posets)
