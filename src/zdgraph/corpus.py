"""Deterministic corpora: enumerations and seeded random generators.

Relations are bitmask rows, as in ``spectra``: bit j of ``rows[i]`` means
i relates to j.  Finite topologies are in bijection with preorders (closed
sets are the down-sets of the specialization order, the complements of its
up-sets), so spaces are enumerated and sampled through preorder rows.

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
import random
import string
from typing import Iterator

import numpy as np

from .rings import FiniteRing, make_gf, make_product, make_zn, prime_power
from .semigroups import NotNilpotentFree, SemigroupMap, SemigroupTable, guard
from .spectra import FinitePoset, transitive_closure, upset_masks
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


def random_preorder(rng: random.Random, n: int) -> tuple[int, ...]:
    """The rows of a random preorder: each pair i != j related with
    probability 0.35, then closed transitively."""
    rows = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.35:
                rows[i] |= 1 << j
    return transitive_closure(rows)


def random_space(rng: random.Random, n: int) -> FiniteSpace:
    return _space_from_preorder(random_preorder(rng, n))


def enumerate_posets(n: int) -> Iterator[tuple[FinitePoset, int]]:
    """One partial order per isomorphism class on n points, each with its
    orbit: the number n!/|Aut| of labelled posets isomorphic to it."""
    guard("poset points", n, DEFAULT_MAX_POSET_POINTS)
    labels = tuple(f"p{i}" for i in range(n))
    for rows, orbit in _relation_classes(n, preorders=False):
        yield FinitePoset(labels, rows), orbit


def random_poset(rng: random.Random, n: int) -> FinitePoset:
    """A random partial order: each pair of a shuffled point order related
    upward with probability 0.4, then closed transitively."""
    order = list(range(n))
    rng.shuffle(order)
    rows = [1 << i for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                rows[order[a]] |= 1 << order[b]
    return FinitePoset(tuple(f"p{i}" for i in range(n)), transitive_closure(rows))


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


def permuted_copy(S: SemigroupTable, rng: random.Random) -> SemigroupMap:
    """A random isomorphism from S onto a relabelled copy of itself."""
    perm = list(range(S.size))
    rng.shuffle(perm)
    p = np.array(perm, dtype=np.int64)
    prod = np.empty_like(S.product)
    prod[np.ix_(p, p)] = p[S.product]
    labels = [S.elements[a] for a in np.argsort(p).tolist()]
    target = SemigroupTable(tuple(labels), perm[S.zero], prod)
    return SemigroupMap(S, target, tuple(perm))


def armendariz_map_corpus(
    seed: int = 7,
    ring_order: int = 32,
    space_count: int = 220,
    poset_count: int = 220,
    iso_count: int = 60,
    max_points: int = 6,
) -> list[tuple[str, SemigroupMap]]:
    """Named (description, map) pairs for the invariant-preservation suite.

    Quotient projections of multiplicative semigroups of reduced rings,
    closed-point intersection maps of random pearled spaces, restrictions
    to maximal points of random posets, and random isomorphisms.  A space
    or poset drawn again gets the map built for it the first time, so
    equal entries are one object, and a space is built and tested for
    pearls once per distinct preorder drawn; the draws, names and order do
    not depend on it.
    """
    from .rings import is_reduced, multiplicative_semigroup
    from .semigroups import eq_quotient
    from .spectra import restrict_to_max
    from .topology import alpha_map, axiom_suite

    rng = random.Random(seed)
    out: list[tuple[str, SemigroupMap]] = []
    # drawn preorder rows -> the alpha map of their space, None if not pearled
    alphas: dict[tuple[int, ...], SemigroupMap | None] = {}
    built: dict[FinitePoset, SemigroupMap] = {}  # drawn poset -> its map

    # one ring list serves the quotients (order <= ring_order) and the
    # isomorphism bases (order <= 12): reduced_rings_up_to(n) is the
    # order <= n part of any longer list, in the same order
    semigroups = [(R, multiplicative_semigroup(R))
                  for R in reduced_rings_up_to(max(ring_order, 12))]
    for R, S in semigroups:
        if R.size > ring_order:
            continue
        if not is_reduced(R):  # the suite reports it as a FAIL
            raise NotNilpotentFree(f"{R.tag} from reduced_rings_up_to is not reduced")
        q = eq_quotient(S)
        out.append((f"eq-quotient {R.tag}", q.projection))

    made = 0
    while made < space_count:
        rows = random_preorder(rng, rng.randint(1, max_points))
        if rows not in alphas:
            X = _space_from_preorder(rows)
            alphas[rows] = alpha_map(X) if axiom_suite(X).pearled else None
        if alphas[rows] is None:
            continue
        out.append((f"alpha map on {len(rows)}-point space", alphas[rows]))
        made += 1

    for k in range(poset_count):
        P = random_poset(rng, rng.randint(1, max_points))
        if P not in built:
            built[P] = restrict_to_max(P)
        out.append((f"max restriction on {P.n}-point poset #{k}", built[P]))

    bases = [S for R, S in semigroups if R.size <= 12]
    for k in range(iso_count):
        S = bases[rng.randrange(len(bases))]
        out.append((f"random isomorphism #{k} of {S.size}-element semigroup",
                    permuted_copy(S, rng)))
    return out
