"""Deterministic corpora: enumerations and seeded random generators.

Relations are bitmask rows, as in ``spectra``: bit j of ``rows[i]`` means
i relates to j.  Finite topologies are in bijection with preorders (closed
sets are the down-sets of the specialization order, the complements of its
up-sets), so spaces are enumerated and sampled through preorder rows.
Posets are enumerated by choosing one of three states per unordered pair
and keeping the transitive outcomes.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator

import numpy as np

from .rings import FiniteRing, make_gf, make_product, make_zn, prime_power
from .semigroups import SemigroupMap, SemigroupTable, SizeGuardExceeded
from .spectra import FinitePoset, is_transitive, transitive_closure, upset_masks
from .topology import (
    FiniteSpace,
    SubsetLattice,
    closed_family_defect,
    make_lattice,
    make_space,
)

# 5 points are 2^20 candidate relations, seconds of work; 6 points are
# 2^30, a thousand times more
DEFAULT_MAX_TOPOLOGY_POINTS = 5

_LETTERS = "abcdefgh"


def _space_from_preorder(rows) -> FiniteSpace:
    """Closed sets are the down-sets of x <= y (x in the closure of y), the
    complements of the up-sets."""
    n = len(rows)
    closed = [
        frozenset(p for p in range(n) if not mask >> p & 1)
        for mask in upset_masks(rows)
    ]
    return make_space(tuple(_LETTERS[i] for i in range(n)), closed)


def enumerate_topologies(n: int) -> Iterator[FiniteSpace]:
    """All topologies on n labelled points, via transitive reflexive relations.

    The 2^(n(n-1)) candidate relations are guarded before the first is tried.
    """
    if n > DEFAULT_MAX_TOPOLOGY_POINTS:
        raise SizeGuardExceeded(
            f"topologies on {n} points: 2^{n * (n - 1)} candidate relations, "
            f"over guard {DEFAULT_MAX_TOPOLOGY_POINTS} points "
            f"(2^{DEFAULT_MAX_TOPOLOGY_POINTS * (DEFAULT_MAX_TOPOLOGY_POINTS - 1)})"
        )
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(off)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(off):
            if bits >> k & 1:
                rows[i] |= 1 << j
        if is_transitive(rows):
            yield _space_from_preorder(rows)


def random_space(rng: random.Random, n: int, density: float = 0.35) -> FiniteSpace:
    rows = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                rows[i] |= 1 << j
    return _space_from_preorder(transitive_closure(rows))


def enumerate_posets(n: int) -> Iterator[FinitePoset]:
    """All partial orders on n labelled points."""
    pairs = list(itertools.combinations(range(n), 2))
    labels = tuple(f"p{i}" for i in range(n))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        rows = [1 << i for i in range(n)]
        for (i, j), s in zip(pairs, states):
            if s == 1:
                rows[i] |= 1 << j
            elif s == 2:
                rows[j] |= 1 << i
        if is_transitive(rows):
            yield FinitePoset(labels, tuple(rows))


def random_poset(rng: random.Random, n: int, density: float = 0.4) -> FinitePoset:
    order = list(range(n))
    rng.shuffle(order)
    rows = [1 << i for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                rows[order[a]] |= 1 << order[b]
    return FinitePoset(tuple(f"p{i}" for i in range(n)), transitive_closure(rows))


def enumerate_t1_sublattices(n: int) -> Iterator[SubsetLattice]:
    """All union/intersection-closed families on n points that contain the
    empty set, the ground set, and every singleton."""
    ground = tuple(_LETTERS[i] for i in range(n))
    required = {frozenset(), frozenset(range(n))} | {frozenset({i}) for i in range(n)}
    optional = [
        frozenset(c)
        for k in range(2, n)
        for c in itertools.combinations(range(n), k)
    ]
    for bits in range(1 << len(optional)):
        fam = set(required)
        for k, m in enumerate(optional):
            if bits >> k & 1:
                fam.add(m)
        if closed_family_defect(fam, n) is None:
            yield make_lattice(ground, fam)


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


def reduced_rings_up_to(max_order: int, max_factors: int = 4) -> list[FiniteRing]:
    """Reduced rings up to the order bound: squarefree Z_n, finite fields,
    and products of fields (every finite reduced commutative ring is such a
    product; the different constructions exercise different code paths)."""
    rings = [
        make_zn(n)
        for n in range(2, max_order + 1)
        if _squarefree(n) and not prime_power(n)
    ]
    return rings + _field_products(max_order, range(2, max_factors + 1))


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
    to maximal points of random posets, and random isomorphisms.
    """
    from .rings import is_reduced, multiplicative_semigroup
    from .semigroups import eq_quotient
    from .spectra import restrict_to_max
    from .topology import alpha_map, axiom_suite

    rng = random.Random(seed)
    out: list[tuple[str, SemigroupMap]] = []

    for R in reduced_rings_up_to(ring_order):
        if not is_reduced(R):
            raise AssertionError(f"{R.tag} from reduced_rings_up_to is not reduced")
        q = eq_quotient(multiplicative_semigroup(R))
        out.append((f"eq-quotient {R.tag}", q.projection))

    made = 0
    while made < space_count:
        X = random_space(rng, rng.randint(1, max_points))
        if not axiom_suite(X).pearled:
            continue
        out.append((f"alpha map on {X.n}-point space", alpha_map(X)))
        made += 1

    for k in range(poset_count):
        P = random_poset(rng, rng.randint(1, max_points))
        out.append((f"max restriction on {P.n}-point poset #{k}", restrict_to_max(P)))

    bases = [multiplicative_semigroup(R) for R in reduced_rings_up_to(12)]
    for k in range(iso_count):
        S = bases[rng.randrange(len(bases))]
        out.append((f"random isomorphism #{k} of {S.size}-element semigroup",
                    permuted_copy(S, rng)))
    return out
