"""Reference relation routines: the bool-matrix code the bitmask rows replaced,
and the labelled enumerators the isomorph-free ones replaced.

A relation here is an n x n matrix of bools (``rel[i][j]``: i relates to j),
the form ``FinitePoset.leq`` had before it became bitmask rows.  The bool
routines share no code with the program, so tests can compare verdicts,
closures and ``InvalidPoset`` messages of ``zdgraph.spectra`` against them.

``rows_transitive``, the fan helpers ``fan_empty`` and ``fan_whole``,
``is_max_irreducible`` and ``from_open_sets`` have no caller in the program
and live here for the tests that use them.

The labelled enumerators filter every candidate relation (3^C(n,2) for
posets, 2^(n(n-1)) for preorders) and every candidate family of T1
sublattice members, in the order the program once used, and build the
program's objects from what passes.
"""

import itertools

from zdgraph.corpus import _LETTERS, _space_from_preorder
from zdgraph.semigroups import SizeGuardExceeded, row_union
from zdgraph.spectra import (
    EMPTY_PART,
    FULL_PART,
    FanClosedSet,
    FinitePoset,
    _is_max_irreducible,
    upset_masks,
)
from zdgraph.topology import closed_family_defect, make_space

# 5 points are 2^20 candidate relations, seconds of work; 6 points are
# 2^30, a thousand times more
DEFAULT_MAX_TOPOLOGY_POINTS = 5


def to_rows(rel):
    """Bitmask rows of a bool matrix: bit j of row i is rel[i][j]."""
    return tuple(sum(1 << j for j, x in enumerate(row) if x) for row in rel)


def to_bools(rows, n):
    """The bool matrix of n bitmask rows, as the nested tuple ``leq`` was."""
    return tuple(tuple(bool(r >> j & 1) for j in range(n)) for r in rows)


def poset_message(n, leq):
    """The first ``InvalidPoset`` message of the bool-matrix validator, or None."""
    if len(leq) != n or any(len(r) != n for r in leq):
        return "relation has wrong shape"
    for i in range(n):
        if not leq[i][i]:
            return f"not reflexive at {i}"
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                return f"not antisymmetric at ({i}, {j})"
            for k in range(n):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    return f"not transitive at ({i}, {j}, {k})"
    return None


def is_transitive(rel):
    return all(
        row_a[c]
        for row_a in rel
        for b, row_b in enumerate(rel)
        if row_a[b]
        for c, x in enumerate(row_b)
        if x
    )


def rows_transitive(rows):
    """Whether a rel b and b rel c imply a rel c: every row holds the rows
    of its members."""
    return all(row_union(rows, row) & ~row == 0 for row in rows)


def is_max_irreducible(P):
    """Irreducibility of the maximal-point subspace lattice of a finite poset."""
    return _is_max_irreducible(P, upset_masks(P.leq))


def fan_empty(fan):
    return FanClosedSet(fan, (EMPTY_PART,) * fan.families, frozenset())


def fan_whole(fan):
    return FanClosedSet(fan, (FULL_PART,) * fan.families, frozenset(range(len(fan.generics))))


def from_open_sets(points, open_sets):
    """A space from its open sets (bitmasks): the closed sets are their complements."""
    full = (1 << len(points)) - 1
    return make_space(points, [full & ~u for u in open_sets])


def transitive_closure(rel):
    """Warshall's algorithm over bools."""
    n = len(rel)
    leq = [list(row) for row in rel]
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    leq[i][j] = leq[i][j] or leq[k][j]
    return tuple(tuple(row) for row in leq)


def enumerate_topologies(n):
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
        if rows_transitive(rows):
            yield _space_from_preorder(rows)


def enumerate_posets(n):
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
        if rows_transitive(rows):
            yield FinitePoset(labels, tuple(rows))


def enumerate_t1_sublattices(n):
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
        masks = {sum(1 << p for p in C) for C in fam}
        if closed_family_defect(masks, n) is None:
            yield make_space(ground, masks)
