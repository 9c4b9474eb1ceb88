"""Reference relation routines: the bool-matrix code the bitmask rows replaced,
and the labelled enumerators the isomorph-free ones replaced.

A relation here is an n x n matrix of bools (``rel[i][j]``: i relates to j),
the form ``FinitePoset.leq`` had before it became bitmask rows.  The bool
routines share no code with the program, so tests can compare verdicts,
closures and ``InvalidPoset`` messages of ``zdgraph.spectra`` against them.

``random_preorder``, ``random_space`` and ``random_poset`` are the seeded
random relations the program's map corpus drew before it walked every
class; the tests keep them as corpora, with the digests they had.

``rows_transitive``, the fan helpers ``fan_empty`` and ``fan_whole``,
``is_max_irreducible`` and ``from_open_sets`` have no caller in the program
and live here for the tests that use them.  ``fan_irreducible_by_search``
and ``fan_window_upset_tally`` are the fan's irreducibility search over
pairs of generic sets and its tally of window up-sets over every set of
families, which the closed forms in the fan's shape replaced.

The fan descriptor algebra and the symbolic cofinite lattice are kept in the
form they had before their point sets became int masks: a fan part is a
(``"fin"``/``"cof"``, frozenset) pair, and a lattice member is a frozenset or
the ``WHOLE`` sentinel.  ``set_descriptor``, ``window_mask`` and
``member_mask`` translate between the two forms, so tests compare results,
and ``window_set_descriptors`` walks every descriptor of a window.

The labelled enumerators filter every candidate relation (3^C(n,2) for
posets, 2^(n(n-1)) for preorders) and every candidate family of T1
sublattice members, in the order the program once used, and build the
program's objects from what passes.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from zdgraph.corpus import _LETTERS, _space_from_preorder
from zdgraph.semigroups import SizeGuardExceeded, members, row_union
from zdgraph.spectra import (
    FanClosedSet,
    FanPoset,
    FinitePoset,
    _is_max_irreducible,
    transitive_closure as transitive_closure_rows,
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
    return FanClosedSet(fan, (0,) * fan.families, 0)


def fan_whole(fan):
    return FanClosedSet(fan, (-1,) * fan.families, (1 << len(fan.generics)) - 1)


def fan_irreducible_by_search(fan):
    """(irreducible, witness) of the maximal subspace: the first pair of
    generic sets, in (size, lexicographic) order, whose families are each
    proper and together cover every family."""
    all_fams, generics = (1 << fan.families) - 1, fan.generics

    def cover(gs):
        out = 0
        for g in gs:
            out |= generics[g]
        return out

    subsets = [gs for r in range(1, len(generics) + 1)
               for gs in itertools.combinations(range(len(generics)), r)]
    for g1 in subsets:
        c1 = cover(g1)
        if c1 == all_fams:
            continue
        for g2 in subsets:
            c2 = cover(g2)
            if c2 != all_fams and c1 | c2 == all_fams:
                return False, (g1, g2)
    return True, None


def fan_window_upset_tally(fan, per_family):
    """The up-sets of ``fan_window_poset(fan, per_family)``, counted per set
    T of families whose window maximals an up-set holds in full: a proper
    subset of each other family's, and any generic whose families lie in T."""
    T = np.arange(1 << fan.families)
    partial = fan.families - np.array([t.bit_count() for t in range(1 << fan.families)])
    free = sum((fams & ~T) == 0 for fams in fan.generics)
    width = len(fan.generics) + 1
    proper = (1 << per_family) - 1
    return sum(c * proper ** (k // width) * 2 ** (k % width)
               for k, c in enumerate(np.bincount(partial * width + free).tolist()))


# ---------------------------------------------------------------------------
# The fan algebra on (tag, frozenset) parts

FIN = "fin"
COF = "cof"
EMPTY_PART = (FIN, frozenset())
FULL_PART = (COF, frozenset())


def families_of(fan, g):
    """The families generic g lies below, as a frozenset."""
    return frozenset(members(fan.generics[g]))


@dataclass(frozen=True)
class SetFanClosedSet:
    """A fan closed set: per family a finite set of maximal points or the
    excluded points of a cofinite one, and a frozenset of generics."""

    fan: FanPoset
    parts: tuple
    generics: frozenset

    def __post_init__(self):
        for g in self.generics:
            for j in families_of(self.fan, g):
                if self.parts[j] != FULL_PART:
                    raise ValueError(f"generic {g} requires family {j} fully included")

    def describe(self):
        bits = []
        for j, (tag, data) in enumerate(self.parts):
            if (tag, data) == FULL_PART:
                bits.append(f"M{j}")
            elif tag == COF:
                bits.append(f"M{j}-{{{','.join(f'm{j}.{i}' for i in sorted(data))}}}")
            elif data:
                bits.append("{" + ",".join(f"m{j}.{i}" for i in sorted(data)) + "}")
        bits.extend(f"g{g}" for g in sorted(self.generics))
        return " u ".join(bits) if bits else "{}"


def set_descriptor(d):
    """The (tag, frozenset) form of a mask descriptor."""
    parts = tuple((COF, frozenset(members(~p))) if p < 0 else (FIN, frozenset(members(p)))
                  for p in d.parts)
    return SetFanClosedSet(d.fan, parts, frozenset(members(d.generics)))


def mask_descriptor(d):
    """The mask form of a (tag, frozenset) descriptor."""
    parts = tuple(~sum(1 << i for i in data) if tag == COF else sum(1 << i for i in data)
                  for tag, data in d.parts)
    return FanClosedSet(d.fan, parts, sum(1 << g for g in d.generics))


def set_v_max(fan, family, index):
    parts = [EMPTY_PART] * fan.families
    parts[family] = (FIN, frozenset({index}))
    return SetFanClosedSet(fan, tuple(parts), frozenset())


def set_v_generic(fan, g):
    parts = [EMPTY_PART] * fan.families
    for j in families_of(fan, g):
        parts[j] = FULL_PART
    return SetFanClosedSet(fan, tuple(parts), frozenset({g}))


def part_intersect(a, b):
    (ta, da), (tb, db) = a, b
    if ta == FIN and tb == FIN:
        return (FIN, da & db)
    if ta == FIN:
        return (FIN, da - db)
    if tb == FIN:
        return (FIN, db - da)
    return (COF, da | db)


def part_union(a, b):
    (ta, da), (tb, db) = a, b
    if ta == FIN and tb == FIN:
        return (FIN, da | db)
    if ta == FIN:
        return (COF, db - da)
    if tb == FIN:
        return (COF, da - db)
    return (COF, da & db)


def set_intersect(a, b):
    return SetFanClosedSet(a.fan, tuple(part_intersect(x, y) for x, y in zip(a.parts, b.parts)),
                           a.generics & b.generics)


def set_union(a, b):
    return SetFanClosedSet(a.fan, tuple(part_union(x, y) for x, y in zip(a.parts, b.parts)),
                           a.generics | b.generics)


def set_is_empty(d):
    return not d.generics and all(tag == FIN and not data for tag, data in d.parts)


def set_is_zero_divisor(d):
    return not set_is_empty(d) and not all(part == FULL_PART for part in d.parts)


def set_disjoint_q(a, b):
    return set_is_empty(set_intersect(a, b))


def set_least_maximal(d):
    for j, (tag, data) in enumerate(d.parts):
        if tag == FIN:
            if data:
                return (j, min(data))
        else:
            i = 0
            while i in data:
                i += 1
            return (j, i)
    return None


def set_is_spec_form(d):
    full = set()
    for j, (tag, data) in enumerate(d.parts):
        if tag == COF:
            if data:
                return False
            full.add(j)
    if d.fan.shape == "disjoint":
        return full == set(d.generics)
    if not full:
        return True
    return bool(d.generics) or len(d.fan.generics) >= 2


def set_common_neighbor(a, b, spec_mode=True):
    fan = a.fan
    for j in range(fan.families):
        (ta, da), (tb, db) = a.parts[j], b.parts[j]
        if ta == FIN and tb == FIN:
            cand = set_v_max(fan, j, max(da | db, default=-1) + 1)
        else:
            if ta == FIN:
                pool = db - da
            elif tb == FIN:
                pool = da - db
            else:
                pool = da & db
            if not pool:
                continue
            cand = set_v_max(fan, j, min(pool))
        if set_disjoint_q(cand, a) and set_disjoint_q(cand, b):
            return cand
    for g in range(len(fan.generics)):
        cand = set_v_generic(fan, g)
        if spec_mode and not set_is_spec_form(cand):
            continue
        if set_disjoint_q(cand, a) and set_disjoint_q(cand, b):
            return cand
    return None


def set_distance(a, b, spec_mode=True):
    if not (set_is_zero_divisor(a) and set_is_zero_divisor(b)):
        raise ValueError("distance is defined between zero-divisor vertices")
    if a == b:
        return 0
    if set_disjoint_q(a, b):
        return 1
    if set_common_neighbor(a, b, spec_mode) is not None:
        return 2
    return 3


def set_restrict_to_window(d, per_family):
    """The trace on the window, as ("g", g) and ("m", j, i) point keys."""
    out = set(("g", g) for g in d.generics)
    for j, (tag, data) in enumerate(d.parts):
        for i in range(per_family):
            if (i in data) if tag == FIN else (i not in data):
                out.add(("m", j, i))
    return frozenset(out)


def window_mask(keys, fan, per_family):
    """The point keys as a mask over ``fan_window_poset(fan, per_family)``."""
    ng = len(fan.generics)
    return sum(1 << (k[1] if k[0] == "g" else ng + k[1] * per_family + k[2]) for k in keys)


def window_set_descriptors(fan, window):
    """Every descriptor of ``fan`` whose parts are subsets of range(window)
    or their complements; a family a generic lies below is full."""
    subsets = [frozenset(c) for r in range(window + 1)
               for c in itertools.combinations(range(window), r)]
    free = [(tag, s) for tag in (FIN, COF) for s in subsets]
    ngen = len(fan.generics)
    for gens in (frozenset(c) for r in range(ngen + 1)
                 for c in itertools.combinations(range(ngen), r)):
        forced = set().union(*(families_of(fan, g) for g in gens))
        for parts in itertools.product(
                *([FULL_PART] if j in forced else free for j in range(fan.families))):
            yield SetFanClosedSet(fan, parts, gens)


# ---------------------------------------------------------------------------
# The symbolic cofinite lattice on frozensets and the WHOLE sentinel


class _Whole:
    def __repr__(self):
        return "whole-ground-set"


WHOLE = _Whole()


def member_mask(x):
    """The mask form of a frozenset member, or -1 for ``WHOLE``."""
    return -1 if x is WHOLE else sum(1 << i for i in x)


class SetCofiniteT1Lattice:
    """All finite subsets of the naturals as frozensets, plus ``WHOLE``."""

    def meet(self, a, b):
        if a is WHOLE:
            return b
        if b is WHOLE:
            return a
        return a & b

    def join(self, a, b):
        if a is WHOLE or b is WHOLE:
            return WHOLE
        return a | b

    def triangle_witness(self):
        return frozenset({0}), frozenset({1}), frozenset({2})

    def distance2_witness(self):
        return frozenset({0}), frozenset({0, 1}), frozenset({2})

    def clique_witness(self, n):
        return tuple(frozenset({i}) for i in range(n))

    def choice_colour(self, member):
        return min(member)

    def random_member(self, rng, max_elem=50, max_size=6):
        size = rng.randint(1, max_size)
        return frozenset(rng.sample(range(max_elem), size))

    def restrict(self, member, w):
        window = frozenset(range(w))
        if member is WHOLE:
            return window
        return member & window


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


def random_preorder(rng, n):
    """The rows of a random preorder: each pair i != j related with
    probability 0.35, then closed transitively."""
    rows = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.35:
                rows[i] |= 1 << j
    return transitive_closure_rows(rows)


def random_space(rng, n):
    return _space_from_preorder(random_preorder(rng, n))


def random_poset(rng, n):
    """A random partial order: each pair of a shuffled point order related
    upward with probability 0.4, then closed transitively."""
    order = list(range(n))
    rng.shuffle(order)
    rows = [1 << i for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                rows[order[a]] |= 1 << order[b]
    return FinitePoset(tuple(f"p{i}" for i in range(n)), transitive_closure_rows(rows))


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
