"""Finite topological spaces and their closed-set lattices.

Spaces are given by their closed-set families (the natural side for
everything here).  A closed set is an int bitmask (bit p set when point
p is a member), as in ``spectra``; families are kept in the one order of
point-set families (``semigroups.point_set_key``: by size, then by sorted
point list), sorted once when a space is built, and a space over the table
guard is refused before it is validated.  The closed points are read as one
mask (``closed_points``), which the T1 test, the axiom suite and Prl X share,
as they share the one pearled test.  The module covers the
separation-axiom suite (T0, T1, T 1/2, pearled, Noetherian), the subspace
of closed points with its intersection map on closed-set lattices, the lazy
nonnegative-integer counterexample space, and the two kinds of T1 lattices:
a finite one is the ``FiniteSpace`` whose closed sets are its members, and
the symbolic lattice of all finite subsets of a countable ground set plus
the whole set (the closed sets of the cofinite topology) serves the
irreducible case, which has no finite instance on three or more points.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Optional, Union

from .graphs import COUNTABLY_INFINITE, InvariantBundle, invariant_bundle, zero_divisor_graph
from .semigroups import (
    DEFAULT_MAX_TABLE,
    SemigroupMap,
    SemigroupTable,
    distinct_labels,
    guard,
    is_irreducible_family,
    json_int,
    json_list,
    json_object,
    least_member,
    meet_table,
    members,
    point_set_key,
)

# 2^10 members are built and validated in under a second; each further
# point quadruples the work
DEFAULT_MAX_POWERSET_GROUND = 10


class InvalidSpace(ValueError):
    pass


class NotPearled(ValueError):
    pass


class InvalidLattice(ValueError):
    """A lattice that is not T1 was given where a T1 lattice is required."""


# ---------------------------------------------------------------------------
# Finite spaces


@dataclass(frozen=True)
class FiniteSpace:
    """A finite space as its family of closed sets, each a bitmask over the
    point indices, in the order of ``point_set_key``."""

    points: tuple[str, ...]
    closed_sets: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.points)

    def to_json(self) -> str:
        return json.dumps(
            {
                "points": list(self.points),
                "closed": sorted(list(members(c)) for c in self.closed_sets),
            }
        )

    @staticmethod
    def from_json(text: str) -> "FiniteSpace":
        data = json_object(text, "space")
        points = distinct_labels(str(p) for p in json_list(data["points"], "points", "space"))
        closed = [
            {json_int(i, "space") for i in json_list(c, "members of a closed set", "space")}
            for c in json_list(data["closed"], "closed sets", "space")
        ]
        for c in closed:  # checked before a negative index reaches a shift
            if not c <= set(range(len(points))):
                raise InvalidSpace(f"member {sorted(c)} is not a subset of the ground set")
        return make_space(points, [sum(1 << i for i in c) for c in closed])


def make_space(points, closed_sets) -> FiniteSpace:
    """Build and validate a finite space from its closed sets (bitmasks)."""
    pts = tuple(points)
    family = set(closed_sets)
    guard("closed sets", len(family), DEFAULT_MAX_TABLE)
    ordered = tuple(sorted(family, key=point_set_key(family)))
    defect = _family_defect(ordered, family, len(pts))
    if defect:
        raise InvalidSpace(defect)
    return FiniteSpace(pts, ordered)


def _family_defect(ordered, fam: set[int], n: int) -> Optional[str]:
    """Why the set ``fam`` (bitmasks) is not a closed family on the points
    0..n-1, or None.

    A closed family holds the empty set and the ground set, lies inside the
    ground set, and is closed under union and intersection.  Members and
    pairs are scanned in ``ordered``, the order of ``point_set_key``, so the
    first witness does not depend on how the family was given.
    """
    if min(fam, default=0) < 0:  # a negative mask has no finite point list
        return f"member {min(fam)} is not a subset of the ground set"
    full = (1 << n) - 1
    if 0 not in fam or full not in fam:
        return "the family must contain the empty set and the ground set"
    for C in ordered:
        if C & ~full:
            return f"member {list(members(C))} is not a subset of the ground set"
    for A, B in itertools.combinations(ordered, 2):
        if A | B not in fam:
            return f"union {list(members(A))} | {list(members(B))} is not a member"
        if A & B not in fam:
            return f"intersection {list(members(A))} & {list(members(B))} is not a member"
    return None


def closure(X: FiniteSpace, A: int) -> int:
    """Smallest closed superset: the meet of the closed supersets (the
    family is intersection-closed)."""
    out = (1 << X.n) - 1
    for C in X.closed_sets:
        if A & ~C == 0:
            out &= C
    return out


def closed_points(X: FiniteSpace) -> int:
    """The mask of the closed points: p is closed when {p} is a closed set."""
    return sum(C for C in X.closed_sets if C.bit_count() == 1)


def is_t1(X: FiniteSpace) -> bool:
    """T1: every singleton is closed."""
    return closed_points(X) == (1 << X.n) - 1


def _is_pearled(X: FiniteSpace, cpts: int) -> bool:
    """Pearled: every nonempty closed set meets ``cpts``, the closed points."""
    return all(not C or C & cpts for C in X.closed_sets)


@dataclass(frozen=True)
class AxiomReport:
    t0: bool
    t1: bool
    t_half: bool
    pearled: bool
    noetherian: bool


def axiom_suite(X: FiniteSpace) -> AxiomReport:
    """Evaluate each separation axiom by its definition.

    T0: distinct points have distinct singleton closures.  T1: every
    singleton is closed.  T 1/2: every singleton is open or closed.
    Pearled: every nonempty closed set contains a closed point.  The
    implication arrows between them are theorems, judged on the result by
    ``verify pearled``.
    """
    family = set(X.closed_sets)
    full = (1 << X.n) - 1
    cpts = closed_points(X)
    t0 = len({closure(X, 1 << p) for p in range(X.n)}) == X.n
    t1 = cpts == full
    # {p} is open when its complement is closed
    t_half = all(cpts >> p & 1 or full & ~(1 << p) in family for p in range(X.n))
    pearled = _is_pearled(X, cpts)
    # a finite family has no infinite strictly descending chain of closed
    # sets, so every finite space is Noetherian
    return AxiomReport(t0, t1, t_half, pearled, noetherian=True)


def prl(X: FiniteSpace) -> FiniteSpace:
    """Subspace of closed points; defined for pearled spaces, always T1."""
    return _prl(X)[0]


def _prl(X: FiniteSpace) -> tuple[FiniteSpace, list[int]]:
    """Prl X, and the trace of each closed set of X on the closed points,
    as a bitmask over the points of Prl X.

    Prl X is T1 by construction: for a closed point p, {p} is a closed set
    of X, and its trace on the closed points is the singleton {p} of Prl X.
    """
    cpts = closed_points(X)
    if not _is_pearled(X, cpts):
        raise NotPearled("space has a nonempty closed set without closed points")
    ys = list(members(cpts))
    traces = [
        sum(1 << i for i, p in enumerate(ys) if C >> p & 1) for C in X.closed_sets
    ]
    return make_space(tuple(X.points[p] for p in ys), traces), traces


def closure_lattice(X: FiniteSpace) -> SemigroupTable:
    """The closed-set lattice as a semigroup under intersection.

    The empty set absorbs; idempotence of intersection makes the table
    nilpotent-free.
    """
    return meet_table(X.points, X.closed_sets)


def alpha_map(X: FiniteSpace) -> SemigroupMap:
    """Intersection with the closed points: closed sets of X to those of Prl X."""
    Y, traces = _prl(X)
    target_pos = {C: i for i, C in enumerate(Y.closed_sets)}
    assignment = tuple(target_pos[t] for t in traces)
    return SemigroupMap(closure_lattice(X), closure_lattice(Y), assignment)


# ---------------------------------------------------------------------------
# The nonnegative-integer space with closed sets [n, oo)


@dataclass(frozen=True)
class N0WindowReport:
    """Lazy report on the space of naturals whose closed sets are [n, oo).

    T0 is verified on the requested window; the failure of pearledness is
    structural and window-independent: every nonempty closed set [n, oo)
    properly contains [n+1, oo), so no minimal nonempty closed set (hence
    no closed point) exists.
    """

    n_max: int
    t0_on_window: bool
    pearled: bool
    proper_chain: tuple[tuple[int, int], ...]
    certificate: str


def n0_closure_of(n: int) -> str:
    return f"[{n},inf)"


def n0_space_window(n_max: int) -> N0WindowReport:
    if n_max < 1:
        raise ValueError("window must contain at least the point 0")
    # distinct closures on the window: closure({n}) = [n, oo)
    t0 = all(
        n0_closure_of(m) != n0_closure_of(n)
        for m in range(n_max + 1)
        for n in range(m + 1, n_max + 1)
    )
    return N0WindowReport(
        n_max=n_max,
        t0_on_window=t0,
        pearled=False,
        # (n, m): [m, oo) is a proper nonempty subset of [n, oo)
        proper_chain=tuple((n, n + 1) for n in range(n_max + 1)),
        certificate=(
            "every nonempty closed set [n,inf) properly contains [n+1,inf); "
            "no closed set is minimal, so there are no closed points"
        ),
    )


# ---------------------------------------------------------------------------
# T1 lattices: a finite one is the space whose closed sets are its members


def powerset_lattice(ground) -> FiniteSpace:
    """All 2^n subsets of an n-point ground set (an int n names the points
    y0..), as the closed sets of the discrete space.

    Building and validating the family costs O(4^n) set operations, so n is
    guarded before any work.
    """
    n = ground if isinstance(ground, int) else len(ground)
    if n < 0:
        raise ValueError(f"a powerset lattice needs a ground size >= 0, not {n}")
    guard("powerset points", n, DEFAULT_MAX_POWERSET_GROUND)
    g = tuple(f"y{i}" for i in range(n)) if isinstance(ground, int) else tuple(ground)
    return make_space(g, range(1 << n))


def lattice_semigroup(L: FiniteSpace) -> SemigroupTable:
    return closure_lattice(L)


class CofiniteT1Lattice:
    """All finite subsets of a countable ground set, plus the whole set.

    This is the closed-set lattice of the cofinite topology on the
    naturals: the canonical irreducible T1 lattice (an irreducible T1
    lattice on three or more points is necessarily infinite).  A member is
    an int mask: a finite set is nonnegative, and the whole set is -1, the
    mask with every bit set, so meet and join are ``&`` and ``|``.
    """

    irreducible = True

    def meet(self, a: int, b: int) -> int:
        return a & b

    def join(self, a: int, b: int) -> int:
        return a | b

    def is_member(self, x) -> bool:
        return isinstance(x, int) and x >= -1

    # --- constructive witnesses -------------------------------------------

    def triangle_witness(self) -> tuple[int, int, int]:
        """Three pairwise-disjoint singletons: a 3-cycle, so girth 3."""
        return 0b1, 0b10, 0b100

    def distance2_witness(self) -> tuple[int, int, int]:
        """A non-adjacent vertex pair (they meet) with a common neighbour
        (disjoint from both): distance 2."""
        return 0b1, 0b11, 0b100

    def clique_witness(self, n: int) -> tuple[int, ...]:
        """n pairwise-disjoint singletons: a clique of any requested size."""
        return tuple(1 << i for i in range(n))

    def choice_colour(self, member: int) -> int:
        """Colour a vertex by its least element; proper on any edge."""
        return least_member(member)

    def window(self, w: int) -> FiniteSpace:
        """Restriction to {0..w-1}: every subset appears, giving 2^window."""
        return powerset_lattice([str(i) for i in range(w)])

    def restrict(self, member: int, w: int) -> int:
        return member & ((1 << w) - 1)


def lattice_is_irreducible(L: Union[FiniteSpace, CofiniteT1Lattice]) -> bool:
    """No two members other than the ground set have union the ground set.

    For the symbolic lattice this is structural: a union of two finite sets
    is finite, never the infinite ground set, so its verdict is
    ``L.irreducible``.
    """
    if isinstance(L, CofiniteT1Lattice):
        return L.irreducible
    return is_irreducible_family(L.closed_sets, (1 << L.n) - 1)


def lattice_is_connected(L: Union[FiniteSpace, CofiniteT1Lattice]) -> bool:
    """No two disjoint members other than the ground set union to it.

    An irreducible lattice is connected, so the symbolic lattice's verdict
    is ``L.irreducible``.
    """
    if isinstance(L, CofiniteT1Lattice):
        return L.irreducible
    whole = (1 << L.n) - 1
    proper = [m for m in L.closed_sets if m != whole]
    return all(
        A | B != whole for A in proper for B in proper if not (A & B)
    )


@dataclass(frozen=True)
class CharEquivalenceReport:
    """Graph-theoretic characterizations of irreducible and connected.

    For a finite T1 lattice: the vertices of the zero-divisor graph are
    exactly the members other than the empty and ground sets; the lattice
    is irreducible iff every vertex pair admits a path of length 2, and
    connected iff every edge lies on a 3-cycle.
    """

    vertex_set_matches: bool
    irreducible: bool
    every_pair_has_2path: bool
    connected: bool
    every_edge_in_3cycle: bool

    @property
    def passed(self) -> bool:
        return (
            self.vertex_set_matches
            and self.irreducible == self.every_pair_has_2path
            and self.connected == self.every_edge_in_3cycle
        )


def char_check_irr_conn(L: FiniteSpace) -> CharEquivalenceReport:
    if not is_t1(L):
        raise InvalidLattice("characterization requires a T1 lattice")
    sg = lattice_semigroup(L)
    G = zero_divisor_graph(sg)
    whole = (1 << L.n) - 1
    expected_vertices = {
        label for m, label in zip(L.closed_sets, sg.elements) if m and m != whole
    }
    vertex_set_matches = set(G.vertices) == expected_vertices

    adj = G.adj
    pairs_2path = all(adj[a] & adj[b] for a in range(G.n) for b in range(a + 1, G.n))
    edges_3cycle = all(adj[i] & adj[j] for i, row in enumerate(adj) for j in members(row))

    return CharEquivalenceReport(
        vertex_set_matches=vertex_set_matches,
        irreducible=lattice_is_irreducible(L),
        every_pair_has_2path=pairs_2path,
        connected=lattice_is_connected(L),
        every_edge_in_3cycle=edges_3cycle,
    )


def t1_invariants(L: Union[FiniteSpace, CofiniteT1Lattice]) -> InvariantBundle:
    """Invariants of the zero-divisor graph of a T1 lattice.

    Finite mode computes them exactly.  The paper's case split, which
    ``verify t1-lattice`` judges: a finite T1 lattice is the whole powerset;
    the graph is empty for a ground set of at most one point, a single edge
    (diameter 1, girth infinite) for two, and has diameter 3, girth 3,
    clique and chromatic number equal to the ground size for three or more.
    Symbolic mode returns diameter 2, girth 3, and countably infinite clique
    and chromatic numbers; see the lattice's witness methods for the
    constructive evidence.
    """
    if isinstance(L, CofiniteT1Lattice):
        return InvariantBundle(2, 3, COUNTABLY_INFINITE, COUNTABLY_INFINITE)
    if not is_t1(L):
        raise InvalidLattice("t1_invariants requires a T1 lattice")
    G = zero_divisor_graph(lattice_semigroup(L))
    # invariant_bundle runs the clique guard first, which bounds G.n, and
    # seeds the colouring with that clique
    return invariant_bundle(G, max_chromatic_vertices=G.n)
