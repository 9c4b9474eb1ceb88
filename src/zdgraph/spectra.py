"""Abstract prime spectra as posets, and their closed-set lattices.

Finite mode: a poset of primes under inclusion, held as bitmask rows
(bit j of ``leq[i]`` means point i <= point j), the one form of a relation
here: validation, transitive closure and up-set enumeration all work on
rows.  Closed sets are the up-closed subsets (every up-set is a finite
union of principal up-sets V(p), so the Zariski lattice and its Alexandroff
refinement coincide on finite posets; both construction paths are still
provided and compared).

Fan mode: symbolic posets with countably many maximal points, needed for
the cases a finite poset cannot realize (three or more maximal points
with irreducible maximal space).  Two shapes are supported, matching the
CLI grammar: a "shared" fan (k generic points all below one countably
infinite family of maximal points) and "disjoint" fans (k families, each
with its own generic point).  Closed sets are descriptors: per family a
finite or cofinite set of maximal points, plus generic flags, where a
generic forces its families to be fully included (up-closure).  All
queries on descriptors are decidable; theorem checks combine constructive
witnesses with windowed comparisons against finite posets.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

from .graphs import (
    COUNTABLY_INFINITE,
    DEFAULT_MAX_CLIQUE_VERTICES,
    InvariantBundle,
    SuitePart,
    diameter,
    invariant_bundle,
    zero_divisor_graph,
)
from .semigroups import (
    DEFAULT_MAX_TABLE,
    SemigroupMap,
    SemigroupTable,
    check_armendariz,
    check_homomorphism,
    distinct_labels,
    guard,
    is_irreducible_family,
    json_int,
    json_list,
    json_object,
    least_member,
    meet_table,
    members,
    spec_int,
    spec_params,
)

INF = float("inf")


class InvalidPoset(ValueError):
    pass


# ---------------------------------------------------------------------------
# Finite mode


@dataclass(frozen=True)
class FinitePoset:
    """A finite partial order as bitmask rows: bit j of ``leq[i]`` means
    point i <= point j."""

    points: tuple[str, ...]
    leq: tuple[int, ...]

    def __post_init__(self):
        n = len(self.points)
        if len(self.leq) != n or any(row < 0 or row >> n for row in self.leq):
            raise InvalidPoset("relation has wrong shape")
        # the first witness in (i, j, k) order: per i, reflexivity, then each
        # j above i ascending, antisymmetry before transitivity
        for i, row in enumerate(self.leq):
            if not row >> i & 1:
                raise InvalidPoset(f"not reflexive at {i}")
            for j in members(row):
                if j != i and self.leq[j] >> i & 1:
                    raise InvalidPoset(f"not antisymmetric at ({i}, {j})")
                missing = self.leq[j] & ~row
                if missing:
                    k = (missing & -missing).bit_length() - 1
                    raise InvalidPoset(f"not transitive at ({i}, {j}, {k})")

    @property
    def n(self) -> int:
        return len(self.points)

    def to_json(self) -> str:
        pairs = [
            [i, j]
            for i, row in enumerate(self.leq)
            for j in members(row)
            if i != j
        ]
        return json.dumps({"points": list(self.points), "leq": pairs})

    @staticmethod
    def from_json(text: str) -> "FinitePoset":
        data = json_object(text, "poset")
        points = distinct_labels(str(p) for p in json_list(data["points"], "points", "poset"))
        n = len(points)
        rows = [1 << i for i in range(n)]
        for pair in json_list(data["leq"], "relation pairs", "poset"):
            if not isinstance(pair, list) or len(pair) != 2:
                raise InvalidPoset(f"relation pair {pair!r} is not two point indices")
            i, j = (json_int(x, "poset") for x in pair)
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidPoset(f"relation pair ({i}, {j}) outside points 0..{n - 1}")
            rows[i] |= 1 << j
        # antisymmetry of the closure is validated on construction
        return FinitePoset(points, transitive_closure(rows))


# ---------------------------------------------------------------------------
# Relations on n points, as bitmask rows (bit j of rows[i]: i relates to j)

# upset_masks tabulates every one of the 2^n subsets
MAX_UPSET_POINTS = 16


def transitive_closure(rows) -> tuple[int, ...]:
    """The transitive closure of a relation (Warshall's algorithm)."""
    rows = list(rows)
    for k, row_k in enumerate(rows):
        for i, row_i in enumerate(rows):
            if row_i >> k & 1:
                rows[i] = row_i | row_k
    return tuple(rows)


def upset_masks(rows) -> list[int]:
    """The up-sets of a reflexive relation, as bitmasks sorted by (size, mask).

    A set A is an up-set when the union of the rows of its points is A itself.
    """
    n = len(rows)
    guard("relation points", n, MAX_UPSET_POINTS)
    reach = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        reach[mask] = reach[mask ^ low] | rows[low.bit_length() - 1]
    return sorted((m for m, r in enumerate(reach) if m == r), key=_by_size)


def _by_size(mask: int) -> tuple[int, int]:
    return mask.bit_count(), mask


# ---------------------------------------------------------------------------
# Closed-set lattices of finite posets


def max_points(P: FinitePoset) -> list[int]:
    return [i for i, row in enumerate(P.leq) if row == 1 << i]


def _max_mask(P: FinitePoset) -> int:
    return sum(1 << p for p in max_points(P))


def sigma_spec(P: FinitePoset) -> SemigroupTable:
    """Closed-set lattice under intersection: all up-sets, absorbing empty."""
    masks = upset_masks(P.leq)
    guard("closed sets", len(masks), DEFAULT_MAX_TABLE)
    return meet_table(P.points, masks)


def uspec_sigma(P: FinitePoset) -> SemigroupTable:
    """Same lattice built along the Alexandroff route: union closure of the
    principal up-sets, added one at a time (O(|closed| * n) unions, guarded
    after each).  On finite posets the two constructions coincide; both
    paths are kept so the coincidence is checked, not assumed."""
    closed = {0}
    for row in P.leq:
        closed |= {c | row for c in closed}
        guard("closed sets", len(closed), DEFAULT_MAX_TABLE)
    return meet_table(P.points, sorted(closed, key=_by_size))


def restrict_to_max(P: FinitePoset) -> SemigroupMap:
    """The map C -> C intersect Max on closed-set lattices."""
    masks = upset_masks(P.leq)
    guard("closed sets", len(masks), DEFAULT_MAX_TABLE)
    return _restrict_to_max(P, masks)


def _restrict_to_max(P: FinitePoset, masks: list[int]) -> SemigroupMap:
    maxmask = _max_mask(P)
    targets = sorted({m & maxmask for m in masks}, key=_by_size)
    tpos = {m: i for i, m in enumerate(targets)}
    return SemigroupMap(
        meet_table(P.points, masks),
        meet_table(P.points, targets),
        tuple(tpos[m & maxmask] for m in masks),
    )


def _zero_divisor_count(P: FinitePoset, masks: list[int]) -> int:
    """The vertex count of the Zariski lattice's zero-divisor graph, read
    from its up-sets before any table: a nonempty up-set is a zero divisor
    iff it misses some maximal point."""
    maxmask = _max_mask(P)
    return sum(0 < m and m & maxmask != maxmask for m in masks)


def _is_max_irreducible(P: FinitePoset, masks: list[int]) -> bool:
    """Irreducibility of the maximal-point subspace lattice.

    This is the poset-level surrogate for primality of the Jacobson
    radical (the maximal spectrum is irreducible iff the radical is prime).
    """
    maxmask = _max_mask(P)
    return is_irreducible_family({m & maxmask for m in masks}, maxmask)


# ---------------------------------------------------------------------------
# Fan mode


@dataclass(frozen=True)
class FanPoset:
    """Symbolic poset: generic points under countably infinite maximal families.

    A "shared" fan has ``size`` generics below one family; a "disjoint" fan
    has ``size`` families, with generic i below family i alone.  Either way
    it has ``size`` generics."""

    shape: str  # "shared" | "disjoint"
    size: int

    def __post_init__(self):
        if self.shape not in ("shared", "disjoint"):
            raise InvalidPoset(f"unknown fan shape {self.shape!r}")
        if self.size < 1:
            raise InvalidPoset("fan needs at least one family and one generic")

    @cached_property
    def families(self) -> int:
        return self.size if self.shape == "disjoint" else 1

    @cached_property
    def generics(self) -> tuple[int, ...]:
        """``generics[g]`` is the mask of the families generic g lies below."""
        if self.shape == "disjoint":
            return tuple(1 << g for g in range(self.size))
        return (1,) * self.size


def fan_shared(num_generics: int) -> FanPoset:
    return FanPoset("shared", num_generics)


def fan_disjoint(num_fans: int) -> FanPoset:
    return FanPoset("disjoint", num_fans)


def fan_from_spec(spec: str) -> FanPoset:
    """Parse ``fan:generics=1;sharing=all`` or ``fan:disjoint=2``."""
    if not spec.startswith("fan:"):
        raise InvalidPoset(f"not a fan spec: {spec!r}")
    params = spec_params(spec, spec[4:], (), InvalidPoset,
                         optional=("generics", "sharing", "disjoint"))
    if "disjoint" in params:
        for name in params:
            if name != "disjoint":
                raise InvalidPoset(f"spec {spec!r} has a part {name!r}, "
                                   "which a disjoint fan does not take")
        return fan_disjoint(spec_int(spec, "disjoint", params["disjoint"], InvalidPoset))
    if params.get("sharing", "all") != "all":
        raise InvalidPoset("only sharing=all is supported")
    return fan_shared(spec_int(spec, "generics", params.get("generics", "1"), InvalidPoset))


@dataclass(frozen=True)
class FanClosedSet:
    """A closed set of a fan: per family the mask of its maximal points,
    finite (>= 0) or cofinite (``~excluded``, < 0), and the mask of its
    generics; an included generic forces its families full (-1)."""

    fan: FanPoset
    parts: tuple[int, ...]
    generics: int

    def __post_init__(self):
        if len(self.parts) != self.fan.families:
            raise InvalidPoset("one part per family required")
        for g in members(self.generics):
            for j in members(self.fan.generics[g]):
                if self.parts[j] != -1:
                    raise InvalidPoset(
                        f"generic {g} requires family {j} fully included"
                    )

    def describe(self) -> str:
        bits = []
        for j, part in enumerate(self.parts):
            if part == -1:
                bits.append(f"M{j}")
            elif part < 0:
                bits.append(f"M{j}-{{{','.join(f'm{j}.{i}' for i in members(~part))}}}")
            elif part:
                bits.append("{" + ",".join(f"m{j}.{i}" for i in members(part)) + "}")
        bits.extend(f"g{g}" for g in members(self.generics))
        return " u ".join(bits) if bits else "{}"


def fan_v_max(fan: FanPoset, family: int, index: int) -> FanClosedSet:
    parts = [0] * fan.families
    parts[family] = 1 << index
    return FanClosedSet(fan, tuple(parts), 0)


def fan_fin(fan: FanPoset, family: int, indices) -> FanClosedSet:
    """The finite set of the maximal points ``indices`` of one family."""
    parts = [0] * fan.families
    parts[family] = sum(1 << i for i in set(indices))
    return FanClosedSet(fan, tuple(parts), 0)


def fan_cofinite(fan: FanPoset, family: int, excluded) -> FanClosedSet:
    """One family but the maximal points ``excluded`` (an Alexandroff-only
    set when the exclusion is nonempty), and every other family full."""
    parts = [-1] * fan.families
    parts[family] = ~sum(1 << i for i in set(excluded))
    return FanClosedSet(fan, tuple(parts), 0)


def fan_v_generic(fan: FanPoset, g: int) -> FanClosedSet:
    fams = fan.generics[g]
    parts = tuple(-(fams >> j & 1) for j in range(fan.families))
    return FanClosedSet(fan, parts, 1 << g)


def fan_union(a: FanClosedSet, b: FanClosedSet) -> FanClosedSet:
    return FanClosedSet(
        a.fan, tuple(x | y for x, y in zip(a.parts, b.parts)), a.generics | b.generics
    )


def fan_is_empty(d: FanClosedSet) -> bool:
    # an included generic makes its families full, so emptiness means that
    # every part is the empty finite set
    return not any(d.parts)


def fan_contains_all_max(d: FanClosedSet) -> bool:
    return all(part == -1 for part in d.parts)


def fan_is_zero_divisor(d: FanClosedSet) -> bool:
    """Nonempty and missing some maximal point.

    A closed set is annihilated by a nonzero closed set iff it misses a
    maximal point (the singleton of a missing maximal is disjoint from it;
    a set containing all maximals meets every nonempty closed set).
    """
    return not fan_is_empty(d) and not fan_contains_all_max(d)


def fan_disjoint_q(a: FanClosedSet, b: FanClosedSet) -> bool:
    """The intersection of a and b (``fan_intersect`` in the tests'
    ``relation_oracles``) is empty: no family has a maximal point in both
    parts (a generic in both forces its families full in both)."""
    return not any(x & y for x, y in zip(a.parts, b.parts))


def is_spec_form(d: FanClosedSet) -> bool:
    """Membership in the Zariski (finite-unions-of-V) lattice.

    Cofinite parts with a nonempty exclusion are Alexandroff-only.  A fully
    included family must be licensed: in a disjoint fan only its generic
    provides it; in a shared fan an intersection of two generic up-sets
    provides the family without any generic, so two or more generics also
    license it.
    """
    if any(part < -1 for part in d.parts):
        return False
    full = sum(1 << j for j, part in enumerate(d.parts) if part == -1)
    if d.fan.shape == "disjoint":
        return full == d.generics  # generic i sits below family i alone
    # shared: one family
    if not full:
        return True
    return bool(d.generics) or d.fan.size >= 2


def fan_common_neighbor(
    a: FanClosedSet, b: FanClosedSet, spec_mode: bool = True
) -> Optional[FanClosedSet]:
    """A nonempty closed set disjoint from both, or None; exact.

    A maximal singleton {m} works iff m lies outside both sets; the
    per-family search below is exhaustive because a candidate must avoid a
    finite set (both parts finite: any fresh index), or lie inside a finite
    exclusion set.  A generic up-set is checked directly.
    """
    fan = a.fan
    for j in range(fan.families):
        both = a.parts[j] | b.parts[j]
        if both >= 0:
            cand = fan_v_max(fan, j, both.bit_length())  # past both finite parts
        elif both != -1:
            cand = fan_v_max(fan, j, least_member(~both))  # inside both exclusions
        else:
            continue
        if fan_disjoint_q(cand, a) and fan_disjoint_q(cand, b):
            return cand
    for g in range(fan.size):
        cand = fan_v_generic(fan, g)
        if spec_mode and not is_spec_form(cand):
            continue
        if fan_disjoint_q(cand, a) and fan_disjoint_q(cand, b):
            return cand
    return None


def fan_distance(a: FanClosedSet, b: FanClosedSet, spec_mode: bool = True) -> int:
    """Graph distance between two zero-divisor descriptors.

    0, 1 and 2 are decided exactly; anything else is 3, the general upper
    bound for zero-divisor graphs of semigroups with zero (confirmed
    exhaustively on finite windows by the theorem suite).
    """
    if not (fan_is_zero_divisor(a) and fan_is_zero_divisor(b)):
        raise ValueError("distance is defined between zero-divisor vertices")
    if a == b:
        return 0
    if fan_disjoint_q(a, b):
        return 1
    if fan_common_neighbor(a, b, spec_mode) is not None:
        return 2
    return 3


# what grows with the generics is a disjoint fan's distance-3 witness: a
# union of k - 1 generic up-sets and a common-neighbour search over k
# families and k generics, each step building or comparing k parts.  With
# the guard lifted, on a 2-core x86 host, the fan suite takes 0.0008 s at
# 16 generics and 0.05 s at 256; the guard keeps it under a millisecond
MAX_FAN_GENERICS = 16


def fan_max_irreducible(fan: FanPoset) -> tuple[bool, Optional[tuple]]:
    """Irreducibility of the maximal subspace in the Zariski restriction.

    Finite parts can never cover an infinite family, so a reducible cover
    must come from two generic-licensed unions of full families, each
    proper.  A fan of one family has no proper union to cover it; the
    families of a disjoint fan of k >= 2 are covered by those of generic 0
    and of generics 1..k-1, the witness pair of generic sets returned.
    """
    guard("fan generics", fan.size, MAX_FAN_GENERICS)
    if fan.families == 1:
        return True, None
    return False, ((0,), tuple(range(1, fan.size)))


def fan_window_poset(fan: FanPoset, per_family: int) -> FinitePoset:
    """Finite truncation: the first per_family maximals of every family,
    after the generics; point ng + j * per_family + i is maximal i of
    family j."""
    labels = [f"g{i}" for i in range(fan.size)]
    maxpts = [(j, i) for j in range(fan.families) for i in range(per_family)]
    labels += [f"m{j}.{i}" for j, i in maxpts]
    ng = fan.size
    leq = [
        1 << g | sum(1 << (ng + k) for k, (j, _) in enumerate(maxpts) if fams >> j & 1)
        for g, fams in enumerate(fan.generics)
    ]
    leq += [1 << (ng + k) for k in range(len(maxpts))]
    return FinitePoset(tuple(labels), tuple(leq))


def fan_window_upset_count(fan: FanPoset, per_family: int) -> int:
    """The number of up-sets of ``fan_window_poset(fan, per_family)``, read
    from the fan's shape without listing them.

    An up-set that holds a generic holds all window maximals of its
    family.  So a shared fan's up-sets are the 2^w sets of window maximals,
    and the whole window with each nonempty set of generics; in a disjoint
    fan each family holds one of its 2^w sets of window maximals, or all of
    them and its generic.
    """
    if fan.shape == "shared":
        return 2**per_family + 2**fan.size - 1
    return (2**per_family + 1) ** fan.size


# ---------------------------------------------------------------------------
# Theorem suite


@dataclass(frozen=True)
class SpecsSuiteReport:
    mode: str  # "finite" | "fan"
    max_count: Union[int, object]
    max_irreducible: bool
    parts: tuple[SuitePart, ...]
    spec_bundle: Optional[InvariantBundle] = None
    uspec_bundle: Optional[InvariantBundle] = None

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.parts)


def _finite_specs_suite(P: FinitePoset, max_clique_vertices: int) -> SpecsSuiteReport:
    # one up-set enumeration serves the sigma table, the restriction to Max
    # and the irreducibility test; the union-closure route stays separate
    masks = upset_masks(P.leq)
    guard("closed sets", len(masks), DEFAULT_MAX_TABLE)
    guard("clique-solver vertices", _zero_divisor_count(P, masks), max_clique_vertices)
    rmap = _restrict_to_max(P, masks)
    tG = rmap.source
    tH = uspec_sigma(P)
    coincide = tG == tH
    G = zero_divisor_graph(tG)
    # the clique guard above bounds G.n, and invariant_bundle seeds the
    # colouring with its clique
    bg = invariant_bundle(G, max_clique_vertices, max_chromatic_vertices=G.n)
    # equal tables give equal graphs, so H is built only when they differ
    H = G if coincide else zero_divisor_graph(tH)
    bh = bg if coincide else invariant_bundle(H, max_clique_vertices, max_chromatic_vertices=H.n)
    maxes = max_points(P)
    nmax = len(maxes)
    nonmax = [p for p in range(P.n) if p not in maxes]
    irred = _is_max_irreducible(P, masks)

    parts = []
    parts.append(
        SuitePart(
            "zariski-alexandroff-coincide",
            True,
            coincide,
            f"{len(tG.elements)} closed sets on both routes",
        )
    )
    rep = check_armendariz(rmap)
    hom = check_homomorphism(rmap)
    parts.append(
        SuitePart(
            "max-restriction-armendariz",
            True,
            rep.is_armendariz and hom.ok,
            f"armendariz={rep.is_armendariz} homomorphism={hom.ok}",
        )
    )
    # With one or no maximal points the graphs are empty, so the counting
    # law degenerates to clq = chi = 0 (a singleton maximal set is the
    # whole maximal space, not a vertex); the equality with |Max| is the
    # content of the theorem from two maximal points up.
    expected_count = nmax if nmax >= 2 else 0
    ok1 = bg.chromatic == bg.clique == bh.chromatic == bh.clique == expected_count
    parts.append(
        SuitePart(
            "clique-chromatic-count",
            True,
            ok1,
            f"clq/chi spec={bg.clique}/{bg.chromatic} "
            f"uspec={bh.clique}/{bh.chromatic} |Max|={nmax}",
        )
    )
    applies = nmax == 1
    parts.append(
        SuitePart(
            "local-empty",
            applies,
            (not applies) or (G.n == 0 and H.n == 0),
            f"vertices spec={G.n} uspec={H.n}",
        )
    )
    applies = nmax == 2
    if applies:
        m1, m2 = (1 << m for m in maxes)
        # which of the two maximals each nonmaximal point lies below
        tops = {P.leq[p] & (m1 | m2) for p in nonmax}
        expected_diam = 1 if tops <= {m1 | m2} else 2
        expected_gir = 4 if {m1, m2} <= tops else INF
        passed = (
            bg.diameter == expected_diam == bh.diameter
            and bg.girth == expected_gir == bh.girth
        )
        detail = (
            f"diam={bg.diameter}/{bh.diameter} expected {expected_diam}; "
            f"girth={bg.girth}/{bh.girth} expected {expected_gir}"
        )
    else:
        passed, detail = True, "not a two-maximal poset"
    parts.append(SuitePart("two-maximal-cases", applies, passed, detail))
    applies = nmax >= 3
    parts.append(
        SuitePart(
            "three-plus-alexandroff",
            applies,
            (not applies) or (bh.diameter == 3 and bh.girth == 3 and bg.girth == 3),
            f"diam(H)={bh.diameter} girth(H)={bh.girth} girth(G)={bg.girth}",
        )
    )
    applies = nmax >= 3 and irred
    parts.append(
        SuitePart(
            "jacobson-prime-diam2",
            applies,
            (not applies) or bg.diameter == 2,
            "a finite poset cannot have an irreducible maximal space on >= 3 points"
            if not applies
            else f"diam(G)={bg.diameter}",
        )
    )
    applies = nmax >= 3 and not irred
    parts.append(
        SuitePart(
            "jacobson-nonprime-diam3",
            applies,
            (not applies) or bg.diameter == 3,
            f"diam(G)={bg.diameter}",
        )
    )
    return SpecsSuiteReport(
        mode="finite",
        max_count=nmax,
        max_irreducible=irred,
        parts=tuple(parts),
        spec_bundle=bg,
        uspec_bundle=bh,
    )


def _fan_clique_part(fan: FanPoset, sizes) -> SuitePart:
    for n in sizes:
        singles = [fan_v_max(fan, 0, i) for i in range(n)]
        for A, B in itertools.combinations(singles, 2):
            if not fan_disjoint_q(A, B):
                return SuitePart(
                    "clique-chromatic-count", True, False, f"clique witness {n} failed"
                )
    return SuitePart(
        "clique-chromatic-count",
        True,
        True,
        f"countably infinite: disjoint-singleton cliques up to {max(sizes)}; "
        "the least-maximal colouring is proper, as disjoint sets share no maximal point",
    )


def _window_holds(fan: FanPoset, per_family: int) -> bool:
    """On the fan's window, the Max restriction is Armendariz and Γ of the
    Zariski lattice has diameter at most 3."""
    rmap = restrict_to_max(fan_window_poset(fan, per_family))
    return check_armendariz(rmap).is_armendariz and diameter(zero_divisor_graph(rmap.source)) <= 3


def _fan_specs_suite(fan: FanPoset, windows=(2, 3)) -> SpecsSuiteReport:
    # first, as it guards the generic count before any work
    irred, red_witness = fan_max_irreducible(fan)
    parts = [_fan_clique_part(fan, (2, 3, 5, 10, 25))]

    # girth 3 on both lattices: three pairwise-disjoint maximal singletons
    tri = [fan_v_max(fan, 0, i) for i in range(3)]
    tri_ok = all(
        fan_disjoint_q(a, b) for a, b in itertools.combinations(tri, 2)
    ) and all(is_spec_form(t) for t in tri)

    # Alexandroff diameter 3: A = everything except m0.0, C = {m0.0, m0.1}
    A = fan_cofinite(fan, 0, {0})
    C = fan_fin(fan, 0, {0, 1})
    dist_ac = fan_distance(A, C, spec_mode=False)
    path = [A, fan_v_max(fan, 0, 0), fan_v_max(fan, 0, 2), C]
    path_ok = (
        fan_disjoint_q(path[0], path[1])
        and fan_disjoint_q(path[1], path[2])
        and fan_disjoint_q(path[2], path[3])
    )
    parts.append(
        SuitePart(
            "three-plus-alexandroff",
            True,
            tri_ok and dist_ac == 3 and path_ok,
            f"girth-3 triangle ok={tri_ok}; Alexandroff distance-3 pair "
            f"({A.describe()}, {C.describe()}) with explicit length-3 path",
        )
    )

    if irred:
        # shared fan: a generic forces the one family full, so the Zariski
        # zero divisors are exactly the nonempty finite sets, and any two
        # have the index past both as a common neighbour
        v = fan_v_generic(fan, 0)
        cof_not_zd = fan_contains_all_max(v)
        a = fan_v_max(fan, 0, 0)
        b = fan_fin(fan, 0, {0, 1})
        dist_ab = fan_distance(a, b, spec_mode=True)
        parts.append(
            SuitePart(
                "jacobson-prime-diam2",
                True,
                cof_not_zd and dist_ab == 2,
                f"generic up-sets contain all maximals (non-vertices): {cof_not_zd}; "
                f"witness pair ({a.describe()}, {b.describe()}) at distance {dist_ab}; "
                "any two Zariski zero divisors are finite, with the index past both "
                "as a common neighbour",
            )
        )
        parts.append(
            SuitePart("jacobson-nonprime-diam3", False, True, "maximal space irreducible")
        )
    else:
        a = fan_v_generic(fan, 0)
        c = fan_v_max(fan, 0, 0)
        for g in range(1, fan.size):
            c = fan_union(c, fan_v_generic(fan, g))
        dist_ac = fan_distance(a, c, spec_mode=True)
        p1 = fan_v_max(fan, 1, 0)
        p2 = fan_v_max(fan, 0, 1)
        path_ok = (
            fan_disjoint_q(a, p1)
            and fan_disjoint_q(p1, p2)
            and fan_disjoint_q(p2, c)
        )
        parts.append(
            SuitePart("jacobson-prime-diam2", False, True, f"reducible: {red_witness}")
        )
        parts.append(
            SuitePart(
                "jacobson-nonprime-diam3",
                True,
                dist_ac == 3 and path_ok and fan_is_zero_divisor(a) and fan_is_zero_divisor(c),
                f"distance-3 witness pair ({a.describe()}, {c.describe()}) "
                "with explicit length-3 path",
            )
        )

    # windowed oracle checks: the Armendariz property of the Max restriction
    # and the diameter <= 3 upper bound on finite truncations.  Window traces
    # need no check against the set algebra: masking commutes with & and |
    window_ok = True
    note = []
    verdicts: dict[int, bool] = {}  # each distinct window is built and checked once
    for w in windows:
        count = fan_window_upset_count(fan, w)
        if count > 2000:
            note.append(f"w={w} skipped ({count} closed sets)")
            continue
        if w not in verdicts:
            verdicts[w] = _window_holds(fan, w)
        window_ok = window_ok and verdicts[w]
        note.append(f"w={w}")
    parts.append(
        SuitePart(
            "window-oracle-agreement",
            True,
            window_ok,
            "windowed Max restriction is Armendariz; "
            f"windowed diameters <= 3 ({', '.join(note)})",
        )
    )

    return SpecsSuiteReport(
        mode="fan",
        max_count=COUNTABLY_INFINITE,
        max_irreducible=irred,
        parts=tuple(parts),
    )


def specs_theorem_suite(
    P: Union[FinitePoset, FanPoset], windows=(2, 3),
    max_clique_vertices: int = DEFAULT_MAX_CLIQUE_VERTICES,
) -> SpecsSuiteReport:
    """Run the applicable spectral-graph theorem checks for the poset.

    Finite posets are checked by exact computation of both closed-set
    lattices, with ``max_clique_vertices`` guarding the clique solver on
    their graphs; fans by constructive witnesses and windowed comparisons,
    the descriptor-level laws being certificates (see README).
    """
    if isinstance(P, FanPoset):
        return _fan_specs_suite(P, windows=windows)
    return _finite_specs_suite(P, max_clique_vertices)
