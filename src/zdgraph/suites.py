"""Theorem-verification suites: one callable per structural result.

Each suite returns a report of named items with pass/fail verdicts and
machine-readable witnesses.  Every suite is deterministic: nothing is
drawn, and each walks its bounded classes whole.  The CLI `verify` command
and the acceptance tests both drive these.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import operator
import time
from dataclasses import dataclass, field
from typing import Callable

from . import __version__
from .corpus import (
    DEFAULT_MAX_POSET_POINTS,
    DEFAULT_MAX_TOPOLOGY_POINTS,
    armendariz_map_corpus,
    enumerate_posets,
    enumerate_topologies,
    small_reduced_rings_for_content,
)
from .graphs import (
    DEFAULT_MAX_CLIQUE_VERTICES,
    armendariz_invariant_suites,
    invariant_bundle,
    zero_divisor_graph,
)
from .polynomials import (
    check_armendariz_ring,
    check_degree,
    clique_stabilization,
)
from .rings import (
    DEFAULT_MAX_RING,
    ag_conjecture_check,
    comaximal_ideal_graph,
    enumerate_ideals,
    gamma_graph,
    ideal_label,
    is_ideal_prime,
    jacobson_radical,
    make_gf,
    make_product,
    make_zn,
    maximal_ideals,
    multiplicative_semigroup,
    prime_ideals,
    ring_from_spec,
    spec_poset,
)
from .semigroups import NotNilpotentFree, eq_quotient, guard, members
from .spectra import (
    fan_disjoint,
    fan_shared,
    sigma_spec,
    specs_theorem_suite,
)
from .topology import (
    DEFAULT_MAX_POWERSET_GROUND,
    CofiniteT1Lattice,
    axiom_suite,
    char_check_irr_conn,
    lattice_is_irreducible,
    make_space,
    n0_space_window,
    powerset_lattice,
    t1_invariants,
)


@dataclass(frozen=True)
class SuiteItem:
    name: str
    passed: bool
    details: str = ""


@dataclass
class SuiteReport:
    suite: str
    items: list[SuiteItem] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        """True when every item passed; a report that checked nothing fails."""
        return bool(self.items) and all(i.passed for i in self.items)

    def add(self, name: str, passed: bool, details: str = "") -> None:
        self.items.append(SuiteItem(name, bool(passed), details))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "version": __version__,
            "passed": self.passed,
            "elapsed_s": round(self.elapsed_s, 3),
            "items": [
                {"name": i.name, "passed": i.passed, "details": i.details}
                for i in self.items
            ],
        }


def _timed(fn=None, *, check=lambda **_: None):
    """Time a suite into its report.  ``check`` states the suite's refusals
    once: given every parameter, defaults applied, it raises the guard or
    input error they reach.  It runs before any work, in the suite and as
    ``fn.check``, so ``verify all`` can refuse before any suite starts."""
    if fn is None:
        return functools.partial(_timed, check=check)
    signature = inspect.signature(fn)

    def refuse(*args, **kwargs) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        check(**bound.arguments)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs) -> SuiteReport:
        t0 = time.perf_counter()
        refuse(*args, **kwargs)
        report = fn(*args, **kwargs)
        report.elapsed_s = time.perf_counter() - t0
        return report

    wrapper.check = refuse
    return wrapper


def _checked_nothing(suite: str) -> ValueError:
    return ValueError(f"suite {suite!r} checked nothing at these parameters")


@_timed
def verify_triangle_vs_point() -> SuiteReport:
    """The order-8 local ring whose graph is a triangle while the
    annihilator-class graph is a single point."""
    rep = SuiteReport("triangle-point")
    R = ring_from_spec("mvq:p=2;vars=x,y;rel=x2,xy,y2")
    b = invariant_bundle(gamma_graph(R))
    rep.add(
        "gamma-triangle",
        b.as_tuple() == (1, 3, 3, 3),
        f"(diam, gir, clq, chi) = {b.as_tuple()}, expected (1, 3, 3, 3)",
    )
    q = eq_quotient(multiplicative_semigroup(R), permissive=True)
    be = invariant_bundle(zero_divisor_graph(q.quotient))
    rep.add(
        "class-graph-point",
        be.as_tuple() == (0, float("inf"), 1, 1),
        f"(diam, gir, clq, chi) = {be.as_tuple()}, expected (0, inf, 1, 1)",
    )
    return rep


# labelled counts on n = 0, 1, ... points, up to the guards: OEIS A000798
# (topologies) and A001035 (posets), the source the corpus walk is checked on
A000798 = (1, 1, 4, 29, 355, 6942, 209527)
A001035 = (1, 1, 3, 19, 219, 4231, 130023, 6129859)


def _armendariz_refusals(max_points: int) -> None:
    if max_points < 1:
        raise _checked_nothing("armendariz")
    guard("poset points", max_points, DEFAULT_MAX_POSET_POINTS)
    guard("topology points", max_points, DEFAULT_MAX_TOPOLOGY_POINTS)


@_timed(check=_armendariz_refusals)
def verify_armendariz(max_points: int = 5) -> SuiteReport:
    """All six invariant-preservation laws over the map corpus: every
    quotient and relabelling, and one map per pearled topology class and
    per poset class on 1..max_points points, counted with its orbit."""
    rep = SuiteReport("armendariz")
    try:
        corpus = armendariz_map_corpus(max_points)
    except NotNilpotentFree as exc:  # a quotient ring that is not reduced
        rep.add("corpus-size", False, f"no corpus: {exc}")
        return rep
    topologies = sum(A000798[1:max_points + 1])
    posets = sum(A001035[1:max_points + 1])
    rep.add(
        "corpus-size",
        (corpus.topologies, corpus.posets) == (topologies, posets),
        f"{corpus.topologies} labelled topologies and {corpus.posets} labelled posets "
        f"on 1-{max_points} points (A000798: {topologies}, A001035: {posets})",
    )
    count, failed, first = 0, 0, None
    reports = armendariz_invariant_suites(g for _, g, _ in corpus.maps)
    for name, _, orbit in corpus.maps:
        count += orbit
        try:
            result = next(reports)
        except ValueError as exc:  # not Armendariz, or nilpotent: the run ends
            failed += orbit
            first = first or (str(name), str(exc))
            break
        if not result.passed:
            failed += orbit
            first = first or (str(name),
                              [(p.name, p.details) for p in result.parts if not p.passed])
    rep.add(
        "six-laws-hold",
        not failed,
        f"{count} maps, {failed} failures" + (f"; first: {first}" if first else ""),
    )
    return rep


AG_FIELD_ORDERS = (2, 3, 4, 5)


def _ag_combos(max_order: int, factor_counts) -> list[tuple[int, ...]]:
    """The field orders of each product the suite checks, by arithmetic
    alone: k factors of order at least 2 need an order of at least 2^k."""
    return [
        combo
        for k in factor_counts
        if k < max(max_order, 0).bit_length()
        for combo in itertools.combinations_with_replacement(AG_FIELD_ORDERS, k)
        if math.prod(combo) <= max_order
    ]


def _ag_refusals(max_order: int, factor_counts) -> None:
    combos = _ag_combos(max_order, factor_counts)
    if not combos:
        raise _checked_nothing("ag-conjecture")
    for combo in combos:
        guard("ring elements", math.prod(combo), DEFAULT_MAX_RING)


@_timed(check=_ag_refusals)
def verify_ag_girth(max_order: int = 200, factor_counts=(3, 4)) -> SuiteReport:
    """Annihilating-ideal girth 3 for products of at least three fields."""
    rep = SuiteReport("ag-conjecture")
    fields = {q: make_gf(q) for q in AG_FIELD_ORDERS}
    for combo in _ag_combos(max_order, factor_counts):
        R = make_product([fields[q] for q in combo])
        result = ag_conjecture_check(R)
        rep.add(
            f"girth {R.tag}",
            result.applies and result.passed and result.witness is not None,
            f"girth={result.girth} 3-cycle={result.witness}",
        )
    return rep


def _t1_refusals(max_ground: int) -> None:
    if max_ground < 1:
        raise _checked_nothing("t1-lattice")
    guard("powerset points", max_ground, DEFAULT_MAX_POWERSET_GROUND)
    # Γ of the k-point powerset has 2^k - 2 vertices: every member but ∅ and the ground
    guard("clique-solver vertices", 2**max_ground - 2, DEFAULT_MAX_CLIQUE_VERTICES)


@_timed(check=_t1_refusals)
def verify_t1_table(max_ground: int = 5) -> SuiteReport:
    """The T1 powerset-lattice invariant table over small ground sets.

    The graph is empty for one point (so clique and chromatic number are 0;
    the counting law starts at two points), a single edge for two, and has
    diameter 3, girth 3, clique = chromatic = ground size from three up,
    where the lattice is reducible.
    """
    rep = SuiteReport("t1-lattice")
    inf = float("inf")
    for k in range(1, max_ground + 1):
        L = powerset_lattice(k)
        b = t1_invariants(L)
        if k == 1:
            expected = (0, inf, 0, 0)
        elif k == 2:
            expected = (1, inf, 2, 2)
        else:
            expected = (3, 3, k, k)
        irreducible = k >= 3 and lattice_is_irreducible(L)
        rep.add(
            f"ground-{k}",
            b.as_tuple() == expected and not irreducible,
            f"(diam, gir, clq, chi) = {b.as_tuple()}, expected {expected}"
            + ("; irreducible, expected reducible" if irreducible else ""),
        )
    return rep


def _charirrconn_refusals(max_ground: int) -> None:
    if max_ground < 1:
        raise _checked_nothing("charirrconn")
    guard("powerset points", max_ground, DEFAULT_MAX_POWERSET_GROUND)


@_timed(check=_charirrconn_refusals)
def verify_charirrconn(max_ground: int = 4) -> SuiteReport:
    """Graph characterizations of irreducible/connected on the powerset of
    each small ground set, the only finite T1 lattice (every subset is a
    finite union of closed singletons)."""
    rep = SuiteReport("charirrconn")
    for n in range(1, max_ground + 1):
        r = char_check_irr_conn(powerset_lattice(n))
        rep.add(
            f"ground-{n}",
            r.passed,
            f"irreducible {r.irreducible} <=> every pair on a 2-path {r.every_pair_has_2path}; "
            f"connected {r.connected} <=> every edge on a 3-cycle {r.every_edge_in_3cycle}"
            + ("" if r.vertex_set_matches else "; vertices are not the proper members"),
        )
    return rep


# the window of the symbolic lattice whose nonempty members are walked in
# ordered pairs: the subsets of {0..5}
SYMBOLIC_WINDOW = 6
# the largest clique witness the symbolic-lattice suite builds
SYMBOLIC_MAX_CLIQUE = 100


@_timed
def verify_symbolic_lattice() -> SuiteReport:
    """Constructive witnesses for the symbolic irreducible T1 lattice."""
    rep = SuiteReport("symbolic-lattice")
    C = CofiniteT1Lattice()
    a, bb, mid = C.distance2_witness()
    rep.add(
        "distance-2-pair",
        bool(a & bb) and not (a & mid) and not (bb & mid),
        f"{list(members(a))} and {list(members(bb))} meet; "
        f"both disjoint from {list(members(mid))}",
    )
    triangle = C.triangle_witness()
    ok = _pairwise_disjoint(triangle)
    rep.add("girth-3-triangle", ok, "three disjoint singletons" if ok
            else f"{[list(members(A)) for A in triangle]} are not pairwise disjoint")
    bad = None
    for n in range(2, SYMBOLIC_MAX_CLIQUE + 1):
        sets = C.clique_witness(n)
        if len(sets) != n or not _pairwise_disjoint(sets):
            bad = (n, [list(members(A)) for A in sets])
            break
    rep.add("clique-witnesses", bad is None,
            f"pairwise-disjoint cliques for n = 2..{SYMBOLIC_MAX_CLIQUE}"
            + (f"; failure at n = {bad[0]}: {bad[1]}" if bad else ""))
    pairs = list(itertools.product(range(1, 1 << SYMBOLIC_WINDOW), repeat=2))
    walked = f"{len(pairs)} ordered pairs of nonempty members of {{0..{SYMBOLIC_WINDOW - 1}}}"
    clashes = 0
    for u, v in pairs:
        cu, cv = C.choice_colour(u), C.choice_colour(v)
        if not (u >> cu & 1 and v >> cv & 1):
            clashes += 1
        elif not (u & v) and u != v and cu == cv:
            clashes += 1
    rep.add("choice-colouring", clashes == 0, f"{walked}, {clashes} clashes")
    apart = None
    for u, v in pairs:
        w = (u | v).bit_length()  # the least window covering both
        if bool(u & v) != bool(C.restrict(u, w) & C.restrict(v, w)):
            apart = (u, v)
            break
    rep.add("window-adjacency", apart is None,
            f"{walked}: symbolic meets agree on covering windows"
            + (f"; not on {[list(members(x)) for x in apart]}" if apart else ""))
    return rep


def _pairwise_disjoint(sets) -> bool:
    """Nonempty, and disjoint iff the union counts every set's points once."""
    union = functools.reduce(operator.or_, sets, 0)
    return all(sets) and union.bit_count() == sum(A.bit_count() for A in sets)


def _ring_side_closed_sets(R) -> set[int]:
    """Zariski closed sets from ideal data: V(I) as bitmasks over the primes."""
    primes = prime_ideals(R)
    return {
        sum(1 << i for i, P in enumerate(primes) if not I & ~P)
        for I in enumerate_ideals(R)
    }


# at most this many maximal points in each fan's second window, split evenly
# among its families
FAN_WINDOW_TOTAL_MAX = 8


def _specs_refusals(max_points: int) -> None:
    if max_points < 0:  # at 0 the empty poset is checked
        raise _checked_nothing("specs")
    guard("poset points", max_points, DEFAULT_MAX_POSET_POINTS)


@_timed(check=_specs_refusals)
def verify_specs(max_points: int = 5) -> SuiteReport:
    """The spectral-poset theorem across all small posets and both fans.

    Every check depends only on the isomorphism class of the poset, so it
    runs once per class; the count is the number of labelled posets, the
    sum of the orbits, up to and including the first class that fails.
    """
    rep = SuiteReport("specs")
    for n in range(max_points + 1):
        count = 0
        bad = None
        for P, orbit in enumerate_posets(n):
            count += orbit
            result = specs_theorem_suite(P)
            if not result.passed:
                bad = (P.to_json(), [p.name for p in result.parts if not p.passed])
                break
        rep.add(
            f"posets-{n}",
            bad is None,
            f"{count} posets checked" + (f"; failure: {bad}" if bad else ""),
        )

    for fan, name in (
        (fan_shared(1), "fan-shared-1"),
        (fan_shared(2), "fan-shared-2"),
        (fan_disjoint(2), "fan-disjoint-2"),
        (fan_disjoint(3), "fan-disjoint-3"),
    ):
        per_family = max(1, FAN_WINDOW_TOTAL_MAX // fan.families)
        result = specs_theorem_suite(fan, windows=(2, per_family))
        rep.add(
            name,
            result.passed,
            "; ".join(f"{p.name}={'ok' if p.passed else 'FAIL'}" for p in result.parts),
        )

    # cross-module: poset route equals the ring-ideal route on Spec
    for spec in ("Zn:30", "Zn:12", "prod:Zn:2,Zn:2,Zn:3", "gf:9"):
        R = ring_from_spec(spec)
        P = spec_poset(R)
        # primes of a finite ring form an antichain, so the poset lattice is
        # the full powerset of the primes; the V(I) sets from ideal data
        # must produce exactly the same family
        expected = set(range(1 << P.n))
        ring_sets = _ring_side_closed_sets(R)
        lattice_size = sigma_spec(P).size
        rep.add(
            f"ring-crosscheck {spec}",
            ring_sets == expected
            and lattice_size == len(expected)
            and specs_theorem_suite(P).passed,
            f"{len(ring_sets)} Zariski-closed sets match the poset lattice",
        )
    return rep


def _content_refusals(degree: int, max_order: int) -> None:
    check_degree(degree)
    if max_order < 2:  # no reduced ring is walked
        raise _checked_nothing("content")


@_timed(check=_content_refusals)
def verify_content(degree: int = 2, max_order: int = 9) -> SuiteReport:
    """Content-map checks over every reduced ring of small order."""
    rep = SuiteReport("content")
    for R in small_reduced_rings_for_content(max_order):
        result = check_armendariz_ring(R, degree)
        rep.add(
            f"armendariz {R.tag}",
            result.passed,
            f"{result.pairs_checked} pairs" + (f"; witness {result.witness}" if result.witness else ""),
        )
    for spec in ("Zn:6", "prod:Zn:2,Zn:2"):
        R = ring_from_spec(spec)
        st = clique_stabilization(R, 1)
        rep.add(
            f"clique-stabilization {spec}",
            st.passed and st.base_clique == 2 and st.base_chromatic == 2,
            f"base (clq, chi) = ({st.base_clique}, {st.base_chromatic}); per degree {st.per_degree}",
        )
    return rep


@_timed
def verify_comaximal() -> SuiteReport:
    """The ideals-under-addition graph for the three landmark rings."""
    rep = SuiteReport("comaximal")
    inf = float("inf")

    R6 = make_zn(6)
    G6 = comaximal_ideal_graph(R6)
    b6 = invariant_bundle(G6)
    rep.add(
        "Zn:6-single-edge",
        set(G6.vertices) == {"(2)", "(3)"} and len(G6.edges) == 1 and b6.diameter == 1,
        f"vertices {sorted(G6.vertices)}, (diam, gir, clq, chi) = {b6.as_tuple()}",
    )

    G4 = comaximal_ideal_graph(make_zn(4))
    rep.add("Zn:4-empty", G4.n == 0, f"{G4.n} vertices (local ring)")

    R30 = make_zn(30)
    b30 = invariant_bundle(comaximal_ideal_graph(R30))
    jac = jacobson_radical(R30)
    nmax = len(maximal_ideals(R30))
    expected = (3, 3, 3, 3)
    got = (b30.chromatic, b30.clique, b30.girth, b30.diameter)
    rep.add(
        "Zn:30-invariants",
        got == expected and not is_ideal_prime(R30, jac) and nmax == 3,
        f"(chi, clq, gir, diam) = {got}; Jac = {ideal_label(R30, jac)} "
        f"not prime; |Max| = {nmax}",
    )
    return rep


# the implication arrows between the separation axioms, each with its test
_ARROWS = (
    ("T1 => T1/2", lambda ax: ax.t_half or not ax.t1),
    ("T1/2 => T0", lambda ax: ax.t0 or not ax.t_half),
    ("T1/2 => pearled", lambda ax: ax.pearled or not ax.t_half),
    ("Noetherian T0 => pearled", lambda ax: ax.pearled or not (ax.noetherian and ax.t0)),
)


def _pearled_refusals(max_points: int) -> None:
    if max_points < 1:
        raise _checked_nothing("pearled")
    guard("topology points", max_points, DEFAULT_MAX_TOPOLOGY_POINTS)


@_timed(check=_pearled_refusals)
def verify_pearled(max_points: int = 4) -> SuiteReport:
    """The separation-axiom counterexamples and the implication arrows."""
    rep = SuiteReport("pearled")

    sierpinski = make_space(["a", "b"], [0b00, 0b10, 0b11])
    ax = axiom_suite(sierpinski)
    rep.add(
        "sierpinski",
        ax.t_half and not ax.t1,
        f"T1/2 = {ax.t_half}, T1 = {ax.t1}",
    )

    three = make_space(["a", "b", "c"], [0b000, 0b100, 0b111])
    ax = axiom_suite(three)
    rep.add(
        "three-point",
        ax.pearled and not ax.t0,
        f"pearled = {ax.pearled}, T0 = {ax.t0}",
    )

    window = n0_space_window(5)
    # each step (n, m) says [m, inf) is a proper nonempty subset of [n, inf)
    step = next(((n, m) for n, m in window.proper_chain if not n < m), None)
    rep.add(
        "naturals-window",
        window.t0_on_window and not window.pearled and step is None,
        window.certificate + (f"; chain step {step} is not proper" if step else ""),
    )

    # the axioms are invariant under relabelling: one check per class,
    # counted with its orbit
    violations = 0
    count = 0
    first = None
    for n in range(1, max_points + 1):
        for X, orbit in enumerate_topologies(n):
            count += orbit
            ax = axiom_suite(X)
            broken = next((arrow for arrow, holds in _ARROWS if not holds(ax)), None)
            if broken:
                violations += orbit
                first = first or (X.to_json(), broken)
    rep.add(
        "implication-arrows",
        not violations,
        f"{count} topologies on <= {max_points} points, {violations} violations"
        + (f"; first: {first}" if first else ""),
    )
    return rep


SUITES: dict[str, Callable[..., SuiteReport]] = {
    "triangle-point": verify_triangle_vs_point,
    "armendariz": verify_armendariz,
    "ag-conjecture": verify_ag_girth,
    "t1-lattice": verify_t1_table,
    "charirrconn": verify_charirrconn,
    "symbolic-lattice": verify_symbolic_lattice,
    "specs": verify_specs,
    "content": verify_content,
    "comaximal": verify_comaximal,
    "pearled": verify_pearled,
}
