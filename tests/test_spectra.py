import math

import pytest
from hypothesis import assume, given, settings, strategies as st

import relation_oracles as ro
from zdgraph import spectra
from relation_oracles import (
    fan_empty, fan_intersect, fan_least_maximal, fan_restrict_to_window, fan_whole,
    is_max_irreducible,
)
from table_oracles import mask
from zdgraph.graphs import invariant_bundle, zero_divisor_graph
from zdgraph.rings import make_zn, spec_poset
from zdgraph.semigroups import SizeGuardExceeded, check_armendariz, members
from zdgraph.spectra import (
    MAX_FAN_GENERICS,
    FanPoset,
    FinitePoset,
    InvalidPoset,
    fan_cofinite,
    fan_common_neighbor,
    fan_disjoint,
    fan_disjoint_q,
    fan_distance,
    fan_fin,
    fan_from_spec,
    fan_is_empty,
    fan_is_zero_divisor,
    fan_max_irreducible,
    fan_shared,
    fan_union,
    fan_v_generic,
    fan_v_max,
    fan_window_poset,
    is_spec_form,
    max_points,
    restrict_to_max,
    sigma_spec,
    specs_theorem_suite,
    upset_masks,
    uspec_sigma,
)

INF = math.inf


def bundle(P):
    """The invariants of Γ of the closed-set lattice of P, with the
    chromatic guard at Γ's order, as the specs suite sets it."""
    G = zero_divisor_graph(sigma_spec(P))
    return invariant_bundle(G, max_chromatic_vertices=G.n)


def antichain(n):
    return FinitePoset(tuple(f"m{i}" for i in range(n)), tuple(1 << i for i in range(n)))


def chain2():
    return FinitePoset(("p", "m"), (0b11, 0b10))


def test_poset_validation():
    with pytest.raises(InvalidPoset):
        FinitePoset(("a", "b"), (0b11, 0b11))  # not antisymmetric
    with pytest.raises(InvalidPoset):
        FinitePoset(("a",), (0,))  # not reflexive


def test_poset_json_round_trip():
    P = chain2()
    assert FinitePoset.from_json(P.to_json()) == P
    assert P.to_json() == '{"points": ["p", "m"], "leq": [[0, 1]]}'


def test_sigma_spec_antichain():
    t = sigma_spec(antichain(3))
    assert t.size == 8  # all subsets
    assert t.elements[t.zero] == "{}"


def test_sigma_spec_chain_gamma_empty():
    t = sigma_spec(chain2())
    assert t.elements == ("{}", "{m}", "{p,m}")
    assert zero_divisor_graph(t).n == 0


def test_uspec_equals_sigma_on_finite_posets():
    for P in (antichain(3), chain2(), antichain(1)):
        assert set(uspec_sigma(P).elements) == set(sigma_spec(P).elements)


def test_restrict_to_max_is_armendariz():
    for P in (antichain(3), chain2()):
        assert check_armendariz(restrict_to_max(P)).is_armendariz


def test_max_irreducibility():
    assert not is_max_irreducible(antichain(3))
    assert is_max_irreducible(chain2())  # single maximal point


def test_specs_suite_two_maximal_below_both():
    # one nonmaximal point under both maximals: diameter 1, girth inf
    leq = (0b111, 0b010, 0b100)
    P = FinitePoset(("p", "m1", "m2"), leq)
    rep = specs_theorem_suite(P)
    assert rep.passed
    assert bundle(P).as_tuple()[:2] == (1, INF)


def test_specs_suite_two_maximal_separated():
    # p1 under m1 only, p2 under m2 only: diameter 2, girth 4
    leq = (0b0101, 0b1010, 0b0100, 0b1000)  # bit j of row i: i <= j
    P = FinitePoset(("p1", "p2", "m1", "m2"), leq)
    rep = specs_theorem_suite(P)
    assert rep.passed
    assert bundle(P).as_tuple()[:2] == (2, 4)


def test_specs_suite_three_antichain():
    rep = specs_theorem_suite(antichain(3))
    assert rep.passed
    assert len(max_points(antichain(3))) == 3 and not rep.max_irreducible
    assert bundle(antichain(3)).as_tuple() == (3, 3, 3, 3)


def test_specs_suite_from_ring():
    assert specs_theorem_suite(spec_poset(make_zn(30))).passed
    assert specs_theorem_suite(spec_poset(make_zn(4))).passed


def test_fan_from_spec():
    assert fan_from_spec("fan:generics=1;sharing=all") == fan_shared(1)
    assert fan_from_spec("fan:disjoint=2") == fan_disjoint(2)
    with pytest.raises(InvalidPoset):
        fan_from_spec("fan:sharing=none")


def test_fan_descriptor_algebra():
    fan = fan_shared(1)
    v = fan_v_generic(fan, 0)
    assert v == fan_whole(fan)  # single generic under all maximals
    a = fan_v_max(fan, 0, 0)
    b = fan_v_max(fan, 0, 1)
    assert fan_disjoint_q(a, b)
    assert fan_is_empty(fan_intersect(a, b))
    assert fan_union(a, b) == fan_fin(fan, 0, {0, 1})
    assert not fan_is_zero_divisor(fan_whole(fan))
    assert fan_is_zero_divisor(a)
    assert not fan_is_zero_divisor(fan_empty(fan))


def test_fan_generic_forces_families():
    fan = fan_disjoint(2)
    v0 = fan_v_generic(fan, 0)
    assert v0.parts[0] == ~mask(frozenset()) and v0.parts[1] == mask(frozenset())


def test_a_fan_is_its_shape_and_size():
    assert fan_shared(3) == FanPoset("shared", 3)
    assert (fan_shared(3).families, fan_shared(3).generics) == (1, (1, 1, 1))
    assert (fan_disjoint(3).families, fan_disjoint(3).generics) == (3, (1, 2, 4))
    with pytest.raises(InvalidPoset, match="^unknown fan shape 'mixed'$"):
        FanPoset("mixed", 2)
    for shape in ("shared", "disjoint"):
        for size in (0, -1):
            with pytest.raises(InvalidPoset, match="^fan needs at least one family and one generic$"):
                FanPoset(shape, size)


def test_cofinite_is_uspec_only():
    fan = fan_shared(1)
    d = fan_cofinite(fan, 0, {0})
    assert not is_spec_form(d)
    assert fan_is_zero_divisor(d)
    assert is_spec_form(fan_v_max(fan, 0, 3))
    assert is_spec_form(fan_whole(fan))


def test_fan_distances():
    fan = fan_shared(1)
    a = fan_v_max(fan, 0, 0)
    b = fan_fin(fan, 0, {0, 1})
    assert fan_distance(a, a) == 0
    assert fan_distance(a, fan_v_max(fan, 0, 5)) == 1
    assert fan_distance(a, b) == 2
    A = fan_cofinite(fan, 0, {0})
    C = fan_fin(fan, 0, {0, 1})
    assert fan_distance(A, C, spec_mode=False) == 3
    assert fan_common_neighbor(A, C, spec_mode=False) is None


def test_fan_distance_requires_vertices():
    fan = fan_shared(1)
    with pytest.raises(ValueError):
        fan_distance(fan_whole(fan), fan_v_max(fan, 0, 0))


def test_fan_max_irreducibility():
    assert fan_max_irreducible(fan_shared(1))[0]
    assert fan_max_irreducible(fan_shared(3))[0]
    reducible, witness = fan_max_irreducible(fan_disjoint(2))
    assert not reducible and witness is not None


def test_fan_window_poset():
    fan = fan_disjoint(2)
    P = fan_window_poset(fan, 2)
    assert P.n == 6  # 2 generics + 4 maximals
    assert len(max_points(P)) == 4
    d = fan_v_generic(fan, 0)
    trace = fan_restrict_to_window(d, 2)
    assert trace == ro.window_mask({("g", 0), ("m", 0, 0), ("m", 0, 1)}, fan, 2)


def test_fan_search_is_guarded_before_it_runs(monkeypatch):
    def refuse(*args):
        raise AssertionError("the search ran")

    over = MAX_FAN_GENERICS + 1
    with monkeypatch.context() as m:
        m.setattr(spectra, "itertools", type("NoSearch", (), {"combinations": refuse}))
        for fan in (fan_shared(over), fan_disjoint(over)):
            for run in (fan_max_irreducible, specs_theorem_suite):
                with pytest.raises(SizeGuardExceeded, match=f"^{over} fan generics exceed guard 16$"):
                    run(fan)
    assert fan_max_irreducible(fan_shared(MAX_FAN_GENERICS)) == (True, None)
    assert not fan_max_irreducible(fan_disjoint(MAX_FAN_GENERICS))[0]


@pytest.mark.parametrize("k", range(1, MAX_FAN_GENERICS + 1))
def test_fan_irreducibility_matches_the_search(k):
    for fan in (fan_shared(k), fan_disjoint(k)):
        assert fan_max_irreducible(fan) == ro.fan_irreducible_by_search(fan)


def test_window_upset_count_matches_the_tally():
    for k in range(1, MAX_FAN_GENERICS + 1):
        for fan in (fan_shared(k), fan_disjoint(k)):
            for w in range(9):
                assert spectra.fan_window_upset_count(fan, w) == ro.fan_window_upset_tally(fan, w)


# ---------------------------------------------------------------------------
# The mask fan algebra against the (tag, frozenset) algebra it replaced

FANS = [fan_shared(k) for k in (1, 2, 3)] + [fan_disjoint(k) for k in (1, 2, 3)]


@st.composite
def set_descriptors(draw, fan, spec_mode):
    """A valid (tag, frozenset) descriptor of ``fan``; in spec mode a Zariski
    one: no exclusions, and every full family licensed."""
    gens = draw(st.frozensets(st.integers(0, len(fan.generics) - 1), max_size=2))
    forced = set().union(*(ro.families_of(fan, g) for g in gens))
    points = st.frozensets(st.integers(0, 12), max_size=4)
    parts = []
    for j in range(fan.families):
        kind = "full" if j in forced else draw(st.sampled_from(["fin", "cof", "full"]))
        if kind == "full":
            parts.append(ro.FULL_PART)
        elif kind == "cof" and not spec_mode:
            parts.append((ro.COF, draw(points)))
        else:
            parts.append((ro.FIN, draw(points)))
    d = ro.SetFanClosedSet(fan, tuple(parts), gens)
    assume(not spec_mode or ro.set_is_spec_form(d))
    return d


@st.composite
def descriptor_pairs(draw):
    fan = draw(st.sampled_from(FANS))
    spec_mode = draw(st.booleans())
    return (fan, spec_mode, draw(set_descriptors(fan, spec_mode)),
            draw(set_descriptors(fan, spec_mode)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(descriptor_pairs())
def test_mask_fan_algebra_matches_the_set_algebra(case):
    fan, spec_mode, a, b = case
    A, B = ro.mask_descriptor(a), ro.mask_descriptor(b)
    for d, D in ((a, A), (b, B)):
        assert ro.set_descriptor(D) == d
        assert D.describe() == d.describe()
        assert is_spec_form(D) == ro.set_is_spec_form(d)
        assert fan_least_maximal(D) == ro.set_least_maximal(d)
        assert fan_is_empty(D) == ro.set_is_empty(d)
        assert fan_is_zero_divisor(D) == ro.set_is_zero_divisor(d)
        for w in (1, 2, 3):
            assert fan_restrict_to_window(D, w) == ro.window_mask(
                ro.set_restrict_to_window(d, w), fan, w)
    assert ro.set_descriptor(fan_intersect(A, B)) == ro.set_intersect(a, b)
    assert ro.set_descriptor(fan_union(A, B)) == ro.set_union(a, b)
    got = fan_common_neighbor(A, B, spec_mode)
    assert (got and ro.set_descriptor(got)) == ro.set_common_neighbor(a, b, spec_mode)
    if fan_is_zero_divisor(A) and fan_is_zero_divisor(B):
        assert fan_distance(A, B, spec_mode) == ro.set_distance(a, b, spec_mode)


def _walk_window(fan):
    """The widest window, up to 4, with at most 150 descriptors of ``fan``."""
    return max(w for w in range(1, 5)
               if sum(1 for _ in ro.window_set_descriptors(fan, w)) <= 150)


@pytest.mark.parametrize("fan", FANS, ids=lambda fan: f"{fan.shape}-{fan.size}")
def test_the_fan_certificates_hold_on_every_pair_of_a_window(fan):
    """The three fan checks the specs suite leaves out, on every ordered
    pair of descriptors of a window, against the set algebra: the
    least-maximal colouring is proper, a fan of one family has Zariski
    diameter 2 with the index past both as a common neighbour, and window
    traces commute with meets and joins."""
    window = _walk_window(fan)
    sets = list(ro.window_set_descriptors(fan, window))
    masks = [ro.mask_descriptor(d) for d in sets]
    colours, traces = [], []
    for d, D in zip(sets, masks):
        colour = fan_least_maximal(D)
        if ro.set_is_empty(d):
            assert colour is None
        else:  # a maximal point of the set
            assert not ro.set_disjoint_q(ro.set_v_max(fan, *colour), d)
        colours.append(colour)
        traces.append([fan_restrict_to_window(D, w) for w in range(window + 1)])
        for w in range(window + 1):
            assert traces[-1][w] == ro.window_mask(ro.set_restrict_to_window(d, w), fan, w)
    vertices = [ro.set_is_zero_divisor(d) for d in sets]
    zariski = [v and ro.set_is_spec_form(d) for d, v in zip(sets, vertices)]
    rows = list(zip(sets, masks, colours, traces, vertices, zariski))
    for a, A, colour_a, trace_a, vertex_a, zariski_a in rows:
        for b, B, colour_b, trace_b, vertex_b, zariski_b in rows:
            if vertex_a and vertex_b and a != b and ro.set_disjoint_q(a, b):
                assert colour_a != colour_b, (a.describe(), b.describe())
            if fan.families == 1 and zariski_a and zariski_b:
                (tag_a, points_a), (tag_b, points_b) = a.parts[0], b.parts[0]
                assert tag_a == tag_b == ro.FIN and points_a and points_b
                past = ro.set_v_max(fan, 0, max(points_a | points_b) + 1)
                assert ro.set_disjoint_q(past, a) and ro.set_disjoint_q(past, b)
                assert fan_distance(A, B) <= 2
            meet, join = fan_intersect(A, B), fan_union(A, B)
            for w in range(window + 1):
                assert fan_restrict_to_window(meet, w) == trace_a[w] & trace_b[w] == (
                    ro.window_mask(ro.set_restrict_to_window(ro.set_intersect(a, b), w), fan, w))
                assert fan_restrict_to_window(join, w) == trace_a[w] | trace_b[w] == (
                    ro.window_mask(ro.set_restrict_to_window(ro.set_union(a, b), w), fan, w))


def test_window_traces_are_closed_sets_of_the_window_poset():
    for fan in FANS:
        for w in (1, 2, 3):
            P = fan_window_poset(fan, w)
            closed = set(upset_masks(P.leq))
            for d in ro.window_set_descriptors(fan, w + 1):
                trace = fan_restrict_to_window(ro.mask_descriptor(d), w)
                keys = ro.set_restrict_to_window(d, w)
                labels = {f"g{k[1]}" if k[0] == "g" else f"m{k[1]}.{k[2]}" for k in keys}
                assert {P.points[p] for p in members(trace)} == labels
                assert trace in closed


def test_fan_suites_pass():
    assert specs_theorem_suite(fan_shared(1)).passed
    assert specs_theorem_suite(fan_shared(2)).passed
    assert specs_theorem_suite(fan_disjoint(2)).passed
    assert specs_theorem_suite(fan_disjoint(3)).passed


def test_max_restriction_through_invariant_suite():
    # cross-module: the restriction map of a two-maximal poset satisfies
    # all six invariant-preservation laws
    from zdgraph.graphs import armendariz_invariant_suite

    leq = (0b0101, 0b1010, 0b0100, 0b1000)  # bit j of row i: i <= j
    P = FinitePoset(("p1", "p2", "m1", "m2"), leq)
    rep = armendariz_invariant_suite(restrict_to_max(P))
    assert rep.passed
    assert rep.source_invariants.girth == 4
    assert rep.girth4_pattern_vertex or rep.girth4_pattern_edge


def test_fan_suite_reports_expected_parts():
    rep = specs_theorem_suite(fan_shared(1))
    names = {p.name: p for p in rep.parts}
    assert names["jacobson-prime-diam2"].applies
    assert not names["jacobson-nonprime-diam3"].applies
    rep2 = specs_theorem_suite(fan_disjoint(2))
    names2 = {p.name: p for p in rep2.parts}
    assert names2["jacobson-nonprime-diam3"].applies
    assert not names2["jacobson-prime-diam2"].applies


def test_specs_suite_enumerates_upsets_once_per_poset(monkeypatch):
    import zdgraph.spectra as spectra
    from relation_oracles import enumerate_posets

    calls = []

    def counting(rel):
        calls.append(len(rel))
        return upset_masks(rel)

    monkeypatch.setattr(spectra, "upset_masks", counting)
    posets = [P for n in range(5) for P in enumerate_posets(n)]
    assert all(specs_theorem_suite(P).passed for P in posets)
    assert len(calls) == len(posets) == 1 + 1 + 3 + 19 + 219
    calls.clear()
    assert specs_theorem_suite(fan_disjoint(2), windows=(2, 3)).passed
    assert len(calls) == 2  # one per window


def _fans_with_small_windows():
    """Every fan and window width w >= 1 with at most 16 window points."""
    for k in range(1, 16):
        for w in range(1, 17 - k):
            yield fan_shared(k), w
        for w in range(1, 16 // k):
            yield fan_disjoint(k), w


def test_window_upset_count_matches_the_enumeration():
    cases = list(_fans_with_small_windows())
    assert len(cases) == 120 + (15 + 7 + 4 + 3 + 2 + 1 + 1 + 1)
    for fan, w in cases:
        P = fan_window_poset(fan, w)
        assert P.n <= 16
        assert spectra.fan_window_upset_count(fan, w) == len(upset_masks(P.leq))


@pytest.mark.parametrize("fan,counts", [
    (fan_shared(12), (4099, 4103)), (fan_shared(16), (65539, 65543)),
    (fan_disjoint(5), (3125, 59049)), (fan_disjoint(16), (5**16, 9**16)),
])
def test_windows_over_the_skip_are_never_enumerated(monkeypatch, fan, counts):
    monkeypatch.setattr(spectra, "upset_masks", lambda rows: pytest.fail("enumerated"))
    rep = specs_theorem_suite(fan)
    assert rep.passed
    (window,) = [p for p in rep.parts if p.name == "window-oracle-agreement"]
    assert window.details.endswith(
        f"(w=2 skipped ({counts[0]} closed sets), w=3 skipped ({counts[1]} closed sets))")


def test_specs_suite_builds_one_graph_per_finite_poset(monkeypatch):
    import zdgraph.spectra as spectra
    from relation_oracles import enumerate_posets

    built = []

    def counting(S):
        built.append(S)
        return zero_divisor_graph(S)

    monkeypatch.setattr(spectra, "zero_divisor_graph", counting)
    for P in (P for n in range(5) for P in enumerate_posets(n)):
        built.clear()
        report = specs_theorem_suite(P)
        assert report.passed
        assert built == [sigma_spec(P)], P


def test_zero_divisor_count_is_the_order_of_gamma():
    from zdgraph.corpus import enumerate_posets

    posets = [P for n in range(7) for P, _ in enumerate_posets(n)]
    assert len(posets) == 1 + 1 + 2 + 5 + 16 + 63 + 318
    for P in posets:
        count = spectra._zero_divisor_count(P, upset_masks(P.leq))
        assert count == zero_divisor_graph(sigma_spec(P)).n, P


def test_specs_suite_trips_the_clique_guard_before_any_table(monkeypatch):
    # 7 incomparable points give 2^7 - 2 = 126 vertices, under the guard
    assert specs_theorem_suite(antichain(7)).passed
    assert bundle(antichain(7)).clique == 7
    monkeypatch.setattr(spectra, "meet_table", lambda *a: pytest.fail("built a meet table"))
    # every up-set but the empty set and the whole set is a vertex
    for n in (8, 12):
        with pytest.raises(SizeGuardExceeded,
                           match=f"^{2**n - 2} clique-solver vertices exceed guard 200$"):
            specs_theorem_suite(antichain(n))
