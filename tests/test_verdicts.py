"""Planted defects: a broken theorem is a FAIL item with its witness.

Each defect patches a library function where the library calls it (never
the name a suite imported), so it reaches the suite through the real path.
The item it breaks must then FAIL with the evidence in its details, and
``zdgraph verify`` must exit 2 with a report, not a traceback.
"""

import dataclasses
import json

import numpy as np
import pytest

from zdgraph import cli, graphs, rings, semigroups, spectra, topology
from zdgraph.corpus import enumerate_topologies
from zdgraph.graphs import SimpleGraph
from zdgraph.semigroups import SemigroupMap, SemigroupTable
from zdgraph.topology import CofiniteT1Lattice, NotPearled, is_t1, prl


def verify(capsys, suite, *flags) -> dict[str, dict]:
    """Run ``verify <suite>`` in process; it must exit 2 with a JSON report."""
    assert cli.main(["verify", suite, *flags, "--json"]) == 2
    return {item["name"]: item for item in json.loads(capsys.readouterr().out)["items"]}


def test_t1_table_reports_a_wrong_bundle(monkeypatch, capsys):
    real = topology.invariant_bundle

    def chi_plus_one(G, **kwargs):
        b = real(G, **kwargs)
        return dataclasses.replace(b, chromatic=b.chromatic + 1)

    monkeypatch.setattr(topology, "invariant_bundle", chi_plus_one)
    items = verify(capsys, "t1-lattice")
    assert not items["ground-4"]["passed"]
    assert items["ground-4"]["details"] == (
        "(diam, gir, clq, chi) = (3, 3, 4, 5), expected (3, 3, 4, 4)")


def test_t1_table_reports_an_irreducible_lattice(monkeypatch, capsys):
    # lattice_is_irreducible answers True: its family test is patched
    monkeypatch.setattr(topology, "is_irreducible_family", lambda family, whole: True)
    items = verify(capsys, "t1-lattice")
    assert items["ground-1"]["passed"] and items["ground-2"]["passed"]
    assert not items["ground-3"]["passed"]
    assert items["ground-3"]["details"] == (
        "(diam, gir, clq, chi) = (3, 3, 3, 3), expected (3, 3, 3, 3); "
        "irreducible, expected reducible")


def test_charirrconn_reports_a_broken_equivalence(monkeypatch, capsys):
    real = topology.lattice_is_connected
    monkeypatch.setattr(topology, "lattice_is_connected", lambda L: not real(L))
    items = verify(capsys, "charirrconn")
    assert not any(item["passed"] for item in items.values())
    assert items["ground-3"]["details"] == (
        "irreducible False <=> every pair on a 2-path False; "
        "connected True <=> every edge on a 3-cycle False")


def test_pearled_names_the_first_class_and_arrow(monkeypatch, capsys):
    # every closure is the whole ground set: T1/2 holds on the discrete
    # space, T0 fails from two points up
    monkeypatch.setattr(topology, "closure", lambda X, A: (1 << X.n) - 1)
    items = verify(capsys, "pearled")
    assert items["sierpinski"]["passed"] and items["three-point"]["passed"]
    arrows = items["implication-arrows"]
    assert not arrows["passed"]
    (X, _), = [(X, o) for X, o in enumerate_topologies(2) if len(X.closed_sets) == 4]
    assert arrows["details"].endswith(f"; first: {(X.to_json(), 'T1/2 => T0')}")


@pytest.mark.parametrize("method,witness,item,details", [
    ("distance2_witness", (0b1, 0b11, 0b110), "distance-2-pair",
     "[0] and [0, 1] meet; both disjoint from [1, 2]"),
    ("triangle_witness", (0b1, 0b11, 0b100), "girth-3-triangle",
     "[[0], [0, 1], [2]] are not pairwise disjoint"),
])
def test_symbolic_lattice_reports_overlapping_witnesses(
        method, witness, item, details, monkeypatch, capsys):
    monkeypatch.setattr(CofiniteT1Lattice, method, lambda self: witness)
    items = verify(capsys, "symbolic-lattice")
    assert not items[item]["passed"]
    assert items[item]["details"] == details


def test_symbolic_lattice_reports_an_overlapping_clique(monkeypatch, capsys):
    C = CofiniteT1Lattice()
    assert all(len(C.clique_witness(n)) == n for n in range(101))
    # a module-level range shadows the builtin and repeats 0: the witness for
    # n = 2 becomes {0}, {0}, {1}
    monkeypatch.setattr(topology, "range", lambda *args: [0, *range(*args)], raising=False)
    items = verify(capsys, "symbolic-lattice")
    assert not items["clique-witnesses"]["passed"]
    assert items["clique-witnesses"]["details"] == (
        "pairwise-disjoint cliques for n = 2..100; failure at n = 2: [[0], [0], [1]]")


def test_symbolic_lattice_walks_every_pair_of_the_window(monkeypatch, capsys):
    # colour 0 clashes on the 3969 - 32 * 32 ordered pairs of nonempty subsets
    # of {0..5} that do not both hold 0; a window one point short loses the
    # meet of {0} with itself
    monkeypatch.setattr(CofiniteT1Lattice, "choice_colour", lambda self, member: 0)
    monkeypatch.setattr(CofiniteT1Lattice, "restrict",
                        lambda self, member, w: member & ((1 << w - 1) - 1))
    items = verify(capsys, "symbolic-lattice")
    assert items["choice-colouring"]["details"] == (
        "3969 ordered pairs of nonempty members of {0..5}, 2945 clashes")
    assert items["window-adjacency"]["details"] == (
        "3969 ordered pairs of nonempty members of {0..5}: symbolic meets agree on "
        "covering windows; not on [[0], [0]]")
    assert not items["choice-colouring"]["passed"] and not items["window-adjacency"]["passed"]


def test_pearled_reports_a_broken_naturals_chain(monkeypatch, capsys):
    real = topology.N0WindowReport

    def looped(**fields):
        return real(**{**fields, "proper_chain": fields["proper_chain"] + ((3, 3),)})

    monkeypatch.setattr(topology, "N0WindowReport", looped)
    items = verify(capsys, "pearled")
    assert not items["naturals-window"]["passed"]
    assert items["naturals-window"]["details"].endswith("; chain step (3, 3) is not proper")
    assert items["implication-arrows"]["passed"]


FANS = ("fan-shared-1", "fan-shared-2", "fan-disjoint-2", "fan-disjoint-3")


def _fan_verdicts(items) -> dict[str, str]:
    return {name: items[name]["details"] for name in FANS}


def test_specs_reports_a_wrong_meet_position(monkeypatch, capsys):
    real = spectra.meet_table

    def top_meets_itself_in_zero(points, masks):
        T = real(points, masks)
        P = T.product.copy()
        if len(masks) >= 3:
            P[-1, -1] = T.zero
        return SemigroupTable(T.elements, T.zero, P)

    monkeypatch.setattr(spectra, "meet_table", top_meets_itself_in_zero)
    items = verify(capsys, "specs")
    assert items["posets-1"]["passed"] and not items["posets-2"]["passed"]
    assert items["posets-2"]["details"] == (
        """1 posets checked; failure: ('{"points": ["p0", "p1"], "leq": []}', """
        "['two-maximal-cases'])")
    assert all(d.endswith("window-oracle-agreement=FAIL") for d in _fan_verdicts(items).values())


def test_specs_reports_a_flipped_disjointness_test(monkeypatch, capsys):
    real = spectra.fan_disjoint_q
    monkeypatch.setattr(spectra, "fan_disjoint_q", lambda a, b: not real(a, b))
    items = verify(capsys, "specs")
    assert items["posets-5"]["passed"]
    for details in _fan_verdicts(items).values():
        assert details.startswith("clique-chromatic-count=FAIL; three-plus-alexandroff=FAIL")


def test_specs_checks_each_window_and_judges_each_size(monkeypatch, capsys):
    # fan-disjoint-3 asks for w = 2 twice: each distinct window is built once
    real, built = spectra._window_holds, []
    monkeypatch.setattr(spectra, "_window_holds",
                        lambda fan, w: built.append((fan.shape, fan.size, w)) or real(fan, w))
    assert cli.main(["verify", "specs", "--json"]) == 0
    capsys.readouterr()
    assert built == [("shared", 1, 2), ("shared", 1, 8), ("shared", 2, 2), ("shared", 2, 8),
                     ("disjoint", 2, 2), ("disjoint", 2, 4), ("disjoint", 3, 2)]
    # a window that fails only past w = 2 fails the fans that check one;
    # the verdict at w = 2 is not reused for it
    monkeypatch.setattr(spectra, "_window_holds", lambda fan, w: w == 2)
    items = verify(capsys, "specs")
    verdicts = _fan_verdicts(items)
    assert [d.endswith("window-oracle-agreement=FAIL") for d in verdicts.values()] == [
        True, True, True, False]


def test_specs_runs_both_sides_of_each_size_switch(monkeypatch, capsys):
    # meet tables look meets up unless the lookup array would outgrow the
    # table; graphs from 33 vertices on are packed, smaller ones listed
    tables, bisections, built, listed = [], [], [], []
    real_meets, real_search = semigroups.meet_table, np.searchsorted
    real_build, real_list = graphs._zero_product_graph, SimpleGraph.from_edges
    monkeypatch.setattr(spectra, "meet_table", lambda *a: tables.append(1) or real_meets(*a))
    monkeypatch.setattr(np, "searchsorted", lambda *a: bisections.append(1) or real_search(*a))
    monkeypatch.setattr(graphs, "_zero_product_graph",
                        lambda labels, zero: built.append(len(labels)) or real_build(labels, zero))
    monkeypatch.setattr(SimpleGraph, "from_edges",
                        staticmethod(lambda v, e: listed.append(len(v)) or real_list(v, e)))
    assert cli.main(["verify", "specs", "--json"]) == 0
    capsys.readouterr()
    assert 0 < len(bisections) < len(tables)
    assert sorted(listed) == sorted(n for n in built if n < graphs._MATRIX_VERTICES)
    assert max(built) >= graphs._MATRIX_VERTICES


def test_specs_reports_chromatic_below_clique(monkeypatch, capsys):
    real = spectra.invariant_bundle

    def chi_minus_one(G, *args, **kwargs):
        b = real(G, *args, **kwargs)
        return dataclasses.replace(b, chromatic=b.chromatic - 1)

    monkeypatch.setattr(spectra, "invariant_bundle", chi_minus_one)
    items = verify(capsys, "specs")
    assert not items["posets-0"]["passed"]
    assert items["posets-2"]["details"] == (
        """1 posets checked; failure: ('{"points": ["p0", "p1"], "leq": []}', """
        "['clique-chromatic-count'])")


def test_armendariz_reports_chromatic_below_clique(monkeypatch, capsys):
    # χ - 1 on every graph keeps source and target equal: χ ≥ ω fails them
    real = graphs.invariant_bundle

    def chi_minus_one(G, *args, **kwargs):
        b = real(G, *args, **kwargs)
        return dataclasses.replace(b, chromatic=b.chromatic - 1)

    monkeypatch.setattr(graphs, "invariant_bundle", chi_minus_one)
    items = verify(capsys, "armendariz")
    assert items["corpus-size"]["passed"] and not items["six-laws-hold"]["passed"]
    assert items["six-laws-hold"]["details"] == (
        "10436 maps, 10436 failures; first: ('eq-quotient Zn:6', "
        "[('chromatic-equal', 'chromatic source=1 target=1; chromatic below clique')])")


def test_armendariz_reports_a_map_that_is_not_armendariz(monkeypatch, capsys):
    # the corpus reads alpha_map where topology defines it, at each call
    real = topology.alpha_map

    def to_zero(X):
        g = real(X)
        return SemigroupMap(g.source, g.target, (g.target.zero,) * g.source.size)

    monkeypatch.setattr(topology, "alpha_map", to_zero)
    items = verify(capsys, "armendariz")
    assert items["corpus-size"]["passed"] and not items["six-laws-hold"]["passed"]
    # the 61 quotients pass; the run ends at the first alpha map, on one point
    assert items["six-laws-hold"]["details"] == (
        """62 maps, 1 failures; first: ('alpha map of {"points": ["a"], "closed": [[], [0]]}', """
        "'map is not Armendariz: ArmendarizReport(surjective=False, "
        "zero_preserving_reflecting=False, product_zero_equiv=False, surjective_witness=1, "
        "zero_witness=1, product_witness=(1, 1))')")


def test_armendariz_reports_a_quotient_ring_that_is_not_reduced(monkeypatch, capsys):
    # the corpus reads is_reduced where rings defines it, at each call
    real = rings.is_reduced
    monkeypatch.setattr(rings, "is_reduced", lambda R: R.tag != "Zn:10" and real(R))
    items = verify(capsys, "armendariz")
    assert items == {"corpus-size": {
        "name": "corpus-size", "passed": False,
        "details": "no corpus: Zn:10 from reduced_rings_up_to is not reduced"}}


def test_specs_reports_a_missing_common_neighbour(monkeypatch, capsys):
    monkeypatch.setattr(spectra, "fan_common_neighbor", lambda a, b, spec_mode=True: None)
    items = verify(capsys, "specs")
    verdicts = _fan_verdicts(items)
    for name in ("fan-shared-1", "fan-shared-2"):
        assert "jacobson-prime-diam2=FAIL" in verdicts[name]
        assert not items[name]["passed"]
    for name in ("fan-disjoint-2", "fan-disjoint-3"):  # reducible: no distance-2 witness
        assert "FAIL" not in verdicts[name] and items[name]["passed"]
    part, = [p for p in spectra.specs_theorem_suite(spectra.fan_shared(1)).parts
             if p.name == "jacobson-prime-diam2"]
    assert not part.passed
    assert part.details == (
        "generic up-sets contain all maximals (non-vertices): True; "
        "witness pair ({m0.0}, {m0.0,m0.1}) at distance 3; any two Zariski zero divisors "
        "are finite, with the index past both as a common neighbour")


def test_the_closed_points_of_a_pearled_space_form_a_t1_space():
    pearled = 0
    for n in range(1, 7):
        for X, _ in enumerate_topologies(n):
            try:
                Y = prl(X)
            except NotPearled:
                continue
            pearled += 1
            assert is_t1(Y), X.to_json()
    assert pearled == 639
