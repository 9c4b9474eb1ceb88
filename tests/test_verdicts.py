"""Planted defects: a broken theorem is a FAIL item with its witness.

Each defect patches a library function where the library calls it (never
the name a suite imported), so it reaches the suite through the real path.
The item it breaks must then FAIL with the evidence in its details, and
``zdgraph verify`` must exit 2 with a report, not a traceback.

``symbolic-lattice``'s ``symbolic-bundle`` item compares a constant with
itself, so no defect can flip it: README names it a certificate.
"""

import dataclasses
import json

import pytest

from zdgraph import cli, topology
from zdgraph.corpus import enumerate_topologies
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


def test_pearled_reports_a_broken_naturals_chain(monkeypatch, capsys):
    real = topology.N0WindowReport

    def looped(**fields):
        return real(**{**fields, "proper_chain": fields["proper_chain"] + ((3, 3),)})

    monkeypatch.setattr(topology, "N0WindowReport", looped)
    items = verify(capsys, "pearled")
    assert not items["naturals-window"]["passed"]
    assert items["naturals-window"]["details"].endswith("; chain step (3, 3) is not proper")
    assert items["implication-arrows"]["passed"]


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
