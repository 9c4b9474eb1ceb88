"""Isomorph-free enumeration of posets, preorders and closed families.

``enumerate_posets`` and ``enumerate_topologies`` yield one representative
per isomorphism class with its orbit n!/|Aut|.  Expanding every orbit under
all n! relabellings must give exactly the labelled sets of the filtering
enumerators kept in ``relation_oracles``; the orbits must sum to the
labelled counts, and the suites must give each labelled object the verdict
of its representative.
"""

import dataclasses
import itertools
import math
import random

import pytest

import relation_oracles
import zdgraph.corpus as corpus
from relation_oracles import random_poset, random_space
import zdgraph.suites as suites
from zdgraph.corpus import (
    _canonical_form,
    enumerate_posets,
    enumerate_topologies,
)
from zdgraph.graphs import SuitePart, invariant_bundle, zero_divisor_graph
from zdgraph.semigroups import SizeGuardExceeded
from zdgraph.spectra import FinitePoset, max_points, sigma_spec, specs_theorem_suite
from zdgraph.topology import axiom_suite, powerset_lattice

A000112 = [1, 1, 2, 5, 16, 63, 318, 2045]          # posets, unlabelled
A001035 = [1, 1, 3, 19, 219, 4231, 130023, 6129859]  # posets, labelled
A001930 = [1, 1, 3, 9, 33, 139, 718]               # topologies, unlabelled
A000798 = [1, 1, 4, 29, 355, 6942, 209527]         # topologies, labelled


def _relabel(rows, perm):
    """The rows of a relation after point i is renamed perm[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        out[perm[i]] = sum(1 << perm[j] for j in range(len(rows)) if row >> j & 1)
    return tuple(out)


def _rows_of_space(X):
    """The specialization preorder of a space: bit j of row i when i lies in
    the closure of j, the least closed set holding j."""
    closure = [min((C for C in X.closed_sets if C >> j & 1), key=int.bit_count)
               for j in range(X.n)]
    return tuple(sum(1 << j for j in range(X.n) if closure[j] >> i & 1) for i in range(X.n))


# ---------------------------------------------------------------------------
# Counts


def test_poset_classes_and_orbits_match_oeis():
    classes = [list(enumerate_posets(n)) for n in range(8)]
    assert [len(c) for c in classes] == A000112
    assert [sum(orbit for _, orbit in c) for c in classes] == A001035


def test_topology_classes_and_orbits_match_oeis():
    classes = [list(enumerate_topologies(n)) for n in range(7)]
    assert [len(c) for c in classes] == A001930
    assert [sum(orbit for _, orbit in c) for c in classes] == A000798


def test_guards_trip_before_any_work(monkeypatch):
    for enumerate_, what, n in ((enumerate_posets, "poset", 8),
                                (enumerate_topologies, "topology", 7)):
        with pytest.raises(SizeGuardExceeded, match=f"{n} {what} points exceed guard {n - 1}"):
            next(enumerate_(n))

    def no_work(n):
        raise AssertionError("enumeration started above the guard")

    monkeypatch.setattr(suites, "enumerate_posets", no_work)
    monkeypatch.setattr(suites, "enumerate_topologies", no_work)
    monkeypatch.setattr(suites, "powerset_lattice", no_work)
    for suite, message in (
        (lambda: suites.verify_specs(max_points=8), "8 poset points exceed guard 7"),
        (lambda: suites.verify_pearled(max_points=7), "7 topology points exceed guard 6"),
        (lambda: suites.verify_charirrconn(max_ground=11), "11 powerset points exceed guard 10"),
        (lambda: suites.verify_t1_table(max_ground=11), "11 powerset points exceed guard 10"),
        # Γ of the 8-point powerset has 2^8 - 2 vertices
        (lambda: suites.verify_t1_table(max_ground=8),
         "254 clique-solver vertices exceed guard 200"),
    ):
        with pytest.raises(SizeGuardExceeded, match=f"^{message}$"):
            suite()


def test_each_level_is_built_once(monkeypatch):
    calls = []

    def counting(rows):
        calls.append(rows)
        return _canonical_form(rows)

    corpus._relation_classes.cache_clear()
    monkeypatch.setattr(corpus, "_canonical_form", counting)
    assert suites.verify_specs(max_points=5).passed
    extensions = {ext for n in range(5)
                  for rows, _ in corpus._relation_classes(n, preorders=False)
                  for ext in corpus._extensions(rows, False)}
    assert len(calls) == len(set(calls)) == len(extensions)
    assert set(calls) == extensions
    # the next enumeration of any level up to 5 canonicalises nothing
    calls.clear()
    assert [len(list(enumerate_posets(n))) for n in range(6)] == A000112[:6]
    assert calls == []


# ---------------------------------------------------------------------------
# Orbits against the labelled oracles


@pytest.mark.parametrize("n", range(6))
def test_poset_orbits_are_the_labelled_posets(n):
    perms = list(itertools.permutations(range(n)))
    expanded = set()
    for P, orbit in enumerate_posets(n):
        orbit_rows = {_relabel(P.leq, p) for p in perms}
        assert len(orbit_rows) == orbit
        assert not orbit_rows & expanded
        expanded |= orbit_rows
    assert expanded == {P.leq for P in relation_oracles.enumerate_posets(n)}


@pytest.mark.parametrize("n", range(5))
def test_topology_orbits_are_the_labelled_topologies(n):
    perms = list(itertools.permutations(range(n)))
    expanded = set()
    for X, orbit in enumerate_topologies(n):
        family = {
            frozenset(sum(1 << p[i] for i in range(n) if C >> i & 1) for C in X.closed_sets)
            for p in perms
        }
        assert len(family) == orbit
        assert not family & expanded
        expanded |= family
    assert expanded == {
        frozenset(X.closed_sets) for X in relation_oracles.enumerate_topologies(n)
    }


def test_representatives_are_canonical_and_ascending():
    for enumerate_, top, rows_of in ((enumerate_posets, 6, lambda P: P.leq),
                                     (enumerate_topologies, 5, _rows_of_space)):
        for n in range(top + 1):
            forms = [rows_of(obj) for obj, _ in enumerate_(n)]
            assert forms == sorted(forms)
            for rows in forms:
                assert _canonical_form(rows)[0] == rows


def test_canonical_form_is_labelling_free_and_counts_automorphisms():
    rng = random.Random(41)
    relations = [random_poset(rng, rng.randint(0, 6)).leq for _ in range(40)]
    relations += [_rows_of_space(random_space(rng, rng.randint(0, 6))) for _ in range(40)]
    for rows in relations:
        n = len(rows)
        form, ties = _canonical_form(rows)
        perms = list(itertools.permutations(range(n)))
        assert ties == sum(_relabel(rows, p) == rows for p in perms)
        for p in rng.sample(perms, min(len(perms), 5)):
            assert _canonical_form(_relabel(rows, p)) == (form, ties)


# ---------------------------------------------------------------------------
# Verdicts are class invariants


def _specs_summary(P):
    r = specs_theorem_suite(P)
    return (r.passed, len(max_points(P)), r.max_irreducible,
            [(p.name, p.applies, p.passed) for p in r.parts],
            invariant_bundle(zero_divisor_graph(sigma_spec(P))).as_tuple())


def test_specs_verdicts_of_representatives_are_the_labelled_verdicts():
    for n in range(5):
        reps = {P.leq: _specs_summary(P) for P, _ in enumerate_posets(n)}
        for P in relation_oracles.enumerate_posets(n):
            assert _specs_summary(P) == reps[_canonical_form(P.leq)[0]]


def test_axiom_verdicts_of_representatives_are_the_labelled_verdicts():
    for n in range(5):
        reps = {_rows_of_space(X): axiom_suite(X) for X, _ in enumerate_topologies(n)}
        for X in relation_oracles.enumerate_topologies(n):
            assert axiom_suite(X) == reps[_canonical_form(_rows_of_space(X))[0]]


# ---------------------------------------------------------------------------
# Failure paths: the first failing class, counted with the orbits before it


def test_specs_reports_the_first_failing_class(monkeypatch):
    def planted(P, **kwargs):
        result = specs_theorem_suite(P, **kwargs)
        if isinstance(P, FinitePoset) and P.n == 4 and len(max_points(P)) == 2:
            part = SuitePart("planted", True, False, "")
            return dataclasses.replace(result, parts=result.parts + (part,))
        return result

    monkeypatch.setattr(suites, "specs_theorem_suite", planted)
    report = suites.verify_specs(max_points=4)
    items = {i.name: i for i in report.items}
    assert all(items[f"posets-{n}"].passed for n in range(4))
    count = 0
    for P, orbit in enumerate_posets(4):
        count += orbit
        if not planted(P).passed:
            break
    assert not items["posets-4"].passed
    assert items["posets-4"].details == (
        f"{count} posets checked; failure: {(P.to_json(), ['planted'])}"
    )
    assert count < A001035[4]


def test_pearled_counts_violations_by_orbit(monkeypatch):
    def planted(X):
        ax = axiom_suite(X)
        if X.n == 3 and len(X.closed_sets) == 4:
            return dataclasses.replace(ax, t1=True, t_half=False)
        return ax

    monkeypatch.setattr(suites, "axiom_suite", planted)
    report = suites.verify_pearled(max_points=4)
    want = sum(orbit for X, orbit in enumerate_topologies(3) if len(X.closed_sets) == 4)
    assert want > 0
    item = report.items[-1]
    assert not item.passed
    first = next(X for X, _ in enumerate_topologies(3) if len(X.closed_sets) == 4)
    assert item.details == (f"389 topologies on <= 4 points, {want} violations; "
                            f"first: {(first.to_json(), 'T1 => T1/2')}")


# ---------------------------------------------------------------------------
# T1 sublattices: the filter oracle finds the powerset and nothing else


@pytest.mark.parametrize("n", range(5))
def test_the_t1_sublattice_is_the_powerset(n):
    (L,) = relation_oracles.enumerate_t1_sublattices(n)
    assert L.closed_sets == powerset_lattice(n).closed_sets


def test_t1_sublattices_match_the_filter():
    for n in range(1, 5):
        got = [L.closed_sets for L in relation_oracles.enumerate_t1_sublattices(n)]
        assert got == [powerset_lattice(n).closed_sets]
    L = powerset_lattice(7)
    assert len(L.closed_sets) == 2 ** 7 and math.comb(7, 3) == sum(m.bit_count() == 3 for m in L.closed_sets)
