"""The ideal index against the frozenset routines it replaced.

``ideal_oracles`` holds those routines.  Enumeration order, labels and both
ideal semigroup tables must be equal on every ring-analyze benchmark
presentation, on Z_720, on Z_4 x Z_9 x Z_5 x Z_7 and on F_2[a..e] modulo
every quadratic monomial (375 ideals).
"""

import functools
import itertools
import random
import re
import time

import numpy as np
import pytest

import ideal_oracles as oracle
from table_oracles import record_calls
from zdgraph import rings, semigroups
from zdgraph.cli import main
from zdgraph.corpus import reduced_rings_up_to, small_reduced_rings_for_content
from zdgraph.polynomials import check_content_containment, check_gaussian
from zdgraph.rings import (
    FiniteRing,
    IdealIndex,
    ag_conjecture_check,
    enumerate_ideals,
    ideal_index,
    ideal_label,
    ideal_semigroup,
    is_reduced,
    jacobson_radical,
    make_zn,
    maximal_ideals,
    minimal_primes,
    prime_ideals,
    ring_from_spec,
    spec_poset,
)
from zdgraph.semigroups import SizeGuardExceeded


def square_zero_spec(n):
    """F_2 in n variables modulo every quadratic monomial: m^2 = 0, dim m = n."""
    vs = "abcdefg"[:n]
    rel = [a + b if a != b else a + "2" for a, b in itertools.combinations_with_replacement(vs, 2)]
    return f"mvq:p=2;vars={','.join(vs)};rel={','.join(rel)}"


BIG = oracle.BIG
SQ5 = square_zero_spec(5)
SPECS = oracle.ring_analyze_specs() + ["Zn:720", BIG, SQ5]
X2Y2Z2 = "mvq:p=2;vars=x,y,z;rel=x2,y2,z2"  # 47 ideals
X2Y2Z2_XYZ = "mvq:p=2;vars=x,y,z;rel=x2,y2,z2,xyz"  # 46 ideals


ring = oracle.cached_ring


@functools.cache
def oracle_ideals(spec):
    return oracle.enumerate_ideals(ring(spec))


@pytest.mark.parametrize("spec", SPECS)
def test_enumeration_and_labels_match_oracle(spec):
    R = ring(spec)
    ideals = enumerate_ideals(R)
    assert ideals == [oracle.mask(I) for I in oracle_ideals(spec)]
    assert [ideal_label(R, I) for I in ideals] == [oracle.ideal_label(R, oracle.ideal_set(I))
                                                   for I in ideals]


@pytest.mark.parametrize("operation", ["add", "mult"])
@pytest.mark.parametrize("spec", SPECS)
def test_semigroup_tables_match_oracle(spec, operation):
    R = ring(spec)
    sg = ideal_semigroup(R, operation)
    ideals = oracle_ideals(spec)
    assert sg.ideals == tuple(oracle.mask(I) for I in ideals)
    P = sg.table.product
    assert np.array_equal(P, P.T)
    # P is symmetric, so the 375-ideal ring is compared above the diagonal only
    upper = spec == SQ5
    want = oracle.semigroup_table(R, ideals, operation, upper_only=upper)
    got = [[x if j >= i or not upper else -1 for j, x in enumerate(row)]
           for i, row in enumerate(sg.table.product)]
    assert got == want
    assert sg.table.elements == tuple(oracle.ideal_label(R, I) for I in ideals)
    absorbing = frozenset({R.zero}) if operation == "mult" else frozenset(range(R.size))
    assert ideals[sg.table.zero] == absorbing


def _factors(spec):
    parts = []
    for chunk in spec[len("prod:"):].split(","):
        if parts and ":" not in chunk:
            parts[-1] += "," + chunk
        else:
            parts.append(chunk)
    return [ring_from_spec(p) for p in parts]


@pytest.mark.parametrize("spec", [s for s in SPECS if s.startswith("prod:")])
def test_make_product_matches_cell_builder(spec):
    R = ring(spec)
    labels, add, mul, zero, one = oracle.product_tables(_factors(spec))
    assert (R.labels, R.zero, R.one) == (labels, zero, one)
    assert np.array_equal(R.add, add) and np.array_equal(R.mul, mul)
    assert R.add.dtype == R.mul.dtype == np.int64
    assert all(type(x) is int for x in (R.zero, R.one))


def test_sums_and_products_of_any_ideals():
    R = ring("mvq:p=2;vars=x,y,z;rel=x2,y2,z2,xyz")
    ideals = oracle_ideals("mvq:p=2;vars=x,y,z;rel=x2,y2,z2,xyz")
    for I, J in itertools.product(ideals[::3], ideals[::4]):
        I_, J_ = oracle.mask(I), oracle.mask(J)
        assert oracle.index_sum(R, I_, J_) == oracle.mask(oracle.ideal_sum(R, I, J))
        assert oracle.index_product(R, I_, J_) == oracle.mask(oracle.ideal_product(R, I, J))
    assert all(oracle.index_principal(R, a) == oracle.mask(oracle.principal_ideal(R, a))
               for a in range(R.size))


def test_non_ideal_is_rejected():
    R = make_zn(6)
    with pytest.raises(ValueError, match="not an ideal"):
        ideal_label(R, oracle.mask({0, 1}))


def test_index_is_shared_and_principal_ideals_come_first():
    R = make_zn(12)
    T = ideal_index(R)
    assert ideal_index(R) is T
    p = len({oracle.principal_ideal(R, a) for a in range(R.size)})
    assert len(T.ideals) == p  # no sum has been asked for yet
    for a in range(R.size):
        assert T.ideals[T.principal[a]] == oracle.mask(oracle.principal_ideal(R, a))
    for k in range(p):  # a principal ideal's generator is its least one
        assert T.gens[k] == (min(a for a in range(R.size) if T.principal[a] == k),)


def _sets(ideals):
    """Program ideal masks as the oracles' frozensets."""
    return [oracle.ideal_set(I) for I in ideals]


def _masks(ideals):
    """The oracles' frozensets as program ideal masks."""
    return [oracle.mask(I) for I in ideals]


def _same_primes_as_oracles(R, ideals):
    assert prime_ideals(R, ideals) == _masks(oracle.prime_ideals(R, _sets(ideals)))
    assert maximal_ideals(R, ideals) == _masks(oracle.maximal_ideals(R, _sets(ideals)))
    assert minimal_primes(R, ideals) == _masks(oracle.minimal_primes(R, _sets(ideals)))
    assert jacobson_radical(R, ideals) == oracle.mask(oracle.jacobson_radical(R, _sets(ideals)))


def test_primes_of_zn_match_oracles():
    for n in range(1, 65):
        R = make_zn(n)
        _same_primes_as_oracles(R, enumerate_ideals(R))
        assert prime_ideals(R) == _masks(oracle.prime_ideals(R, _sets(enumerate_ideals(R))))


@pytest.mark.parametrize("spec", oracle.ring_analyze_specs())
def test_primes_of_the_catalog_match_oracles(spec):
    R = ring(spec)
    _same_primes_as_oracles(R, enumerate_ideals(R))
    assert jacobson_radical(R) == oracle.mask(
        oracle.jacobson_radical(R, _sets(enumerate_ideals(R))))


@pytest.mark.parametrize("spec", ["Zn:210", "prod:Zn:4,Zn:2,Zn:3", X2Y2Z2_XYZ, BIG])
def test_primes_of_ideals_given_before_the_index_closes(spec):
    # a fresh ring: its index has only the principal ideals when the list
    # comes in, in an order of its own, and the answers keep that order
    ideals = _masks(oracle.enumerate_ideals(ring(spec)))
    random.Random(spec).shuffle(ideals)
    R = ring_from_spec(spec)
    _same_primes_as_oracles(R, ideals)
    part = ideals[::3]
    assert prime_ideals(R, part) == maximal_ideals(R, part) == _masks(
        oracle.prime_ideals(R, _sets(part)))


def test_primes_never_test_products(monkeypatch):
    def refuse(R, I):
        raise AssertionError("is_ideal_prime called")

    monkeypatch.setattr(rings, "is_ideal_prime", refuse)
    for spec in ("Zn:210", "prod:gf:4,gf:5,gf:7", X2Y2Z2):
        R = ring_from_spec(spec)
        assert prime_ideals(R) == minimal_primes(R) == maximal_ideals(R)
        assert len(spec_poset(R).points) == len(prime_ideals(R))
        ag_conjecture_check(R)


def test_each_ideal_is_labelled_once(monkeypatch, capsys):
    found = []
    find = IdealIndex._find_label
    monkeypatch.setattr(IdealIndex, "_find_label",
                        lambda self, k: found.append(k) or find(self, k))
    assert main(["analyze", "--ring", X2Y2Z2, "--tasks", "ideals,ag-check", "--json"]) == 0
    assert sorted(found) == list(range(47))  # the ideals task and the ideal semigroup


def test_one_analyze_closes_the_lattice_once(monkeypatch, capsys):
    fills = []
    fill = IdealIndex._fill
    monkeypatch.setattr(IdealIndex, "_fill", lambda self, k: fills.append(k) or fill(self, k))
    assert main(["analyze", "--ring", X2Y2Z2, "--tasks", "ideals,ag-check", "--json"]) == 0
    assert sorted(fills) == list(range(47))  # one join row per ideal, each filled once


VALIDATE_ZN12 = """{
  "object": "Zn:12",
  "version": "0.1.0",
  "elapsed_s": null,
  "results": {
    "validate": {
      "ok": true,
      "law": null,
      "witness": null,
      "nilpotent_free": false
    }
  }
}
"""


def test_only_the_validate_task_checks_ring_laws(monkeypatch, capsys):
    laws = record_calls(monkeypatch, rings, "_ring_laws_hold")
    tables = record_calls(monkeypatch, semigroups, "validate_semigroup")
    for spec in oracle.workload_ring_specs():
        ring_from_spec(spec)
    R = _fresh(ring(X2Y2Z2))
    for operation in ("add", "mult"):
        ideal_semigroup(R, operation)
    assert not laws and not tables
    assert main(["analyze", "--ring", "Zn:12", "--tasks", "validate", "--json"]) == 0
    out = re.sub(r'"elapsed_s": [0-9.]+', '"elapsed_s": null', capsys.readouterr().out, count=1)
    assert out == VALIDATE_ZN12 and len(laws) == 1


def test_close_sorts_once_and_checks_the_guard_on_every_call(monkeypatch):
    index = IdealIndex(_fresh(ring(X2Y2Z2)))
    order = index.close()
    assert [index.ideals[k] for k in order] == _masks(oracle.enumerate_ideals(ring(X2Y2Z2)))
    fills = []
    fill = IdealIndex._fill
    monkeypatch.setattr(IdealIndex, "_fill", lambda self, k: fills.append(k) or fill(self, k))
    monkeypatch.setattr(rings, "sorted", lambda *a, **k: pytest.fail("sorted again"),
                        raising=False)
    order.reverse()  # the caller's list is its own
    assert index.close() == index.close(47) == order[::-1]
    with pytest.raises(SizeGuardExceeded, match="^47 ideals exceed guard 46$"):
        index.close(max_ideals=46)
    with pytest.raises(SizeGuardExceeded, match="^2 ideals exceed guard 1$"):
        index.close(max_ideals=1)  # the lower bound, checked first
    assert index.close() == order[::-1] and not fills


def test_ideal_semigroups_of_375_ideal_ring_are_fast():
    R = ring_from_spec(SQ5)
    t0 = time.perf_counter()
    add, mult = ideal_semigroup(R, "add"), ideal_semigroup(R, "mult")
    assert time.perf_counter() - t0 < 5.0  # 9.9 s with one sum or product per pair
    assert len(add.ideals) == len(mult.ideals) == 375


# ---------------------------------------------------------------------------
# The ideal guard


def _fresh(R):
    """The same ring as a new object, so with no ideal index yet."""
    return FiniteRing(R.labels, R.add, R.mul, R.zero, R.one, R.tag)


def test_guard_counts_principal_ideals():
    Z720 = ring("Zn:720")
    with pytest.raises(SizeGuardExceeded, match="30 ideals exceed guard 29"):
        enumerate_ideals(_fresh(Z720), max_ideals=29)  # all 30 are principal
    assert len(enumerate_ideals(_fresh(Z720), max_ideals=30)) == 30
    R = _fresh(Z720)
    assert len(enumerate_ideals(R)) == 30
    with pytest.raises(SizeGuardExceeded, match="30 ideals exceed guard 29"):
        enumerate_ideals(R, max_ideals=29)  # also once the index is closed


def _no_traceback(capsys, message):
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_cli_ideals_guard_counts_principal_ideals(capsys):
    assert main(["analyze", "--ring", "Zn:12", "--tasks", "ideals", "--max-ideals", "5",
                 "--json"]) == 1
    _no_traceback(capsys, "6 ideals exceed guard 5")
    assert main(["analyze", "--ring", "Zn:12", "--tasks", "ideals", "--max-ideals", "6",
                 "--json"]) == 0


@pytest.mark.parametrize("argv", [
    ["analyze", "--ring", X2Y2Z2, "--tasks", "ag-check", "--max-ideals", "20"],
    ["analyze", "--ring", X2Y2Z2, "--tasks", "ideals", "--max-ideals", "20"],
])
def test_cli_ag_check_honours_ideal_guard(argv, capsys):
    assert main(argv) == 1
    _no_traceback(capsys, "24 ideals exceed guard 20")


@pytest.mark.parametrize("graph", ["ag", "comaximal"])
def test_cli_export_honours_ideal_guard_env(graph, capsys, monkeypatch):
    monkeypatch.setenv("ZDGRAPH_MAX_IDEALS", "20")
    assert main(["export", "--ring", X2Y2Z2, "--graph", graph, "--format", "json"]) == 1
    _no_traceback(capsys, "24 ideals exceed guard 20")
    monkeypatch.setenv("ZDGRAPH_MAX_IDEALS", "47")
    assert main(["export", "--ring", X2Y2Z2, "--graph", graph, "--format", "json"]) == 0


def test_ag_conjecture_check_takes_the_guard():
    R = ring_from_spec(X2Y2Z2)
    with pytest.raises(SizeGuardExceeded):
        ag_conjecture_check(R, max_ideals=46)
    assert ag_conjecture_check(R, max_ideals=47).girth == 3


SQ7 = square_zero_spec(7)  # 256 elements, 29,213 ideals


def test_seven_variable_guard_trips_before_the_work(capsys):
    R = ring_from_spec(SQ7)
    t0 = time.perf_counter()
    with pytest.raises(SizeGuardExceeded, match="29212 ideals exceed guard 10000"):
        enumerate_ideals(R)
    assert time.perf_counter() - t0 < 1.0  # 20.9 s when it tripped after closing
    assert len(ideal_index(R).ideals) == 129  # only the principal ideals were made
    assert main(["analyze", "--ring", SQ7, "--tasks", "ideals", "--json"]) == 1
    _no_traceback(capsys, "29212 ideals exceed guard 10000")


@pytest.mark.parametrize("n,count", [(1, 3), (2, 6), (3, 17), (4, 68), (5, 375)])
def test_lower_bound_is_exact_on_square_zero_rings(n, count):
    # every ideal but R lies in the socle m, and every subspace of m is an ideal
    R = ring_from_spec(square_zero_spec(n))
    assert rings._ideal_count_lower_bound(R) == count - 1
    assert len(enumerate_ideals(R)) == count


def test_lower_bound_never_exceeds_ideal_count():
    corpus = ([ring(s) for s in SPECS] + reduced_rings_up_to(60)
              + small_reduced_rings_for_content(9)
              + [make_zn(n) for n in range(1, 65)]
              + [ring_from_spec(s) for s in ("mvq:p=3;vars=x;rel=x3", "mvq:p=2;vars=x,y;rel=x3,y2",
                                             "prod:Zn:4,mvq:p=2;vars=x,y;rel=x2,xy,y2",
                                             "polyquot:p=3;mod=0,0,1", "gf:16")])
    for R in corpus:
        bound, count = rings._ideal_count_lower_bound(R), len(enumerate_ideals(R))
        assert 0 < bound <= count, R.tag
        if is_reduced(R):  # a product of k fields: 2^k ideals, 2 per factor
            assert bound == count, R.tag
    assert rings._ideal_count_lower_bound(ring_from_spec("gf:16")) == 2
    assert rings._ideal_count_lower_bound(make_zn(8)) == 2  # socle (4) is one line
    assert rings._ideal_count_lower_bound(make_zn(6)) == 4  # F_2 x F_3
    assert rings._ideal_count_lower_bound(make_zn(1)) == 1  # the zero ring has no factor
    assert rings._ideal_count_lower_bound(make_zn(72)) == 2 * 2  # Z_8 x Z_9: one line each


def test_non_local_guard_trips_before_any_join_row(monkeypatch):
    R = ring_from_spec("prod:Zn:2," + SQ5)  # 2 * 375 ideals, bound 2 * G_5(2) = 748
    assert rings._ideal_count_lower_bound(R) == 748
    fills = []
    fill = IdealIndex._fill
    monkeypatch.setattr(IdealIndex, "_fill", lambda self, k: fills.append(k) or fill(self, k))
    with pytest.raises(SizeGuardExceeded, match="748 ideals exceed guard 700"):
        enumerate_ideals(R, max_ideals=700)
    assert fills == []
    assert len(enumerate_ideals(R, max_ideals=750)) == 750


def _no_label(self, k):
    raise AssertionError("a label was built before the table guard")


def test_ideal_semigroup_checks_the_table_guard_before_enumerating(monkeypatch):
    R = ring_from_spec("prod:Zn:2," + square_zero_spec(6))  # 5,652 ideals, bound 5,650
    fills = []
    fill = IdealIndex._fill
    monkeypatch.setattr(IdealIndex, "_fill", lambda self, k: fills.append(k) or fill(self, k))
    monkeypatch.setattr(IdealIndex, "label", _no_label)
    for operation in ("mult", "add"):
        with pytest.raises(SizeGuardExceeded, match="5650 table elements exceed guard 4096"):
            ideal_semigroup(R, operation)
    assert fills == []


def test_ideal_semigroup_checks_the_table_guard_before_any_label(monkeypatch):
    # Z_8 has 4 ideals and the bound 2: the count trips a table guard of 3
    monkeypatch.setattr(IdealIndex, "label", _no_label)
    with pytest.raises(SizeGuardExceeded, match="4 table elements exceed guard 3"):
        ideal_semigroup(make_zn(8), "mult", max_table=3)


@pytest.mark.parametrize("argv, env", [
    (["analyze", "--tasks", "ag-check", "--max-table", "10"], "4096"),
    (["export", "--graph", "ag"], "10"),
    (["export", "--graph", "comaximal"], "10"),
])
def test_cli_ideal_semigroup_honours_the_table_guard(argv, env, capsys, monkeypatch):
    # the flag beats the environment, which export reads alone
    monkeypatch.setenv("ZDGRAPH_MAX_TABLE", env)
    assert main(argv[:1] + ["--ring", X2Y2Z2_XYZ] + argv[1:]) == 1
    _no_traceback(capsys, "16 table elements exceed guard 10")  # the lower bound


def test_cli_ag_check_table_guard_counts_the_ideals(capsys):
    argv = ["analyze", "--ring", X2Y2Z2_XYZ, "--tasks", "ag-check", "--max-table"]
    assert main(argv + ["45"]) == 1
    _no_traceback(capsys, "46 table elements exceed guard 45")
    assert main(argv + ["46"]) == 0


@pytest.mark.parametrize("argv", [
    ["export", "--graph", "ag"],
    ["export", "--graph", "comaximal"],
    ["analyze", "--tasks", "ag-check", "--max-ideals", "10000"],
])
def test_cli_ideal_semigroup_over_the_table_guard_fails_fast(argv, capsys):
    spec = "prod:Zn:2," + square_zero_spec(6)
    t0 = time.perf_counter()
    assert main(argv[:1] + ["--ring", spec] + argv[1:]) == 1
    assert time.perf_counter() - t0 < 1.0  # 33 s when validate_semigroup tripped
    _no_traceback(capsys, "5650 table elements exceed guard 4096")


@pytest.mark.parametrize("check", [check_gaussian, check_content_containment])
def test_pair_checks_never_close_the_index(check):
    R = ring_from_spec(SQ7)
    assert check(R, 0).passed
    assert len(ideal_index(R).ideals) < 10000
    with pytest.raises(SizeGuardExceeded):
        enumerate_ideals(R)


def test_fresh_and_lazily_filled_indexes_agree():
    # an index first filled by the content checks closes to the same ideals
    R = ring_from_spec(square_zero_spec(4))
    check_gaussian(R, 1)
    fresh = IdealIndex(R)
    want = _masks(oracle.enumerate_ideals(R))
    assert enumerate_ideals(R) == [fresh.ideals[k] for k in fresh.close()] == want
