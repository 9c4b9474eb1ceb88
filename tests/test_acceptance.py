"""Acceptance suite: each structural criterion at its stated tolerance.

Every test runs one criterion end to end, enforces its time budget, and
prints a single pass/fail line (visible with ``pytest -s``).
"""

import math
import time

from zdgraph.suites import (
    verify_ag_girth,
    verify_armendariz,
    verify_charirrconn,
    verify_comaximal,
    verify_content,
    verify_pearled,
    verify_specs,
    verify_symbolic_lattice,
    verify_t1_table,
    verify_triangle_vs_point,
)

INF = math.inf


def _run(number, name, fn, budget_s, **kwargs):
    t0 = time.perf_counter()
    report = fn(**kwargs)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < budget_s
    print(f"ACCEPTANCE {number:>2} {name}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s / budget {budget_s}s)")
    if not report.passed:
        for item in report.items:
            if not item.passed:
                print(f"    failed item {item.name}: {item.details}")
    assert report.passed, [i.name for i in report.items if not i.passed]
    assert elapsed < budget_s
    return report


def test_criterion_01_triangle_vs_point():
    report = _run(1, "triangle-vs-point", verify_triangle_vs_point, 1.0)
    assert "(1, 3, 3, 3)" in report.items[0].details
    assert "(0, inf, 1, 1)" in report.items[1].details


def test_criterion_02_armendariz_suite():
    report = _run(2, "armendariz-suite", verify_armendariz, 60.0, max_points=5)
    size, laws = report.items
    # A000798 and A001035 summed over 1-5 points; the maps are counted by
    # orbit: 5,884 pearled spaces, 4,473 posets, 61 quotients, 18 relabellings
    assert size.details == ("7331 labelled topologies and 4473 labelled posets on 1-5 points "
                            "(A000798: 7331, A001035: 4473)")
    assert laws.details == "10436 maps, 0 failures"


def test_criterion_03_ag_girth():
    report = _run(3, "ag-girth", verify_ag_girth, 30.0, max_order=200,
                  factor_counts=(3, 4))
    # every product of 3 or 4 of the four small fields within the bound
    assert len(report.items) >= 40
    assert all("3-cycle=(" in i.details for i in report.items)


def test_criterion_04_t1_lattice_table():
    report = _run(4, "t1-lattice-table", verify_t1_table, 30.0, max_ground=5)
    assert len(report.items) == 5


def test_criterion_05_charirrconn():
    _run(5, "irreducible-connected-characterization", verify_charirrconn, 60.0,
         max_ground=4)


def test_criterion_06_symbolic_lattice():
    _run(6, "symbolic-irreducible-lattice", verify_symbolic_lattice, 10.0)


def test_criterion_07_specs_suite():
    _run(7, "spectral-poset-suite", verify_specs, 60.0, max_points=5)


def test_criterion_08_content_checks():
    _run(8, "content-checks", verify_content, 120.0, degree=2, max_order=9)


def test_criterion_09_comaximal():
    _run(9, "comaximal-ideals", verify_comaximal, 5.0)


def test_criterion_10_pearled_diagram():
    _run(10, "pearled-axiom-diagram", verify_pearled, 60.0, max_points=4)


def test_criterion_07_specs_suite_on_seven_points():
    # every poset on up to 7 points, one check per isomorphism class
    report = _run(7, "spectral-poset-suite-7", verify_specs, 60.0, max_points=7)
    assert report.items[7].details == "6129859 posets checked"


def test_criterion_10_pearled_diagram_on_six_points():
    report = _run(10, "pearled-axiom-diagram-6", verify_pearled, 60.0, max_points=6)
    assert report.items[-1].details.startswith("216858 topologies on <= 6 points")


def test_criterion_02_armendariz_suite_on_six_points():
    report = _run(2, "armendariz-suite-6", verify_armendariz, 60.0, max_points=6)
    assert report.items[0].details.startswith(
        "216858 labelled topologies and 134496 labelled posets on 1-6 points")
