"""The batched pair-check engine against two references, and its product
kernel against two more.

The scalar oracles below are the per-pair convolution loops the engine
replaced: one Python product per ordered pair, in ``polys_up_to_degree``
order, with an early return on the first failing pair.  The full-scan
oracle is the engine as it was before it scanned class minima only: the
same laws and product blocks over every row against every row.  Every
engine report must equal both field by field, so verdict, pair count and
canonical witness are all pinned.  The product kernel's blocks must equal
both the cell-by-cell products of ``table_oracles.poly_mul_coeffs`` and the
blocks of ``table_oracles.product_blocks_2d``, the kernel it replaced.
The end-coefficient rule is tested as a lemma: every failing pair and every
zero product of the full scan lies among the rows it keeps, and calls of
the product kernel and the ideal index are counted where it keeps none.
"""

import collections
import functools
import itertools
import time

import numpy as np
import pytest

import ideal_oracles as oracle
from table_oracles import coefficient_rows, poly_mul_coeffs, product_blocks_2d, record_calls
from zdgraph import polynomials, rings
from zdgraph.corpus import small_reduced_rings_for_content
from zdgraph.graphs import SimpleGraph
from zdgraph.polynomials import (
    PairCheckReport,
    check_armendariz_ring,
    check_content_containment,
    check_gaussian,
    make_poly,
    polys_up_to_degree,
    truncated_zero_divisor_graph,
)
from zdgraph.rings import ring_from_spec

# ---------------------------------------------------------------------------
# Scalar oracles


@functools.cache
def _rows(R):
    """The ring's tables as lists of rows, for cell-by-cell reads."""
    return R.add.tolist(), R.mul.tolist()


def _convolve(f, g):
    """The coefficients of fg, one term at a time."""
    (add, mul), zero = _rows(f.ring), f.ring.zero
    out = [zero] * max(0, len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = add[out[i + j]][mul[a][b]]
    return out


def _zero_product(f, g):
    """fg = 0, by convolution with early exit on a nonzero coefficient."""
    R = f.ring
    if not f.coeffs or not g.coeffs:
        return True
    (add, mul), zero = _rows(R), R.zero
    fc, gc = f.coeffs, g.coeffs
    for k in range(len(fc) + len(gc) - 1):
        acc = zero
        lo = max(0, k - len(gc) + 1)
        hi = min(k, len(fc) - 1)
        for i in range(lo, hi + 1):
            acc = add[acc][mul[fc[i]][gc[k - i]]]
        if acc != zero:
            return False
    return True


def _all_coeff_products_zero(f, g):
    """Every product of a coefficient of f with one of g vanishes."""
    mul, zero = _rows(f.ring)[1], f.ring.zero
    return all(mul[a][b] == zero for a in f.coeffs for b in g.coeffs)


def _oracle_check(kind, R, d):
    polys = list(polys_up_to_degree(R, d))
    content_of = {f: oracle.content(f) for f in polys}
    # memoised only to keep the loop fast: each is a pure function
    prod = functools.cache(functools.partial(oracle.ideal_product, R))
    content_cached = functools.cache(oracle.content)

    def holds(f, g):
        if kind == "armendariz":
            return _zero_product(f, g) == _all_coeff_products_zero(f, g)
        P = prod(content_of[f], content_of[g])
        fg = make_poly(R, _convolve(f, g))
        if kind == "gaussian":
            return content_cached(fg) == P
        return all(c in P for c in fg.coeffs)

    pairs = 0
    for f in polys:
        for g in polys:
            pairs += 1
            if not holds(f, g):
                return PairCheckReport(False, pairs, (f.label(), g.label()))
    return PairCheckReport(True, pairs)


LAWS = {
    "armendariz": polynomials._armendariz_failures,
    "gaussian": polynomials._gaussian_failures,
    "content-containment": polynomials._containment_failures,
}


def full_scan(kind, law, R, d):
    """The pair-check engine over all N rows against all N rows."""
    polys = list(polys_up_to_degree(R, d))
    F = coefficient_rows(R, polys, d)
    N = len(polys)
    fails = law(R, F)
    for r0, C in polynomials._product_blocks(R, F):
        bad = fails(r0, C)
        if bad.any():
            flat = int(bad.argmax())
            f, g = polys[r0 + flat // N], polys[flat % N]
            return PairCheckReport(False, r0 * N + flat + 1, (f.label(), g.label()))
    return PairCheckReport(True, N * N)


def oracle_truncated_graph(R, d):
    polys = [f for f in polys_up_to_degree(R, d) if f.coeffs]
    kill = [[_zero_product(f, g) for g in polys] for f in polys]
    verts = [i for i in range(len(polys)) if any(kill[i])]
    edges = {(a, b) for a in range(len(verts)) for b in range(a + 1, len(verts))
             if kill[verts[a]][verts[b]]}
    return SimpleGraph.from_edges([polys[i].label() for i in verts], edges)


# ---------------------------------------------------------------------------
# Engine == oracle

ENGINE = {
    "armendariz": check_armendariz_ring,
    "gaussian": check_gaussian,
    "content-containment": check_content_containment,
}
KINDS = list(ENGINE)
REDUCED_UP_TO_9 = [R.tag for R in small_reduced_rings_for_content(9)]
X2Y2 = "mvq:p=2;vars=x,y;rel=x2,y2"
SPECS = ["Zn:4", "Zn:8", "polyquot:p=2;mod=0,0,1", "mvq:p=2;vars=x,y;rel=x2,xy,y2", X2Y2]
# (spec, degree, kind); the scalar containment loop over the 4096^2 passing
# pairs of X2Y2 at degree 2 would take minutes, so that one case is left out
# (tags of small_reduced_rings_for_content are ring specs)
CASES = (
    [(tag, 1, kind) for tag in REDUCED_UP_TO_9 for kind in KINDS]
    + [(spec, d, kind) for spec in SPECS for d in (1, 2) for kind in KINDS
       if (spec, d, kind) != (X2Y2, 2, "content-containment")]
)


@functools.cache
def _ring(spec):
    return ring_from_spec(spec)


@functools.cache
def _oracle(kind, spec, d):
    return _oracle_check(kind, _ring(spec), d)


@pytest.mark.parametrize("one_row_blocks", [False, True], ids=["blocked", "one-row"])
@pytest.mark.parametrize("spec,d,kind", CASES)
def test_engine_matches_oracle(spec, d, kind, one_row_blocks, monkeypatch):
    if one_row_blocks:
        # every f-row is its own block, so witnesses land on block boundaries
        monkeypatch.setattr(polynomials, "_BLOCK_CELLS", 1)
    assert ENGINE[kind](_ring(spec), d) == _oracle(kind, spec, d)


@functools.cache
def _full(kind, spec, d):
    return full_scan(kind, LAWS[kind], _ring(spec), d)


# the scalar oracle's one omission is cheap for the full scan (about 4 s),
# and so are the fields of order 3 and 4 at degree 3
FULL_CASES = (CASES + [(X2Y2, 2, "content-containment")]
              + [(spec, 3, kind) for spec in ("gf:3", "gf:4") for kind in KINDS])


@pytest.mark.parametrize("one_row_blocks", [False, True], ids=["blocked", "one-row"])
@pytest.mark.parametrize("spec,d,kind", FULL_CASES)
def test_class_scan_matches_full_scan(spec, d, kind, one_row_blocks, monkeypatch):
    want = _full(kind, spec, d)
    if one_row_blocks:
        monkeypatch.setattr(polynomials, "_BLOCK_CELLS", 1)
    assert ENGINE[kind](_ring(spec), d) == want


# ---------------------------------------------------------------------------
# The product kernel == cell-by-cell products == the 2-D lookup kernel

KERNEL_SPECS = ["Zn:4", "Zn:8", "gf:9", "mvq:p=2;vars=x,y;rel=x2,xy,y2", "prod:Zn:2,Zn:2"]
# the kernels are compared wherever the block covers at most 2^21 pairs, and
# the scalar products are taken wherever it covers at most 2^16; every row
# of the 8- and 9-element rings at degree 3 (2^24 pairs and more) is left out
KERNEL_PAIRS, SCALAR_PAIRS = 1 << 21, 1 << 16


@functools.cache
def _kernel_rows(spec, d, rows):
    R = _ring(spec)
    F = polynomials._polynomial_rows(R, d)
    return F[np.unique(polynomials._class_minima(R, F))] if rows == "classes" else F


KERNEL_CASES = [
    (spec, d, rows) for spec in KERNEL_SPECS for d in range(4) for rows in ("classes", "all")
    if len(_kernel_rows(spec, d, rows)) ** 2 <= KERNEL_PAIRS
]


@functools.cache
def _scalar_products(spec, d, rows):
    """``E[k, f, g]``: the X^k coefficient of F[f] * F[g], pair by pair."""
    R, F = _ring(spec), _kernel_rows(spec, d, rows).tolist()
    E = np.full((2 * d + 1, len(F), len(F)), R.zero, dtype=np.int64)
    for f, a in enumerate(F):
        for g, b in enumerate(F):
            c = poly_mul_coeffs(R, a, b)
            E[: len(c), f, g] = c
    return E


@pytest.mark.parametrize("blocks", ["default", "one-row", "ragged"])
@pytest.mark.parametrize("spec,d,rows", KERNEL_CASES)
def test_product_blocks_match_the_references(spec, d, rows, blocks, monkeypatch):
    R, F = _ring(spec), _kernel_rows(spec, d, rows)
    N, w = F.shape
    if blocks == "one-row":
        monkeypatch.setattr(polynomials, "_BLOCK_CELLS", 1)
    elif blocks == "ragged":
        # the fewest rows above one that leave a shorter last block
        step = next(r for r in itertools.count(2) if N % r)
        monkeypatch.setattr(polynomials, "_BLOCK_CELLS", step * N * (2 * w - 1))
    got = list(polynomials._product_blocks(R, F))
    old = list(product_blocks_2d(R, F, polynomials._BLOCK_CELLS))
    assert [r0 for r0, _ in got] == [r0 for r0, _ in old]
    for (r0, C), (_, C2) in zip(got, old):
        assert C.dtype == np.int64 and C.shape == (2 * w - 1, C2.shape[0], N)
        assert (C == np.moveaxis(C2, -1, 0)).all()
    if N * N <= SCALAR_PAIRS:
        E = _scalar_products(spec, d, rows)
        for r0, C in got:
            assert (C == E[:, r0 : r0 + C.shape[1]]).all()


# ---------------------------------------------------------------------------
# The class map


def _classes(R, d):
    polys = list(polys_up_to_degree(R, d))
    return polys, polynomials._class_minima(R, coefficient_rows(R, polys, d))


@pytest.mark.parametrize("spec,d,count", [
    ("gf:9", 2, 82), ("Zn:9", 2, 115), ("Zn:8", 2, 127), ("Zn:6", 2, 93),
    ("gf:7", 2, 50), ("prod:gf:2,gf:2,gf:2", 2, 449), ("gf:4", 3, 65),
])
def test_class_counts(spec, d, count):
    assert len(set(_classes(_ring(spec), d)[1].tolist())) == count


def _orbit(R, f, d):
    """Every u*X^k*f0 of degree <= d, by coefficient tuple."""
    if not f.coeffs:
        return {()}
    mul = _rows(R)[1]
    units = [u for u in range(R.size) if R.one in mul[u]]
    f0 = list(itertools.dropwhile(lambda c: c == R.zero, f.coeffs))
    return {(R.zero,) * k + tuple(mul[u][c] for c in f0)
            for u in units for k in range(d + 2 - len(f0))}


@pytest.mark.parametrize("spec,d", [
    ("Zn:8", 2), ("Zn:6", 2), ("gf:4", 2), ("prod:Zn:2,Zn:3", 2), ("Zn:9", 1), (X2Y2, 1),
])
def test_classes_are_unit_and_shift_orbits(spec, d):
    R = _ring(spec)
    polys, rep = _classes(R, d)
    index = {f.coeffs: r for r, f in enumerate(polys)}
    members = collections.defaultdict(set)
    for r, m in enumerate(rep.tolist()):
        members[m].add(r)
    for m, cls in members.items():
        assert m == min(cls)  # the representative is the least index
    for r, f in enumerate(polys):
        assert {index[g] for g in _orbit(R, f, d)} == members[int(rep[r])]
    # the end-coefficient rule keeps or drops whole classes
    keep = _end_rule_mask(R, coefficient_rows(R, polys, d))
    for cls in members.values():
        assert len({bool(keep[r]) for r in cls}) == 1


# ---------------------------------------------------------------------------
# The end-coefficient rule: only rows whose lowest and highest nonzero
# coefficients are both zero divisors can fail a law or join the graph


def _end_rule_mask(R, F):
    keep = np.zeros(len(F), dtype=bool)
    keep[polynomials._zero_divisor_end_rows(R, F)] = True
    return keep


@functools.cache
def _zero_divisors(R):
    mul = _rows(R)[1]
    return {a for a in range(R.size) if any(mul[a][b] == R.zero for b in range(R.size) if b != R.zero)}


def _end_rule_oracle(R, coeffs):
    """Both end coefficients of a nonzero polynomial are zero divisors."""
    ends = [c for c in coeffs if c != R.zero]
    return bool(ends) and ends[0] in _zero_divisors(R) and ends[-1] in _zero_divisors(R)


LEMMA_CASES = sorted(
    {(spec, d) for spec, d, _ in FULL_CASES}
    | {(spec, d) for spec in ("Zn:6", "Zn:10", "prod:Zn:2,Zn:2", "gf:9") for d in range(3)}
)


@pytest.mark.parametrize("spec,d", LEMMA_CASES)
def test_every_failing_pair_keeps_both_rows(spec, d):
    R = _ring(spec)
    F = polynomials._polynomial_rows(R, d)
    keep = _end_rule_mask(R, F)
    assert keep.tolist() == [_end_rule_oracle(R, row) for row in F.tolist()]
    laws = [LAWS[kind](R, F) for kind in ("armendariz", "gaussian")]
    for r0, C in polynomials._product_blocks(R, F):
        for fails in laws:
            b, g = np.nonzero(fails(r0, C))
            assert keep[r0 + b].all() and keep[g].all()
        # a dropped row kills no nonzero polynomial, so it is no vertex
        f = r0 + np.nonzero((C == R.zero).all(0)[:, 1:])[0]
        assert keep[f[f > 0]].all()


@pytest.mark.parametrize("spec", sorted({spec for spec, _ in LEMMA_CASES}))
def test_every_element_is_a_unit_or_a_zero_divisor(spec):
    R = _ring(spec)
    unit = (R.mul == R.one).any(1)
    nonzero = np.arange(R.size) != R.zero
    zero_divisor = (R.mul[:, nonzero] == R.zero).any(1)
    assert (unit != zero_divisor).all()


def _count_work(monkeypatch):
    return (record_calls(monkeypatch, polynomials, "_product_blocks"),
            record_calls(monkeypatch, rings, "ideal_index"))


@pytest.mark.parametrize("kind", KINDS)
def test_a_field_multiplies_nothing_but_the_certificate(kind, monkeypatch):
    R = ring_from_spec("gf:9")
    blocks, indexes = _count_work(monkeypatch)
    rep = ENGINE[kind](R, 2)
    assert rep.passed and rep.pairs_checked == 729 ** 2
    # containment holds in every ring; it certifies the kernel and the ideal
    # index, so it scans every class
    if kind == "content-containment":
        assert blocks and indexes
    else:
        assert blocks == [] and indexes == [] and R._ideal_index is None


def test_a_field_has_an_empty_truncated_graph_without_products(monkeypatch):
    R = ring_from_spec("gf:5")
    blocks, indexes = _count_work(monkeypatch)
    G = truncated_zero_divisor_graph(R, 2)
    assert G.vertices == () and G.edges == set()
    assert blocks == [] and indexes == []


@pytest.mark.parametrize("kind", ["armendariz", "gaussian"])
def test_x2y2_fails_at_canonical_pair(kind, monkeypatch):
    R = ring_from_spec(X2Y2)
    blocks, _ = _count_work(monkeypatch)
    rep = ENGINE[kind](R, 1)
    assert not rep.passed
    assert rep.pairs_checked == 12594
    assert rep.witness == ("y*X + x", "y*X + x")
    # the blocks multiply the class minima of the kept rows, and no others
    F = polynomials._polynomial_rows(R, 1)
    minima = np.unique(polynomials._class_minima(R, F))
    kept = minima[_end_rule_mask(R, F)[minima]]
    assert len(blocks) == 1 and len(kept) < len(minima)
    assert blocks[0][0][1].tolist() == F[kept].tolist()


@pytest.mark.parametrize("spec,d", [
    (spec, d) for d in (0, 1) for spec in ("Zn:6", "prod:Zn:2,Zn:2", "Zn:5")
] + [("gf:3", 3), ("gf:4", 3)])
def test_truncated_graph_matches_oracle(spec, d):
    R = ring_from_spec(spec)
    G, want = truncated_zero_divisor_graph(R, d), oracle_truncated_graph(R, d)
    assert G.vertices == want.vertices
    assert G.edges == want.edges


def _square_zero_spec(n):
    """F_2[a, b, ...] (n variables) modulo every quadratic monomial.

    Its maximal ideal m is F_2^n with m^2 = 0.

    Every subspace of m is an ideal, so the ring has far more ideals than
    there are polynomials of degree 0.
    """
    vs = "abcdefg"[:n]
    rel = [a + b if a != b else a + "2" for a, b in itertools.combinations_with_replacement(vs, 2)]
    return f"mvq:p=2;vars={','.join(vs)};rel={','.join(rel)}"


@pytest.mark.parametrize("kind", KINDS)
def test_many_ideals_cost_follows_contents(kind):
    # 5 variables: 64 elements, hundreds of ideals, 4096 pairs at d = 0
    R = _ring(_square_zero_spec(5))
    t0 = time.perf_counter()
    rep = ENGINE[kind](R, 0)
    assert time.perf_counter() - t0 < 5.0
    assert rep == _oracle_check(kind, R, 0)


def test_ideal_count_is_not_guarded():
    # 7 variables: 256 elements and over 10000 ideals (the enumerate_ideals
    # guard), yet only the principal ideals are contents at d = 0
    R = ring_from_spec(_square_zero_spec(7))
    assert check_gaussian(R, 0).passed
    assert check_content_containment(R, 0).passed


# ---------------------------------------------------------------------------
# Contents from the ideal index == contents from the old private tables

OLD_LAWS = {
    "gaussian": oracle.gaussian_failures,
    "content-containment": oracle.containment_failures,
}
# every ring-analyze slot (one presentation each), Z_720 and the 375-ideal
# ring at degree 0; the rings of order at most 32 also at degree 1, where
# contents are sums of principal ideals
INDEX_CASES = (
    [(spec, 0) for spec in ["Zn:256", "mvq:p=2;vars=x,y,z;rel=x2,y2,z2,xyz", "Zn:210",
                            "prod:gf:4,gf:5,gf:7", "mvq:p=3;vars=x,y;rel=x2,y2",
                            "prod:gf:8,gf:9", "prod:Zn:2,gf:27", "Zn:720", _square_zero_spec(5)]]
    + [(spec, d) for spec in ["gf:25", "prod:Zn:4,Zn:2,Zn:3", "Zn:12", "mvq:p=2;vars=x;rel=x3",
                              "mvq:p=2;vars=x,y;rel=x2,xy,y2", _square_zero_spec(4)]
       for d in (0, 1)]
)


@pytest.mark.parametrize("kind", list(OLD_LAWS))
@pytest.mark.parametrize("spec,d", INDEX_CASES)
def test_index_contents_match_old_tables(spec, d, kind):
    R = oracle.cached_ring(spec)
    assert ENGINE[kind](R, d) == full_scan(kind, OLD_LAWS[kind], R, d)
