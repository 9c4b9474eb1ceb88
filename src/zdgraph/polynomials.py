"""Truncated polynomial arithmetic over a finite ring, and the content map.

Polynomials of bounded degree are never wrapped into a fake quotient
semigroup (truncations are not closed under multiplication, and chopping
would introduce spurious nilpotents); zero-product relations between pairs
are checked directly, which is exactly what the Armendariz conditions
quantify over.

Enumeration order is degree-then-lexicographic in coefficient indices, so
every reported witness is the first counterexample in a canonical order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .graphs import SimpleGraph, _zero_product_graph, clique_and_chromatic
from .rings import FiniteRing, Ideal, IdealIndex, gamma_graph, ideal_index, is_reduced
from .semigroups import guard, mask_row

DEFAULT_MAX_POLYS = 4096


@dataclass(frozen=True)
class TruncPoly:
    """A polynomial with ring-element coefficients, trailing zeros stripped.

    ``coeffs[i]`` is the index of the coefficient of X^i; the zero
    polynomial is the empty tuple.
    """

    ring: FiniteRing
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == self.ring.zero:
            raise ValueError("coefficients not normalized")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> Optional[int]:
        return len(self.coeffs) - 1 if self.coeffs else None

    def label(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == self.ring.zero:
                continue
            lbl = self.ring.labels[c]
            if i == 0:
                terms.append(lbl)
            elif i == 1:
                terms.append(f"{lbl}*X")
            else:
                terms.append(f"{lbl}*X^{i}")
        return " + ".join(terms)


def make_poly(R: FiniteRing, coeffs) -> TruncPoly:
    cs = list(coeffs)
    while cs and cs[-1] == R.zero:
        cs.pop()
    return TruncPoly(R, tuple(cs))


def content(f: TruncPoly) -> Ideal:
    """The ideal generated by the coefficients; content(0) = (0)."""
    T = ideal_index(f.ring)
    return T.ideals[int(T.content(np.array(f.coeffs or (f.ring.zero,))))]


def polys_up_to_degree(R: FiniteRing, d: int) -> Iterator[TruncPoly]:
    """All |R|^(d+1) polynomials of degree <= d, canonical order.

    Order: the zero polynomial, then degree 0, 1, ..., d, lexicographic in
    coefficient indices within each degree.
    """
    yield TruncPoly(R, ())
    nonzero = [c for c in range(R.size) if c != R.zero]
    for deg in range(d + 1):
        for lower in itertools.product(range(R.size), repeat=deg):
            for lead in nonzero:
                yield TruncPoly(R, lower + (lead,))


@dataclass(frozen=True)
class PairCheckReport:
    """Verdict of an exhaustive all-pairs polynomial check."""

    kind: str
    ring_tag: str
    degree: int
    passed: bool
    pairs_checked: int
    witness: Optional[tuple[str, str]] = None
    witness_note: str = ""


# ---------------------------------------------------------------------------
# The pair-check engine
#
# Polynomials are rows of an (N, d+1) array of coefficient indices, in
# ``polys_up_to_degree`` order (row 0 is the zero polynomial), padded with
# the ring's zero.  A block of f-rows is multiplied against every g-row at
# once by table lookup, into an array of product coefficients indexed
# (k, f, g); a law is a vectorised predicate on the block of products, and
# the first failing pair in row-major order is the same canonical witness an
# f-then-g double loop would report.
#
# Only class minima are scanned.  Write f = X^v*f0 with f0(0) != 0; the
# class of f is every u*X^k*f0 of degree <= d, for u a unit and k >= 0.
# Each law is symmetric in (f, g) and unchanged when f or g moves within
# its class.  So if (f, g) is the first failing pair, f and g are class
# minima, since (f*, g) and (f, g*) fail too for the minima f* <= f and
# g* <= g, and f <= g, since (g, f) fails too.  Scanning the sorted minima
# against themselves in row-major order finds that pair first, and its
# position among all N^2 pairs is still f*N + g + 1.
#
# Only rows whose two end coefficients are zero divisors can fail, so the
# rest are dropped before the class map (``_zero_divisor_end_rows``).

# Cap on the product coefficients held per block (rows x N x (2d+1));
# larger blocks run no faster and raise peak memory.
_BLOCK_CELLS = 1 << 15


def _polynomial_rows(R: FiniteRing, d: int) -> np.ndarray:
    """The coefficient rows of ``polys_up_to_degree(R, d)``, padded with the
    ring's zero and built without the polynomials: in the block of degree e,
    row L*(n - 1) + j has lead coefficient the j-th nonzero element and lower
    coefficients the base-n digits of L, the coefficient of X^0 the most
    significant."""
    n, zero = R.size, R.zero
    nonzero = np.flatnonzero(np.arange(n) != zero)
    blocks = [np.full((1, d + 1), zero, dtype=np.int64)]
    for e in range(d + 1):
        L = np.repeat(np.arange(n**e), len(nonzero))
        B = np.full((len(L), d + 1), zero, dtype=np.int64)
        B[:, :e] = L[:, None] // n ** np.arange(e - 1, -1, -1) % n
        B[:, e] = np.tile(nonzero, n**e)
        blocks.append(B)
    return np.concatenate(blocks)


def _product_blocks(R: FiniteRing, F: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(r0, C)`` with ``C[k, b, g]`` the X^k coefficient of F[r0+b] * F[g].

    Each block takes the mul-table rows of its i-th coefficients once and
    reads the products with every g's j-th coefficient as columns of them.
    The term of (i, j) is added to ``C[i + j]`` through the flat add table,
    except the first term of each coefficient (i = 0 or j = w - 1), which
    is stored as it is.
    """
    N, w = F.shape
    n, A, M = R.size, R.add.ravel(), R.mul
    rows = max(1, _BLOCK_CELLS // (N * (2 * w - 1)))
    for r0 in range(0, N, rows):
        Ff = F[r0 : r0 + rows]
        C = np.empty((2 * w - 1, len(Ff), N), dtype=np.int64)
        for i in range(w):
            Mi = M[Ff[:, i]]
            for j in range(w):
                T = Mi.take(F[:, j], axis=1)
                C[i + j] = T if i == 0 or j == w - 1 else A[C[i + j] * n + T]
        yield r0, C


def _armendariz_failures(R: FiniteRing, F: np.ndarray):
    """fg = 0 and "every coefficient product vanishes" disagree."""
    M, zero = R.mul, R.zero

    def fails(r0: int, C: np.ndarray) -> np.ndarray:
        # ann[b, x]: x kills every coefficient of f = F[r0+b]
        ann = (M[F[r0 : r0 + C.shape[1]]] == zero).all(axis=1)
        return (C == zero).all(0) != ann[:, F].all(-1)

    return fails


def _content_products(T: IdealIndex, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(prod, key)``: ``prod[key[f], key[g]]`` indexes content(F[f])·content(F[g]).

    Products are taken only between the contents that occur, and the index
    fills join rows only for the ideals met, so the cost follows the
    contents the polynomials reach, not the number of ideals of R.
    """
    seen, key = np.unique(T.content(F), return_inverse=True)
    return T.table(seen, "mult"), key.reshape(-1)


def _gaussian_failures(R: FiniteRing, F: np.ndarray):
    """content(fg) != content(f)content(g)."""
    T = ideal_index(R)
    prod, key = _content_products(T, F)

    def fails(r0: int, C: np.ndarray) -> np.ndarray:
        got = T.content(np.moveaxis(C, 0, -1))
        return got != prod[key[r0 : r0 + C.shape[1], None], key[None, :]]

    return fails


def _containment_failures(R: FiniteRing, F: np.ndarray):
    """Some coefficient of fg lies outside content(f)content(g)."""
    T = ideal_index(R)
    prod, key = _content_products(T, F)
    member = np.array([mask_row(I, R.size) for I in T.ideals])

    def fails(r0: int, C: np.ndarray) -> np.ndarray:
        P = prod[key[r0 : r0 + C.shape[1], None], key[None, :]]
        return ~member[P, C].all(0)

    return fails


def _zero_divisor_end_rows(R: FiniteRing, F: np.ndarray) -> np.ndarray:
    """The indices of the nonzero rows whose lowest and highest nonzero
    coefficients are both non-units, in a finite ring the zero divisors.

    Only these rows can fail a law or join the truncated graph.  Write f_lo
    and f_hi for the end coefficients of f; those of fg are f_lo*g_lo and
    f_hi*g_hi.  Armendariz: if fg = 0 while some f_i*g_j != 0, then f, g != 0
    and f_lo*g_lo = f_hi*g_hi = 0, so every end is a zero divisor.  Gaussian:
    if f_lo is a unit, the triangular system gives each g_j in c(fg), and
    c(fg) <= c(f)c(g) = c(g) holds in any ring (likewise from the top for
    f_hi).  Graph: a unit end makes f_lo*g_lo != 0 for every g != 0.  Unit
    scaling and shifts keep both ends' kind, so the rule is constant on each
    class.
    """
    nz = F != R.zero
    at = np.arange(len(F))
    lo = F[at, nz.argmax(1)]
    hi = F[at, F.shape[1] - 1 - nz[:, ::-1].argmax(1)]
    unit = (R.mul == R.one).any(1)
    return np.flatnonzero(nz.any(1) & ~unit[lo] & ~unit[hi])


def _class_minima(R: FiniteRing, F: np.ndarray) -> np.ndarray:
    """``rep[r]``: the index of the least member of the class of row r (see
    above) among all the polynomials of degree < w, for any rows F of width w.

    The class minimum has no low zero coefficient, since shifting down
    lowers the index, and scaling by a unit keeps which coefficients are
    zero.  So each row is stripped of its low zeros, scaled by every unit,
    and ranked in ``polys_up_to_degree`` order: a polynomial of degree e
    with coefficients c_0..c_e has index n^e + L(n - 1) + c_e', where L is
    c_0..c_(e-1) read as a base-n number and c_e' counts the nonzero
    elements below c_e.
    """
    N, w = F.shape
    n, zero = R.size, R.zero
    nz = F != zero
    low = nz.argmax(1)
    deg = w - 1 - nz[:, ::-1].argmax(1) - low  # degree after stripping
    pos = low[:, None] + np.arange(w)
    G = np.where(pos < w, np.take_along_axis(F, np.minimum(pos, w - 1), 1), zero)
    power = deg[:, None] - 1 - np.arange(w)  # the weight n^power of each lower coefficient
    weight = np.where(power >= 0, n ** np.maximum(power, 0), 0)
    rep = np.full(N, n**w)  # above every index, whichever rows F holds
    for u in np.flatnonzero((R.mul == R.one).any(1)):
        S = R.mul[u, G]
        lead = S[np.arange(N), deg]
        rep = np.minimum(rep, n ** deg + (S * weight).sum(1) * (n - 1) + lead - (lead > zero))
    return np.where(nz.any(1), rep, 0)


def check_degree(degree_bound: int) -> None:
    """Refuse a negative degree bound."""
    if degree_bound < 0:
        raise ValueError(f"degree bound must be >= 0, not {degree_bound}")


def _pair_check(kind, law, note, R, degree_bound, max_polys, every_class=False) -> PairCheckReport:
    """Run ``law`` over all ordered pairs; report the first failure, if any.

    Only class minima are multiplied, and unless ``every_class`` only those
    of the rows both of whose end coefficients are zero divisors: no other
    row is in a failing pair of the Armendariz or Gaussian law.  With no such
    row the check passes without building the law.
    """
    check_degree(degree_bound)
    guard("polynomials", R.size ** (degree_bound + 1), max_polys)
    rows = _polynomial_rows(R, degree_bound)
    N = len(rows)
    scan = rows if every_class else rows[_zero_divisor_end_rows(R, rows)]
    if not len(scan):
        return PairCheckReport(kind, R.tag, degree_bound, True, N * N)
    reps = np.unique(_class_minima(R, scan))
    F = rows[reps]
    fails = law(R, F)
    for r0, C in _product_blocks(R, F):
        bad = fails(r0, C)
        if bad.any():
            b, c = divmod(int(bad.argmax()), len(reps))
            f, g = int(reps[r0 + b]), int(reps[c])
            return PairCheckReport(
                kind, R.tag, degree_bound, False, f * N + g + 1,
                (make_poly(R, rows[f]).label(), make_poly(R, rows[g]).label()), note,
            )
    return PairCheckReport(kind, R.tag, degree_bound, True, N * N)


def check_armendariz_ring(
    R: FiniteRing, degree_bound: int, max_polys: int = DEFAULT_MAX_POLYS
) -> PairCheckReport:
    """All pairs of degree <= d: fg = 0 <=> content(f)*content(g) = (0).

    Reduced rings must pass; non-reduced inputs are permitted and simply
    reported (Z_4, for instance, passes although it is not reduced).
    content(f)content(g) = (0) is tested as "every product of a coefficient
    of f with one of g vanishes": the product ideal is generated by them.
    """
    return _pair_check(
        "armendariz", _armendariz_failures,
        "fg = 0 and content(f)content(g) = (0) disagree",
        R, degree_bound, max_polys,
    )


def check_gaussian(
    R: FiniteRing, degree_bound: int, max_polys: int = DEFAULT_MAX_POLYS
) -> PairCheckReport:
    """All pairs of degree <= d: content(fg) = content(f)*content(g)."""
    return _pair_check(
        "gaussian", _gaussian_failures,
        "content(fg) != content(f)content(g)",
        R, degree_bound, max_polys,
    )


def check_content_containment(
    R: FiniteRing, degree_bound: int, max_polys: int = DEFAULT_MAX_POLYS
) -> PairCheckReport:
    """All pairs of degree <= d: content(fg) is contained in content(f)content(g).

    This holds in every ring, as each coefficient of fg is a sum of products
    f_i*g_j, so the check certifies the product kernel and the ideal index
    rather than R, and it scans every class.
    """
    return _pair_check(
        "content-containment", _containment_failures,
        "a coefficient of fg escapes content(f)content(g)",
        R, degree_bound, max_polys, every_class=True,
    )


# ---------------------------------------------------------------------------
# Clique/chromatic stability of the bounded-degree zero-divisor graph


def truncated_zero_divisor_graph(R: FiniteRing, degree_bound: int) -> SimpleGraph:
    """Graph on nonzero degree-<= d polynomials with a vanishing product.

    Vertices are polynomials annihilated by some nonzero polynomial of
    degree <= d; edges join distinct pairs whose product is the zero
    polynomial.  At degree 0 this is exactly the ring's zero-divisor graph.
    Only the rows both of whose end coefficients are zero divisors are
    multiplied, every one against every one: a polynomial with a unit end
    coefficient kills no nonzero polynomial.
    """
    F = _polynomial_rows(R, degree_bound)
    F = F[_zero_divisor_end_rows(R, F)]
    if not len(F):
        return SimpleGraph.from_edges((), ())
    kill = np.concatenate([(C == R.zero).all(0) for _, C in _product_blocks(R, F)])
    verts = np.flatnonzero(kill.any(axis=1))
    labels = tuple(make_poly(R, F[i]).label() for i in verts)
    return _zero_product_graph(labels, kill[np.ix_(verts, verts)])


@dataclass(frozen=True)
class StabilizationReport:
    ring_tag: str
    base_clique: int
    base_chromatic: int
    per_degree: tuple[tuple[int, int, int], ...]  # (degree, clique, chromatic)
    passed: bool


def clique_stabilization(
    R: FiniteRing, degree_bound: int, max_polys: int = DEFAULT_MAX_POLYS
) -> StabilizationReport:
    """clique and chromatic numbers of the truncated graphs match the ring's.

    Valid for reduced rings; each degree 0..degree_bound is checked.
    """
    if not is_reduced(R):
        raise ValueError("clique stabilization requires a reduced ring")
    check_degree(degree_bound)
    guard("polynomials", R.size ** (degree_bound + 1), max_polys)
    base_clq, base_chi = clique_and_chromatic(gamma_graph(R))
    rows = []
    ok = True
    for d in range(degree_bound + 1):
        G = truncated_zero_divisor_graph(R, d)
        # G.n < |R|^(d+1) <= max_polys, so the polynomial guard above
        # already bounds the colouring search
        clq, chi = clique_and_chromatic(G, max_chromatic_vertices=max_polys)
        rows.append((d, clq, chi))
        ok = ok and clq == base_clq and chi == base_chi
    return StabilizationReport(R.tag, base_clq, base_chi, tuple(rows), ok)
