"""Finite commutative rings with unity, their ideals, and ideal semigroups.

Rings are explicit addition/multiplication tables over element indices,
whatever constructor produced them (Z_n, direct products, univariate or
multivariate quotients over F_p, raw tables); the F_p-algebras fill their
tables one digit level at a time.  Constructors build and ``validate_ring``
checks: a constructor checks the ring guard before it builds a table, and
its docstring names the theorem that makes the tables a ring.
``validate_ring`` checks every ring axiom exactly, in O(n^2) per nonzero
generator of (R, +), of which there are at most log2 n: Light's test for
associativity, and distributivity and multiplicative associativity on the
generators, imply each law for all elements.  Only tables that fail are
scanned exhaustively, so each error names the first witness in a fixed
order.  The structured tag is kept for display and for the CLI spec-string
round trip.

Every ideal of a finite ring is a finite sum of principal ideals.  Each
ring has one ``IdealIndex``: it stores every ideal once, fills a row of
sums with the principal ideals the first time an ideal is met, and reads
every ideal sum, product, label and content from those rows.  Enumerating
the ideals means filling every row, which closes the principal ideals
under adding one principal ideal at a time.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graphs import SimpleGraph, beck_graph, shortest_cycle, zero_divisor_graph
from .semigroups import (
    DEFAULT_MAX_TABLE,
    SemigroupTable,
    block_size,
    first_witness,
    guard,
    is_nilpotent_free,
    mask_row,
    members,
    nilpotent_mask,
    point_set_key,
    read_only_table,
    row_masks,
    spec_int,
    spec_params,
    table_form_failure,
    table_law_failure,
)

DEFAULT_MAX_RING = 4096
DEFAULT_MAX_IDEALS = 10000

Ideal = int  # the mask of an ideal's members, over ring-element indices


class RingConstructionError(ValueError):
    """A table failed the ring axioms, or a constructor was misused."""


class FiniteRing:
    """A finite commutative ring with unity, stored as explicit tables.

    ``add`` and ``mul`` are read-only int64 arrays: ``mul[a, b]`` is the
    index of the product of elements a and b, stored unchecked.
    """

    def __init__(self, labels, add, mul, zero, one, tag="raw"):
        self.labels: tuple[str, ...] = tuple(labels)
        self.add: np.ndarray = read_only_table(add)
        self.mul: np.ndarray = read_only_table(mul)
        self.zero: int = zero
        self.one: int = one
        self.tag: str = tag
        self.size: int = len(self.labels)
        self._ideal_index: Optional[IdealIndex] = None  # made by ideal_index(R)

    def __repr__(self):
        return f"FiniteRing({self.tag}, order={self.size})"


# the ring's message for each law of table_law_failure, by table name and witness
_LAW_MESSAGES = {
    "table-shape": "{} table has wrong shape",
    "index-bounds": "{} table entry out of range",
    "commutative": "{} not commutative at {}",
    "associative": "{} not associative at {}",
}


def validate_ring(R: FiniteRing) -> None:
    """Raise unless R is a commutative ring with unity: the exact check on
    generators first, and the exhaustive scans only to name a failure."""
    if R.size == 0:
        raise RingConstructionError("empty carrier")
    guard("ring elements", R.size, DEFAULT_MAX_RING)
    for name, k in (("zero", R.zero), ("one", R.one)):
        if not 0 <= k < R.size:  # a negative index would read from the end
            raise RingConstructionError(f"{name} index {k} is not in 0..{R.size - 1}")
    if not _ring_laws_hold(R):
        _scan_ring_laws(R)


def _additive_generators(A: np.ndarray, zero: int, first: Optional[int] = None) -> list[int]:
    """Greedy nonzero generators of (R, +): ``first`` if given and nonzero,
    then in index order each element not in the closure of zero and the
    earlier generators under ``A``.  Seeded with R's one, whose multiples
    are the prime subring, a product ring needs fewer generators than index
    order gives it.

    The closure grows by X -> X ∪ (X + X) until nothing new appears, which
    is the closure under any table, and takes k steps to reach every sum
    of up to 2^k members of X when + is associative.  In a group each
    generator at least doubles the subgroup reached, which starts as {0},
    so there are at most floor(log2 n) of them.
    """
    n = len(A)
    reached = np.zeros(n, dtype=bool)
    reached[zero] = True
    gens, size = [], 1
    while size < n:
        # the seed, else the first element not reached yet
        g = first if first is not None and not reached[first] else int(reached.argmin())
        gens.append(g)
        reached[g] = True
        r = np.flatnonzero(reached)
        while len(r) < n:
            reached[A[r[:, None], r]] = True
            grown = np.flatnonzero(reached)
            if len(grown) == len(r):
                break
            r = grown
        size = len(r)
    return gens


def _ring_laws_hold(R: FiniteRing) -> bool:
    """Whether the tables satisfy every ring law, in O(n^2 |G|) for the
    nonzero additive generators G.

    Light's test (Clifford & Preston, The Algebraic Theory of Semigroups I,
    §1.2): the elements g with (g + x) + y = x + (g + y) for all x, y are
    closed under +, so + is associative if every generator passes; zero,
    the additive identity, passes by itself.  Then the g with
    (g + b)a = ba + ga for all a, b are closed under + too, so
    distributivity on the generators gives it everywhere: in the finite
    group (R, +) the sums of G already hold 0 = g + (-g).  Both (ab)c and
    a(bc) are then additive in each argument, so they agree everywhere if
    they agree on generator triples.  The zero ring has no generators and
    no law left to check.
    """
    n, A, M = R.size, R.add, R.mul
    if table_form_failure(A, n) or table_form_failure(M, n):
        return False
    ident = np.arange(n)
    if not (np.array_equal(A[R.zero], ident) and (A == R.zero).any(axis=1).all()
            and np.array_equal(M[R.one], ident)):
        return False
    if n == 1:
        return True
    G = np.array(_additive_generators(A, R.zero, R.one))
    k = block_size(n * n)  # generators per batch
    batches = [G[i : i + k] for i in range(0, len(G), k)]
    # with + commutative, B[g, x, y] = (g + x) + y and B[g, y, x] = x + (g + y)
    if not all(np.array_equal(B, B.swapaxes(1, 2)) for B in (A[A[g]] for g in batches)):
        return False
    # [g, b, a]: (g + b)a = ba + ga
    if not all(np.array_equal(M[A[g]], A[M, M[g][:, None]]) for g in batches):
        return False
    MG = M[G[:, None], G]
    return np.array_equal(M[MG[:, :, None], G], M[G[:, None, None], MG])  # (ab)c = a(bc)


def _scan_ring_laws(R: FiniteRing) -> None:
    """Raise the first ring law the tables break, found by exhaustive scans
    in a fixed order, so the message and witness do not depend on how the
    failure was detected."""
    n = R.size
    A, M = R.add, R.mul
    for name, T in (("add", A), ("mul", M)):
        failure = table_law_failure(T, n)
        if failure is not None:
            law, w = failure
            raise RingConstructionError(_LAW_MESSAGES[law].format(name, w))
    ident = np.arange(n)
    if not np.array_equal(A[R.zero], ident):
        raise RingConstructionError(
            f"zero is not an additive identity at {first_witness(A[R.zero] != ident)}"
        )
    has_inverse = (A == R.zero).any(axis=1)
    if not has_inverse.all():
        raise RingConstructionError(
            f"element {first_witness(~has_inverse)[0]} has no additive inverse"
        )
    if not np.array_equal(M[R.one], ident):
        raise RingConstructionError(
            f"one is not a multiplicative identity at {first_witness(M[R.one] != ident)}"
        )
    for a in range(n):
        row = M[a]
        left = row[A]                       # a * (b + c)
        right = A[row[:, None], row[None, :]]  # a*b + a*c
        if not np.array_equal(left, right):
            b, c = first_witness(left != right)
            raise RingConstructionError(
                f"distributivity fails at ({a}, {b}, {c})"
            )


# ---------------------------------------------------------------------------
# Constructors


def make_zn(n: int) -> FiniteRing:
    """Z/nZ, a quotient ring of Z, as the integers mod n (n = 1 gives the zero ring)."""
    if n < 1:
        raise RingConstructionError("n must be >= 1")
    guard("ring elements", n, DEFAULT_MAX_RING)
    r = np.arange(n)
    add = r[:, None] + r
    add[add >= n] -= n  # each sum is below 2n
    return FiniteRing(tuple(str(i) for i in range(n)), add,
                      np.multiply.outer(r, r) % n, 0, 1 % n, tag=f"Zn:{n}")


def make_product(rings: Sequence[FiniteRing]) -> FiniteRing:
    """Direct product, a ring as each law holds componentwise.

    Elements are ordered as ``itertools.product`` orders the factors'
    elements (the last factor fastest), so element e has digit
    ``e // stride_k % n_k`` in factor k, and each table is the mixed-radix
    sum of the factor tables, ``sum_k T_k[x_k, y_k] * stride_k``.  The
    factors are folded in left to right: with T the k-element table of the
    factors so far and F the next factor's m-element table, the new table
    is ``T[x, y] * m + F[x', y']`` at row x*m + x', column y*m + y', one
    broadcast add into a (k, m, k, m) array read as (k*m, k*m).
    """
    if not rings:
        raise RingConstructionError("empty product")
    sizes = tuple(r.size for r in rings)
    guard("ring elements", math.prod(sizes), DEFAULT_MAX_RING)

    def table(name: str) -> np.ndarray:
        T = getattr(rings[0], name)
        for r in rings[1:]:
            k, m = len(T), r.size
            T = (T[:, None, :, None] * m + getattr(r, name)[None, :, None, :]).reshape(k * m, k * m)
        return T

    labels = tuple(
        "(" + ",".join(e) + ")" for e in itertools.product(*(r.labels for r in rings))
    )
    zero = int(np.ravel_multi_index([r.zero for r in rings], sizes))
    one = int(np.ravel_multi_index([r.one for r in rings], sizes))
    tag = "prod:" + ",".join(r.tag for r in rings)
    return FiniteRing(labels, table("add"), table("mul"), zero, one, tag=tag)


def prime_power(q: int) -> Optional[tuple[int, int]]:
    """(p, k) with p prime, k >= 1 and q = p^k, or None if q is no prime power."""
    if q < 2:
        return None
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


def _fp_poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of coefficient lists (ascending) over F_p, trailing zeros stripped."""
    num, inv_lead = num[:], pow(den[-1], p - 2, p)
    while True:
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            return num
        shift, factor = len(num) - len(den), num[-1] * inv_lead % p
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - factor * c) % p


def _vector_label(coeffs: Sequence[int], names: Sequence[str]) -> str:
    """"c1m1+c2m2+...": basis names with their nonzero coefficients (1 left out)."""
    terms = [str(c) if m == "1" else ("" if c == 1 else str(c)) + m
             for c, m in zip(coeffs, names) if c]
    return "+".join(terms) if terms else "0"


def make_polyquot(p: int, modulus: Sequence[int]) -> FiniteRing:
    """F_p[x]/(f), a quotient ring, for f with unit leading coefficient.

    ``modulus`` lists f's coefficients in ascending degree.  The remainders
    mod f, 1, x, ..., x^(d-1) for d = deg f, are a basis, and x^i x^j is the
    remainder of x^(i+j).  The quotient is a field exactly when f is
    irreducible (not required).
    """
    # before the primality test, which divides up to sqrt(p)
    guard("ring elements", p, DEFAULT_MAX_RING)
    if prime_power(p) != (p, 1):
        raise RingConstructionError(f"{p} is not prime")
    modulus = [c % p for c in modulus]
    while modulus and modulus[-1] == 0:
        modulus.pop()
    if len(modulus) < 2:
        raise RingConstructionError("modulus must have degree >= 1")
    d = len(modulus) - 1
    guard("ring elements", p**d, DEFAULT_MAX_RING)
    structure = np.zeros((d, d, d), dtype=np.int64)  # x^i * x^j = x^(i+j) mod modulus
    for i, j in itertools.product(range(d), repeat=2):
        rem = _fp_poly_mod([0] * (i + j) + [1], modulus, p)
        structure[i, j, : len(rem)] = rem
    names = [_monomial_label((i,), ("x",)) for i in range(d)]
    labels = tuple(_vector_label(e[::-1], names[::-1])
                   for e in itertools.product(range(p), repeat=d))
    tag = f"polyquot:p={p};mod=" + ",".join(str(c) for c in modulus)
    return _fp_algebra(p, structure, labels, tag)


def _fp_algebra(p: int, structure: np.ndarray, labels, tag: str) -> FiniteRing:
    """F_p^d with componentwise addition and the bilinear product that takes
    basis vectors i and j to ``structure[i, j]``; basis vector 0 is the one.
    A ring when ``structure`` multiplies a basis of a commutative F_p-algebra.

    Elements are coefficient vectors in ``itertools.product`` order, so
    vector u has index sum_k u_k p^(d-1-k).  The tables are filled one digit
    level at a time, from row 0 (x + y = y, 0y = 0): once the rows x < m of
    the basis vector e_k of weight m are known, row c·m + x holds
    (c e_k + x) + y = t[x + y] and (c e_k + x)y = u[y] + xy, for each
    scalar c, where t and u are the vectors y -> c e_k + y and y -> c e_k y.
    Every add row is filled before the mul rows, which read all of them.
    """
    d = len(structure)
    n = p**d
    weights = p ** np.arange(d - 1, -1, -1)
    r = np.arange(n)
    U = r[:, None] // weights % p  # row y: the coefficient vector of y
    add = np.empty((n, n), dtype=np.int64)
    mul = np.empty((n, n), dtype=np.int64)
    add[0], mul[0] = r, 0
    levels = [(k, int(weights[k])) for k in range(d - 1, -1, -1)]  # weights 1, p, ...
    for k, m in levels:
        for c in range(1, p):
            t = r + ((U[:, k] + c) % p - U[:, k]) * m
            add[c * m : (c + 1) * m] = t[add[:m]]
    for k, m in levels:
        E = U @ structure[k]  # row y: the vector of e_k y, before reduction mod p
        for c in range(1, p):
            u = c * E % p @ weights
            mul[c * m : (c + 1) * m] = add[u, mul[:m]]
    return FiniteRing(labels, add, mul, 0, int(weights[0]), tag=tag)


def _monic_irreducible(p: int, k: int) -> list[int]:
    """First monic irreducible of degree k over F_p, by lexicographic search."""
    for lower in itertools.product(range(p), repeat=k):
        cand = list(lower) + [1]
        divisors = (list(dl) + [1] for deg in range(1, k // 2 + 1)
                    for dl in itertools.product(range(p), repeat=deg))
        if cand[0] and all(_fp_poly_mod(cand, den, p) for den in divisors):
            return cand
    raise RuntimeError(f"unreachable: F_{p}[x] has a monic irreducible of degree {k}")


def make_gf(q: int) -> FiniteRing:
    """The field with q elements, q a prime power."""
    guard("ring elements", q, DEFAULT_MAX_RING)
    pk = prime_power(q)
    if pk is None:
        raise RingConstructionError(f"{q} is not a prime power")
    p, k = pk
    ring = make_zn(p) if k == 1 else make_polyquot(p, _monic_irreducible(p, k))
    ring.tag = f"gf:{q}"
    return ring


def _monomial_label(expo: Sequence[int], variables: Sequence[str]) -> str:
    parts = []
    for v, e in zip(variables, expo):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "".join(parts) if parts else "1"


def make_multivariate_quot(
    p: int,
    variables: Sequence[str],
    relations: Sequence[Sequence[int]],
) -> FiniteRing:
    """F_p[variables] modulo the monomial ideal I of the relations (given as
    exponent tuples), a quotient ring.

    The quotient is finite iff every variable has a pure-power relation;
    this is checked before the monomial basis is closed.  I is spanned by
    the monomials it holds, so the basis is exactly the set of monomials not
    divisible by any relation, and two of them multiply to their product or,
    if it lies in I, to 0.  The ring guard is checked as each basis monomial
    joins.
    """
    # before the primality test, which divides up to sqrt(p)
    guard("ring elements", p, DEFAULT_MAX_RING)
    if prime_power(p) != (p, 1):
        raise RingConstructionError(f"{p} is not prime")
    _check_variables(variables)
    nv = len(variables)
    rels = [tuple(r) for r in relations]
    if any(len(r) != nv or any(e < 0 for e in r) or not any(r) for r in rels):
        raise RingConstructionError("relations must be nonconstant monomials")
    for i in range(nv):
        if not any(all(e == 0 for j, e in enumerate(r) if j != i) for r in rels):
            raise RingConstructionError(
                f"infinite quotient: no pure power of {variables[i]} among relations"
            )

    def divisible(m, r):
        return all(me >= re for me, re in zip(m, r))

    basis: list[tuple[int, ...]] = []
    seen = set()
    queue = [(0,) * nv]
    while queue:
        m = queue.pop(0)
        if m in seen or any(divisible(m, r) for r in rels):
            continue
        seen.add(m)
        basis.append(m)
        guard("ring elements", p ** len(basis), DEFAULT_MAX_RING)
        for i in range(nv):
            queue.append(tuple(e + (1 if j == i else 0) for j, e in enumerate(m)))
    basis.sort(key=lambda m: (sum(m), m))
    bpos = {m: i for i, m in enumerate(basis)}
    # the product of two basis monomials is another one, or zero
    structure = np.zeros((len(basis), len(basis), len(basis)), dtype=np.int64)
    for (i, a), (j, b) in itertools.product(enumerate(basis), repeat=2):
        s = tuple(x + y for x, y in zip(a, b))
        if s in bpos:
            structure[i, j, bpos[s]] = 1

    names = [_monomial_label(m, variables) for m in basis]
    labels = tuple(_vector_label(e, names)
                   for e in itertools.product(range(p), repeat=len(basis)))
    tag = (
        f"mvq:p={p};vars=" + ",".join(variables) + ";rel="
        + ",".join(_mono_spec(r, variables) for r in rels)
    )
    return _fp_algebra(p, structure, labels, tag)


def _mono_spec(expo: Sequence[int], variables: Sequence[str]) -> str:
    return "".join(
        f"{v}{e}" if e != 1 else v for v, e in zip(variables, expo) if e
    )


def _check_variables(variables: Sequence[str]) -> None:
    """Refuse an empty or repeated variable name: no monomial over such names
    reads back one way."""
    for i, v in enumerate(variables):
        if not v:
            raise RingConstructionError(f"variable {i + 1} has an empty name")
        if v in variables[:i]:
            raise RingConstructionError(f"variable {v!r} is named twice")


def _parse_monomial(token: str, variables: Sequence[str]) -> tuple[int, ...]:
    expo = [0] * len(variables)
    pos = 0
    while pos < len(token):
        match = None
        for i, v in sorted(enumerate(variables), key=lambda t: -len(t[1])):
            if token.startswith(v, pos):
                match = i
                pos += len(v)
                break
        if match is None:
            raise RingConstructionError(f"cannot parse monomial {token!r}")
        digits = re.match(r"\d+", token[pos:])
        if digits:
            expo[match] += int(digits.group())
            pos += digits.end()
        else:
            expo[match] += 1
    return tuple(expo)


def ring_from_spec(spec: str) -> FiniteRing:
    """Build a ring from a CLI spec string.

    Grammar: ``Zn:6`` | ``gf:4`` | ``prod:Zn:2,Zn:2,Zn:2`` |
    ``polyquot:p=2;mod=1,1,1`` | ``mvq:p=2;vars=x,y;rel=x2,xy,y2``.
    """
    spec = spec.strip()
    if spec.startswith("Zn:"):
        return make_zn(spec_int(spec, "order", spec[3:], RingConstructionError))
    if spec.startswith("gf:"):
        return make_gf(spec_int(spec, "order", spec[3:], RingConstructionError))
    if spec.startswith("prod:"):
        parts = []
        for chunk in spec[5:].split(","):
            chunk = chunk.strip()
            if not chunk:
                raise RingConstructionError(f"spec {spec!r} has an empty factor")
            if parts and ":" not in chunk:
                # continuation of a comma-separated parameter list
                parts[-1] += "," + chunk
            else:
                parts.append(chunk)
        return make_product([ring_from_spec(s) for s in parts])
    if spec.startswith("polyquot:"):
        params = spec_params(spec, spec[len("polyquot:"):], ("p", "mod"), RingConstructionError)
        return make_polyquot(
            spec_int(spec, "p", params["p"], RingConstructionError),
            [spec_int(spec, "mod coefficient", c, RingConstructionError)
             for c in params["mod"].split(",")],
        )
    if spec.startswith("mvq:"):
        params = spec_params(spec, spec[len("mvq:"):], ("p", "vars", "rel"), RingConstructionError)
        variables = [v.strip() for v in params["vars"].split(",")]
        _check_variables(variables)  # before parsing: an empty name matches anywhere
        rels = [_parse_monomial(t.strip(), variables) for t in params["rel"].split(",")]
        return make_multivariate_quot(
            spec_int(spec, "p", params["p"], RingConstructionError), variables, rels)
    raise RingConstructionError(f"unknown ring spec {spec!r}")


# ---------------------------------------------------------------------------
# Multiplicative structure


def multiplicative_semigroup(R: FiniteRing) -> SemigroupTable:
    """The semigroup (R, *) with 0 absorbing, sharing the ring's table."""
    return SemigroupTable(elements=R.labels, zero=R.zero, product=R.mul)


def is_reduced(R: FiniteRing) -> bool:
    """True iff no nonzero element has a power equal to zero."""
    return is_nilpotent_free(multiplicative_semigroup(R))


def gamma_graph(R: FiniteRing) -> SimpleGraph:
    return zero_divisor_graph(multiplicative_semigroup(R))


def beck_gamma0(R: FiniteRing) -> SimpleGraph:
    """All-elements zero-product graph (the cone of the usual graph over 0)."""
    return beck_graph(multiplicative_semigroup(R))


# ---------------------------------------------------------------------------
# Ideals


class IdealIndex:
    """The ideals of one ring met so far, each stored once.

    Ideal k is the mask ``ideals[k]`` of its members, which is also its key,
    and a tuple ``gens[k]`` of elements whose principal ideals sum to it:
    its parent's tuple plus one generator.  The
    distinct principal ideals come first, in the order of their least
    generators, so ``principal[a]`` (the index of Ra) also numbers the
    columns of the join table, whose entry [k, principal[a]] indexes ideal
    k + Ra.  A row of it is filled the first time a sum with its ideal is
    asked for; ``close`` fills every row, which enumerates all ideals.
    """

    def __init__(self, R: FiniteRing):
        # the ring holds its index, so the index keeps the ring's tables and
        # not the ring: a reference cycle would outlive the ring until the
        # cyclic collector ran
        self.labels, self.zero, self._add_table, self._mul_table = R.labels, R.zero, R.add, R.mul
        self.lower_bound = _ideal_count_lower_bound(R)
        self.ideals: list[Ideal] = []
        self.gens: list[tuple[int, ...]] = []
        self._key: dict[Ideal, int] = {}
        P = np.zeros((R.size, R.size), dtype=bool)
        P[np.arange(R.size)[:, None], R.mul] = True  # row a: the members of Ra
        self.principal = np.array([self._add(I, (a,)) for a, I in enumerate(row_masks(P))])
        self.unit = int(self.principal[R.one])
        # the members of each distinct principal ideal, by its least generator
        self._pr, self._pc = np.nonzero(P[[a for (a,) in self.gens]])
        self._join = np.full((2 * len(self.ideals), len(self.ideals)), -1)
        self._label: dict[int, str] = {}
        self._order: Optional[list[int]] = None  # close's answer, once every row is filled

    def _add(self, I: Ideal, gens: tuple[int, ...]) -> int:
        if I not in self._key:
            self._key[I] = len(self.ideals)
            self.ideals.append(I)
            self.gens.append(gens)
        return self._key[I]

    def _fill(self, k: int) -> None:
        # the least member of x + I names the coset of x, read down the rows
        # of I's members as + commutes, and I + Ra is the union of the
        # cosets of Ra's members
        coset = self._add_table[mask_row(self.ideals[k], len(self.labels))].min(axis=0)
        hit = np.zeros((self._join.shape[1], len(self.labels)), dtype=bool)
        hit[self._pr, coset[self._pc]] = True
        key, gens = self._key, self.gens[k]
        # a generator tuple is made only for an ideal not met before
        row = [key[I] if I in key else self._add(I, gens + self.gens[c])
               for c, I in enumerate(row_masks(hit[:, coset]))]
        if len(self.ideals) > len(self._join):  # a fill adds at most a row's worth of ideals
            self._join = np.vstack([self._join, np.full_like(self._join, -1)])
        self._join[k] = row

    def join(self, ks, cols) -> np.ndarray:
        """The index of ideal ks + principal ideal cols, elementwise."""
        ks = np.asarray(ks)
        for k in np.unique(ks[self._join[ks, 0] < 0]).tolist():
            self._fill(k)
        return self._join[ks, cols]

    def index_of(self, I: Ideal) -> int:
        """The index of ideal I; one not met yet is found by adding in its members."""
        k = self._key.get(I)
        if k is None:
            k = self.principal[self.zero]
            for a in members(I):
                k = self.join(k, self.principal[a])
            if self.ideals[k] != I:
                raise ValueError(f"not an ideal: {list(members(I))}")
        return int(k)

    def table(self, ks: np.ndarray, operation: str) -> np.ndarray:
        """``T[x, y]`` indexes ks[x] + ks[y] ("add") or ks[x]·ks[y] ("mult").

        A sum folds the principal ideals of ks[y]'s generators into ks[x]; a
        product folds those of the pairwise generator products into (0).
        Generator lists are padded with 0, whose ideal adds nothing.
        """
        G = np.full((len(ks), max(len(self.gens[k]) for k in ks)), self.zero)
        for r, k in enumerate(ks.tolist()):
            G[r, : len(self.gens[k])] = self.gens[k]
        if operation == "add":
            T = np.repeat(ks[:, None], len(ks), axis=1)
            for g in G.T:
                T = self.join(T, self.principal[g][None, :])
            return T
        T = np.full((len(ks), len(ks)), self.principal[self.zero])
        for g, h in itertools.product(G.T, repeat=2):
            T = self.join(T, self.principal[self._mul_table[g[:, None], h[None, :]]])
        return T

    def content(self, coeffs: np.ndarray) -> np.ndarray:
        """The index of the ideal generated by each coefficient row (last axis)."""
        c = self.principal[coeffs[..., 0]]
        for k in range(1, coeffs.shape[-1]):
            c = self.join(c, self.principal[coeffs[..., k]])
        return c

    def maximal(self, ks: np.ndarray) -> np.ndarray:
        """Whether each ideal ks[i] is maximal: proper, and I + Ra is I or R
        for every a, so that no ideal lies strictly between I and R."""
        ks = np.asarray(ks, dtype=np.int64)
        row = self.join(ks[:, None], np.arange(self._join.shape[1]))
        return (ks != self.unit) & ((row == ks[:, None]) | (row == self.unit)).all(axis=1)

    def close(self, max_ideals: int = DEFAULT_MAX_IDEALS) -> list[int]:
        """Every ideal index in ``(len, sorted)`` order, once every row is filled.

        The guard is checked first against a lower bound on the number of
        ideals, then against the ideals the index holds, which bound it too.
        Both checks run on every call; the rows are filled and the order is
        found once, by the first call that passes them.
        """
        guard("ideals", self.lower_bound, max_ideals)
        k = 0 if self._order is None else len(self.ideals)
        while k < len(self.ideals) <= max_ideals:
            if self._join[k, 0] < 0:
                self._fill(k)
            k += 1
        guard("ideals", len(self.ideals), max_ideals)
        if self._order is None:  # every row is filled, so no ideal is left to add
            key = point_set_key(self.ideals)
            self._order = sorted(range(k), key=lambda k: key(self.ideals[k]))
        return list(self._order)

    def label(self, k: int) -> str:
        """A short generator-style label: "(g)", "(g,h)", ... if one exists;
        each ideal's label is found once and kept.

        Only least generators are tried: swapping a member for the least one
        with the same principal ideal keeps the sum and moves the sorted
        tuple earlier, so the first hit over least generators, in
        lexicographic order, is the first hit over all members.  A principal
        ideal's one generator in ``gens`` is already its least, so only the
        ideals with two or more generators are searched.
        """
        if k not in self._label:
            self._label[k] = self._find_label(k)
        return self._label[k]

    def _find_label(self, k: int) -> str:
        if len(self.gens[k]) == 1:  # a principal ideal, held with its least generator
            return "(" + self.labels[self.gens[k][0]] + ")"
        return self._search_label(k)

    def _search_label(self, k: int) -> str:
        names, elts = self.labels, np.flatnonzero(mask_row(self.ideals[k], len(self.labels)))
        least = elts[np.sort(np.unique(self.principal[elts], return_index=True)[1])]
        c = self.principal[least]
        # sums[i, j, ...] indexes Rc_i + Rc_j + ...; a tuple with a repeat
        # sums fewer generators, which missed already, and a hit's sorted
        # tuple hits too, so the first hit in row-major order is ascending
        sums, hits = c, np.argwhere(c == k)
        while not len(hits) and sums.ndim < 3:
            sums = self.join(sums[..., None], c)
            hits = np.argwhere(sums == k)
        if len(hits):
            return "(" + ",".join(names[least[i]] for i in hits[0]) + ")"
        return "{" + ",".join(names[a] for a in elts) + "}"


def ideal_index(R: FiniteRing) -> IdealIndex:
    """The ring's ideal index, made on first use."""
    if R._ideal_index is None:
        R._ideal_index = IdealIndex(R)
    return R._ideal_index


def _ideal_count_lower_bound(R: FiniteRing) -> int:
    """An exact lower bound on the number of ideals: the product of G_k(q)
    over the local factors of R.

    R is the product of its local factors eR, e running over the primitive
    (minimal nonzero) idempotents, and the ideals of R are the products of
    ideals of the factors.  In a local factor the non-units are the
    nilpotents and form the maximal ideal m.  The socle ann(m) is a vector
    space over eR/m (q elements) of some dimension k, and each of its
    subspaces is an ideal.
    """
    M, zero = R.mul, R.zero
    nilpotent = nilpotent_mask(M, zero)
    idem = np.flatnonzero(M.diagonal() == np.arange(R.size))
    idem = idem[idem != zero]
    primitive = idem[(M[np.ix_(idem, idem)] == idem).sum(axis=1) == 1]  # ef = f: f below e
    bound = 1
    for e in primitive.tolist():
        factor = np.unique(M[e])
        m = factor[nilpotent[factor]]
        q, socle = len(factor) // len(m), int((M[np.ix_(factor, m)] == zero).all(axis=1).sum())
        # the Galois number G_k(q), the number of subspaces of F_q^k, by
        # G_(i+1) = 2 G_i + (q^i - 1) G_(i-1) from G_0 = 1
        prev, count, i = 0, 1, 0
        while q**i < socle:
            prev, count, i = count, 2 * count + (q**i - 1) * prev, i + 1
        bound *= count
    return bound


def enumerate_ideals(R: FiniteRing, max_ideals: int = DEFAULT_MAX_IDEALS) -> list[Ideal]:
    """All ideals, ordered by size and then by sorted members."""
    index = ideal_index(R)
    return [index.ideals[k] for k in index.close(max_ideals)]


def ideal_label(R: FiniteRing, I: Ideal) -> str:
    """A short generator-style label: "(g)", "(g,h)", ... if one exists."""
    index = ideal_index(R)
    return index.label(index.index_of(I))


def is_ideal_prime(R: FiniteRing, I: Ideal) -> bool:
    """I proper, and ab in I implies a in I or b in I."""
    n = R.size
    if I.bit_count() == n:
        return False
    member = mask_row(I, n)
    outside = np.nonzero(~member)[0]
    prods = R.mul[np.ix_(outside, outside)]
    return not member[prods].any()


def maximal_ideals(R: FiniteRing, ideals: Optional[list[Ideal]] = None) -> list[Ideal]:
    """The maximal ideals among ``ideals`` (default: every ideal), in their
    order, read from the join rows of the ring's ideal index."""
    if ideals is None:
        ideals = enumerate_ideals(R)
    index = ideal_index(R)
    keep = index.maximal(np.array([index.index_of(I) for I in ideals], dtype=np.int64))
    return [I for I, m in zip(ideals, keep.tolist()) if m]


def prime_ideals(R: FiniteRing, ideals: Optional[list[Ideal]] = None) -> list[Ideal]:
    """The prime ideals among ``ideals``: R/P is a finite domain, hence a
    field, so in a finite ring the primes are the maximal ideals."""
    return maximal_ideals(R, ideals)


def minimal_primes(R: FiniteRing, ideals: Optional[list[Ideal]] = None) -> list[Ideal]:
    """The primes, which are maximal and so form an antichain."""
    return prime_ideals(R, ideals)


def jacobson_radical(R: FiniteRing, ideals: Optional[list[Ideal]] = None) -> Ideal:
    """Intersection of the maximal ideals (the whole ring if there are none)."""
    out = (1 << R.size) - 1
    for M in maximal_ideals(R, ideals):
        out &= M
    return out


@dataclass(frozen=True)
class IdealSemigroup:
    """The semigroup of all ideals under multiplication or addition.

    Both are associative and commutative in every commutative ring, so
    ``ideal_semigroup`` checks no law.  Multiplication absorbs into the
    zero ideal; addition absorbs into the unit ideal R.
    """

    ideals: tuple[Ideal, ...]
    table: SemigroupTable


def ideals_report(R: FiniteRing, max_ideals: int = DEFAULT_MAX_IDEALS) -> dict:
    """All ideals as sorted member-index lists, with their display labels."""
    ideals = enumerate_ideals(R, max_ideals)
    return {
        "ring": R.tag,
        "ideals": [np.flatnonzero(mask_row(I, R.size)).tolist() for I in ideals],
        "labels": [ideal_label(R, I) for I in ideals],
    }


def ideal_semigroup(
    R: FiniteRing, operation: str, max_ideals: int = DEFAULT_MAX_IDEALS,
    max_table: int = DEFAULT_MAX_TABLE,
) -> IdealSemigroup:
    if operation not in ("mult", "add"):
        raise ValueError("operation must be 'mult' or 'add'")
    index = ideal_index(R)
    # the ideal guard, then the table guard on the lower bound before the
    # ideals are enumerated, and on their count before any label or table
    guard("ideals", index.lower_bound, max_ideals)
    guard("table elements", index.lower_bound, max_table)
    ks = np.array(index.close(max_ideals))
    guard("table elements", len(ks), max_table)
    pos = np.empty(len(index.ideals), dtype=np.int64)
    pos[ks] = np.arange(len(ks))
    zero_elt = index.principal[R.zero if operation == "mult" else R.one]
    labels = tuple(index.label(k) for k in ks.tolist())
    sg = SemigroupTable(elements=labels, zero=int(pos[zero_elt]),
                        product=pos[index.table(ks, operation)])
    return IdealSemigroup(tuple(index.ideals[k] for k in ks), sg)


def annihilating_ideal_graph(R: FiniteRing, max_ideals: int = DEFAULT_MAX_IDEALS,
                             max_table: int = DEFAULT_MAX_TABLE) -> SimpleGraph:
    """Zero-divisor graph of (Id R, *)."""
    return zero_divisor_graph(ideal_semigroup(R, "mult", max_ideals, max_table).table)


def comaximal_ideal_graph(R: FiniteRing, max_ideals: int = DEFAULT_MAX_IDEALS,
                          max_table: int = DEFAULT_MAX_TABLE) -> SimpleGraph:
    """Zero-divisor graph of (Id R, +), whose absorbing element is R."""
    return zero_divisor_graph(ideal_semigroup(R, "add", max_ideals, max_table).table)


@dataclass(frozen=True)
class AGGirthReport:
    """Outcome of the annihilating-ideal girth check for reduced rings."""

    reduced: bool
    minimal_prime_count: int
    applies: bool
    girth: float
    witness: Optional[tuple[str, ...]]
    passed: Optional[bool]  # None when the hypothesis is not met


def ag_conjecture_check(R: FiniteRing, max_ideals: int = DEFAULT_MAX_IDEALS,
                        max_table: int = DEFAULT_MAX_TABLE) -> AGGirthReport:
    """For reduced R with more than two minimal primes, assert girth 3.

    Returns a 3-cycle of ideals as the witness; for other rings the girth
    is still computed and reported with passed = None.
    """
    # the graph first: its ideal semigroup checks both guards before any work
    graph = annihilating_ideal_graph(R, max_ideals, max_table)
    ideals = enumerate_ideals(R, max_ideals)
    reduced = is_reduced(R)
    nmin = len(minimal_primes(R, ideals))
    g, cycle = shortest_cycle(graph)
    witness = tuple(graph.vertices[v] for v in cycle) if cycle else None
    applies = reduced and nmin > 2
    return AGGirthReport(
        reduced=reduced,
        minimal_prime_count=nmin,
        applies=applies,
        girth=g,
        witness=witness,
        passed=(g == 3) if applies else None,
    )


def spec_poset(R: FiniteRing):
    """The poset of prime ideals under inclusion.

    For a finite commutative ring every prime is maximal, so this is an
    antichain; it feeds the spectral-poset machinery for cross-checks.
    """
    from .spectra import FinitePoset

    primes = prime_ideals(R)
    labels = tuple(ideal_label(R, P) for P in primes)
    leq = tuple(sum(1 << j for j, Q in enumerate(primes) if not P & ~Q) for P in primes)
    return FinitePoset(points=labels, leq=leq)
