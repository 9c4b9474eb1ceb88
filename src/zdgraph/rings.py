"""Finite commutative rings with unity, their ideals, and ideal semigroups.

Rings are explicit addition/multiplication tables over element indices,
whatever constructor produced them (Z_n, direct products, univariate or
multivariate quotients over F_p, raw tables).  All ring axioms are checked
exhaustively at construction; the structured tag is kept for display and
for the CLI spec-string round trip.

Ideal enumeration is by generator closure: every ideal of a finite ring is
a finite sum of principal ideals, so closing the set of principal ideals
under pairwise sums is sound and complete.
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
    SemigroupTable,
    SizeGuardExceeded,
    is_nilpotent_free,
    validate_semigroup,
)

DEFAULT_MAX_RING = 4096
DEFAULT_MAX_IDEALS = 10000

Ideal = frozenset  # member set of ring-element indices


class RingConstructionError(ValueError):
    """A table failed the ring axioms, or a constructor was misused."""


class FiniteRing:
    """A finite commutative ring with unity, stored as explicit tables."""

    def __init__(self, labels, add, mul, zero, one, tag="raw", validate=True):
        self.labels: tuple[str, ...] = tuple(labels)
        self.add: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in add)
        self.mul: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in mul)
        self.zero: int = zero
        self.one: int = one
        self.tag: str = tag
        self.size: int = len(self.labels)
        self._add_np = np.asarray(self.add, dtype=np.int64)
        self._mul_np = np.asarray(self.mul, dtype=np.int64)
        if validate:
            _validate_ring(self)

    def __repr__(self):
        return f"FiniteRing({self.tag}, order={self.size})"


def _first_bad(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(int(x) for x in np.argwhere(mask)[0])


def _validate_ring(R: FiniteRing, max_size: int = DEFAULT_MAX_RING) -> None:
    n = R.size
    if n == 0:
        raise RingConstructionError("empty carrier")
    if n > max_size:
        raise SizeGuardExceeded(f"ring size {n} exceeds guard {max_size}")
    A, M = R._add_np, R._mul_np
    for name, T in (("add", A), ("mul", M)):
        if T.shape != (n, n):
            raise RingConstructionError(f"{name} table has wrong shape")
        if ((T < 0) | (T >= n)).any():
            raise RingConstructionError(f"{name} table entry out of range")
        if (T != T.T).any():
            raise RingConstructionError(
                f"{name} not commutative at {_first_bad(T != T.T)}"
            )
        for a in range(n):
            left = T[T[a]]            # (a op b) op c
            right = T[a][T]           # a op (b op c)
            if not np.array_equal(left, right):
                b, c = _first_bad(left != right)
                raise RingConstructionError(
                    f"{name} not associative at ({a}, {b}, {c})"
                )
    ident = np.arange(n)
    if not np.array_equal(A[R.zero], ident):
        raise RingConstructionError(
            f"zero is not an additive identity at {_first_bad(A[R.zero] != ident)}"
        )
    has_inverse = (A == R.zero).any(axis=1)
    if not has_inverse.all():
        raise RingConstructionError(
            f"element {int(np.argwhere(~has_inverse)[0][0])} has no additive inverse"
        )
    if not np.array_equal(M[R.one], ident):
        raise RingConstructionError(
            f"one is not a multiplicative identity at {_first_bad(M[R.one] != ident)}"
        )
    for a in range(n):
        row = M[a]
        left = row[A]                       # a * (b + c)
        right = A[row[:, None], row[None, :]]  # a*b + a*c
        if not np.array_equal(left, right):
            b, c = _first_bad(left != right)
            raise RingConstructionError(
                f"distributivity fails at ({a}, {b}, {c})"
            )


# ---------------------------------------------------------------------------
# Constructors


def make_zn(n: int) -> FiniteRing:
    """The ring of integers modulo n (n = 1 gives the zero ring)."""
    if n < 1:
        raise RingConstructionError("n must be >= 1")
    labels = tuple(str(i) for i in range(n))
    add = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    mul = tuple(tuple((a * b) % n for b in range(n)) for a in range(n))
    return FiniteRing(labels, add, mul, 0, 1 % n, tag=f"Zn:{n}")


def make_product(rings: Sequence[FiniteRing]) -> FiniteRing:
    """Direct product with componentwise operations."""
    if not rings:
        raise RingConstructionError("empty product")
    elems = list(itertools.product(*(range(r.size) for r in rings)))
    pos = {e: i for i, e in enumerate(elems)}
    labels = tuple(
        "(" + ",".join(r.labels[c] for r, c in zip(rings, e)) + ")" for e in elems
    )
    add = tuple(
        tuple(
            pos[tuple(r.add[x][y] for r, x, y in zip(rings, e, f))] for f in elems
        )
        for e in elems
    )
    mul = tuple(
        tuple(
            pos[tuple(r.mul[x][y] for r, x, y in zip(rings, e, f))] for f in elems
        )
        for e in elems
    )
    zero = pos[tuple(r.zero for r in rings)]
    one = pos[tuple(r.one for r in rings)]
    tag = "prod:" + ",".join(r.tag for r in rings)
    return FiniteRing(labels, add, mul, zero, one, tag=tag)


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


def _fp_poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of coefficient lists (ascending) over F_p."""
    num = num[:]
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p) if p > 2 else den[-1]
    quot = [0] * max(0, len(num) - dd)
    while len(num) - 1 >= dd and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) - 1 < dd:
            break
        shift = len(num) - 1 - dd
        factor = (num[-1] * inv_lead) % p
        quot[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - factor * c) % p
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def _poly_label(coeffs: Sequence[int], var: str) -> str:
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(head + (var if i == 1 else f"{var}^{i}"))
    return "+".join(terms) if terms else "0"


def make_polyquot(p: int, modulus: Sequence[int], var: str = "x") -> FiniteRing:
    """F_p[var] modulo a polynomial with unit leading coefficient.

    ``modulus`` lists coefficients in ascending degree; the quotient is a
    field exactly when the modulus is irreducible (not required).
    """
    if prime_power(p) != (p, 1):
        raise RingConstructionError(f"{p} is not prime")
    modulus = [c % p for c in modulus]
    while modulus and modulus[-1] == 0:
        modulus.pop()
    if len(modulus) < 2:
        raise RingConstructionError("modulus must have degree >= 1")
    d = len(modulus) - 1
    elems = list(itertools.product(range(p), repeat=d))
    pos = {e: i for i, e in enumerate(elems)}
    labels = tuple(_poly_label(e, var) for e in elems)

    def reduce_mul(a, b):
        conv = [0] * (2 * d - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    conv[i + j] = (conv[i + j] + ca * cb) % p
        _, rem = _fp_poly_divmod(conv, modulus, p)
        rem += [0] * (d - len(rem))
        return tuple(rem[:d])

    add = tuple(
        tuple(pos[tuple((x + y) % p for x, y in zip(a, b))] for b in elems)
        for a in elems
    )
    mul = tuple(tuple(pos[reduce_mul(a, b)] for b in elems) for a in elems)
    zero = pos[(0,) * d]
    one = pos[(1,) + (0,) * (d - 1)]
    tag = f"polyquot:p={p};mod=" + ",".join(str(c) for c in modulus)
    return FiniteRing(labels, add, mul, zero, one, tag=tag)


def _monic_irreducible(p: int, k: int) -> list[int]:
    """First monic irreducible of degree k over F_p, by lexicographic search."""
    for lower in itertools.product(range(p), repeat=k):
        cand = list(lower) + [1]
        if cand[0] == 0:
            continue  # divisible by x
        ok = True
        for deg in range(1, k // 2 + 1):
            for dlower in itertools.product(range(p), repeat=deg):
                den = list(dlower) + [1]
                _, rem = _fp_poly_divmod(cand[:], den, p)
                if not rem:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return cand
    raise AssertionError("no irreducible found")  # cannot happen


def make_gf(q: int) -> FiniteRing:
    """The field with q elements, q a prime power."""
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
    max_size: int = DEFAULT_MAX_RING,
) -> FiniteRing:
    """F_p[variables] modulo monomial relations (given as exponent tuples).

    The quotient is finite iff every variable has a pure-power relation;
    this is checked before the monomial basis is closed, and the basis is
    exactly the set of monomials not divisible by any relation.
    """
    if prime_power(p) != (p, 1):
        raise RingConstructionError(f"{p} is not prime")
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
        for i in range(nv):
            queue.append(tuple(e + (1 if j == i else 0) for j, e in enumerate(m)))
    basis.sort(key=lambda m: (sum(m), m))
    if p ** len(basis) > max_size:
        raise SizeGuardExceeded(
            f"quotient has {p}^{len(basis)} elements, over guard {max_size}"
        )
    bpos = {m: i for i, m in enumerate(basis)}

    # product of two basis monomials: another basis monomial, or zero
    mono_prod: list[list[Optional[int]]] = []
    for a in basis:
        row = []
        for b in basis:
            s = tuple(x + y for x, y in zip(a, b))
            row.append(None if any(divisible(s, r) for r in rels) else bpos[s])
        mono_prod.append(row)

    elems = list(itertools.product(range(p), repeat=len(basis)))
    pos = {e: i for i, e in enumerate(elems)}

    def label(vec):
        terms = []
        for m, c in zip(basis, vec):
            if c == 0:
                continue
            ml = _monomial_label(m, variables)
            if ml == "1":
                terms.append(str(c))
            else:
                terms.append(("" if c == 1 else str(c)) + ml)
        return "+".join(terms) if terms else "0"

    def multiply(u, v):
        out = [0] * len(basis)
        for i, cu in enumerate(u):
            if not cu:
                continue
            for j, cv in enumerate(v):
                if not cv:
                    continue
                t = mono_prod[i][j]
                if t is not None:
                    out[t] = (out[t] + cu * cv) % p
        return tuple(out)

    labels = tuple(label(e) for e in elems)
    add = tuple(
        tuple(pos[tuple((x + y) % p for x, y in zip(a, b))] for b in elems)
        for a in elems
    )
    mul = tuple(tuple(pos[multiply(a, b)] for b in elems) for a in elems)
    zero = pos[(0,) * len(basis)]
    one_vec = [0] * len(basis)
    one_vec[bpos[(0,) * nv]] = 1
    tag = (
        f"mvq:p={p};vars=" + ",".join(variables) + ";rel="
        + ",".join(_mono_spec(r, variables) for r in rels)
    )
    return FiniteRing(labels, add, mul, zero, pos[tuple(one_vec)], tag=tag)


def _mono_spec(expo: Sequence[int], variables: Sequence[str]) -> str:
    return "".join(
        f"{v}{e}" if e != 1 else v for v, e in zip(variables, expo) if e
    )


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
        return make_zn(int(spec[3:]))
    if spec.startswith("gf:"):
        return make_gf(int(spec[3:]))
    if spec.startswith("prod:"):
        parts = []
        for chunk in spec[5:].split(","):
            chunk = chunk.strip()
            if parts and ":" not in chunk:
                # continuation of a comma-separated parameter list
                parts[-1] += "," + chunk
            else:
                parts.append(chunk)
        return make_product([ring_from_spec(s) for s in parts])
    if spec.startswith("polyquot:"):
        params = dict(kv.split("=", 1) for kv in spec[len("polyquot:"):].split(";"))
        return make_polyquot(
            int(params["p"]), [int(c) for c in params["mod"].split(",")]
        )
    if spec.startswith("mvq:"):
        params = dict(kv.split("=", 1) for kv in spec[len("mvq:"):].split(";"))
        variables = [v.strip() for v in params["vars"].split(",")]
        rels = [_parse_monomial(t.strip(), variables) for t in params["rel"].split(",")]
        return make_multivariate_quot(int(params["p"]), variables, rels)
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


def principal_ideal(R: FiniteRing, a: int) -> Ideal:
    return frozenset(np.unique(R._mul_np[:, a]).tolist())


def ideal_sum(R: FiniteRing, I: Ideal, J: Ideal) -> Ideal:
    if J <= I:
        return I
    if I <= J:
        return J
    ai = np.fromiter(I, dtype=np.int64)
    aj = np.fromiter(J, dtype=np.int64)
    return frozenset(np.unique(R._add_np[np.ix_(ai, aj)]).tolist())


def _additive_closure(R: FiniteRing, gens: np.ndarray) -> Ideal:
    cur = np.unique(np.append(gens, R.zero))
    while True:
        nxt = np.unique(R._add_np[np.ix_(cur, cur)])
        if len(nxt) == len(cur):
            return frozenset(nxt.tolist())
        cur = nxt


def ideal_product(R: FiniteRing, I: Ideal, J: Ideal) -> Ideal:
    """The ideal generated by pairwise products of members."""
    ai = np.fromiter(I, dtype=np.int64)
    aj = np.fromiter(J, dtype=np.int64)
    gens = np.unique(R._mul_np[np.ix_(ai, aj)])
    # the product set is closed under ring multiplication, so only the
    # additive closure is needed
    return _additive_closure(R, gens)


def enumerate_ideals(R: FiniteRing, max_ideals: int = DEFAULT_MAX_IDEALS) -> list[Ideal]:
    """All ideals: every ideal is a finite sum of principal ideals, so closing
    the principal ideals under adding one principal ideal reaches them all."""
    principals = list({principal_ideal(R, a) for a in range(R.size)})
    ideals = set(principals)
    work = list(principals)
    while work:
        I = work.pop()
        for J in principals:
            K = ideal_sum(R, I, J)
            if K not in ideals:
                ideals.add(K)
                work.append(K)
                if len(ideals) > max_ideals:
                    raise SizeGuardExceeded(f"more than {max_ideals} ideals")
    return sorted(ideals, key=lambda I: (len(I), sorted(I)))


def ideal_label(R: FiniteRing, I: Ideal) -> str:
    """A short generator-style label: "(g)", "(g,h)", ... if one exists."""
    members = sorted(I)
    first: dict[Ideal, int] = {}  # principal ideal -> its least generator in I
    for a in members:
        Ia = principal_ideal(R, a)
        if Ia == I:
            return f"({R.labels[a]})"
        first.setdefault(Ia, a)
    # swapping a member for the least one with the same principal ideal keeps
    # the sum and moves the sorted tuple earlier, so the first hit over least
    # generators is the first hit over all members
    gen = {a: Ia for Ia, a in first.items()}
    for a, b in itertools.combinations(gen, 2):
        if ideal_sum(R, gen[a], gen[b]) == I:
            return f"({R.labels[a]},{R.labels[b]})"
    for a, b, c in itertools.combinations(gen, 3):
        if ideal_sum(R, ideal_sum(R, gen[a], gen[b]), gen[c]) == I:
            return f"({R.labels[a]},{R.labels[b]},{R.labels[c]})"
    return "{" + ",".join(R.labels[a] for a in members) + "}"


def is_ideal_prime(R: FiniteRing, I: Ideal) -> bool:
    """I proper, and ab in I implies a in I or b in I."""
    n = R.size
    if len(I) == n:
        return False
    member = np.zeros(n, dtype=bool)
    member[list(I)] = True
    outside = np.nonzero(~member)[0]
    prods = R._mul_np[np.ix_(outside, outside)]
    return not member[prods].any()


def maximal_ideals(R: FiniteRing, ideals: Optional[list[Ideal]] = None) -> list[Ideal]:
    if ideals is None:
        ideals = enumerate_ideals(R)
    proper = [I for I in ideals if len(I) < R.size]
    return [
        I for I in proper if not any(I < J for J in proper)
    ]


def prime_ideals(R: FiniteRing, ideals: Optional[list[Ideal]] = None) -> list[Ideal]:
    if ideals is None:
        ideals = enumerate_ideals(R)
    return [I for I in ideals if is_ideal_prime(R, I)]


def minimal_primes(R: FiniteRing, ideals: Optional[list[Ideal]] = None) -> list[Ideal]:
    primes = prime_ideals(R, ideals)
    return [P for P in primes if not any(Q < P for Q in primes)]


def jacobson_radical(R: FiniteRing, ideals: Optional[list[Ideal]] = None) -> Ideal:
    """Intersection of the maximal ideals (the whole ring if there are none)."""
    maxes = maximal_ideals(R, ideals)
    if not maxes:
        return frozenset(range(R.size))
    acc = maxes[0]
    for M in maxes[1:]:
        acc = acc & M
    return acc


@dataclass(frozen=True)
class IdealSemigroup:
    """The semigroup of all ideals under multiplication or addition.

    Multiplication absorbs into the zero ideal; addition absorbs into the
    unit ideal R.
    """

    ideals: tuple[Ideal, ...]
    operation: str  # "mult" | "add"
    table: SemigroupTable


def ideals_to_json(R: FiniteRing, max_ideals: int = DEFAULT_MAX_IDEALS) -> str:
    """All ideals as sorted member-index lists, with their display labels."""
    import json

    ideals = enumerate_ideals(R, max_ideals)
    return json.dumps(
        {
            "ring": R.tag,
            "ideals": [sorted(I) for I in ideals],
            "labels": [ideal_label(R, I) for I in ideals],
        }
    )


def ideal_semigroup(
    R: FiniteRing, operation: str, max_ideals: int = DEFAULT_MAX_IDEALS
) -> IdealSemigroup:
    if operation not in ("mult", "add"):
        raise ValueError("operation must be 'mult' or 'add'")
    ideals = enumerate_ideals(R, max_ideals)
    pos = {I: i for i, I in enumerate(ideals)}
    combine = ideal_product if operation == "mult" else ideal_sum
    table = tuple(
        tuple(pos[combine(R, I, J)] for J in ideals) for I in ideals
    )
    zero_elt = frozenset({R.zero}) if operation == "mult" else frozenset(range(R.size))
    labels = tuple(ideal_label(R, I) for I in ideals)
    sg = SemigroupTable(elements=labels, zero=pos[zero_elt], product=table)
    validate_semigroup(sg).raise_if_invalid()
    return IdealSemigroup(tuple(ideals), operation, sg)


def annihilating_ideal_graph(R: FiniteRing, max_ideals: int = DEFAULT_MAX_IDEALS) -> SimpleGraph:
    """Zero-divisor graph of (Id R, *)."""
    return zero_divisor_graph(ideal_semigroup(R, "mult", max_ideals).table)


def comaximal_ideal_graph(R: FiniteRing, max_ideals: int = DEFAULT_MAX_IDEALS) -> SimpleGraph:
    """Zero-divisor graph of (Id R, +), whose absorbing element is R."""
    return zero_divisor_graph(ideal_semigroup(R, "add", max_ideals).table)


@dataclass(frozen=True)
class AGGirthReport:
    """Outcome of the annihilating-ideal girth check for reduced rings."""

    reduced: bool
    minimal_prime_count: int
    applies: bool
    girth: float
    witness: Optional[tuple[str, ...]]
    passed: Optional[bool]  # None when the hypothesis is not met


def ag_conjecture_check(R: FiniteRing) -> AGGirthReport:
    """For reduced R with more than two minimal primes, assert girth 3.

    Returns a 3-cycle of ideals as the witness; for other rings the girth
    is still computed and reported with passed = None.
    """
    ideals = enumerate_ideals(R)
    reduced = is_reduced(R)
    nmin = len(minimal_primes(R, ideals))
    graph = annihilating_ideal_graph(R)
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
    leq = tuple(
        tuple(P <= Q for Q in primes) for P in primes
    )
    return FinitePoset(points=labels, leq=leq)
