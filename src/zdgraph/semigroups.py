"""Finite commutative semigroups with zero, given by explicit product tables.

A semigroup lives entirely in its table: elements are indices into a label
list, the absorbing element is a designated index, and the product is a
total binary table.  Labels are display-only; all semantics are by index.

The module provides validation (commutativity, associativity, absorbing law,
each with a witness on failure), annihilators and zero-divisors, the
annihilator-equality quotient E(S) with its projection map, and verification
of Armendariz maps: surjective set maps g with s = 0 <=> g(s) = 0 and
s*s' = 0 <=> g(s)*g(s') = 0.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

DEFAULT_MAX_TABLE = 4096


class SizeGuardExceeded(RuntimeError):
    """An exhaustive operation refused to run above its size guard."""


class NotNilpotentFree(ValueError):
    """Raised when an operation requires a nilpotent-free semigroup."""


class InvalidSemigroup(ValueError):
    """Raised when a table fails the semigroup laws."""


@dataclass(frozen=True)
class SemigroupTable:
    """A finite commutative semigroup with an absorbing element.

    ``product[a][b]`` is the index of the product of elements ``a`` and
    ``b``; ``zero`` is the index of the absorbing element.
    """

    elements: tuple[str, ...]
    zero: int
    product: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    def mul(self, a: int, b: int) -> int:
        return self.product[a][b]

    def to_json(self) -> str:
        return json.dumps(
            {
                "elements": list(self.elements),
                "zero": self.zero,
                "product": [list(row) for row in self.product],
            }
        )

    @staticmethod
    def from_json(text: str) -> "SemigroupTable":
        data = json.loads(text)
        return SemigroupTable(
            elements=distinct_labels(str(e) for e in data["elements"]),
            zero=int(data["zero"]),
            product=tuple(tuple(int(x) for x in row) for row in data["product"]),
        )


def distinct_labels(labels) -> tuple[str, ...]:
    """The labels as a tuple; a repeated label is a ValueError."""
    out = tuple(labels)
    seen = set()
    for x in out:
        if x in seen:
            raise ValueError(f"duplicate label {x!r}")
        seen.add(x)
    return out


def meet_table(members: Sequence, labels: Sequence[str]) -> SemigroupTable:
    """An intersection-closed family (frozensets or int bitmasks, in order)
    under ``&``: ``product[i][j]`` is the position of ``members[i] &
    members[j]`` and the zero is the meet of all members."""
    pos = {m: i for i, m in enumerate(members)}
    return SemigroupTable(
        elements=tuple(labels),
        zero=pos[functools.reduce(operator.and_, members)],
        product=tuple(tuple(pos[a & b] for b in members) for a in members),
    )


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of validate_semigroup; ``witness`` names the violating tuple."""

    ok: bool
    law: Optional[str] = None
    witness: Optional[tuple[int, ...]] = None

    def raise_if_invalid(self) -> None:
        if not self.ok:
            raise InvalidSemigroup(f"{self.law} law fails at {self.witness}")


def _table_array(product) -> np.ndarray:
    return np.asarray(product, dtype=np.int64)


def _bounds_witness(P: np.ndarray, n: int) -> Optional[tuple[int, int]]:
    bad = np.argwhere((P < 0) | (P >= n))
    if len(bad):
        a, b = bad[0]
        return int(a), int(b)
    return None


def _noncommutative_witness(P: np.ndarray) -> Optional[tuple[int, int]]:
    bad = np.argwhere(P != P.T)
    if len(bad):
        a, b = bad[0]
        return int(a), int(b)
    return None


def _nonassociative_witness(P: np.ndarray) -> Optional[tuple[int, int, int]]:
    # Chunked over the first argument so memory stays O(n^2).
    n = P.shape[0]
    for a in range(n):
        left = P[P[a]]          # left[b][c] = (a*b)*c
        right = P[a][P]         # right[b][c] = a*(b*c)
        if not np.array_equal(left, right):
            b, c = np.argwhere(left != right)[0]
            return a, int(b), int(c)
    return None


def _nonabsorbing_witness(P: np.ndarray, zero: int) -> Optional[int]:
    bad = np.argwhere(P[zero] != zero)
    if len(bad):
        return int(bad[0][0])
    return None


def validate_semigroup(
    table: SemigroupTable, max_size: int = DEFAULT_MAX_TABLE
) -> ValidationResult:
    """Check the three semigroup-with-zero laws exhaustively.

    Returns the first violated law together with a witness: ``(a, b)`` for
    commutativity, ``(a, b, c)`` for associativity, ``(a,)`` for the
    absorbing law.
    """
    n = table.size
    if n == 0:
        return ValidationResult(False, "nonempty", ())
    if n > max_size:
        raise SizeGuardExceeded(f"table size {n} exceeds guard {max_size}")
    if not (0 <= table.zero < n):
        return ValidationResult(False, "zero-index", (table.zero,))
    if len(table.product) != n or any(len(row) != n for row in table.product):
        return ValidationResult(False, "table-shape", ())
    P = _table_array(table.product)
    w = _bounds_witness(P, n)
    if w is not None:
        return ValidationResult(False, "index-bounds", w)
    w = _noncommutative_witness(P)
    if w is not None:
        return ValidationResult(False, "commutative", w)
    w = _nonassociative_witness(P)
    if w is not None:
        return ValidationResult(False, "associative", w)
    w = _nonabsorbing_witness(P, table.zero)
    if w is not None:
        return ValidationResult(False, "absorbing", (w,))
    return ValidationResult(True)


def nilpotent_witness(table: SemigroupTable) -> Optional[int]:
    """A nonzero element with some power equal to zero, or None."""
    zero = table.zero
    product = table.product
    for s in range(table.size):
        if s == zero:
            continue
        seen = set()
        x = s
        while x not in seen:
            seen.add(x)
            x = product[x][s]
            if x == zero:
                return s
    return None


def is_nilpotent_free(table: SemigroupTable) -> bool:
    return nilpotent_witness(table) is None


def annihilator(table: SemigroupTable, s: int) -> frozenset[int]:
    """The set of t with s*t = 0; always contains the zero element."""
    if not (0 <= s < table.size):
        raise IndexError(f"element index {s} out of range")
    row = table.product[s]
    zero = table.zero
    return frozenset(t for t in range(table.size) if row[t] == zero)


def zero_divisors(table: SemigroupTable) -> frozenset[int]:
    """Nonzero s such that s*t = 0 for some nonzero t (t = s allowed)."""
    zero = table.zero
    out = []
    for s in range(table.size):
        if s == zero:
            continue
        row = table.product[s]
        if any(row[t] == zero for t in range(table.size) if t != zero):
            out.append(s)
    return frozenset(out)


@dataclass(frozen=True)
class SemigroupMap:
    """A total set map between semigroup tables, by index assignment."""

    source: SemigroupTable
    target: SemigroupTable
    assignment: tuple[int, ...]

    def __post_init__(self):
        if len(self.assignment) != self.source.size:
            raise ValueError("assignment must be total over the source")
        m = self.target.size
        for s, t in enumerate(self.assignment):
            if not (0 <= t < m):
                raise ValueError(f"assignment of {s} out of target range: {t}")

    def __call__(self, s: int) -> int:
        return self.assignment[s]


def identity_map(table: SemigroupTable) -> SemigroupMap:
    return SemigroupMap(table, table, tuple(range(table.size)))


def compose(g: SemigroupMap, f: SemigroupMap) -> SemigroupMap:
    """g after f."""
    if f.target is not g.source and f.target != g.source:
        raise ValueError("maps are not composable")
    return SemigroupMap(f.source, g.target, tuple(g.assignment[t] for t in f.assignment))


@dataclass(frozen=True)
class ArmendarizReport:
    """Verdicts for the three Armendariz-map conditions, with witnesses.

    A witness field is populated exactly when the matching flag is False:
    a target element never hit; a source element with s = 0 xor g(s) = 0;
    a source pair where s*s' = 0 and g(s)*g(s') = 0 disagree.
    """

    surjective: bool
    zero_preserving_reflecting: bool
    product_zero_equiv: bool
    surjective_witness: Optional[int] = None
    zero_witness: Optional[int] = None
    product_witness: Optional[tuple[int, int]] = None

    def __post_init__(self):
        for name, ok, witness in (
            ("surjective", self.surjective, self.surjective_witness),
            ("zero_preserving_reflecting", self.zero_preserving_reflecting, self.zero_witness),
            ("product_zero_equiv", self.product_zero_equiv, self.product_witness),
        ):
            if ok != (witness is None):
                raise AssertionError(f"{name}={ok} needs a witness exactly when False")

    @property
    def is_armendariz(self) -> bool:
        return (
            self.surjective
            and self.zero_preserving_reflecting
            and self.product_zero_equiv
        )


def check_armendariz(g: SemigroupMap) -> ArmendarizReport:
    """Evaluate the three Armendariz conditions by exhaustive enumeration."""
    S, T = g.source, g.target
    assign = g.assignment
    hit = set(assign)
    surj_witness = next((t for t in range(T.size) if t not in hit), None)

    zero_witness = None
    for s in range(S.size):
        if (s == S.zero) != (assign[s] == T.zero):
            zero_witness = s
            break

    prod_witness = None
    ps, pt, zs, zt = S.product, T.product, S.zero, T.zero
    for a in range(S.size):
        row_s = ps[a]
        ga = assign[a]
        row_t = pt[ga]
        for b in range(a, S.size):
            if (row_s[b] == zs) != (row_t[assign[b]] == zt):
                prod_witness = (a, b)
                break
        if prod_witness:
            break

    return ArmendarizReport(
        surjective=surj_witness is None,
        zero_preserving_reflecting=zero_witness is None,
        product_zero_equiv=prod_witness is None,
        surjective_witness=surj_witness,
        zero_witness=zero_witness,
        product_witness=prod_witness,
    )


@dataclass(frozen=True)
class HomomorphismReport:
    ok: bool
    witness: Optional[tuple[int, int]] = None


def check_homomorphism(g: SemigroupMap) -> HomomorphismReport:
    """True iff g(s*t) = g(s)*g(t) for all s, t."""
    S, T = g.source, g.target
    assign = g.assignment
    for a in range(S.size):
        for b in range(a, S.size):
            if assign[S.product[a][b]] != T.product[assign[a]][assign[b]]:
                return HomomorphismReport(False, (a, b))
    return HomomorphismReport(True)


@dataclass(frozen=True)
class EqQuotient:
    """The quotient of a semigroup by annihilator equality.

    Two elements share a class iff their annihilators coincide as sets;
    the class product [s][t] = [st] is well-defined (checked exhaustively
    at construction), and the projection s -> [s] is a homomorphism.
    """

    source: SemigroupTable
    classes: tuple[tuple[int, ...], ...]
    quotient: SemigroupTable
    projection: SemigroupMap


def eq_quotient(table: SemigroupTable, permissive: bool = False) -> EqQuotient:
    """Partition by annihilator equality and build the quotient semigroup.

    Strict mode (default) rejects semigroups with nonzero nilpotents, the
    setting where the projection is guaranteed to be an Armendariz map.
    Permissive mode builds the quotient for any table (the class product is
    always well-defined) but claims nothing about invariant preservation.
    """
    if not permissive:
        w = nilpotent_witness(table)
        if w is not None:
            raise NotNilpotentFree(
                f"element {w} is a nonzero nilpotent; use permissive=True "
                "to build the quotient anyway"
            )

    n = table.size
    ann_of = [annihilator(table, s) for s in range(n)]
    groups: dict[frozenset[int], list[int]] = {}
    for s in range(n):
        groups.setdefault(ann_of[s], []).append(s)
    classes = tuple(sorted((tuple(sorted(g)) for g in groups.values()), key=lambda c: c[0]))
    class_of = [0] * n
    for k, cls in enumerate(classes):
        for s in cls:
            class_of[s] = k

    # Well-definedness of [s][t] = [st]: the class of a product may not
    # depend on the chosen representatives.
    m = len(classes)
    qprod = [[0] * m for _ in range(m)]
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            results = {class_of[table.product[a][b]] for a in ci for b in cj}
            if len(results) != 1:
                raise InvalidSemigroup(
                    f"quotient product ill-defined on classes {ci} x {cj}"
                )
            qprod[i][j] = results.pop()

    labels = tuple(f"[{table.elements[cls[0]]}]" for cls in classes)
    quotient = SemigroupTable(
        elements=labels,
        zero=class_of[table.zero],
        product=tuple(tuple(row) for row in qprod),
    )
    projection = SemigroupMap(table, quotient, tuple(class_of))
    return EqQuotient(table, classes, quotient, projection)


def induced_final_map(g: SemigroupMap) -> SemigroupMap:
    """The unique map h with h(g(s)) = [s] into the annihilator quotient.

    Requires g to verify as an Armendariz map between nilpotent-free
    semigroups.  Surjectivity of g forces h pointwise, so uniqueness is by
    construction; the factorization h o g = e_S is re-checked on every
    element, and h itself is re-verified as an Armendariz map.
    """
    report = check_armendariz(g)
    if not report.is_armendariz:
        raise ValueError(f"map is not Armendariz: {report}")
    w = nilpotent_witness(g.source)
    if w is not None:
        raise NotNilpotentFree(f"source has nonzero nilpotent {w}")

    quot = eq_quotient(g.source)
    e = quot.projection.assignment
    preimage: dict[int, int] = {}
    for s, t in enumerate(g.assignment):
        preimage.setdefault(t, s)
    h = SemigroupMap(
        g.target, quot.quotient, tuple(e[preimage[t]] for t in range(g.target.size))
    )
    for s in range(g.source.size):
        if h.assignment[g.assignment[s]] != e[s]:
            raise InvalidSemigroup(
                f"factorization h o g = e_S fails at element {s}"
            )
    if not check_armendariz(h).is_armendariz:
        raise InvalidSemigroup("induced map failed Armendariz verification")
    return h
