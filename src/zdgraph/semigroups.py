"""Finite commutative semigroups with zero, given by explicit product tables.

A semigroup lives entirely in its table: elements are indices into a label
list, the absorbing element is a designated index, and the product is a
total binary table, held as one read-only int64 array and read by array
code only.  Labels are display-only; all semantics are by index: a table's
size is the number of its rows, and a label is formatted when it is first
read (``Labels``), which on most tables is never.

The module provides validation (commutativity, associativity, absorbing law,
each with a witness on failure; ``table_law_failure`` also checks ring
tables), annihilators and zero-divisors, the
annihilator-equality quotient E(S) with its projection map, and verification
of Armendariz maps: surjective set maps g with s = 0 <=> g(s) = 0 and
s*s' = 0 <=> g(s)*g(s') = 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Collection, Iterator, Optional, Sequence

import numpy as np

DEFAULT_MAX_TABLE = 4096


class SizeGuardExceeded(RuntimeError):
    """An exhaustive operation refused to run above its size guard."""


def guard(what: str, count: int, limit: int) -> None:
    """Refuse work on ``count`` items of ``what`` above ``limit``, before it
    starts: the one place a size guard trips, with the one message form
    ``N <what> exceed guard M``.  ``count`` may be a proven lower bound on
    the size the work would reach."""
    if count > limit:
        raise SizeGuardExceeded(f"{count} {what} exceed guard {limit}")


class NotNilpotentFree(ValueError):
    """Raised when an operation requires a nilpotent-free semigroup."""


class InvalidSemigroup(ValueError):
    """Raised when a table fails the semigroup laws."""


def read_only_table(table) -> np.ndarray:
    """The operation table as an int64 array that cannot be written to."""
    P = np.asarray(table, dtype=np.int64)
    P.flags.writeable = False
    return P


class Labels(Sequence[str]):
    """``n`` display labels, label i being ``label(i)``, formatted when it is
    first read and then kept.  It equals, hashes and prints as the tuple of
    its labels, which reading it whole formats."""

    __slots__ = ("_label", "_kept")

    def __init__(self, n: int, label: Callable[[int], str]):
        self._label = label
        self._kept: list[Optional[str]] = [None] * n

    def __len__(self) -> int:
        return len(self._kept)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        text = self._kept[i]
        if text is None:
            i %= len(self._kept)
            text = self._kept[i] = self._label(i)
        return text

    def __iter__(self) -> Iterator[str]:
        kept, label = self._kept, self._label
        for i, text in enumerate(kept):
            if text is None:
                text = kept[i] = label(i)
            yield text

    def __eq__(self, other):
        if not isinstance(other, (Labels, tuple)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))


def labels_at(labels: Sequence[str], at: Sequence[int]) -> Labels:
    """The view of ``labels`` at the indices ``at``: label i is ``labels[at[i]]``,
    read only when label i is."""
    return Labels(len(at), lambda i: labels[at[i]])


@dataclass(frozen=True, eq=False)
class SemigroupTable:
    """A finite commutative semigroup with an absorbing element.

    ``product[a, b]`` is the index of the product of elements ``a`` and
    ``b``; ``zero`` is the index of the absorbing element.  ``product`` is
    held as a read-only int64 array; a ragged table has no array form and
    fails the table-shape law here.  Two tables are equal, and hash alike,
    when their labels, zero and product are; the checks compare
    ``structure_key()`` and never read a label.
    """

    elements: Sequence[str]
    zero: int
    product: np.ndarray

    def __post_init__(self):
        try:
            P = read_only_table(self.product)
        except ValueError:
            ValidationResult(False, "table-shape", ()).raise_if_invalid()
        object.__setattr__(self, "product", P)

    def structure_key(self) -> tuple:
        """The zero and the product table's shape and bytes: all that the
        laws, the invariants and the map checks read, and no label."""
        return self.zero, self.product.shape, self.product.tobytes()

    def _key(self):
        return (self.elements, *self.structure_key())

    def __eq__(self, other):
        if not isinstance(other, SemigroupTable):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def size(self) -> int:
        """The number of elements: the rows of the product table."""
        return self.product.shape[0]

    def to_json(self) -> str:
        return json.dumps(
            {
                "elements": list(self.elements),
                "zero": self.zero,
                "product": self.product.tolist(),
            }
        )

    @staticmethod
    def from_json(text: str) -> "SemigroupTable":
        """The table in a JSON object; any other content is a ValueError."""
        data = json_object(text, "semigroup", ("elements", "zero", "product"))
        elements, rows = json_list(data["elements"], "elements", "semigroup"), data["product"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            ValidationResult(False, "table-shape", ()).raise_if_invalid()
        return SemigroupTable(
            elements=distinct_labels(str(e) for e in elements),
            zero=json_int(data["zero"], "semigroup"),
            product=[[json_int(x, "semigroup") for x in row] for row in rows],
        )


# The readers of semigroup, space and poset files: each names the file kind
# ``what`` and the first entry of the wrong JSON type.


def json_object(text: str, what: str, entries) -> dict:
    """The JSON object a ``what`` file holds, with each of ``entries``; any
    other content is a ValueError."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"a {what} file holds a JSON object")
    for name in entries:
        if name not in data:
            raise ValueError(f"a {what} file has no {name!r} entry")
    return data


def json_list(x, name: str, what: str) -> list:
    """``x`` if it is a JSON list, else a ValueError naming the entry ``name``."""
    if not isinstance(x, list):
        raise ValueError(f"the {name} of a {what} file are a JSON list")
    return x


def json_int(x, what: str) -> int:
    """``x`` if it is an integer that fits int64, else a ValueError."""
    if isinstance(x, bool) or not isinstance(x, int) or not -(2**63) <= x < 2**63:
        raise ValueError(f"{x!r} in a {what} file is not a 64-bit integer")
    return x


# The readers of spec strings, such as ``polyquot:p=2;mod=1,1,1``: each
# error names the spec and the part that is missing, empty, unknown or
# malformed.


def spec_params(spec: str, body: str, required, error, optional=()) -> dict[str, str]:
    """The ``name=value`` parts of ``body``, which are split at ``;``; a part
    without ``=``, a name in neither ``required`` nor ``optional``, a name
    given twice, or a missing name of ``required`` raises ``error``."""
    known = tuple(required) + tuple(optional)
    params = {}
    for part in body.split(";"):
        name, eq, value = part.partition("=")
        if not eq:
            raise error(f"spec {spec!r} has a part {part!r} with no '='")
        if name not in known:
            raise error(f"spec {spec!r} has an unknown part {name!r}; "
                        f"its parts are {', '.join(known)}")
        if name in params:
            raise error(f"spec {spec!r} has the part {name!r} twice")
        params[name] = value
    for name in required:
        if name not in params:
            raise error(f"spec {spec!r} has no {name!r} part")
    return params


def spec_int(spec: str, name: str, text: str, error) -> int:
    """The integer ``text`` that is part ``name`` of ``spec``, else ``error``."""
    if not text.strip():
        raise error(f"spec {spec!r} has an empty {name}")
    try:
        return int(text)
    except ValueError:
        raise error(f"spec {spec!r} has {name} {text!r}, not an integer") from None


def distinct_labels(labels) -> tuple[str, ...]:
    """The labels as a tuple; a repeated label is a ValueError."""
    out = tuple(labels)
    seen = set()
    for x in out:
        if x in seen:
            raise ValueError(f"duplicate label {x!r}")
        seen.add(x)
    return out


def members(mask: int) -> Iterator[int]:
    """The positions of the set bits of a nonnegative mask, ascending: the
    points of a point set, the neighbours in an adjacency row.  A negative
    mask is a cofinite set, which has no list of members."""
    if mask < 0:
        raise ValueError(f"mask {mask} is cofinite; its members cannot be listed")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def least_member(mask: int) -> int:
    """The least member of a nonempty mask, finite or cofinite."""
    return (mask & -mask).bit_length() - 1


def row_union(rows, mask: int) -> int:
    """The union of the rows of the members of mask: for adjacency rows the
    neighbourhood of a vertex set, for a relation the image of a set.  A
    negative mask is a cofinite set, which has no finite union of rows."""
    if mask < 0:
        raise ValueError(f"mask {mask} is cofinite; its rows cannot be joined")
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def mask_row(mask: int, n: int) -> np.ndarray:
    """The bool row of length ``n`` that is True at the members of ``mask``:
    a point set in the form array code reads."""
    packed = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=n, bitorder="little").astype(bool)


def row_masks(rows: np.ndarray) -> list[int]:
    """The mask of the True entries of each row of a 2-D bool array;
    ``mask_row`` inverted."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    # slices of one buffer: a row of width 0 is the empty slice, mask 0
    w, buf = packed.shape[1], packed.tobytes()
    return [int.from_bytes(buf[i * w : i * w + w], "little") for i in range(len(packed))]


def mask_label(points: Sequence[str], mask: int) -> str:
    """The set label ``{a,b}``, listing the mask's points in index order."""
    return "{" + ",".join(points[p] for p in members(mask)) + "}"


def point_set_key(masks: Collection[int]) -> Callable[[int], tuple[int, str]]:
    """The sort key of the one order of point-set families, for nonnegative
    ``masks``: by size, then as the sorted member lists compare.

    Equal-size sets compare as their sorted member lists do: the one holding
    the least element of their difference comes first, which is the first 0
    in the bit strings of the complements, read from bit 0.  The strings are
    as wide as the widest of ``masks``, so a mask with members beyond any
    ground set still sorts as its member list does.
    """
    width = max(masks, default=0).bit_length()
    full = (1 << width) - 1
    return lambda m: (m.bit_count(), f"{full ^ m:0{width}b}"[::-1])


def is_irreducible_family(masks, whole: int) -> bool:
    """No two members other than ``whole`` have union ``whole``."""
    proper = set(masks) - {whole}
    return all(a | b != whole for a in proper for b in proper)


def meet_table(points: Sequence[str], masks: Sequence[int]) -> SemigroupTable:
    """A family of distinct bitmasks over ``points``, closed under ``&``, in
    order: ``product[i, j]`` is the position of ``masks[i] & masks[j]``, the
    zero is the meet of all members, and element i is labelled by
    ``mask_label`` when its label is first read.

    A meet's position is read from an array indexed by mask when that array
    is no larger than the n² meets it answers, as on the up-sets of a poset
    of at most five points or of a fan window; otherwise it is found by
    bisection in the sorted masks.
    """
    width = max(masks).bit_length()
    # masks over more than 62 points stay Python ints, in an object array
    M = np.array(masks, dtype=np.int64 if width < 63 else object)
    meets = M[:, None] & M
    # the meet of all members is a subset of each, so the least mask
    zero = int(np.argmin(M))
    if M[zero] >= 0 and 1 << width <= len(M) ** 2:
        position = np.full(1 << width, -1)
        position[M] = np.arange(len(M))
        at = position[meets]
        closed = (at >= 0).all()
    else:
        order = np.argsort(M)
        at = order[np.searchsorted(M[order], meets)]
        closed = (M[at] == meets).all()
    if not closed:
        raise ValueError("family is not closed under intersection")
    points, masks = tuple(points), tuple(masks)
    return SemigroupTable(Labels(len(masks), lambda i: mask_label(points, masks[i])), zero, at)


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of validate_semigroup; ``witness`` names the violating tuple."""

    ok: bool
    law: Optional[str] = None
    witness: Optional[tuple[int, ...]] = None

    def raise_if_invalid(self) -> None:
        if not self.ok:
            raise InvalidSemigroup(f"{self.law} law fails at {self.witness}")


def block_size(cells: int) -> int:
    """How many slices of ``cells`` cells each make a block of about 2^16
    cells, the work array code does per step; at least one."""
    return max(1, 2**16 // max(cells, 1))


def first_witness(mask: np.ndarray) -> Optional[tuple[int, ...]]:
    """The index of the first True entry of ``mask`` in row-major order, or None."""
    if not mask.any():
        return None
    return tuple(int(i) for i in np.unravel_index(mask.argmax(), mask.shape))


def table_form_failure(P: np.ndarray, n: int) -> Optional[tuple[str, tuple[int, ...]]]:
    """The first of the O(n^2) laws of ``table_law_failure`` that ``P`` breaks,
    with its witness: "table-shape", "index-bounds" or "commutative".  A law
    is tested by a reduction, and its witness is searched only if it fails."""
    if P.shape != (n, n):
        return "table-shape", ()
    if P.size and (P.min() < 0 or P.max() >= n):
        return "index-bounds", first_witness((P < 0) | (P >= n))
    if not np.array_equal(P, P.T):
        return "commutative", first_witness(P != P.T)
    return None


def table_law_failure(P: np.ndarray, n: int) -> Optional[tuple[str, tuple[int, ...]]]:
    """The first law an operation table on n elements breaks, with its witness.

    The laws, in the order checked: "table-shape" (witness ``()``),
    "index-bounds" ``(a, b)``, "commutative" ``(a, b)`` and "associative"
    ``(a, b, c)``.  None if ``P`` is a commutative semigroup operation.
    """
    if (failure := table_form_failure(P, n)) is not None:
        return failure
    # in blocks of first arguments a, so memory stays O(n^2); the first
    # witness of a block, in row-major order, is the first of the scan
    step = block_size(n * n)
    for a in range(0, n, step):
        rows = P[a : a + step]
        if (w := first_witness(P[rows] != rows[:, P])) is not None:  # (ab)c != a(bc)
            return "associative", (a + w[0],) + w[1:]
    return None


def validate_semigroup(
    table: SemigroupTable, max_size: int = DEFAULT_MAX_TABLE
) -> ValidationResult:
    """Check the three semigroup-with-zero laws exhaustively.

    Returns the first violated law together with a witness: ``(a, b)`` for
    commutativity, ``(a, b, c)`` for associativity, ``(a,)`` for the
    absorbing law.
    """
    n = len(table.elements)  # the labels' count, which the table's shape must match
    if n == 0:
        return ValidationResult(False, "nonempty", ())
    guard("table elements", n, max_size)
    if not (0 <= table.zero < n):
        return ValidationResult(False, "zero-index", (table.zero,))
    failure = table_law_failure(table.product, n)
    if failure is not None:
        return ValidationResult(False, *failure)
    w = first_witness(table.product[table.zero] != table.zero)
    if w is not None:
        return ValidationResult(False, "absorbing", w)
    return ValidationResult(True)


def nilpotent_mask(P: np.ndarray, zero: int) -> np.ndarray:
    """``mask[s]``: some power of s is ``zero`` (true at ``zero`` itself).

    A power of s that is zero is reached within n steps, so s^(2^k) with
    2^k > n is zero exactly when s is nilpotent; it takes k squarings.
    """
    power = np.arange(len(P))
    for _ in range(len(P).bit_length()):
        power = P[power, power]
    return power == zero


def nilpotent_witness(table: SemigroupTable) -> Optional[int]:
    """The least nonzero element with some power equal to zero, or None."""
    nilpotent = nilpotent_mask(table.product, table.zero)
    nilpotent[table.zero] = False
    w = first_witness(nilpotent)
    return None if w is None else w[0]


def is_nilpotent_free(table: SemigroupTable) -> bool:
    return nilpotent_witness(table) is None


def annihilator(table: SemigroupTable, s: int) -> int:
    """The mask of the t with s*t = 0; always contains the zero element."""
    if not (0 <= s < table.size):
        raise IndexError(f"element index {s} out of range")
    return row_masks(table.product[[s]] == table.zero)[0]


def zero_divisors(table: SemigroupTable) -> int:
    """The mask of the nonzero s with s*t = 0 for some nonzero t (t = s allowed)."""
    kill = table.product == table.zero
    kill[:, table.zero] = False
    kill[table.zero] = False
    return row_masks(kill.any(axis=1)[None])[0]


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
                raise ValueError(f"{name}={ok} needs a witness exactly when False")

    @property
    def is_armendariz(self) -> bool:
        return (
            self.surjective
            and self.zero_preserving_reflecting
            and self.product_zero_equiv
        )


def _upper(n: int) -> np.ndarray:
    """``mask[a, b]``: a <= b, the pairs the map checks visit."""
    r = np.arange(n)
    return r[:, None] <= r


def check_armendariz(g: SemigroupMap) -> ArmendarizReport:
    """Evaluate the three Armendariz conditions by exhaustive enumeration.

    Each witness is the first failure: the least target element missed, the
    least source element, and the first pair ``(a, b)`` with ``a <= b`` in
    row-major order.
    """
    S, T = g.source, g.target
    assign = np.asarray(g.assignment, dtype=np.int64)
    hit = np.zeros(T.size, dtype=bool)
    hit[assign] = True
    surj_witness = first_witness(~hit)
    zero_witness = first_witness((np.arange(S.size) == S.zero) != (assign == T.zero))
    kill_t = T.product == T.zero
    bad = (S.product == S.zero) != kill_t[assign[:, None], assign]
    prod_witness = first_witness(bad & _upper(S.size))
    return ArmendarizReport(
        surjective=surj_witness is None,
        zero_preserving_reflecting=zero_witness is None,
        product_zero_equiv=prod_witness is None,
        surjective_witness=None if surj_witness is None else surj_witness[0],
        zero_witness=None if zero_witness is None else zero_witness[0],
        product_witness=prod_witness,
    )


@dataclass(frozen=True)
class HomomorphismReport:
    ok: bool
    witness: Optional[tuple[int, int]] = None


def check_homomorphism(g: SemigroupMap) -> HomomorphismReport:
    """True iff g(s*t) = g(s)*g(t) for all s, t; the witness is the first
    failing pair ``(a, b)`` with ``a <= b`` in row-major order."""
    S, T = g.source, g.target
    assign = np.asarray(g.assignment, dtype=np.int64)
    w = first_witness((assign[S.product] != T.product[assign[:, None], assign]) & _upper(S.size))
    return HomomorphismReport(w is None, w)


@dataclass(frozen=True)
class EqQuotient:
    """The quotient of a semigroup by annihilator equality.

    Two elements share a class iff their annihilators coincide as sets;
    the class product [s][t] = [st] is well-defined, and the projection
    s -> [s] is a homomorphism.
    """

    source: SemigroupTable
    classes: tuple[tuple[int, ...], ...]
    quotient: SemigroupTable
    projection: SemigroupMap


def eq_quotient(table: SemigroupTable, permissive: bool = False) -> EqQuotient:
    """Partition by annihilator equality and build the quotient semigroup.

    ``table`` must be a commutative semigroup: a constructed ring or
    lattice, or a table that passed ``validate_semigroup``.  There the class
    product needs no check: if ann(s) = ann(s'), then x kills st iff tx
    lies in ann(s) = ann(s') iff x kills s't, so [st] = [s't], and [ts] =
    [ts'] by commutativity.  On any other table nothing checks that the
    class product is well-defined.

    Strict mode (default) rejects semigroups with nonzero nilpotents, the
    setting where the projection is guaranteed to be an Armendariz map.
    Permissive mode builds the quotient for any such semigroup but claims
    nothing about invariant preservation.
    """
    if not permissive:
        w = nilpotent_witness(table)
        if w is not None:
            raise NotNilpotentFree(
                f"element {w} is a nonzero nilpotent; use permissive=True "
                "to build the quotient anyway"
            )

    # a class is a distinct kill row (an annihilator), keyed by its packed
    # bytes as one scalar; classes are ordered by their least element, and
    # each lists its elements ascending
    kill = np.packbits(table.product == table.zero, axis=1)
    keys = kill.view(np.dtype((np.void, kill.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    class_of = rank[inverse]
    members = np.split(np.argsort(class_of, kind="stable"), np.cumsum(np.bincount(class_of))[:-1])
    classes = tuple(tuple(c.tolist()) for c in members)

    # [s][t] = [st], read at the least member of each class
    reps = np.sort(first)
    qprod = class_of[table.product[np.ix_(reps, reps)]]
    elements = table.elements
    labels = Labels(len(classes), lambda c: f"[{elements[classes[c][0]]}]")
    quotient = SemigroupTable(elements=labels, zero=int(class_of[table.zero]), product=qprod)
    projection = SemigroupMap(table, quotient, tuple(class_of.tolist()))
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
