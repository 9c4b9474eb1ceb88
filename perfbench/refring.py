"""Reference arithmetic for the rings the benchmark feeds to zdgraph.

Everything here is computed apart from the program: elements are built from
the ring spec with plain integer and polynomial arithmetic, in the element
order the zdgraph constructors document (mixed radix over components or
coefficients, first position slowest), so that ideal member lists, which the
program reports as element indices, can be read back.  Labels printed by the
program are parsed, never generated, so a label mismatch shows as a failed
parse or a wrong element.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of ascending coefficient lists over F_p (den has a unit lead)."""
    num = [c % p for c in num]
    inv = pow(den[-1], -1, p)
    dd = len(den) - 1
    for top in range(len(num) - 1, dd - 1, -1):
        f = num[top] * inv % p
        if f:
            for i, c in enumerate(den):
                num[top - dd + i] = (num[top - dd + i] - f * c) % p
    return (num + [0] * dd)[:dd]


def _irreducible(p: int, cand: list[int]) -> bool:
    k = len(cand) - 1
    for deg in range(1, k // 2 + 1):
        for lower in itertools.product(range(p), repeat=deg):
            if not any(_poly_rem(cand, list(lower) + [1], p)):
                return False
    return True


def first_irreducible(p: int, k: int) -> list[int]:
    """First monic irreducible of degree k over F_p, lower coefficients in
    itertools.product order (the convention behind ``gf:q``)."""
    for lower in itertools.product(range(p), repeat=k):
        if lower[0] and _irreducible(p, list(lower) + [1]):
            return list(lower) + [1]
    raise ValueError(f"no irreducible of degree {k} over F_{p}")


def _split_top(text: str) -> list[str]:
    """Split on commas that are not inside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        depth += {"(": 1, ")": -1}.get(ch, 0)
        cur.append(ch)
    parts.append("".join(cur))
    return parts


class RefRing:
    """A finite commutative ring as dense numpy tables over element indices."""

    def __init__(self, spec: str):
        self.spec = spec
        if spec.startswith("prod:"):
            # a chunk without ":" continues the previous factor's parameter list
            parts: list[str] = []
            for chunk in spec[5:].split(","):
                if parts and ":" not in chunk:
                    parts[-1] += "," + chunk
                else:
                    parts.append(chunk)
            self.factors = [RefRing(s) for s in parts]
            self.kind = "prod"
            self.size = math.prod(f.size for f in self.factors)
        else:
            self.factors = [self]
            self._init_base(spec)
        self._add = self._mul = None

    # -- construction -----------------------------------------------------

    def _init_base(self, spec: str) -> None:
        head, _, rest = spec.partition(":")
        if head == "Zn":
            self.kind, self.n = "zn", int(rest)
            self.size = self.n
            return
        if head == "gf":
            q = int(rest)
            p = next(d for d in range(2, q + 1) if q % d == 0)
            k = round(math.log(q, p))
            if p ** k != q:
                raise ValueError(f"{q} is not a prime power")
            if k == 1:
                self.kind, self.n, self.size = "zn", p, p
                return
            self._init_poly(p, first_irreducible(p, k))
            return
        params = dict(kv.split("=", 1) for kv in rest.split(";"))
        p = int(params["p"])
        if head == "polyquot":
            mod = [int(c) % p for c in params["mod"].split(",")]
            while mod and mod[-1] == 0:
                mod.pop()
            self._init_poly(p, mod)
            return
        if head == "mvq":
            self.vars = [v.strip() for v in params["vars"].split(",")]
            rels = [self._monomial(t.strip()) for t in params["rel"].split(",")]
            self._init_mvq(p, rels)
            return
        raise ValueError(f"unknown ring spec {spec!r}")

    def _init_poly(self, p: int, modulus: list[int]) -> None:
        self.kind, self.p, self.modulus = "poly", p, modulus
        self.dim = len(modulus) - 1
        self.size = p ** self.dim

    def _monomial(self, token: str) -> tuple[int, ...]:
        expo = [0] * len(self.vars)
        for var, power in re.findall(r"([a-z])(?:\^?(\d+))?", token):
            expo[self.vars.index(var)] += int(power) if power else 1
        return tuple(expo)

    def _init_mvq(self, p: int, rels: list[tuple[int, ...]]) -> None:
        self.kind, self.p, self.rels = "mvq", p, rels
        bound = [
            min(r[i] for r in rels if all(e == 0 for j, e in enumerate(r) if j != i))
            for i in range(len(self.vars))
        ]
        self.basis = sorted(
            (m for m in itertools.product(*(range(b) for b in bound))
             if not self._killed(m)),
            key=lambda m: (sum(m), m),
        )
        self.dim = len(self.basis)
        self.size = p ** self.dim

    def _killed(self, m) -> bool:
        return any(all(a >= b for a, b in zip(m, r)) for r in self.rels)

    # -- element coding -----------------------------------------------------

    def _vectors(self) -> list[tuple[int, ...]]:
        return list(itertools.product(range(self.p), repeat=self.dim))

    def _index(self, vec) -> int:
        idx = 0
        for c in vec:
            idx = idx * self.p + c
        return idx

    def _base_tables(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "zn":
            r = np.arange(self.n)
            return (r[:, None] + r[None, :]) % self.n, (r[:, None] * r[None, :]) % self.n
        vecs = self._vectors()
        p, d = self.p, self.dim
        add = np.array(
            [[self._index([(x + y) % p for x, y in zip(a, b)]) for b in vecs] for a in vecs]
        )
        if self.kind == "poly":
            def mul(a, b):
                conv = [0] * (2 * d - 1)
                for i, x in enumerate(a):
                    for j, y in enumerate(b):
                        conv[i + j] += x * y
                return _poly_rem(conv, self.modulus, p)
        else:
            pos = {m: i for i, m in enumerate(self.basis)}
            prod = [[pos.get(tuple(x + y for x, y in zip(a, b))) for b in self.basis]
                    for a in self.basis]

            def mul(a, b):
                out = [0] * d
                for i, x in enumerate(a):
                    if x:
                        for j, y in enumerate(b):
                            t = prod[i][j]
                            if y and t is not None:
                                out[t] = (out[t] + x * y) % p
                return out
        table = np.array([[self._index(mul(a, b)) for b in vecs] for a in vecs])
        return add, table

    @property
    def add(self) -> np.ndarray:
        self._build()
        return self._add

    @property
    def mul(self) -> np.ndarray:
        self._build()
        return self._mul

    def _build(self) -> None:
        if self._add is not None:
            return
        if self.kind != "prod":
            self._add, self._mul = self._base_tables()
            return
        # mixed radix over components, first component slowest
        add = mul = np.zeros((1, 1), dtype=np.int64)
        for f in self.factors:
            s = f.size
            add = (add[:, None, :, None] * s + f.add[None, :, None, :]).reshape(
                add.shape[0] * s, -1)
            mul = (mul[:, None, :, None] * s + f.mul[None, :, None, :]).reshape(
                mul.shape[0] * s, -1)
        self._add, self._mul = add, mul

    @property
    def zero(self) -> int:
        return 0

    def parse(self, label: str) -> int:
        """Element index of a label as zdgraph prints it."""
        if self.kind == "prod":
            if not (label.startswith("(") and label.endswith(")")):
                raise ValueError(f"bad product label {label!r}")
            parts = _split_top(label[1:-1])
            if len(parts) != len(self.factors):
                raise ValueError(f"bad product label {label!r}")
            idx = 0
            for f, part in zip(self.factors, parts):
                idx = idx * f.size + f.parse(part)
            return idx
        if self.kind == "zn":
            v = int(label)
            if not 0 <= v < self.n:
                raise ValueError(f"bad residue {label!r}")
            return v
        vec = [0] * self.dim
        if label != "0":
            for term in label.split("+"):
                m = re.fullmatch(r"(\d*)([a-z^0-9]*)", term)
                coeff, mono = m.group(1), m.group(2)
                if not mono:
                    pos = 0 if self.kind == "poly" else self.basis.index((0,) * len(self.vars))
                elif self.kind == "poly":
                    mm = re.fullmatch(r"x(?:\^(\d+))?", mono)
                    pos = int(mm.group(1) or 1)
                else:
                    pos = self.basis.index(self._monomial(mono))
                vec[pos] = (int(coeff) if coeff else 1) % self.p
        return self._index(vec)

    # -- derived structure --------------------------------------------------

    def zero_divisor_graph(self) -> tuple[list[int], set[tuple[int, int]]]:
        """Nonzero zero-divisors and the pairs {a, b}, a < b, with ab = 0."""
        kill = self.mul == self.zero
        verts = [a for a in range(1, self.size) if kill[a, 1:].any()]
        vs = np.array(verts, dtype=np.int64)
        sub = kill[np.ix_(vs, vs)] if verts else np.zeros((0, 0), bool)
        ii, jj = np.nonzero(np.triu(sub, 1))
        return verts, {(int(vs[i]), int(vs[j])) for i, j in zip(ii, jj)}

    def is_reduced(self) -> bool:
        """No nonzero a with a^k = 0; a^(2^j) reaches 0 if any power does."""
        cur = np.arange(self.size)
        for _ in range(max(1, self.size.bit_length())):
            cur = self.mul[cur, cur]
        return int(np.count_nonzero(cur == self.zero)) == 1

    def local_factor_count(self) -> int:
        """Number of maximal (= minimal prime) ideals: 2^k idempotents."""
        idem = int(np.count_nonzero(self.mul.diagonal() == np.arange(self.size)))
        return idem.bit_length() - 1

    def annihilator_partition(self) -> set[frozenset[int]]:
        groups: dict[bytes, set[int]] = {}
        for a, row in enumerate(self.mul == self.zero):
            groups.setdefault(row.tobytes(), set()).add(a)
        return {frozenset(g) for g in groups.values()}

    def additive_closure(self, gens) -> frozenset[int]:
        cur = np.unique(np.append(np.asarray(list(gens), dtype=np.int64), self.zero))
        while True:
            nxt = np.unique(self.add[np.ix_(cur, cur)])
            if len(nxt) == len(cur):
                return frozenset(nxt.tolist())
            cur = nxt

    def principal(self, a: int) -> frozenset[int]:
        return frozenset(np.unique(self.mul[:, a]).tolist())

    def ideal_generated(self, gens) -> frozenset[int]:
        gens = list(gens)
        if not gens:
            return frozenset({self.zero})
        return self.additive_closure(np.unique(self.mul[:, gens]))

    def ideal_product(self, I, J) -> frozenset[int]:
        a = np.fromiter(I, dtype=np.int64)
        b = np.fromiter(J, dtype=np.int64)
        return self.additive_closure(np.unique(self.mul[np.ix_(a, b)]))

    def parse_ideal(self, label: str) -> frozenset[int]:
        """An ideal from zdgraph's label: "(g,h,...)" generators or "{a,...}"."""
        if label.startswith("{") and label.endswith("}"):
            return frozenset(self.parse(s) for s in _split_top(label[1:-1]))
        if label.startswith("(") and label.endswith(")"):
            return self.ideal_generated(self.parse(s) for s in _split_top(label[1:-1]))
        raise ValueError(f"bad ideal label {label!r}")


def zn_ideal_count(n: int) -> int:
    """tau(n), the number of divisors."""
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def euler_phi(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
