"""Reference ideal arithmetic: the frozenset routines the ideal index replaced.

Each routine recomputes its answer from the ring tables alone, sharing no
state with the program, so tests can compare ``zdgraph.rings.IdealIndex``,
the polynomial content checks and ``make_product`` against them.  An ideal
is a frozenset of element indices here and an int mask in the program;
``mask`` and ``ideal_set`` convert where the two are compared.  The
``index_*`` helpers are the exception: they read the program's index and
take and return masks.  The
prime, maximal and minimal-prime filters are the product-lookup and
pairwise-inclusion routines that reading maximality off the join rows
replaced.  The module also lists the benchmark's ring presentations and
keeps one ring object per spec for the test modules.
"""

import functools
import importlib.util
import itertools
import pathlib
import sys

import numpy as np

from table_oracles import mask
from zdgraph import polynomials, rings
from zdgraph.semigroups import SizeGuardExceeded, members

BIG = "prod:Zn:4,Zn:9,Zn:5,Zn:7"


@functools.cache
def _workloads():
    """``perfbench/workloads.py``, imported from its file."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclass looks itself up there
    return module


def ring_analyze_specs():
    """The ring presentations of the ring-analyze benchmark workload."""
    return [s for specs, _, _ in _workloads().RING_SLOTS for s in specs]


def workload_ring_specs():
    """Every ring presentation of the ring-analyze and poly-checks workloads."""
    poly = [s for specs, *_ in _workloads().POLY_SLOTS for s in specs]
    return sorted(set(ring_analyze_specs() + poly))


@functools.cache
def cached_ring(spec):
    """One ring object per spec, shared by the test modules."""
    return rings.ring_from_spec(spec)


def ideal_set(I):
    """The frozenset of the members of a program ideal mask."""
    return frozenset(members(I))


def principal_ideal(R, a):
    return frozenset(np.unique(R.mul[:, a]).tolist())


# Ra, I + J and IJ read from the ring's ideal index, for tests of the index;
# the program itself reads the index's tables whole


def index_principal(R, a):
    index = rings.ideal_index(R)
    return index.ideals[index.principal[a]]


def _index_combine(R, I, J, operation):
    index = rings.ideal_index(R)
    ks = np.array([index.index_of(I), index.index_of(J)])
    return index.ideals[index.table(ks, operation)[0, 1]]


def index_sum(R, I, J):
    return _index_combine(R, I, J, "add")


def index_product(R, I, J):
    return _index_combine(R, I, J, "mult")


def ideal_sum(R, I, J):
    if J <= I:
        return I
    if I <= J:
        return J
    ai = np.fromiter(I, dtype=np.int64)
    aj = np.fromiter(J, dtype=np.int64)
    return frozenset(np.unique(R.add[np.ix_(ai, aj)]).tolist())


def _additive_closure(R, gens):
    cur = np.unique(np.append(gens, R.zero))
    while True:
        nxt = np.unique(R.add[np.ix_(cur, cur)])
        if len(nxt) == len(cur):
            return frozenset(nxt.tolist())
        cur = nxt


def ideal_product(R, I, J):
    """The additive closure of the pairwise products of members."""
    ai = np.fromiter(I, dtype=np.int64)
    aj = np.fromiter(J, dtype=np.int64)
    return _additive_closure(R, np.unique(R.mul[np.ix_(ai, aj)]))


def content(f):
    acc = frozenset({f.ring.zero})
    for c in set(f.coeffs):
        acc = ideal_sum(f.ring, acc, principal_ideal(f.ring, c))
    return acc


def contents_hit(R, degree_bound):
    """The ideals realized as contents of polynomials of degree <= d."""
    return {content(f) for f in polynomials.polys_up_to_degree(R, degree_bound)}


def enumerate_ideals(R, max_ideals=10000):
    """Principal ideals closed under adding one principal ideal; the guard
    counts only the ideals found beyond the principal ones."""
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


def semigroup_table(R, ideals, operation, upper_only=False):
    """The combine loop of ``ideal_semigroup``: one sum or product per pair.

    With ``upper_only`` the cells below the diagonal are left as -1.
    """
    pos = {I: i for i, I in enumerate(ideals)}
    combine = ideal_product if operation == "mult" else ideal_sum
    return [
        [pos[combine(R, I, J)] if j >= i or not upper_only else -1
         for j, J in enumerate(ideals)]
        for i, I in enumerate(ideals)
    ]


def ideal_label(R, I):
    """The first hit over least generators: one, then pairs, then triples."""
    members = sorted(I)
    first = {}
    for a in members:
        Ia = principal_ideal(R, a)
        if Ia == I:
            return f"({R.labels[a]})"
        first.setdefault(Ia, a)
    gen = {a: Ia for Ia, a in first.items()}
    for a, b in itertools.combinations(gen, 2):
        if ideal_sum(R, gen[a], gen[b]) == I:
            return f"({R.labels[a]},{R.labels[b]})"
    for a, b, c in itertools.combinations(gen, 3):
        if ideal_sum(R, ideal_sum(R, gen[a], gen[b]), gen[c]) == I:
            return f"({R.labels[a]},{R.labels[b]},{R.labels[c]})"
    return "{" + ",".join(R.labels[a] for a in members) + "}"


def prime_ideals(R, ideals):
    """The ideals I that are proper with no product of two non-members in I."""
    return [I for I in ideals if rings.is_ideal_prime(R, mask(I))]


def maximal_ideals(R, ideals):
    """The proper ideals not strictly inside another proper one of the list."""
    proper = [I for I in ideals if len(I) < R.size]
    return [I for I in proper if not any(I < J for J in proper)]


def minimal_primes(R, ideals):
    primes = prime_ideals(R, ideals)
    return [P for P in primes if not any(Q < P for Q in primes)]


def jacobson_radical(R, ideals):
    return frozenset(range(R.size)).intersection(*maximal_ideals(R, ideals))


def product_tables(factors):
    """``make_product``'s cell-by-cell builder: (labels, add, mul, zero, one)."""
    elems = list(itertools.product(*(range(r.size) for r in factors)))
    pos = {e: i for i, e in enumerate(elems)}
    labels = tuple("(" + ",".join(r.labels[c] for r, c in zip(factors, e)) + ")" for e in elems)

    def table(name):
        tables = [getattr(r, name).tolist() for r in factors]
        return tuple(
            tuple(pos[tuple(t[x][y] for t, x, y in zip(tables, e, f))]
                  for f in elems)
            for e in elems
        )

    return (labels, table("add"), table("mul"),
            pos[tuple(r.zero for r in factors)], pos[tuple(r.one for r in factors)])


class ContentTables:
    """The pair checks' private content index, kept as a reference.

    A content is a fold of ``join[I, Ra]`` = I + Ra over the coefficients,
    with join rows filled the first time their ideal is met.
    """

    def __init__(self, R):
        self.R = R
        self.ideals = []
        self._pos = {}
        self.principal = np.array([self._index(principal_ideal(R, a)) for a in range(R.size)])
        self._columns = list(self.ideals)
        self._rows = {}
        self._join = np.zeros((0, len(self._columns)), dtype=np.int64)
        self._has_row = np.zeros(0, dtype=bool)

    def _index(self, I):
        k = self._pos.get(I)
        if k is None:
            k = self._pos[I] = len(self.ideals)
            self.ideals.append(I)
        return k

    def _join_for(self, c):
        J = self._join
        if c.size and (c.max() >= len(J) or not self._has_row[c].all()):
            for k in np.unique(c).tolist():
                if k not in self._rows:
                    I = self.ideals[k]
                    self._rows[k] = [self._index(ideal_sum(self.R, I, P)) for P in self._columns]
            J = np.full((len(self.ideals), len(self._columns)), -1, dtype=np.int64)
            self._has_row = np.zeros(len(J), dtype=bool)
            for k, row in self._rows.items():
                J[k] = row
                self._has_row[k] = True
            self._join = J
        return J

    def content(self, coeffs):
        c = self.principal[coeffs[..., 0]]
        for k in range(1, coeffs.shape[-1]):
            c = self._join_for(c)[c, self.principal[coeffs[..., k]]]
        return c

    def products(self, cf):
        seen, key = np.unique(cf, return_inverse=True)
        Is = [self.ideals[k] for k in seen.tolist()]
        prod = np.array([[self._index(ideal_product(self.R, I, J)) for J in Is] for I in Is])
        return prod, key.reshape(cf.shape)

    def membership(self):
        member = np.zeros((len(self.ideals), self.R.size), dtype=bool)
        for k, I in enumerate(self.ideals):
            member[k, list(I)] = True
        return member


def gaussian_failures(R, F):
    T = ContentTables(R)
    prod, key = T.products(T.content(F))

    def fails(r0, C):  # C[k, b, g], as the engine's product blocks are laid out
        got = T.content(np.moveaxis(C, 0, -1))
        return got != prod[key[r0 : r0 + C.shape[1], None], key[None, :]]

    return fails


def containment_failures(R, F):
    T = ContentTables(R)
    prod, key = T.products(T.content(F))
    member = T.membership()

    def fails(r0, C):
        P = prod[key[r0 : r0 + C.shape[1], None], key[None, :]]
        return ~member[P, C].all(0)

    return fails
