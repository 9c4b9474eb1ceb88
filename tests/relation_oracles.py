"""Reference relation routines: the bool-matrix code the bitmask rows replaced.

A relation here is an n x n matrix of bools (``rel[i][j]``: i relates to j),
the form ``FinitePoset.leq`` had before it became bitmask rows.  The routines
share no code with the program, so tests can compare verdicts, closures and
``InvalidPoset`` messages of ``zdgraph.spectra`` against them.
"""


def to_rows(rel):
    """Bitmask rows of a bool matrix: bit j of row i is rel[i][j]."""
    return tuple(sum(1 << j for j, x in enumerate(row) if x) for row in rel)


def to_bools(rows, n):
    """The bool matrix of n bitmask rows, as the nested tuple ``leq`` was."""
    return tuple(tuple(bool(r >> j & 1) for j in range(n)) for r in rows)


def poset_message(n, leq):
    """The first ``InvalidPoset`` message of the bool-matrix validator, or None."""
    if len(leq) != n or any(len(r) != n for r in leq):
        return "relation has wrong shape"
    for i in range(n):
        if not leq[i][i]:
            return f"not reflexive at {i}"
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                return f"not antisymmetric at ({i}, {j})"
            for k in range(n):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    return f"not transitive at ({i}, {j}, {k})"
    return None


def is_transitive(rel):
    return all(
        row_a[c]
        for row_a in rel
        for b, row_b in enumerate(rel)
        if row_a[b]
        for c, x in enumerate(row_b)
        if x
    )


def transitive_closure(rel):
    """Warshall's algorithm over bools."""
    n = len(rel)
    leq = [list(row) for row in rel]
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    leq[i][j] = leq[i][j] or leq[k][j]
    return tuple(tuple(row) for row in leq)
