"""Reference checks for every answer the benchmark receives.

Each checker takes the program's exit code and output and returns a list of
problems; an empty list means the answer is right.  Graph invariants are
recomputed with networkx, ring structure with ``refring``; nothing is
compared against a stored copy of earlier output.
"""

from __future__ import annotations

import ast
import json
import math
import re

import networkx as nx

from refring import RefRing, euler_phi, zn_ideal_count

INF = "inf"

# labelled posets (OEIS A001035) and topologies (A000798) on n points
POSET_COUNTS = [1, 1, 3, 19, 219, 4231]
TOPOLOGY_COUNTS = [1, 1, 4, 29, 355, 6942]


_RINGS: dict[str, RefRing] = {}


def ring(spec: str) -> RefRing:
    if spec not in _RINGS:
        _RINGS[spec] = RefRing(spec)
    return _RINGS[spec]


# ---------------------------------------------------------------------------
# graphs


def colouring(adj: dict[int, set[int]], k: int):
    """A proper colouring with at most k colours (DSATUR backtracking), or None."""
    colour: dict[int, int] = {}
    order = sorted(adj, key=lambda v: -len(adj[v]))

    def pick():
        return max(
            (v for v in order if v not in colour),
            key=lambda v: (len({colour[u] for u in adj[v] if u in colour}), len(adj[v])),
        )

    def rec(used: int) -> bool:
        if len(colour) == len(adj):
            return True
        v = pick()
        taken = {colour[u] for u in adj[v] if u in colour}
        for c in range(min(k, used + 1)):
            if c not in taken:
                colour[v] = c
                if rec(max(used, c + 1)):
                    return True
                del colour[v]
        return False

    return dict(colour) if rec(0) else None


def graph_problems(verts, edges, bundle, where: str) -> list[str]:
    """Check a reported (diameter, girth, clique, chromatic) bundle."""
    G = nx.Graph()
    G.add_nodes_from(verts)
    G.add_edges_from(edges)
    n = G.number_of_nodes()
    if n == 0:
        diam, girth, clique = 0, INF, 0
    else:
        diam = nx.diameter(G) if nx.is_connected(G) else INF
        g = nx.girth(G)
        girth = INF if g == math.inf else g
        clique = max(len(c) for c in nx.find_cliques(G))
    out = []
    for key, want in (("diameter", diam), ("girth", girth), ("clique", clique)):
        if bundle.get(key) != want:
            out.append(f"{where}: {key} {bundle.get(key)!r}, networkx gives {want!r}")
    chi = bundle.get("chromatic")
    if not isinstance(chi, int) or chi < clique:
        out.append(f"{where}: chromatic {chi!r} below clique number {clique}")
    elif n:
        adj = {v: set(G[v]) for v in G}
        col = colouring(adj, chi)
        if col is None or any(col[a] == col[b] for a, b in G.edges) or (
            len(set(col.values())) != chi
        ):
            out.append(f"{where}: no proper colouring with {chi} colours")
        elif chi > clique and colouring(adj, chi - 1) is not None:
            out.append(f"{where}: {chi - 1} colours suffice, chromatic {chi} too high")
    if diam != INF and diam > 3:
        out.append(f"{where}: diameter {diam} > 3 contradicts Anderson-Livingston")
    if girth not in (3, 4, INF):
        out.append(f"{where}: girth {girth} not in {{3, 4, inf}}")
    return out


def gamma_problems(R: RefRing, inv: dict) -> list[str]:
    """Vertices, edges and invariants of the zero-divisor graph."""
    verts, edges = R.zero_divisor_graph()
    out = []
    try:
        got_v = [R.parse(v) for v in inv["vertices"]]
        got_e = {tuple(sorted((R.parse(a), R.parse(b)))) for a, b in inv["edges"]}
    except (ValueError, KeyError) as exc:
        return [f"{R.spec}: unreadable graph ({exc})"]
    if sorted(got_v) != verts or len(set(got_v)) != len(got_v):
        out.append(f"{R.spec}: {len(got_v)} vertices, reference has {len(verts)}")
    if got_e != edges or len(inv["edges"]) != len(edges):
        out.append(f"{R.spec}: {len(inv['edges'])} edges, reference has {len(edges)}")
    if R.kind == "zn" and len(verts) != R.n - euler_phi(R.n) - 1:
        out.append(f"{R.spec}: reference vertex count is not n - phi(n) - 1")
    return out + graph_problems(verts, edges, inv["gamma"], f"{R.spec} gamma")


# ---------------------------------------------------------------------------
# ideals


def _is_ideal(R: RefRing, I: frozenset[int]) -> bool:
    m = list(I)
    return (
        R.zero in I
        and set(R.add[m][:, m].ravel().tolist()) <= I
        and set(R.mul[:, m].ravel().tolist()) <= I
    )


def ideal_family_problems(R: RefRing, members: list[list[int]]) -> list[str]:
    """The family is exactly the set of ideals: each member is an ideal, the
    family holds every principal ideal and is closed under sums (so it holds
    every ideal), and it is closed under products."""
    fam = [frozenset(m) for m in members]
    where = f"{R.spec} ideals"
    if len(set(fam)) != len(fam):
        return [f"{where}: duplicate ideals"]
    bad = [sorted(I) for I in fam if not _is_ideal(R, I)]
    if bad:
        return [f"{where}: {len(bad)} members are not ideals, first {bad[0][:8]}"]
    family = set(fam)
    missing = [a for a in range(R.size) if R.principal(a) not in family]
    if missing:
        return [f"{where}: principal ideal of element {missing[0]} missing"]
    for i, I in enumerate(fam):
        for J in fam[i:]:
            if R.additive_closure(list(I | J)) not in family:
                return [f"{where}: not closed under sums"]
            if R.ideal_product(I, J) not in family:
                return [f"{where}: not closed under products"]
    fields = [f for f in R.factors if f.local_factor_count() == 1 and f.is_reduced()]
    if R.kind == "zn" and len(fam) != zn_ideal_count(R.n):
        return [f"{where}: {len(fam)} ideals, tau({R.n}) = {zn_ideal_count(R.n)}"]
    if len(fields) == len(R.factors) and len(fam) != 2 ** len(fields):
        return [f"{where}: {len(fam)} ideals in a product of {len(fields)} fields"]
    return []


def ag_witness_problems(R: RefRing, witness, where: str) -> list[str]:
    """A 3-cycle of the annihilating-ideal graph: three distinct nonzero
    ideals with pairwise zero products."""
    if not witness or len(witness) != 3:
        return [f"{where}: no 3-cycle witness ({witness!r})"]
    try:
        ideals = [R.parse_ideal(label) for label in witness]
    except ValueError as exc:
        return [f"{where}: unreadable witness ({exc})"]
    zero = frozenset({R.zero})
    if len(set(ideals)) != 3 or zero in ideals:
        return [f"{where}: witness ideals are not three distinct nonzero ideals"]
    for a in range(3):
        for b in range(a + 1, 3):
            if R.ideal_product(ideals[a], ideals[b]) != zero:
                return [f"{where}: {witness[a]} * {witness[b]} is not the zero ideal"]
    return []


# ---------------------------------------------------------------------------
# workload checkers


def ring_analyze_problems(spec: str, analyze: dict, export: dict) -> list[str]:
    """``analyze --tasks invariants,eq-quotient,ideals,ag-check`` and
    ``export --graph comaximal`` of one ring."""
    R = ring(spec)
    res = analyze["results"]
    out = gamma_problems(R, res["invariants"])

    eq = res["eq-quotient"]
    classes = {frozenset(R.parse(x) for x in cls) for cls in eq["classes"]}
    if classes != R.annihilator_partition():
        out.append(f"{spec}: eq-quotient classes differ from the annihilator partition")
    if eq["nilpotent_free"] != R.is_reduced():
        out.append(f"{spec}: eq-quotient nilpotent_free is {eq['nilpotent_free']}")

    members = res["ideals"]["ideals"]
    out += ideal_family_problems(R, members)

    ag = res["ag-check"]
    reduced, nmin = R.is_reduced(), R.local_factor_count()
    applies = reduced and nmin > 2
    if ag["reduced"] != reduced or ag["minimal_primes"] != nmin:
        out.append(f"{spec}: ag-check reports reduced={ag['reduced']}, "
                   f"{ag['minimal_primes']} minimal primes; reference {reduced}, {nmin}")
    if (ag["verdict"] == "pass") != applies or ag["verdict"] == "FAIL":
        out.append(f"{spec}: ag-check verdict {ag['verdict']!r} with applies={applies}")
    if applies:
        out += ag_witness_problems(R, ag["witness"], f"{spec} ag-check")

    # comaximal graph: proper ideals I, J with I + J = R
    fam = [frozenset(m) for m in members]
    whole = frozenset(range(R.size))
    proper = [I for I in fam if I != whole]
    co_edges = {
        (I, J) for i, I in enumerate(proper) for J in proper[i + 1:]
        if R.additive_closure(list(I | J)) == whole
    }
    co_verts = {I for e in co_edges for I in e}
    try:
        got_v = [R.parse_ideal(v) for v in export["vertices"]]
    except ValueError as exc:
        return out + [f"{spec}: unreadable comaximal vertex ({exc})"]
    got_e = {frozenset((got_v[i], got_v[j])) for i, j in export["edges"]}
    if set(got_v) != co_verts or len(got_v) != len(co_verts):
        out.append(f"{spec}: comaximal graph has {len(got_v)} vertices, "
                   f"reference {len(co_verts)}")
    if got_e != {frozenset(e) for e in co_edges}:
        out.append(f"{spec}: comaximal graph has {len(got_e)} edges, "
                   f"reference {len(co_edges)}")
    return out


def _parse_poly(R: RefRing, label: str) -> list[int]:
    """Coefficient indices, ascending, of a TruncPoly label."""
    coeffs = {}
    if label != "0":
        for term in label.split(" + "):
            lbl, sep, power = term.partition("*X")
            degree = int(power[1:]) if power.startswith("^") else (1 if sep else 0)
            coeffs[degree] = R.parse(lbl)
    return [coeffs.get(i, R.zero) for i in range(max(coeffs, default=-1) + 1)]


def _convolve(R: RefRing, f: list[int], g: list[int]) -> list[int]:
    out = [R.zero] * max(0, len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = int(R.add[out[i + j], R.mul[a, b]])
    return out


def witness_problems(R: RefRing, check: str, witness) -> list[str]:
    """Re-verify a reported counterexample pair with our own convolution."""
    where = f"{R.spec} {check} witness {witness!r}"
    try:
        f, g = (_parse_poly(R, w) for w in witness)
    except (ValueError, TypeError) as exc:
        return [f"{where}: unreadable ({exc})"]
    fg = _convolve(R, f, g)
    if check == "armendariz":
        fg_zero = all(c == R.zero for c in fg)
        coeff_zero = all(R.mul[a, b] == R.zero for a in f for b in g)
        return [] if fg_zero != coeff_zero else [f"{where}: not a counterexample"]
    prod = R.ideal_product(R.ideal_generated(f), R.ideal_generated(g))
    return [] if R.ideal_generated(fg) != prod else [f"{where}: not a counterexample"]


def poly_check_problems(spec: str, check: str, degree: int, rc: int, out: dict) -> list[str]:
    R = ring(spec)
    res = out["results"]
    probs = gamma_problems(R, res["invariants"])
    reduced = R.is_reduced()
    if check == "clique-stab":
        st = res["clique-stab"]
        bundle = res["invariants"]["gamma"]
        base = [bundle["clique"], bundle["chromatic"]]
        want_rows = [[d] + base for d in range(degree + 1)]
        if not reduced or not st["passed"] or st["base"] != base or st["per_degree"] != want_rows:
            probs.append(f"{spec} clique-stab: base {st['base']} rows {st['per_degree']}, "
                         f"reference base {base}")
        return probs + ([] if rc == 0 else [f"{spec} clique-stab: exit {rc}"])
    r = res[check]
    if (rc == 2) != (not r["passed"]) or rc not in (0, 2):
        probs.append(f"{spec} {check}: exit {rc} with passed={r['passed']}")
    if r["passed"]:
        want = R.size ** (2 * (degree + 1))
        if r["pairs_checked"] != want:
            probs.append(f"{spec} {check} d={degree}: {r['pairs_checked']} pairs, "
                         f"|R|^(2(d+1)) = {want}")
    else:
        if reduced:
            probs.append(f"{spec} {check}: a reduced ring failed")
        probs += witness_problems(R, check, r["witness"])
    return probs


def _flag(argv, flag: str, default: int) -> int:
    return int(argv[argv.index(flag) + 1]) if flag in argv else default


def suite_problems(argv, rc: int, rep: dict) -> list[str]:
    """One ``verify <suite> ... --json`` report."""
    name = argv[1]
    out = []
    if rc != 0 or not rep.get("passed") or not all(i["passed"] for i in rep["items"]):
        out.append(f"suite {name}: exit {rc}, passed={rep.get('passed')}")
    items = {i["name"]: i["details"] for i in rep["items"]}
    if name == "specs":
        for n in range(_flag(argv, "--max-points", 5) + 1):
            got = re.match(r"(\d+) posets", items.get(f"posets-{n}", ""))
            if not got or int(got.group(1)) != POSET_COUNTS[n]:
                out.append(f"suite specs: posets-{n} should report {POSET_COUNTS[n]} posets")
    elif name == "pearled":
        want = sum(TOPOLOGY_COUNTS[1:_flag(argv, "--max-points", 4) + 1])
        got = re.match(r"(\d+) topologies", items.get("implication-arrows", ""))
        if not got or int(got.group(1)) != want:
            out.append(f"suite pearled: expected {want} topologies")
    elif name == "armendariz":
        got = re.match(r"(\d+) maps, 0 failures", items.get("six-laws-hold", ""))
        if not got or int(got.group(1)) < 500:
            out.append("suite armendariz: fewer than 500 maps checked, or failures")
    elif name == "ag-conjecture":
        if not items:
            out.append("suite ag-conjecture: no items")
        for item, details in items.items():
            m = re.search(r"3-cycle=(\(.*\))$", details)
            witness = ast.literal_eval(m.group(1)) if m else None
            out += ag_witness_problems(ring(item.split(" ", 1)[1]), witness, item)
    elif name == "content":
        exponent = 2 * (_flag(argv, "--degree", 2) + 1)
        for item, details in items.items():
            kind, _, spec = item.partition(" ")
            if kind in ("armendariz", "containment"):
                got = re.match(r"(\d+) pairs", details)
                want = ring(spec).size ** exponent
                if not got or int(got.group(1)) != want:
                    out.append(f"suite content: {item} should report |R|^{exponent} = "
                               f"{want} pairs")
    return out


def problems(req, rc: int, text: str, partner_text: str | None = None) -> list[str]:
    """Dispatch on the request kind; ``partner_text`` is the analyze output
    that an export request of the same ring is checked against."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return [f"{' '.join(req.argv)}: output is not JSON (exit {rc})"]
    if req.kind == "verify":
        return suite_problems(req.argv, rc, data)
    if req.kind == "check":
        return poly_check_problems(req.spec, req.check, req.degree, rc, data)
    if req.kind == "export":
        if rc != 0:
            return [f"{req.spec} export: exit {rc}"]
        return ring_analyze_problems(req.spec, json.loads(partner_text), data)
    return [] if rc == 0 else [f"{req.spec} analyze: exit {rc}"]
