"""Command-line front end: analyze objects, run theorem suites, export graphs.

Exit codes: 0 all assertions pass, 1 usage or input error, 2 a theorem or
check assertion failed (the failure is reported with its witness).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
import time

from . import __version__
from .graphs import (
    COUNTABLY_INFINITE,
    DEFAULT_MAX_CHROMATIC_VERTICES,
    DEFAULT_MAX_CLIQUE_VERTICES,
    SimpleGraph,
    graph_to_json,
    invariant_bundle,
    to_dot,
    zero_divisor_graph,
)
from .polynomials import (
    DEFAULT_MAX_POLYS,
    check_armendariz_ring,
    check_gaussian,
    clique_stabilization,
)
from .rings import (
    DEFAULT_MAX_IDEALS,
    ag_conjecture_check,
    annihilating_ideal_graph,
    beck_gamma0,
    comaximal_ideal_graph,
    gamma_graph,
    ideals_to_json,
    multiplicative_semigroup,
    ring_from_spec,
)
from .semigroups import (
    DEFAULT_MAX_TABLE,
    SemigroupTable,
    SizeGuardExceeded,
    eq_quotient,
    is_nilpotent_free,
    spec_int,
    validate_semigroup,
)
from .spectra import (
    FanPoset,
    FinitePoset,
    fan_from_spec,
    fan_max_irreducible,
    sigma_spec,
    specs_theorem_suite,
)
from .suites import SUITES
from .topology import (
    CofiniteT1Lattice,
    FiniteSpace,
    axiom_suite,
    closure_lattice,
    lattice_semigroup,
    powerset_lattice,
    t1_invariants,
)


def _jsonable(x):
    if x == float("inf"):
        return "inf"
    if x is COUNTABLY_INFINITE:
        return "countably-infinite"
    return x


def _bundle_dict(b):
    return {
        "diameter": _jsonable(b.diameter),
        "girth": _jsonable(b.girth),
        "clique": _jsonable(b.clique),
        "chromatic": _jsonable(b.chromatic),
    }


# The guard flags of ``analyze``, each with its environment variable, its
# library default and its help text; ``export`` has no guard flags and
# reads the environment variables alone.
GUARD_FLAGS = {
    "--max-clique": ("ZDGRAPH_MAX_CLIQUE", DEFAULT_MAX_CLIQUE_VERTICES,
                     "clique-solver vertex guard"),
    "--max-chromatic": ("ZDGRAPH_MAX_CHROMATIC", DEFAULT_MAX_CHROMATIC_VERTICES,
                        "chromatic-solver vertex guard"),
    "--max-table": ("ZDGRAPH_MAX_TABLE", DEFAULT_MAX_TABLE, "semigroup-table size guard"),
    "--max-ideals": ("ZDGRAPH_MAX_IDEALS", DEFAULT_MAX_IDEALS, "ideal-count guard"),
    "--max-polys": ("ZDGRAPH_MAX_POLYS", DEFAULT_MAX_POLYS, "polynomial-enumeration guard"),
}


def _limit(args, flag: str) -> int:
    """A guard's limit: its flag if given, else its environment variable,
    else the library default.  Each is read where its guard is used."""
    env, default, _ = GUARD_FLAGS[flag]
    value = getattr(args, flag[2:].replace("-", "_"), None)
    return int(os.environ.get(env, default)) if value is None else value


def _load_object(args):
    """Resolve the single object a request addresses."""
    chosen = [
        name
        for name in ("ring", "semigroup", "space", "poset", "lattice")
        if getattr(args, name) is not None
    ]
    if len(chosen) != 1:
        raise ValueError("exactly one of --ring/--semigroup/--space/--poset/--lattice")
    kind = chosen[0]
    value = getattr(args, kind)
    if kind == "ring":
        return kind, ring_from_spec(value)
    if kind == "semigroup":
        with open(value) as fh:
            table = SemigroupTable.from_json(fh.read())
        validate_semigroup(table, max_size=_limit(args, "--max-table")).raise_if_invalid()
        return kind, table
    if kind == "space":
        with open(value) as fh:
            return kind, FiniteSpace.from_json(fh.read())
    if kind == "poset":
        if value.startswith("fan:"):
            return kind, fan_from_spec(value)
        with open(value) as fh:
            return kind, FinitePoset.from_json(fh.read())
    if value == "symbolic-cofinite":
        return kind, CofiniteT1Lattice()
    if value.startswith("powerset:"):
        size = spec_int(value, "ground size", value[len("powerset:"):], ValueError)
        return kind, powerset_lattice(size)
    raise ValueError(f"unknown lattice selector {value!r}")


def _object_gamma(kind, obj, graph_name="gamma", max_ideals=DEFAULT_MAX_IDEALS,
                  max_table=DEFAULT_MAX_TABLE) -> SimpleGraph:
    if kind == "ring":
        if graph_name == "gamma":
            return gamma_graph(obj)
        if graph_name == "gamma-e":
            S = multiplicative_semigroup(obj)
            return zero_divisor_graph(
                eq_quotient(S, permissive=not is_nilpotent_free(S)).quotient
            )
        if graph_name == "beck":
            return beck_gamma0(obj)
        if graph_name == "ag":
            return annihilating_ideal_graph(obj, max_ideals, max_table)
        if graph_name == "comaximal":
            return comaximal_ideal_graph(obj, max_ideals, max_table)
        raise ValueError(f"unknown graph {graph_name!r} for a ring")
    if graph_name != "gamma":
        raise ValueError(f"graph {graph_name!r} only applies to rings")
    if kind == "semigroup":
        return zero_divisor_graph(obj)
    if kind == "space":
        return zero_divisor_graph(closure_lattice(obj))
    if kind == "poset":
        if isinstance(obj, FanPoset):
            raise ValueError("symbolic fans have no finite graph; use specs-suite")
        return zero_divisor_graph(sigma_spec(obj))
    if isinstance(obj, CofiniteT1Lattice):
        raise ValueError("the symbolic lattice has no finite graph; use t1 task")
    return zero_divisor_graph(lattice_semigroup(obj))


def _task_invariants(kind, obj, guards):
    if kind == "lattice":
        return {"t1_lattice": _bundle_dict(t1_invariants(obj))}
    if kind == "poset" and isinstance(obj, FanPoset):
        irred, _ = fan_max_irreducible(obj)
        bundle = {
            "diameter": 2 if irred else 3,
            "girth": 3,
            "clique": "countably-infinite",
            "chromatic": "countably-infinite",
        }
        return {"gamma_spec_lattice": bundle, "max_irreducible": irred}
    G = _object_gamma(kind, obj)
    return {
        "vertices": list(G.vertices),
        "edges": sorted([G.vertices[i], G.vertices[j]] for i, j in G.edges),
        "gamma": _bundle_dict(invariant_bundle(G, **guards)),
    }


def _task_eq_quotient(kind, obj, guards):
    if kind == "ring":
        S = multiplicative_semigroup(obj)
    elif kind == "semigroup":
        S = obj
    else:
        raise ValueError("eq-quotient applies to rings and semigroups")
    permissive = not is_nilpotent_free(S)
    q = eq_quotient(S, permissive=permissive)
    GE = zero_divisor_graph(q.quotient)
    return {
        "nilpotent_free": not permissive,
        "classes": [[S.elements[i] for i in cls] for cls in q.classes],
        "gamma_e": _bundle_dict(invariant_bundle(GE, **guards)),
    }


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    kind, obj = _load_object(args)
    guards = {
        "max_clique_vertices": _limit(args, "--max-clique"),
        "max_chromatic_vertices": _limit(args, "--max-chromatic"),
    }
    tasks = [t.strip() for t in (args.tasks or "invariants").split(",") if t.strip()]
    results = {}
    failed = False

    for task in tasks:
        if task == "invariants":
            results["invariants"] = _task_invariants(kind, obj, guards)
        elif task == "eq-quotient":
            results["eq-quotient"] = _task_eq_quotient(kind, obj, guards)
        elif task == "validate":
            if kind not in ("semigroup", "ring"):
                raise ValueError("validate task applies to semigroup files and rings")
            # _load_object has already validated the table or the ring
            table = obj if kind == "semigroup" else multiplicative_semigroup(obj)
            results["validate"] = {
                "ok": True,
                "law": None,
                "witness": None,
                "nilpotent_free": is_nilpotent_free(table),
            }
        elif task == "ideals":
            if kind != "ring":
                raise ValueError("ideals task applies to rings")
            results["ideals"] = json.loads(ideals_to_json(obj, _limit(args, "--max-ideals")))
        elif task == "axioms":
            if kind != "space":
                raise ValueError("axioms task applies to spaces")
            ax = axiom_suite(obj)
            results["axioms"] = {
                "t0": ax.t0, "t1": ax.t1, "t_half": ax.t_half,
                "pearled": ax.pearled, "noetherian": ax.noetherian,
            }
        elif task == "specs-suite":
            if kind != "poset":
                raise ValueError("specs-suite applies to posets")
            report = specs_theorem_suite(obj)
            failed = failed or not report.passed
            results["specs-suite"] = {
                "passed": report.passed,
                "max_irreducible": report.max_irreducible,
                "parts": [
                    {"name": p.name, "applies": p.applies,
                     "passed": p.passed, "details": p.details}
                    for p in report.parts
                ],
            }
        elif task == "ag-check":
            if kind != "ring":
                raise ValueError("ag-check applies to rings")
            rep = ag_conjecture_check(obj, _limit(args, "--max-ideals"),
                                      _limit(args, "--max-table"))
            failed = failed or rep.passed is False
            results["ag-check"] = {
                "reduced": rep.reduced,
                "minimal_primes": rep.minimal_prime_count,
                "applies": rep.applies,
                "girth": _jsonable(rep.girth),
                "witness": rep.witness,
                "verdict": "pass" if rep.passed else (
                    "hypothesis not met" if rep.passed is None else "FAIL"),
            }
        elif task == "t1":
            if kind != "lattice":
                raise ValueError("t1 task applies to lattices")
            results["t1"] = _bundle_dict(t1_invariants(obj))
        else:
            raise ValueError(f"unknown task {task!r}")

    if args.check:
        if kind != "ring":
            raise ValueError("--check applies to rings")
        d = args.degree
        max_polys = _limit(args, "--max-polys")
        if args.check == "armendariz":
            rep = check_armendariz_ring(obj, d, max_polys)
        elif args.check == "gaussian":
            rep = check_gaussian(obj, d, max_polys)
        else:
            st = clique_stabilization(obj, d, max_polys)
            failed = failed or not st.passed
            results["clique-stab"] = {
                "passed": st.passed,
                "base": [st.base_clique, st.base_chromatic],
                "per_degree": [list(r) for r in st.per_degree],
            }
            rep = None
        if rep is not None:
            failed = failed or not rep.passed
            results[args.check] = {
                "passed": rep.passed,
                "pairs_checked": rep.pairs_checked,
                "witness": list(rep.witness) if rep.witness else None,
            }

    report = {
        "object": getattr(obj, "tag", None) or f"{kind}",
        "version": __version__,
        "elapsed_s": round(time.perf_counter() - t0, 3),
        "results": results,
    }
    _emit(report, args.json)
    return 2 if failed else 0


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    bad = [n for n in names if n not in SUITES]
    if bad:
        raise ValueError(f"unknown suite {bad[0]!r}; known: {', '.join(SUITES)}")
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.max_ground is not None:
        kwargs["max_ground"] = args.max_ground
    if args.max_points is not None:
        kwargs["max_points"] = args.max_points
    if args.max_fields is not None:
        kwargs["factor_counts"] = tuple(range(3, args.max_fields + 1))
    if args.min_pairs is not None:
        kwargs["min_pairs"] = args.min_pairs
    if args.degree is not None:
        kwargs["degree"] = args.degree
    if args.max_order is not None:
        kwargs["max_order"] = args.max_order
    overall = True
    reports = []
    for name in names:
        fn = SUITES[name]
        accepted = inspect.signature(fn).parameters
        passed_kwargs = {k: v for k, v in kwargs.items() if k in accepted}
        report = fn(**passed_kwargs)
        overall = overall and report.passed
        reports.append(report)
        if not args.json:
            print(f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'} "
                  f"({len(report.items)} items, {report.elapsed_s:.2f}s)")
            for item in report.items:
                mark = "ok " if item.passed else "FAIL"
                print(f"  [{mark}] {item.name}: {item.details}")
    if args.json:
        payload = reports[0].to_dict() if len(reports) == 1 else [r.to_dict() for r in reports]
        print(json.dumps(payload, indent=2))
    return 0 if overall else 2


def cmd_export(args) -> int:
    kind, obj = _load_object(args)
    G = _object_gamma(kind, obj, args.graph, _limit(args, "--max-ideals"),
                      _limit(args, "--max-table"))
    text = to_dot(G) if args.format == "dot" else graph_to_json(G) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
        return
    print(f"object: {payload['object']}")
    for task, data in payload["results"].items():
        print(f"[{task}]")
        _print_tree(data, indent=2)


def _print_tree(data, indent=0) -> None:
    pad = " " * indent
    if isinstance(data, dict):
        for k, v in data.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                print(f"{pad}{k}:")
                _print_tree(v, indent + 2)
            else:
                print(f"{pad}{k} = {v}")
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, dict):
                _print_tree(v, indent)
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{data}")


def _is_flat(v) -> bool:
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _add_object_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ring", help="ring spec, e.g. Zn:6, gf:4, prod:Zn:2,Zn:3, "
                                  "polyquot:p=2;mod=1,1,1, mvq:p=2;vars=x,y;rel=x2,xy,y2")
    p.add_argument("--semigroup", help="path to a semigroup-table JSON file")
    p.add_argument("--space", help="path to a finite-space JSON file")
    p.add_argument("--poset", help="path to a poset JSON file, or fan spec "
                                   "fan:generics=1;sharing=all / fan:disjoint=2")
    p.add_argument("--lattice", help="symbolic-cofinite or powerset:N")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: nothing in it depends on the
    request, and guard limits are read when a command runs."""
    parser = argparse.ArgumentParser(
        prog="zdgraph",
        description="exact zero-divisor graph computations and theorem suites",
    )
    parser.add_argument("--version", action="version", version=f"zdgraph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="compute invariants and run checks on one object")
    _add_object_flags(pa)
    pa.add_argument("--tasks", help="comma list: invariants, eq-quotient, validate, "
                                    "ideals, axioms, specs-suite, ag-check, t1 "
                                    "(default: invariants)")
    pa.add_argument("--check", choices=["armendariz", "gaussian", "clique-stab"],
                    help="content-map check for a ring")
    pa.add_argument("--degree", type=int, default=2, help="degree bound for --check")
    for flag, (env, _, text) in GUARD_FLAGS.items():
        pa.add_argument(flag, type=int, default=None, help=f"{text} (env {env})")
    pa.add_argument("--json", action="store_true", help="JSON report")

    pv = sub.add_parser("verify", help="run a theorem-verification suite")
    pv.add_argument("suite", help=f"one of: {', '.join(SUITES)}, or all")
    pv.add_argument("--seed", type=int, default=None, help="corpus seed")
    pv.add_argument("--max-fields", type=int, default=None,
                    help="largest number of field factors (ag-conjecture)")
    pv.add_argument("--max-ground", type=int, default=None,
                    help="largest ground set (t1-lattice, charirrconn)")
    pv.add_argument("--max-points", type=int, default=None,
                    help="largest poset/space size (specs, pearled)")
    pv.add_argument("--min-pairs", type=int, default=None,
                    help="required corpus size (armendariz)")
    pv.add_argument("--degree", type=int, default=None,
                    help="degree bound (content)")
    pv.add_argument("--max-order", type=int, default=None,
                    help="ring order bound (content, ag-conjecture)")
    pv.add_argument("--json", action="store_true", help="JSON report")

    pe = sub.add_parser("export", help="export a graph as DOT or JSON")
    _add_object_flags(pe)
    pe.add_argument("--graph", default="gamma",
                    choices=["gamma", "gamma-e", "beck", "ag", "comaximal"])
    pe.add_argument("--format", default="dot", choices=["dot", "json"])
    pe.add_argument("-o", "--output", help="output file (default stdout)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at each call, so a rebound command function is the one run
    command = {"analyze": cmd_analyze, "verify": cmd_verify, "export": cmd_export}
    try:
        return command[args.command](args)
    except SizeGuardExceeded as exc:
        print(f"error: guard exceeded: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
