"""Command-line front end: analyze objects, run theorem suites, export graphs.

Exit codes: 0 all assertions pass, 1 usage or input error, 2 a theorem or
check assertion failed (the failure is reported with its witness).

Each object kind, task, check, export graph and verify flag is declared once,
in a table that the parser, the dispatch and the errors read; a request is
checked whole before its object is loaded.  Table entries look library
functions up by name when they run, so a rebound name is the one called.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .graphs import (
    COUNTABLY_INFINITE,
    DEFAULT_MAX_CHROMATIC_VERTICES,
    DEFAULT_MAX_CLIQUE_VERTICES,
    graph_to_json,
    invariant_bundle,
    to_dot,
    zero_divisor_graph,
)
from .polynomials import (
    DEFAULT_MAX_POLYS,
    check_armendariz_ring,
    check_degree,
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
    ideals_report,
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
    # an InvariantBundle's fields, in order: diameter, girth, clique, chromatic
    return {name: _jsonable(value) for name, value in vars(b).items()}


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


def _bundle(G, args) -> dict:
    return _bundle_dict(invariant_bundle(G, max_clique_vertices=_limit(args, "--max-clique"),
                                         max_chromatic_vertices=_limit(args, "--max-chromatic")))


# export --graph -> its builder (ring, args) -> graph
RING_GRAPHS = {
    "gamma": lambda R, args: gamma_graph(R),
    # permissive only skips the nilpotent check; the quotient is the same
    "gamma-e": lambda R, args: zero_divisor_graph(
        eq_quotient(multiplicative_semigroup(R), permissive=True).quotient),
    "beck": lambda R, args: beck_gamma0(R),
    "ag": lambda R, args: annihilating_ideal_graph(
        R, _limit(args, "--max-ideals"), _limit(args, "--max-table")),
    "comaximal": lambda R, args: comaximal_ideal_graph(
        R, _limit(args, "--max-ideals"), _limit(args, "--max-table")),
}


def _load_semigroup(path, args):
    table = SemigroupTable.from_json(Path(path).read_text())
    validate_semigroup(table, max_size=_limit(args, "--max-table")).raise_if_invalid()
    return table


def _load_lattice(value, args):
    if value == "symbolic-cofinite":
        return CofiniteT1Lattice()
    if value.startswith("powerset:"):
        return powerset_lattice(spec_int(value, "ground size", value[len("powerset:"):],
                                         ValueError))
    raise ValueError(f"unknown lattice selector {value!r}")


def _poset_gamma(P, args):
    if isinstance(P, FanPoset):
        raise ValueError("symbolic fans have no finite graph; use specs-suite")
    return zero_divisor_graph(sigma_spec(P))


def _lattice_gamma(L, args):
    if isinstance(L, CofiniteT1Lattice):
        raise ValueError("the symbolic lattice has no finite graph; use t1 task")
    return zero_divisor_graph(lattice_semigroup(L))


class ObjectKind(NamedTuple):
    help: str
    load: Callable    # (flag value, args) -> object
    graphs: dict      # export --graph -> builder (object, args) -> graph


# the object flags, in help order; the flag of kind k is --k
OBJECTS = {
    "ring": ObjectKind("ring spec, e.g. Zn:6, gf:4, prod:Zn:2,Zn:3, "
                       "polyquot:p=2;mod=1,1,1, mvq:p=2;vars=x,y;rel=x2,xy,y2",
                       lambda spec, args: ring_from_spec(spec), RING_GRAPHS),
    "semigroup": ObjectKind("path to a semigroup-table JSON file", _load_semigroup,
                            {"gamma": lambda S, args: zero_divisor_graph(S)}),
    "space": ObjectKind("path to a finite-space JSON file",
                        lambda path, args: FiniteSpace.from_json(Path(path).read_text()),
                        {"gamma": lambda X, args: zero_divisor_graph(closure_lattice(X))}),
    "poset": ObjectKind("path to a poset JSON file, or fan spec "
                        "fan:generics=1;sharing=all / fan:disjoint=2",
                        lambda v, args: fan_from_spec(v) if v.startswith("fan:")
                        else FinitePoset.from_json(Path(v).read_text()), {"gamma": _poset_gamma}),
    "lattice": ObjectKind("symbolic-cofinite or powerset:N", _load_lattice,
                          {"gamma": _lattice_gamma}),
}


def _applies(what: str, kinds, kind: str) -> None:
    """The one "applies to" error: ``what`` does not apply to ``kind``."""
    if kind not in kinds:
        raise ValueError(f"{what} applies to {'/'.join(f'--{k}' for k in kinds)}, not --{kind}")


def _object_kind(args) -> str:
    """The kind of the single object a request addresses."""
    chosen = [kind for kind in OBJECTS if getattr(args, kind) is not None]
    if len(chosen) != 1:
        raise ValueError("exactly one of " + "/".join(f"--{k}" for k in OBJECTS))
    return chosen[0]


def _invariants(kind, obj, args):
    if kind == "lattice":
        return {"t1_lattice": _bundle_dict(t1_invariants(obj))}, True
    if isinstance(obj, FanPoset):
        irred, _ = fan_max_irreducible(obj)
        bundle = {"diameter": 2 if irred else 3, "girth": 3,
                  "clique": "countably-infinite", "chromatic": "countably-infinite"}
        return {"gamma_spec_lattice": bundle, "max_irreducible": irred}, True
    G = OBJECTS[kind].graphs["gamma"](obj, args)
    return {
        "vertices": list(G.vertices),
        "edges": sorted([G.vertices[i], G.vertices[j]] for i, j in G.edges),
        "gamma": _bundle(G, args),
    }, True


def _eq_quotient(kind, obj, args):
    S = obj if kind == "semigroup" else multiplicative_semigroup(obj)
    q = eq_quotient(S, permissive=True)
    return {
        "nilpotent_free": is_nilpotent_free(S),
        "classes": [[S.elements[i] for i in cls] for cls in q.classes],
        "gamma_e": _bundle(zero_divisor_graph(q.quotient), args),
    }, True


def _validate(kind, obj, args):
    # the loader has already validated the table or the ring
    S = obj if kind == "semigroup" else multiplicative_semigroup(obj)
    return {"ok": True, "law": None, "witness": None, "nilpotent_free": is_nilpotent_free(S)}, True


def _specs_suite(kind, P, args):
    report = specs_theorem_suite(P, max_clique_vertices=_limit(args, "--max-clique"))
    parts = [{"name": p.name, "applies": p.applies, "passed": p.passed, "details": p.details}
             for p in report.parts]
    return ({"passed": report.passed, "max_irreducible": report.max_irreducible,
             "parts": parts}, report.passed)


def _ag_check(kind, R, args):
    rep = ag_conjecture_check(R, _limit(args, "--max-ideals"), _limit(args, "--max-table"))
    verdict = "pass" if rep.passed else "hypothesis not met" if rep.passed is None else "FAIL"
    return ({"reduced": rep.reduced, "minimal_primes": rep.minimal_prime_count,
             "applies": rep.applies, "girth": _jsonable(rep.girth), "witness": rep.witness,
             "verdict": verdict}, rep.passed is not False)


# analyze --tasks, in help order: task -> (the object kinds it applies to,
# its runner (kind, object, args) -> (result, passed))
TASKS = {
    "invariants": (tuple(OBJECTS), _invariants),
    "eq-quotient": (("ring", "semigroup"), _eq_quotient),
    "validate": (("ring", "semigroup"), _validate),
    "ideals": (("ring",), lambda kind, R, args: (
        ideals_report(R, _limit(args, "--max-ideals")), True)),
    # an AxiomReport's fields: t0, t1, t_half, pearled, noetherian
    "axioms": (("space",), lambda kind, X, args: (dict(vars(axiom_suite(X))), True)),
    "specs-suite": (("poset",), _specs_suite),
    "ag-check": (("ring",), _ag_check),
    "t1": (("lattice",), lambda kind, L, args: (_bundle_dict(t1_invariants(L)), True)),
}


def _pair_check(check, R, args):
    rep = check(R, args.degree, _limit(args, "--max-polys"))
    return ({"passed": rep.passed, "pairs_checked": rep.pairs_checked,
             "witness": list(rep.witness) if rep.witness else None}, rep.passed)


def _clique_stab(R, args):
    st = clique_stabilization(R, args.degree, _limit(args, "--max-polys"))
    return ({"passed": st.passed, "base": [st.base_clique, st.base_chromatic],
             "per_degree": [list(r) for r in st.per_degree]}, st.passed)


# analyze --check, for rings: check -> its runner (ring, args) -> (result, passed)
CHECKS = {
    "armendariz": lambda R, args: _pair_check(check_armendariz_ring, R, args),
    "gaussian": lambda R, args: _pair_check(check_gaussian, R, args),
    "clique-stab": _clique_stab,
}


def _task_list(text: str, kind: str) -> list[str]:
    """The tasks ``text`` names, each known, named once and applying to ``kind``."""
    tasks = [t.strip() for t in text.split(",") if t.strip()]
    if not tasks:
        raise ValueError(f"--tasks names no task; known: {', '.join(TASKS)}")
    for i, task in enumerate(tasks):
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}; known: {', '.join(TASKS)}")
        if task in tasks[:i]:
            raise ValueError(f"task {task!r} is named twice")
        _applies(f"task {task!r}", TASKS[task][0], kind)
    return tasks


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    kind = _object_kind(args)
    tasks = _task_list(args.tasks, kind)
    if args.check:
        _applies("--check", ("ring",), kind)
        check_degree(args.degree)
    obj = OBJECTS[kind].load(getattr(args, kind), args)
    results, passed = {}, True
    for task in tasks:
        results[task], ok = TASKS[task][1](kind, obj, args)
        passed = passed and ok
    if args.check:
        results[args.check], ok = CHECKS[args.check](obj, args)
        passed = passed and ok
    _emit({"object": getattr(obj, "tag", None) or kind, "version": __version__,
           "elapsed_s": round(time.perf_counter() - t0, 3), "results": results}, args.json)
    return 0 if passed else 2


# verify flag -> (suite keyword, value conversion, help); a suite takes a
# flag when its signature has the keyword
VERIFY_FLAGS = {
    "--seed": ("seed", int, "corpus seed"),
    "--max-fields": ("factor_counts", lambda n: tuple(range(3, n + 1)),
                     "largest number of field factors (ag-conjecture)"),
    "--max-ground": ("max_ground", int, "largest ground set (t1-lattice, charirrconn)"),
    "--max-points": ("max_points", int, "largest poset/space size (specs, pearled)"),
    "--min-pairs": ("min_pairs", int, "required corpus size (armendariz)"),
    "--degree": ("degree", int, "degree bound (content)"),
    "--max-order": ("max_order", int, "ring order bound (content, ag-conjecture)"),
}


def cmd_verify(args) -> int:
    if args.suite not in SUITES and args.suite != "all":
        raise ValueError(f"unknown suite {args.suite!r}; known: {', '.join(SUITES)}")
    given = {flag: (keyword, convert(value))
             for flag, (keyword, convert, _) in VERIFY_FLAGS.items()
             if (value := getattr(args, flag[2:].replace("-", "_"))) is not None}
    runs = []
    for name in list(SUITES) if args.suite == "all" else [args.suite]:
        accepted = inspect.signature(SUITES[name]).parameters
        takes = [flag for flag, (keyword, _, _) in VERIFY_FLAGS.items() if keyword in accepted]
        # verify all gives each flag to the suites that take it
        refused = [flag for flag in given if flag not in takes]
        if refused and args.suite != "all":
            raise ValueError(f"suite {name!r} takes {', '.join(takes) or 'no flags'}, "
                             f"not {refused[0]}")
        runs.append((name, {given[f][0]: given[f][1] for f in given if f in takes}))
    overall, reports = True, []
    for name, kwargs in runs:
        report = SUITES[name](**kwargs)
        if not report.items:
            raise ValueError(f"suite {name!r} checked nothing at these parameters")
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
    kind = _object_kind(args)
    _applies(f"graph {args.graph!r}", [k for k, o in OBJECTS.items() if args.graph in o.graphs],
             kind)
    obj = OBJECTS[kind].load(getattr(args, kind), args)
    G = OBJECTS[kind].graphs[args.graph](obj, args)
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
    return isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v)


def _add_object_flags(p: argparse.ArgumentParser) -> None:
    for kind, obj in OBJECTS.items():
        p.add_argument(f"--{kind}", help=obj.help)


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
    pa.add_argument("--tasks", default="invariants",
                    help=f"comma list: {', '.join(TASKS)} (default: %(default)s)")
    pa.add_argument("--check", choices=list(CHECKS), help="content-map check for a ring")
    pa.add_argument("--degree", type=int, default=2, help="degree bound for --check")
    for flag, (env, _, text) in GUARD_FLAGS.items():
        pa.add_argument(flag, type=int, default=None, help=f"{text} (env {env})")
    pa.add_argument("--json", action="store_true", help="JSON report")

    pv = sub.add_parser("verify", help="run a theorem-verification suite")
    pv.add_argument("suite", help=f"one of: {', '.join(SUITES)}, or all")
    for flag, (_, _, text) in VERIFY_FLAGS.items():
        pv.add_argument(flag, type=int, default=None, help=text)
    pv.add_argument("--json", action="store_true", help="JSON report")

    pe = sub.add_parser("export", help="export a graph as DOT or JSON")
    _add_object_flags(pe)
    pe.add_argument("--graph", default="gamma", choices=list(RING_GRAPHS))
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
