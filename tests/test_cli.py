import argparse
import json
import pathlib
import re
import time

import pytest

from zdgraph.cli import main
from zdgraph.rings import make_zn, multiplicative_semigroup
from zdgraph.semigroups import SemigroupTable
from zdgraph.topology import make_space


def test_analyze_ring_invariants(capsys):
    assert main(["analyze", "--ring", "Zn:6", "--tasks", "invariants"]) == 0
    out = capsys.readouterr().out
    assert "diameter = 2" in out and "clique = 2" in out


def test_analyze_json_report(capsys):
    assert main(["analyze", "--ring", "Zn:6", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["object"] == "Zn:6"
    assert data["results"]["invariants"]["gamma"]["girth"] == "inf"


def test_analyze_triangle_vs_point(capsys):
    code = main([
        "analyze", "--ring", "mvq:p=2;vars=x,y;rel=x2,xy,y2",
        "--tasks", "invariants,eq-quotient", "--json",
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["results"]["invariants"]["gamma"]["diameter"] == 1
    assert data["results"]["eq-quotient"]["gamma_e"]["diameter"] == 0


def test_analyze_fan_specs_suite(capsys):
    code = main(["analyze", "--poset", "fan:generics=1;sharing=all",
                 "--tasks", "specs-suite", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["results"]["specs-suite"]["passed"] is True


def test_analyze_content_check(capsys):
    code = main(["analyze", "--ring", "Zn:6", "--check", "armendariz",
                 "--degree", "1", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["results"]["armendariz"]["passed"] is True


def test_analyze_semigroup_file(tmp_path, capsys):
    table = multiplicative_semigroup(make_zn(6))
    path = tmp_path / "z6.json"
    path.write_text(table.to_json())
    assert main(["analyze", "--semigroup", str(path), "--tasks", "eq-quotient"]) == 0
    out = capsys.readouterr().out
    assert "nilpotent_free = True" in out


def test_analyze_space_axioms(tmp_path, capsys):
    X = make_space(["a", "b"], [0b00, 0b10, 0b11])
    path = tmp_path / "sierpinski.json"
    path.write_text(X.to_json())
    assert main(["analyze", "--space", str(path), "--tasks", "axioms"]) == 0
    out = capsys.readouterr().out
    assert "t_half = True" in out and "t1 = False" in out


def test_analyze_lattice(capsys):
    assert main(["analyze", "--lattice", "powerset:3", "--tasks", "t1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["results"]["t1"] == {
        "diameter": 3, "girth": 3, "clique": 3, "chromatic": 3}
    assert main(["analyze", "--lattice", "symbolic-cofinite", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["results"]["invariants"]["t1_lattice"]["clique"] == "countably-infinite"


def test_analyze_requires_one_object(capsys):
    assert main(["analyze", "--tasks", "invariants"]) == 1
    assert main(["analyze", "--ring", "Zn:6", "--space", "x.json"]) == 1


def test_analyze_bad_spec_is_input_error(capsys):
    assert main(["analyze", "--ring", "bogus:9"]) == 1


def test_export_dot_stable(capsys):
    assert main(["export", "--ring", "Zn:6", "--graph", "gamma", "--format", "dot"]) == 0
    first = capsys.readouterr().out
    assert main(["export", "--ring", "Zn:6", "--graph", "gamma", "--format", "dot"]) == 0
    assert capsys.readouterr().out == first
    assert '"3" -- "4";' in first


def test_export_ag_json(capsys):
    code = main(["export", "--ring", "prod:Zn:2,Zn:2,Zn:2", "--graph", "ag",
                 "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["vertices"]) == 6  # proper nonzero ideals


def test_export_empty_graph(capsys):
    assert main(["export", "--ring", "gf:5", "--graph", "gamma", "--format", "dot"]) == 0
    assert capsys.readouterr().out == "graph zd {\n}\n"


def test_export_to_file(tmp_path):
    out = tmp_path / "g.dot"
    assert main(["export", "--ring", "Zn:6", "-o", str(out)]) == 0
    assert '"2" -- "3";' in out.read_text()


def test_verify_known_suite(capsys):
    assert main(["verify", "comaximal"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_json(capsys):
    assert main(["verify", "triangle-point", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True and data["suite"] == "triangle-point"


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nope"]) == 1


def test_failed_check_exits_2(capsys):
    code = main(["analyze", "--ring", "mvq:p=2;vars=x,y;rel=x2,y2",
                 "--check", "armendariz", "--degree", "1", "--json"])
    assert code == 2
    data = json.loads(capsys.readouterr().out)
    assert data["results"]["armendariz"]["passed"] is False
    assert data["results"]["armendariz"]["witness"] is not None


def test_ideals_task(capsys):
    assert main(["analyze", "--ring", "Zn:6", "--tasks", "ideals", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    ideals = data["results"]["ideals"]
    assert ideals["ideals"] == [[0], [0, 3], [0, 2, 4], [0, 1, 2, 3, 4, 5]]
    assert ideals["labels"] == ["(0)", "(3)", "(2)", "(1)"]


def test_validate_task(tmp_path, capsys):
    table = multiplicative_semigroup(make_zn(4))
    path = tmp_path / "z4.json"
    path.write_text(table.to_json())
    assert main(["analyze", "--semigroup", str(path), "--tasks", "validate",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["results"]["validate"]["ok"] is True
    assert data["results"]["validate"]["nilpotent_free"] is False


def test_cli_guard_defaults_are_the_library_defaults(monkeypatch):
    from zdgraph import cli
    from zdgraph.graphs import DEFAULT_MAX_CHROMATIC_VERTICES, DEFAULT_MAX_CLIQUE_VERTICES
    from zdgraph.polynomials import DEFAULT_MAX_POLYS
    from zdgraph.rings import DEFAULT_MAX_IDEALS
    from zdgraph.semigroups import DEFAULT_MAX_TABLE

    for env, _, _ in cli.GUARD_FLAGS.values():
        monkeypatch.delenv(env, raising=False)
    args = argparse.Namespace(max_clique=None, max_chromatic=None, max_table=None,
                              max_ideals=None, max_polys=None)
    assert {flag: cli._limit(args, flag) for flag in cli.GUARD_FLAGS} == {
        "--max-clique": DEFAULT_MAX_CLIQUE_VERTICES,
        "--max-chromatic": DEFAULT_MAX_CHROMATIC_VERTICES,
        "--max-table": DEFAULT_MAX_TABLE,
        "--max-ideals": DEFAULT_MAX_IDEALS,
        "--max-polys": DEFAULT_MAX_POLYS,
    }


def test_cli_guard_limit_is_the_flag_then_the_environment(monkeypatch):
    from zdgraph import cli

    for env, _, _ in cli.GUARD_FLAGS.values():
        monkeypatch.setenv(env, "7")
    given = argparse.Namespace(max_clique=3, max_chromatic=3, max_table=3,
                               max_ideals=3, max_polys=3)
    for flag in cli.GUARD_FLAGS:
        assert cli._limit(given, flag) == 3
        # export has no guard flags: the environment alone sets its limits
        assert cli._limit(argparse.Namespace(), flag) == 7


def test_guard_exceeded_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv("ZDGRAPH_MAX_POLYS", "10")
    assert main(["analyze", "--ring", "Zn:6", "--check", "armendariz",
                 "--degree", "1"]) == 1
    assert "guard exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["armendariz", "gaussian", "clique-stab"])
def test_every_polynomial_check_names_its_count_at_the_guard(check, capsys):
    assert main(["analyze", "--ring", "Zn:6", "--check", check, "--degree", "1",
                 "--max-polys", "10"]) == 1
    assert "36 polynomials exceed guard 10" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["analyze", "--lattice", "powerset:14", "--tasks", "t1"],
     "14 powerset points exceed guard 10"),
    (["verify", "pearled", "--max-points", "7"], "7 topology points exceed guard 6"),
    # the clique guard trips before any BFS for diameter or girth runs
    (["analyze", "--lattice", "powerset:9", "--tasks", "t1"],
     "510 clique-solver vertices exceed guard 200"),
    (["verify", "specs", "--max-points", "8"], "8 poset points exceed guard 7"),
])
def test_unbounded_requests_fail_fast(argv, message, capsys):
    t0 = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - t0 < 5.0
    assert message in capsys.readouterr().err


def test_space_file_over_the_table_guard_fails_fast(tmp_path, capsys):
    # the 13-point powerset has 8192 closed sets; checking them pairwise for
    # closure would take about a minute before any task runs
    path = tmp_path / "powerset13.json"
    closed = [[p for p in range(13) if m >> p & 1] for m in range(1 << 13)]
    path.write_text(json.dumps({"points": [f"q{i}" for i in range(13)], "closed": closed}))
    t0 = time.perf_counter()
    assert main(["analyze", "--space", str(path), "--tasks", "axioms"]) == 1
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "8192 closed sets exceed guard 4096" in err and "Traceback" not in err


def test_reports_are_deterministic(capsys):
    from zdgraph.suites import verify_specs

    a = verify_specs(max_points=2).to_dict()
    b = verify_specs(max_points=2).to_dict()
    a.pop("elapsed_s"), b.pop("elapsed_s")
    assert a == b and "seed" not in a


_DOT_ID = r'"((?:[^"\\]|\\.)*)"'  # a quoted DOT ID; backslash escapes one char


def _dot_label(token: str) -> str:
    return re.sub(r"\\(.)", r"\1", token)


def test_export_dot_escapes_labels(tmp_path, capsys):
    table = multiplicative_semigroup(make_zn(6))
    labels = ("0", "1", 'say "2"', "back\\slash 3", '4"', "5")
    path = tmp_path / "z6.json"
    path.write_text(SemigroupTable(labels, table.zero, table.product).to_json())
    assert main(["export", "--semigroup", str(path), "--format", "dot"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "graph zd {" and lines[-1] == "}"
    nodes, edges = [], []
    for line in lines[1:-1]:
        node = re.fullmatch(f"  {_DOT_ID};", line)
        edge = re.fullmatch(f"  {_DOT_ID} -- {_DOT_ID};", line)
        assert node or edge, line
        if node:
            nodes.append(_dot_label(node.group(1)))
        else:
            edges.append((_dot_label(edge.group(1)), _dot_label(edge.group(2))))
    # Z6 zero-divisors 2, 3, 4 with edges 2-3 and 3-4, under the new labels
    assert nodes == ['say "2"', "back\\slash 3", '4"']
    assert edges == [('say "2"', "back\\slash 3"), ("back\\slash 3", '4"')]


@pytest.mark.parametrize("flag,payload", [
    ("--semigroup", {"elements": ["a", "a"], "zero": 0, "product": [[0, 0], [0, 1]]}),
    ("--space", {"points": ["a", "a"], "closed": [[], [0, 1]]}),
    ("--poset", {"points": ["p", "p"], "leq": []}),
])
def test_duplicate_labels_are_input_errors(flag, payload, tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(payload))
    assert main(["analyze", flag, str(path)]) == 1
    err = capsys.readouterr().err
    assert "duplicate label" in err and "Traceback" not in err


@pytest.mark.parametrize("pair", [[0, 5], [0, -1], [-3, 1]])
def test_poset_relation_out_of_range_is_input_error(pair, tmp_path, capsys):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"points": ["a", "b"], "leq": [pair]}))
    assert main(["analyze", "--poset", str(path)]) == 1
    err = capsys.readouterr().err
    assert "outside points 0..1" in err and "Traceback" not in err


@pytest.mark.parametrize("member", [[0, -1], [0, 2], [5]])
def test_space_member_out_of_range_is_input_error(member, tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"points": ["a", "b"], "closed": [[], member, [0, 1]]}))
    assert main(["analyze", "--space", str(path), "--tasks", "axioms"]) == 1
    err = capsys.readouterr().err
    assert f"member {sorted(member)} is not a subset of the ground set" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec,size", [
    ("Zn:5000", 5000),
    ("gf:5041", 5041),
    ("prod:Zn:1000,Zn:1000", 1000000),
    # the guard comes before the primality test, which divides up to sqrt(p)
    ("polyquot:p=1000000000000000003;mod=1,1", 1000000000000000003),
    ("mvq:p=1000000000000000003;vars=x;rel=x2", 1000000000000000003),
    # 3^14 basis monomials: the guard trips as the 13th joins
    ("mvq:p=2;vars=a,b,c,d,e,f,g,h,i,j,k,l,m,n;rel=a3,b3,c3,d3,e3,f3,g3,h3,i3,j3,k3,l3,m3,n3",
     8192),
])
def test_ring_guard_trips_before_any_table_is_built(spec, size, capsys):
    t0 = time.perf_counter()
    assert main(["analyze", "--ring", spec, "--tasks", "validate"]) == 1
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert f"{size} ring elements exceed guard 4096" in err and "Traceback" not in err


def test_validate_task_on_a_ring_of_order_2048(capsys):
    t0 = time.perf_counter()
    assert main(["analyze", "--ring", "Zn:2048", "--tasks", "validate", "--json"]) == 0
    assert time.perf_counter() - t0 < 10.0
    out = json.loads(capsys.readouterr().out)["results"]["validate"]
    assert out == {"ok": True, "law": None, "witness": None, "nilpotent_free": False}


@pytest.mark.parametrize("text,message", [
    ('{"elements": ["0", "1"], "zero": 0, "product": [1, 2]}', "table-shape law fails"),
    ('{"elements": ["0"], "zero": 0, "product": [[1e30]]}', "1e+30 in a semigroup file"),
    ("[1, 2]", "a semigroup file holds a JSON object"),
    ('{"elements": ["0"], "zero": 0, "product": [[100000000000000000000000]]}',
     "100000000000000000000000 in a semigroup file"),
    ('{"elements": 5, "zero": 0, "product": [[0]]}', "elements of a semigroup file"),
    ('{"elements": ["0"], "zero": null, "product": [[0]]}', "None in a semigroup file"),
])
def test_semigroup_file_that_is_no_table_is_an_input_error(text, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["analyze", "--semigroup", str(path), "--tasks", "validate"]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_specs_suite_on_a_large_antichain_fails_before_any_table(tmp_path, capsys):
    # 13 incomparable points have 2^13 up-sets, over the 4096 table guard;
    # the sigma table would have 2^26 cells
    path = tmp_path / "antichain.json"
    path.write_text(json.dumps({"points": [f"q{i}" for i in range(13)], "leq": []}))
    t0 = time.perf_counter()
    assert main(["analyze", "--poset", str(path), "--tasks", "specs-suite"]) == 1
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert "8192 closed sets exceed guard 4096" in err and "Traceback" not in err


@pytest.mark.parametrize("flags,env,code", [
    ([], {}, 1),
    (["--max-clique", "300"], {}, 0),
    ([], {"ZDGRAPH_MAX_CLIQUE": "300"}, 0),
])
def test_specs_suite_reads_the_clique_guard(flags, env, code, tmp_path, capsys, monkeypatch):
    # 8 incomparable points: Γ has 2^8 - 2 = 254 vertices, over the default 200
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    path = tmp_path / "antichain.json"
    path.write_text(json.dumps({"points": [f"q{i}" for i in range(8)], "leq": []}))
    assert main(["analyze", "--poset", str(path), "--tasks", "specs-suite", "--json"] + flags) == code
    out, err = capsys.readouterr()
    if code:
        assert "254 clique-solver vertices exceed guard 200" in err and "Traceback" not in err
    else:
        assert json.loads(out)["results"]["specs-suite"]["passed"]


def test_charirrconn_on_five_points_finishes(capsys):
    t0 = time.perf_counter()
    assert main(["verify", "charirrconn", "--max-ground", "5", "--json"]) == 0
    assert time.perf_counter() - t0 < 5.0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] and len(data["items"]) == 5


def test_the_parser_is_built_once_and_reused(capsys):
    from zdgraph import cli

    assert cli.build_parser() is cli.build_parser()
    outputs = []
    for _ in range(2):
        assert main(["analyze", "--ring", "Zn:12", "--tasks", "invariants,ideals"]) == 0
        assert main(["export", "--ring", "Zn:12", "--graph", "comaximal"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    # a bad flag exits 2 from the parser and leaves nothing behind
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--ring", "Zn:12", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["analyze", "--ring", "Zn:12", "--tasks", "invariants,ideals"]) == 0
    assert main(["export", "--ring", "Zn:12", "--graph", "comaximal"]) == 0
    assert capsys.readouterr() == outputs[0]


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"], ["verify", "--help"],
                                  ["export", "--help"]])
def test_cached_parser_prints_the_help_of_a_fresh_one(argv, capsys):
    from zdgraph import cli

    texts = []
    for parser in (cli.build_parser(), cli.build_parser.__wrapped__()):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and "usage: zdgraph" in texts[0]


def test_main_runs_the_command_bound_at_call_time(monkeypatch, capsys):
    # span tracers rebind cli.cmd_* after the parser is built and cached
    from zdgraph import cli

    main(["analyze", "--ring", "Zn:6"])
    calls = []
    monkeypatch.setattr(cli, "cmd_export", lambda args: calls.append(args.graph) or 0)
    assert main(["export", "--ring", "Zn:6", "--graph", "beck"]) == 0
    assert calls == ["beck"] and capsys.readouterr().out.count("object: Zn:6") == 1


@pytest.mark.parametrize("spec, expected", [
    ("Zn:1024", [2, 3, 31, 31]),  # 511 vertices, 35 in the twin quotient
    ("prod:Zn:8,Zn:8,Zn:8", [3, 3, 10, 10]),  # 447 vertices, 62
])
def test_invariants_at_raised_guards(spec, expected, capsys):
    assert main(["analyze", "--ring", spec, "--tasks", "invariants", "--max-clique", "100000",
                 "--max-chromatic", "100000", "--json"]) == 0
    gamma = json.loads(capsys.readouterr().out)["results"]["invariants"]["gamma"]
    assert [gamma[k] for k in ("diameter", "girth", "clique", "chromatic")] == expected


# ---------------------------------------------------------------------------
# The request tables


def _refuse_to_load(value, args):
    raise AssertionError(f"object {value!r} loaded for a request that does not apply")


def _patch_loaders(monkeypatch):
    from zdgraph import cli

    for kind, obj in cli.OBJECTS.items():
        monkeypatch.setitem(cli.OBJECTS, kind, obj._replace(load=_refuse_to_load))


def test_every_task_outside_its_kinds_exits_before_the_object_loads(monkeypatch, capsys):
    from zdgraph import cli

    _patch_loaders(monkeypatch)
    pairs = [(task, kinds, kind) for task, (kinds, _) in cli.TASKS.items()
             for kind in cli.OBJECTS if kind not in kinds]
    assert len(pairs) == 26
    for task, kinds, kind in pairs:
        assert main(["analyze", f"--{kind}", "x", "--tasks", task]) == 1
        flags = "/".join(f"--{k}" for k in kinds)
        assert capsys.readouterr().err == (
            f"error: task '{task}' applies to {flags}, not --{kind}\n")


def test_checks_and_ring_graphs_outside_rings_exit_before_the_object_loads(monkeypatch,
                                                                           capsys):
    from zdgraph import cli

    _patch_loaders(monkeypatch)
    for kind in cli.OBJECTS:
        if kind == "ring":
            continue
        for check in cli.CHECKS:
            assert main(["analyze", f"--{kind}", "x", "--check", check]) == 1
            assert capsys.readouterr().err == f"error: --check applies to --ring, not --{kind}\n"
        for graph in cli.RING_GRAPHS:
            if graph == "gamma":
                continue
            assert main(["export", f"--{kind}", "x", "--graph", graph]) == 1
            assert capsys.readouterr().err == (
                f"error: graph '{graph}' applies to --ring, not --{kind}\n")


def _subparser(name):
    from zdgraph import cli

    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]


def _option(parser, flag):
    (action,) = [a for a in parser._actions if flag in a.option_strings]
    return action


def test_the_parser_reads_the_tables():
    from zdgraph import cli

    export, analyze, verify = _subparser("export"), _subparser("analyze"), _subparser("verify")
    assert list(cli.RING_GRAPHS) == _option(export, "--graph").choices
    assert list(cli.CHECKS) == _option(analyze, "--check").choices
    assert f"comma list: {', '.join(cli.TASKS)} (default:" in _option(analyze, "--tasks").help
    for parser in (analyze, export):
        for kind in cli.OBJECTS:
            assert _option(parser, f"--{kind}").help == cli.OBJECTS[kind].help
    for flag, (_, _, text) in cli.VERIFY_FLAGS.items():
        assert _option(verify, flag).help == text
    # every object kind has its zero-divisor graph, and a ring every export graph
    assert all("gamma" in obj.graphs for obj in cli.OBJECTS.values())
    assert cli.OBJECTS["ring"].graphs is cli.RING_GRAPHS


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


# the four help texts at 80 columns, as captured before the parser read the tables
@pytest.mark.parametrize("argv,name", [(["--help"], "zdgraph"), (["analyze", "--help"], "analyze"),
                                       (["verify", "--help"], "verify"),
                                       (["export", "--help"], "export")])
def test_help_texts_match_their_golden_files(argv, name, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out == (GOLDEN / f"help_{name}.txt").read_text()


# each suite at its defaults but verify all; the last three build rings and
# ideal semigroups and no meet table
@pytest.mark.parametrize("suite", ["specs", "armendariz", "pearled", "t1-lattice",
                                   "charirrconn", "comaximal", "symbolic-lattice",
                                   "ag-conjecture", "content", "triangle-point"])
def test_verify_reports_match_their_golden_files(suite, capsys):
    assert main(["verify", suite, "--json"]) == 0
    out = re.sub(r'"elapsed_s": [0-9.]+', '"elapsed_s": null', capsys.readouterr().out, count=1)
    assert out == (GOLDEN / f"verify_{suite}.json").read_text()


# golden name -> ring spec, degree of its checks; a product of fields, a local
# ring whose maximal ideal (x, y) is not principal, a ring with two local
# factors, a field and a product of three local rings
GOLDEN_RINGS = {
    "prod-gf4-gf3": ("prod:gf:4,gf:3", 2),
    "mvq-x2-y2": ("mvq:p=2;vars=x,y;rel=x2,y2", 2),
    "zn12": ("Zn:12", 2),
    "gf9": ("gf:9", 2),
    "prod-zn4-zn2-zn3": ("prod:Zn:4,Zn:2,Zn:3", 1),  # degree 2 is over the polynomial guard
}
RING_TASKS = "invariants,eq-quotient,validate,ideals,ag-check"
# (golden file, argv, exit code): every ring task, then each --check that
# applies (clique stabilization needs a reduced ring), then the comaximal export
RING_GOLDENS = [
    request
    for slug, (spec, d) in GOLDEN_RINGS.items()
    for request in [
        (f"analyze_{slug}", ["analyze", "--ring", spec, "--tasks", RING_TASKS, "--json"], 0),
        *[(f"analyze_{slug}_{check}", ["analyze", "--ring", spec, "--tasks", RING_TASKS,
                                       "--check", check, "--degree", str(d), "--json"],
           2 if slug == "mvq-x2-y2" else 0)
          for check in ("armendariz", "gaussian", "clique-stab")
          if check != "clique-stab" or slug in ("prod-gf4-gf3", "gf9")],
        (f"export_comaximal_{slug}",
         ["export", "--ring", spec, "--graph", "comaximal", "--format", "json"], 0),
    ]
]


@pytest.mark.parametrize("name,argv,code", RING_GOLDENS, ids=[r[0] for r in RING_GOLDENS])
def test_ring_reports_match_their_golden_files(name, argv, code, capsys):
    assert main(argv) == code
    out = re.sub(r'"elapsed_s": [0-9.]+', '"elapsed_s": null', capsys.readouterr().out, count=1)
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_verify_all_gives_each_flag_to_the_suites_that_take_it(monkeypatch, capsys):
    from zdgraph import cli
    from zdgraph.suites import SuiteReport

    calls = []

    def called(name, **kwargs):
        calls.append((name, kwargs))
        report = SuiteReport(name)
        report.add("item", True)
        return report

    def plain():
        return called("plain")

    def ground(max_ground=4):
        return called("ground", max_ground=max_ground)

    def fields(factor_counts=(3, 4), max_order=60):
        return called("fields", factor_counts=factor_counts, max_order=max_order)

    monkeypatch.setattr(cli, "SUITES", {"plain": plain, "ground": ground, "fields": fields})
    assert main(["verify", "all", "--max-ground", "2", "--max-fields", "5", "--json"]) == 0
    assert calls == [("plain", {}), ("ground", {"max_ground": 2}),
                     ("fields", {"factor_counts": (3, 4, 5), "max_order": 60})]
    assert main(["verify", "fields", "--max-ground", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: suite 'fields' takes --max-fields, --max-order, not --max-ground\n")
    assert len(calls) == 3


def test_a_report_with_no_items_does_not_pass():
    from zdgraph.suites import SuiteReport

    report = SuiteReport("empty")
    assert not report.passed and report.to_dict()["passed"] is False
    report.add("one", True)
    assert report.passed
