"""The CLI on malformed and boundary spec strings and JSON files, called in
process.

Every request must end with exit status 0, 1 or 2, raise nothing out of
``main`` (the CLI's traceback), and finish within ``ALARM_S`` seconds.
Orders stay at most about 64, and files at a few points, so the cases run
in milliseconds.
"""

import contextlib
import functools
import io
import json
import os
import signal
import tempfile
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from zdgraph.cli import main

ALARM_S = 5


class Hang(BaseException):
    """Raised by the alarm; not an Exception, so nothing in the CLI catches it."""


def _alarm(signum, frame):
    raise Hang(f"no answer within {ALARM_S} s")


def run(argv) -> tuple[int, str]:
    """The exit status and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(ALARM_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a flag with status 2
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def check(argv) -> None:
    code, err = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Spec strings

small = st.integers(min_value=-2, max_value=12)
names = st.lists(st.sampled_from(["x", "y", "", "x", "xy", " "]), max_size=3)


@st.composite
def mvq_specs(draw):
    variables = draw(names)
    rels = draw(st.lists(
        st.text(alphabet="xy0123", max_size=4), max_size=3))
    p = draw(st.sampled_from([0, 1, 2, 3, 4]))
    return f"mvq:p={p};vars={','.join(variables)};rel={','.join(rels)}"


@st.composite
def polyquot_specs(draw):
    p = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 7]))
    mod = draw(st.lists(st.integers(min_value=-1, max_value=6), max_size=3))
    return f"polyquot:p={p};mod={','.join(map(str, mod))}"


def _factor():
    return st.builds("{}:{}".format, st.sampled_from(["Zn", "gf"]),
                     st.integers(min_value=-2, max_value=8))


ring_specs = st.one_of(
    st.builds("Zn:{}".format, st.integers(min_value=-2, max_value=64)),
    st.builds("gf:{}".format, st.integers(min_value=-2, max_value=64)),
    st.builds(lambda fs: "prod:" + ",".join(fs), st.lists(_factor(), max_size=2)),
    polyquot_specs(),
    mvq_specs(),
    st.text(alphabet="Zngfpromvq:;,=xy0123-", max_size=12),
)
lattice_specs = st.one_of(
    st.builds("powerset:{}".format, small),
    st.sampled_from(["symbolic-cofinite", "powerset:", "powerset:x", "cofinite"]),
)
fan_specs = st.one_of(
    st.builds("fan:disjoint={}".format, small),
    st.builds("fan:generics={};sharing={}".format, small, st.sampled_from(["all", "none", ""])),
    st.builds("fan:{}".format, st.text(alphabet="generics=disjoint;al0-2", max_size=10)),
)
degrees = st.integers(min_value=-2, max_value=3)

requests = st.one_of(
    st.builds(lambda r: ["analyze", "--ring", r], ring_specs),
    st.builds(lambda r, c, d: ["analyze", "--ring", r, "--check", c, "--degree", str(d)],
              ring_specs, st.sampled_from(["armendariz", "gaussian", "clique-stab"]), degrees),
    st.builds(lambda L, t: ["analyze", "--lattice", L, "--tasks", t],
              lattice_specs, st.sampled_from(["t1", "invariants", "t1,invariants"])),
    st.builds(lambda L, f: ["export", "--lattice", L, "--format", f],
              lattice_specs, st.sampled_from(["dot", "json"])),
    st.builds(lambda P, t: ["analyze", "--poset", P, "--tasks", t],
              fan_specs, st.sampled_from(["specs-suite", "invariants"])),
    st.builds(lambda d, m: ["verify", "content", "--degree", str(d), "--max-order", str(m)],
              degrees, st.integers(min_value=2, max_value=4)),
)


# the empty-name spec hung: an empty variable name matched every position
# of a monomial without advancing
@example(["analyze", "--ring", "mvq:p=2;vars=;rel=x2"])
@example(["analyze", "--ring", "mvq:p=2;vars=x,;rel=x2"])
@example(["analyze", "--ring", "mvq:p=2;vars=x,x;rel=x2"])
@example(["analyze", "--lattice", "powerset:-1", "--tasks", "t1"])
@example(["analyze", "--ring", "Zn:6", "--check", "clique-stab", "--degree", "-2"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(requests)
def test_cli_answers_every_request(argv):
    check(argv)


def _misspellings(word):
    """``word`` with one letter dropped or two neighbours swapped."""
    drops = {word[:i] + word[i + 1:] for i in range(len(word))}
    swaps = {word[:i] + word[i + 1] + word[i] + word[i + 2:] for i in range(len(word) - 1)}
    return sorted((drops | swaps) - {word})


# well-formed specs of each kind, with the parts their kind takes
SPECS_BY_PART = [
    ("--ring", "polyquot:p=2;mod=1,1,1", ("p", "mod")),
    ("--ring", "mvq:p=2;vars=x,y;rel=x2,xy,y2", ("p", "vars", "rel")),
    ("--poset", "fan:generics=1;sharing=all", ("generics", "sharing", "disjoint")),
    ("--poset", "fan:disjoint=2", ("generics", "sharing", "disjoint")),
]
misspelt_specs = st.sampled_from([
    (flag, spec.replace(f"{part}=", f"{bad}=", 1))
    for flag, spec, parts in SPECS_BY_PART
    for part in parts if f"{part}=" in spec
    for bad in _misspellings(part) if bad not in parts
])
RING_TASKS = ["invariants", "eq-quotient", "validate", "ideals", "ag-check"]
KNOWN_TASKS = ("invariants, eq-quotient, validate, ideals, axioms, specs-suite, ag-check, t1")
misspelt_tasks = st.sampled_from([
    bad for task in KNOWN_TASKS.split(", ") for bad in _misspellings(task)
    if bad not in KNOWN_TASKS.split(", ")
])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(misspelt_specs, st.sampled_from(["invariants", "specs-suite"]))
def test_misspelt_spec_parts_name_the_spec(request, task):
    flag, spec = request
    if flag == "--ring":
        task = "invariants"
    code, err = run(["analyze", flag, spec, "--tasks", task])
    assert code == 1 and err.startswith(f"error: spec {spec!r} "), (spec, err)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(RING_TASKS), max_size=3, unique=True), misspelt_tasks,
       st.integers(min_value=0, max_value=3))
def test_misspelt_tasks_name_the_task(tasks, bad, at):
    tasks.insert(min(at, len(tasks)), bad)
    assert run(["analyze", "--ring", "Zn:6", "--tasks", ",".join(tasks)]) == (
        1, f"error: unknown task {bad!r}; known: {KNOWN_TASKS}\n")


# ---------------------------------------------------------------------------
# Pinned answers


@pytest.mark.parametrize("spec,message", [
    ("mvq:p=2;vars=;rel=x2", "variable 1 has an empty name"),
    ("mvq:p=2;vars=x,;rel=x2", "variable 2 has an empty name"),
    ("mvq:p=2;vars=x,x;rel=x2", "variable 'x' is named twice"),
])
def test_bad_variable_names_are_input_errors(spec, message):
    assert run(["analyze", "--ring", spec]) == (1, f"error: {message}\n")


@pytest.mark.parametrize("argv,bad", [
    (["analyze", "--ring", "Zn:6", "--check", "armendariz", "--degree", "-1"], "-1"),
    (["analyze", "--ring", "Zn:6", "--check", "gaussian", "--degree", "-1"], "-1"),
    (["analyze", "--ring", "Zn:6", "--check", "clique-stab", "--degree", "-2"], "-2"),
    (["verify", "content", "--degree", "-1"], "-1"),
])
def test_negative_degree_bounds_are_input_errors(argv, bad):
    assert run(argv) == (1, f"error: degree bound must be >= 0, not {bad}\n")


def test_negative_powerset_ground_is_an_input_error():
    assert run(["analyze", "--lattice", "powerset:-1", "--tasks", "t1"]) == (
        1, "error: a powerset lattice needs a ground size >= 0, not -1\n")


@pytest.mark.parametrize("spec,message", [
    ("mvq:p=2;vars=x", "spec 'mvq:p=2;vars=x' has no 'rel' part"),
    ("polyquot:p=2", "spec 'polyquot:p=2' has no 'mod' part"),
    ("prod:Zn:2,", "spec 'prod:Zn:2,' has an empty factor"),
    ("Zn:", "spec 'Zn:' has an empty order"),
    ("Zn:x", "spec 'Zn:x' has order 'x', not an integer"),
    ("polyquot:p=2;mod=1,,1", "spec 'polyquot:p=2;mod=1,,1' has an empty mod coefficient"),
])
def test_malformed_ring_specs_name_the_spec(spec, message):
    assert run(["analyze", "--ring", spec]) == (1, f"error: {message}\n")


@pytest.mark.parametrize("spec,message", [
    ("fan:disjoint", "spec 'fan:disjoint' has a part 'disjoint' with no '='"),
    ("fan:disjoint=", "spec 'fan:disjoint=' has an empty disjoint"),
])
def test_malformed_fan_specs_name_the_spec(spec, message):
    assert run(["analyze", "--poset", spec, "--tasks", "specs-suite"]) == (
        1, f"error: {message}\n")


# each was read as if the unknown part were absent: the fan as the shared
# fan, the polyquot as F_4; the powerset specs printed int()'s message
@pytest.mark.parametrize("argv,message", [
    (["analyze", "--poset", "fan:disjont=2", "--tasks", "specs-suite"],
     "spec 'fan:disjont=2' has an unknown part 'disjont'; "
     "its parts are generics, sharing, disjoint"),
    (["analyze", "--ring", "polyquot:p=2;mod=1,1,1;q=5"],
     "spec 'polyquot:p=2;mod=1,1,1;q=5' has an unknown part 'q'; its parts are p, mod"),
    (["analyze", "--ring", "mvq:p=2;vars=x;rel=x2;var=y"],
     "spec 'mvq:p=2;vars=x;rel=x2;var=y' has an unknown part 'var'; "
     "its parts are p, vars, rel"),
    (["analyze", "--lattice", "powerset:x", "--tasks", "t1"],
     "spec 'powerset:x' has ground size 'x', not an integer"),
    (["analyze", "--lattice", "powerset:3;x=1", "--tasks", "t1"],
     "spec 'powerset:3;x=1' has ground size '3;x=1', not an integer"),
    (["analyze", "--lattice", "powerset:", "--tasks", "t1"],
     "spec 'powerset:' has an empty ground size"),
])
def test_unknown_spec_parts_are_input_errors(argv, message):
    assert run(argv) == (1, f"error: {message}\n")


# the repeated part kept its last value (F_4 over p = 2), and the disjoint
# fan ignored the shared fan's parts and passed
@pytest.mark.parametrize("argv,message", [
    (["analyze", "--ring", "polyquot:p=3;p=2;mod=1,1,1", "--tasks", "validate"],
     "spec 'polyquot:p=3;p=2;mod=1,1,1' has the part 'p' twice"),
    (["analyze", "--poset", "fan:generics=2;generics=3", "--tasks", "invariants"],
     "spec 'fan:generics=2;generics=3' has the part 'generics' twice"),
    (["analyze", "--poset", "fan:disjoint=2;generics=3", "--tasks", "specs-suite"],
     "spec 'fan:disjoint=2;generics=3' has a part 'generics', "
     "which a disjoint fan does not take"),
    (["analyze", "--poset", "fan:sharing=all;disjoint=2", "--tasks", "invariants"],
     "spec 'fan:sharing=all;disjoint=2' has a part 'sharing', "
     "which a disjoint fan does not take"),
])
def test_repeated_parts_and_mixed_fan_shapes_are_input_errors(argv, message):
    assert run(argv) == (1, f"error: {message}\n")


# the irreducibility search over pairs of generic subsets ran first, for
# seconds at 20 generics and minutes at 30
@pytest.mark.parametrize("spec", ["fan:disjoint=17", "fan:generics=17", "fan:disjoint=30"])
@pytest.mark.parametrize("task", ["invariants", "specs-suite"])
def test_fan_generics_are_guarded(spec, task):
    count = spec.rpartition("=")[2]
    assert run(["analyze", "--poset", spec, "--tasks", task]) == (
        1, f"error: guard exceeded: {count} fan generics exceed guard 16\n")


# a window over 2,000 closed sets is skipped on its up-set count, read from
# the fan's shape; the first two fans listed every up-set only to skip it,
# and the last two exited 1 with "20 relation points exceed guard 16" and
# "17 relation points exceed guard 16"
@pytest.mark.parametrize("spec,counts", [
    ("fan:generics=12", (4099, 4103)), ("fan:generics=13", (8195, 8199)),
    ("fan:disjoint=5", (3125, 59049)), ("fan:generics=14", (16387, 16391)),
])
def test_fan_windows_over_the_skip_are_not_listed(spec, counts):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", "--poset", spec, "--tasks", "specs-suite", "--json"]) == 0
    suite = json.loads(out.getvalue())["results"]["specs-suite"]
    assert suite["passed"]
    assert suite["parts"][-1]["details"].endswith(
        f"(w=2 skipped ({counts[0]} closed sets), w=3 skipped ({counts[1]} closed sets))")


# ---------------------------------------------------------------------------
# JSON files


def run_file(flag, payload, argv) -> tuple[int, str]:
    """``run`` on ``argv`` with ``payload`` written to a JSON file for ``flag``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w") as fh:
            fh.write(payload if isinstance(payload, str) else json.dumps(payload))
        return run([argv[0], flag, path] + argv[1:])


scalars = st.one_of(st.none(), st.booleans(), st.integers(min_value=-2, max_value=5),
                    st.floats(min_value=-1, max_value=5), st.text(max_size=2),
                    st.just(2**70))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                               max_size=2),
    max_leaves=8,
)
indices = st.integers(min_value=-1, max_value=4)


def maybe_any(inner):
    """``inner``, or one time in eight any JSON value in its place."""
    return st.integers(min_value=0, max_value=7).flatmap(
        lambda k: json_values if k == 0 else inner)


def _lattice(family):
    """The union/intersection closure of a family of bitmasks."""
    while True:
        grown = family | {a | b for a in family for b in family} | {
            a & b for a in family for b in family}
        if grown == family:
            return family
        family = grown


@st.composite
def semigroup_files(draw):
    """Z_n under multiplication, with a few entries changed."""
    n = draw(st.integers(min_value=1, max_value=4))
    product = [[a * b % n for b in range(n)] for a in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        product[a][b] = draw(maybe_any(indices))
    return {
        "elements": draw(maybe_any(st.just([str(i) for i in range(n)]))),
        "zero": draw(maybe_any(st.just(0) | indices)),
        "product": draw(maybe_any(st.just(product))),
    }


@st.composite
def space_files(draw):
    """Closed families on up to four points, closed or not, with a few
    members changed."""
    k = draw(st.integers(min_value=0, max_value=4))
    family = {0, (1 << k) - 1} | set(draw(st.lists(st.integers(0, (1 << k) - 1), max_size=3)))
    if draw(st.booleans()):
        family = _lattice(family)
    closed = [draw(maybe_any(st.just([p for p in range(k) if m >> p & 1])))
              for m in sorted(family)]
    return {
        "points": draw(maybe_any(st.just(list("abcd"[:k])))),
        "closed": draw(maybe_any(st.just(closed))),
    }


@st.composite
def poset_files(draw):
    """Relation pairs on up to five points, acyclic or not, with a few pairs
    changed."""
    k = draw(st.integers(min_value=0, max_value=5))
    point = st.integers(0, max(k - 1, 0))
    pairs = draw(st.lists(st.tuples(point, point), max_size=5))
    if draw(st.booleans()):
        pairs = [sorted(pair) for pair in pairs]
    return {
        "points": draw(maybe_any(st.just([f"p{i}" for i in range(k)]))),
        "leq": draw(maybe_any(st.just([draw(maybe_any(st.just(list(pair))))
                                       for pair in pairs]))),
    }


file_requests = st.one_of(
    st.tuples(st.just("--semigroup"), maybe_any(semigroup_files()), st.sampled_from([
        ["analyze", "--tasks", "validate,invariants,eq-quotient"],
        ["export", "--format", "json"],
    ])),
    st.tuples(st.just("--space"), maybe_any(space_files()), st.sampled_from([
        ["analyze", "--tasks", "axioms,invariants"],
        ["export", "--format", "dot"],
    ])),
    st.tuples(st.just("--poset"), maybe_any(poset_files()), st.sampled_from([
        ["analyze", "--tasks", "specs-suite,invariants"],
        ["export", "--format", "json"],
    ])),
    st.tuples(st.sampled_from(["--semigroup", "--space", "--poset"]),
              st.text(alphabet='{}[]",:0123456789.-nul', max_size=12),
              st.just(["analyze"])),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(file_requests)
def test_cli_answers_every_file(request):
    flag, payload, argv = request
    code, err = run_file(flag, payload, argv)
    assert code in (0, 1, 2), (request, code)
    assert "Traceback" not in err


# each escaped main as a TypeError, and [[], [0.5]] read 0.5 as point 0
@pytest.mark.parametrize("flag,payload,message", [
    ("--poset", {"points": 5, "leq": []}, "the points of a poset file are a JSON list"),
    ("--space", {"points": 5, "closed": [[]]}, "the points of a space file are a JSON list"),
    ("--poset", {"points": ["a"], "leq": None},
     "the relation pairs of a poset file are a JSON list"),
    ("--space", {"points": ["a"], "closed": None},
     "the closed sets of a space file are a JSON list"),
    ("--space", {"points": ["a"], "closed": [[], 5, [0]]},
     "the members of a closed set of a space file are a JSON list"),
    ("--poset", [1, 2], "a poset file holds a JSON object"),
    ("--space", [1, 2], "a space file holds a JSON object"),
    ("--space", {"points": ["a"], "closed": [[], [0.5]]},
     "0.5 in a space file is not a 64-bit integer"),
    ("--poset", {"points": ["a", "b"], "leq": [[0, 1.5]]},
     "1.5 in a poset file is not a 64-bit integer"),
    ("--poset", {"points": ["a", "b"], "leq": [5]}, "relation pair 5 is not two point indices"),
    # each printed the bare key, such as "error: 'closed'"
    ("--semigroup", {"elements": ["0"], "product": [[0]]}, "a semigroup file has no 'zero' entry"),
    ("--space", {"points": ["a"]}, "a space file has no 'closed' entry"),
    ("--poset", {"leq": []}, "a poset file has no 'points' entry"),
])
def test_malformed_files_are_input_errors(flag, payload, message):
    assert run_file(flag, payload, ["analyze", "--tasks", "invariants"]) == (
        1, f"error: {message}\n")


# ---------------------------------------------------------------------------
# Whole requests, checked before any object is loaded or suite runs


GUARDS = ["--max-clique", "100000", "--max-chromatic", "100000", "--max-ideals", "100000"]


# each came only after the earlier work: Zn:4096 was built and validated
# (4.3 s, 559 MB), invariants of Zn:2048 ran first, the fan's specs-suite ran
# first; the empty list exited 0 and the repeated task ran twice
@pytest.mark.parametrize("argv,message", [
    (["analyze", "--ring", "Zn:4096", "--tasks", "t1"],
     "task 't1' applies to --lattice, not --ring"),
    (["analyze", "--ring", "Zn:2048", "--tasks", "invariants,bogus", *GUARDS],
     f"unknown task 'bogus'; known: {KNOWN_TASKS}"),
    (["analyze", "--poset", "fan:generics=1", "--tasks", "specs-suite", "--check", "gaussian"],
     "--check applies to --ring, not --poset"),
    (["analyze", "--ring", "Zn:4096", "--tasks", ","],
     f"--tasks names no task; known: {KNOWN_TASKS}"),
    (["analyze", "--ring", "Zn:4096", "--tasks", ""],
     f"--tasks names no task; known: {KNOWN_TASKS}"),
    (["analyze", "--ring", "Zn:4096", "--tasks", "ideals,ideals"], "task 'ideals' is named twice"),
    (["analyze", "--semigroup", "x.json", "--tasks", "validate,axioms"],
     "task 'axioms' applies to --space, not --semigroup"),
    (["analyze", "--space", "x.json", "--tasks", "validate"],
     "task 'validate' applies to --ring/--semigroup, not --space"),
    (["export", "--lattice", "powerset:3", "--graph", "comaximal"],
     "graph 'comaximal' applies to --ring, not --lattice"),
    # built and validated Zn:4096 first (3.5 s, 559 MB)
    (["analyze", "--ring", "Zn:4096", "--tasks", "validate", "--check", "gaussian",
      "--degree", "-1"], "degree bound must be >= 0, not -1"),
    (["analyze", "--ring", "Zn:4096", "--tasks", "validate", "--check", "clique-stab",
      "--degree", "-2"], "degree bound must be >= 0, not -2"),
])
def test_requests_are_checked_whole_before_any_work(argv, message, monkeypatch):
    from zdgraph import cli

    def no_object(value, args):
        raise AssertionError(f"{value!r} was loaded")

    for kind, obj in cli.OBJECTS.items():
        monkeypatch.setitem(cli.OBJECTS, kind, obj._replace(load=no_object))
    t0 = time.perf_counter()
    assert run(argv) == (1, f"error: {message}\n")
    assert time.perf_counter() - t0 < 0.5


# each printed PASS and exited 0: with 0 items, with no posets-n item
# (specs), with an empty walk of topologies (pearled), or on the two fixed
# clique-stabilization items alone (content)
@pytest.mark.parametrize("argv", [
    ["verify", "ag-conjecture", "--max-fields", "2"],
    ["verify", "ag-conjecture", "--max-order", "7"],
    ["verify", "t1-lattice", "--max-ground", "0"],
    ["verify", "charirrconn", "--max-ground", "0"],
    ["verify", "armendariz", "--max-points", "0"],
    ["verify", "pearled", "--max-points", "0"],
    ["verify", "specs", "--max-points", "-1"],
    ["verify", "content", "--max-order", "1"],
])
def test_a_suite_that_checked_nothing_is_an_input_error(argv):
    assert run(argv) == (1, f"error: suite '{argv[1]}' checked nothing at these parameters\n")


# each refused only after work: t1-lattice ran grounds 1-7 before the clique
# guard (also at --max-ground 11), charirrconn built grounds 1-10 before its
# guard, and verify all printed three, six or nine suite reports first;
# armendariz walks topologies, so it states the topology guard too
@pytest.mark.parametrize("argv,message", [
    (["verify", "t1-lattice", "--max-ground", "11"],
     "guard exceeded: 11 powerset points exceed guard 10"),
    (["verify", "t1-lattice", "--max-ground", "8"],
     "guard exceeded: 254 clique-solver vertices exceed guard 200"),
    (["verify", "charirrconn", "--max-ground", "11"],
     "guard exceeded: 11 powerset points exceed guard 10"),
    (["verify", "all", "--max-ground", "0"],
     "suite 't1-lattice' checked nothing at these parameters"),
    (["verify", "all", "--max-points", "8"], "guard exceeded: 8 poset points exceed guard 7"),
    (["verify", "armendariz", "--max-points", "7"],
     "guard exceeded: 7 topology points exceed guard 6"),
    (["verify", "all", "--max-order", "5000", "--max-fields", "6"],
     "guard exceeded: 5000 ring elements exceed guard 4096"),
    (["verify", "pearled", "--max-points", "0"],
     "suite 'pearled' checked nothing at these parameters"),
    (["verify", "specs", "--max-points", "-1"],
     "suite 'specs' checked nothing at these parameters"),
    (["verify", "content", "--max-order", "1"],
     "suite 'content' checked nothing at these parameters"),
    (["verify", "all", "--degree", "-1"], "degree bound must be >= 0, not -1"),
])
def test_verify_refuses_before_any_suite_runs(argv, message, monkeypatch, capsys):
    from zdgraph import cli

    def refuse(fn):
        @functools.wraps(fn)  # keeps the signature and the suite's check
        def wrapper(**kwargs):
            raise AssertionError(f"{fn.__name__} ran")
        return wrapper

    monkeypatch.setattr(cli, "SUITES", {name: refuse(fn) for name, fn in cli.SUITES.items()})
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


# the flag a suite does not take was dropped without a word
@pytest.mark.parametrize("argv,message", [
    (["verify", "armendariz", "--max-ground", "3"],
     "suite 'armendariz' takes --max-points, not --max-ground"),
    (["verify", "triangle-point", "--degree", "1"],
     "suite 'triangle-point' takes no flags, not --degree"),
    (["verify", "content", "--max-order", "4", "--max-points", "3"],
     "suite 'content' takes --degree, --max-order, not --max-points"),
])
def test_a_flag_the_suite_does_not_take_is_an_input_error(argv, message, monkeypatch):
    from zdgraph import cli

    def refuse(fn):
        @functools.wraps(fn)  # the signature the flags are read from
        def wrapper(**kwargs):
            raise AssertionError(f"{fn.__name__} ran")
        return wrapper

    monkeypatch.setattr(cli, "SUITES", {name: refuse(fn) for name, fn in cli.SUITES.items()})
    assert run(argv) == (1, f"error: {message}\n")


# argparse rejects a flag no suite takes, before any suite is looked up;
# --seed left when no suite drew anything
@pytest.mark.parametrize("argv", [
    ["verify", "specs", "--seed", "1"],
    ["verify", "triangle-point", "--seed", "1"],
])
def test_a_flag_no_suite_takes_is_rejected_by_the_parser(argv):
    code, err = run(argv)
    assert code == 2 and err.endswith("error: unrecognized arguments: --seed 1\n")
